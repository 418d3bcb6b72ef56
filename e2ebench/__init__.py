"""End-to-end benchmark of the ``repro`` CLI (see ``run.py``)."""
