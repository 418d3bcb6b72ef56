"""Synthetic video substrate for the direction-detector workload.

The paper's direction detector implements the core of a progressive
scan conversion algorithm [paper ref. 6]: interlaced fields are
de-interlaced by interpolating each missing pixel along the local edge
direction detected between the line above and the line below.  The
authors ran the unit inside Phideo on real video; we do not have their
material, so this package synthesises fields with known edge structure
(moving diagonal ramps + noise), drives the detector with them, and —
because ground truth is known — can also score detection quality.

This is the substitution for the paper's video data (the workload the
README's "Architecture" section lists under layer 7) and powers the A5
ablation: the paper claims video correlation is destroyed "immediately
after the absolute differences are taken", so glitch statistics under
real video should resemble the random-input numbers of Section 4.2.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".frames": ("diagonal_edge_field", "moving_sequence", "add_noise"),
    ".scan": ("detector_sites", "site_vectors", "deinterlace_frame"),
})
