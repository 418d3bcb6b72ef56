"""The circuit catalog: validating a name and building it read one table."""

import pytest

from repro.circuits.catalog import build_named_circuit, validate_name


@pytest.mark.parametrize("name, known", [
    ("rca16", True), ("array8", True), ("wallace8", True), ("detector", True),
    ("rca0", False), ("rca65", False), ("arrayx", False), ("foo", False),
])
def test_validate_name_agrees_with_build(name, known):
    """``validate_name`` accepts or rejects a name exactly as
    ``build_named_circuit`` does, with the same message (a farm build is
    too slow to check here)."""
    try:
        build_named_circuit(name)
    except ValueError as exc:
        assert not known
        with pytest.raises(ValueError) as rejected:
            validate_name(name)
        assert str(rejected.value) == str(exc)
    else:
        assert known
        assert validate_name(name) == name
