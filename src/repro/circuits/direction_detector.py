"""The Phideo direction detector (paper Section 4.2, Figure 8).

The unit implements the core of a progressive-scan conversion
algorithm [paper ref. 6]: given three pixels ``a[0..2]`` from the video
line above and three pixels ``b[0..2]`` from the line below an
interpolation site, it measures luminance differences along three
candidate interpolation directions

* left  diagonal: ``|a[0] - b[2]|``
* vertical:       ``|a[1] - b[1]|``
* right diagonal: ``|a[2] - b[0]|``

selects the direction of minimum difference, and falls back to the
default (vertical, "along a[1], b[1]") when the detection is not
trustworthy — here, when the spread ``max - min`` does not exceed a
threshold.  Outputs mirror Figure 8: the 2-bit ``direction`` code, the
``min`` and ``max`` difference words, and the ``is_min`` / ``is_max``
flags that tell whether the default direction attains the extreme.

The paper's exact netlist is proprietary; this reconstruction follows
the figure's block structure with era-typical ripple arithmetic (the
README's "Architecture" section, layer 1, lists it with the other
circuit builders).  What the experiment needs from it — a
realistic video datapath whose cascaded ripple units produce a large
useless/useful ratio — is structural, not numerical.

Direction codes: 0 = left diagonal, 1 = vertical (default),
2 = right diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.circuits.comparators import (
    abs_diff,
    equality,
    greater_than,
    maximum,
    min_max,
    minimum,
    mux_word,
)
from repro.circuits.primitives import constant_word


@dataclass
class DirectionDetectorPorts:
    """Net-index handles of a built direction detector."""

    a: List[List[int]]  # three pixel words, line above
    b: List[List[int]]  # three pixel words, line below
    direction: List[int]  # 2-bit direction code
    min_diff: List[int]
    max_diff: List[int]
    is_min: int
    is_max: int
    # internal words, exposed for activity profiling:
    d_left: List[int]
    d_mid: List[int]
    d_right: List[int]


def build_direction_detector(
    width: int = 8,
    threshold: int = 16,
    register_inputs: bool = False,
    name: str = "direction_detector",
) -> tuple[Circuit, DirectionDetectorPorts]:
    """Build the detector; returns ``(circuit, ports)``.

    *width* is the pixel bit width (8 for video), *threshold* the
    constant the difference spread is compared against.  With
    *register_inputs* every input bit passes through a DFF first —
    6 words x *width* flipflops (48 at width 8, matching the paper's
    circuit 1 flipflop count exactly).
    """
    if width < 2:
        raise ValueError("pixel width must be at least 2 bits")
    if not 0 <= threshold < (1 << width):
        raise ValueError("threshold must fit in the pixel width")
    circuit = Circuit(name)
    a_in = [circuit.add_input_word(f"a{k}", width) for k in range(3)]
    b_in = [circuit.add_input_word(f"b{k}", width) for k in range(3)]
    if register_inputs:
        a = [circuit.add_dff_word(w, name=f"ra{k}") for k, w in enumerate(a_in)]
        b = [circuit.add_dff_word(w, name=f"rb{k}") for k, w in enumerate(b_in)]
    else:
        a, b = a_in, b_in

    # Directional absolute differences (the three grouped |a-b| blocks
    # of Figure 8; the default path has its own, fourth, block).
    d_left = abs_diff(circuit, a[0], b[2], prefix="dl")
    d_mid = abs_diff(circuit, a[1], b[1], prefix="dm")
    d_right = abs_diff(circuit, a[2], b[0], prefix="dr")
    d_default = abs_diff(circuit, a[1], b[1], prefix="dd")

    # find min/max over the three candidates (three '>' comparators).
    lo01, hi01, left_gt_mid = min_max(circuit, d_left, d_mid, prefix="mm0")
    min_diff, lo_gt_right = minimum(circuit, lo01, d_right, prefix="mmlo")
    max_diff, _hi_cmp = maximum(circuit, hi01, d_right, prefix="mmhi")

    # Detected direction code from the comparator outcomes:
    #   lo_gt_right == 1        -> right diagonal wins (code 2)
    #   else left_gt_mid == 1   -> vertical wins       (code 1)
    #   else                    -> left diagonal       (code 0)
    not_right = circuit.gate(CellKind.NOT, lo_gt_right, name="dir_nr")
    code0 = circuit.gate(
        CellKind.AND, not_right, left_gt_mid, name="dir_code0"
    )  # bit 0 set only for vertical
    code1 = lo_gt_right  # bit 1 set only for right diagonal
    detected = [code0, code1]

    # Reliability test: use the detected direction only when the spread
    # max - min clearly exceeds the threshold ('>' block of Figure 8).
    spread = abs_diff(circuit, max_diff, min_diff, prefix="spread")
    thr = constant_word(circuit, threshold, width, prefix="thr")
    use_detected = greater_than(circuit, spread, thr, prefix="use")

    default_code = constant_word(circuit, 1, 2, prefix="defdir")
    direction = mux_word(
        circuit, use_detected, default_code, detected, prefix="dirsel"
    )

    is_min = equality(circuit, d_default, min_diff, prefix="ismin")
    is_max = equality(circuit, d_default, max_diff, prefix="ismax")

    circuit.mark_output_word(direction, "direction")
    circuit.mark_output_word(min_diff, "min")
    circuit.mark_output_word(max_diff, "max")
    circuit.mark_output(is_min, "is_min")
    circuit.mark_output(is_max, "is_max")

    ports = DirectionDetectorPorts(
        a=a_in,
        b=b_in,
        direction=direction,
        min_diff=min_diff,
        max_diff=max_diff,
        is_min=is_min,
        is_max=is_max,
        d_left=d_left,
        d_mid=d_mid,
        d_right=d_right,
    )
    return circuit, ports


def reference_direction_detector(
    a: List[int], b: List[int], width: int = 8, threshold: int = 16
) -> dict:
    """Pure-Python golden model of the detector (for functional tests)."""
    mask = (1 << width) - 1
    d_left = abs((a[0] & mask) - (b[2] & mask))
    d_mid = abs((a[1] & mask) - (b[1] & mask))
    d_right = abs((a[2] & mask) - (b[0] & mask))
    # Mirror the gate-level comparator decisions exactly (strict '>').
    lo01 = d_mid if d_left > d_mid else d_left
    hi01 = d_left if d_left > d_mid else d_mid
    min_diff = d_right if lo01 > d_right else lo01
    max_diff = hi01 if hi01 > d_right else d_right
    if lo01 > d_right:
        detected = 2
    elif d_left > d_mid:
        detected = 1
    else:
        detected = 0
    spread = max_diff - min_diff
    direction = detected if spread > threshold else 1
    return {
        "direction": direction,
        "min": min_diff,
        "max": max_diff,
        "is_min": int(d_mid == min_diff),
        "is_max": int(d_mid == max_diff),
    }
