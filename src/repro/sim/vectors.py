"""Stimulus generation: random, correlated, and structured vector streams.

The paper argues (Section 3.2) that arithmetic units in multiplexed /
source-coded datapaths see essentially *random* inputs, and all its
experiments use uniform random stimuli.  :func:`random_words` provides
that; :func:`correlated_words` provides a lag-one correlated stream for
the ablation that checks how much the random-input assumption matters.

For the service layer (:mod:`repro.service`) streams must be
*declarative*: a :class:`StimulusSpec` is a frozen, hashable
description (kind + seed + parameters) that reproduces exactly the
same vector stream on every call — which is what lets a cached
analysis result stand in for recomputation bit for bit.  The registry
(:data:`STIMULI` / :func:`make_stimulus`) covers the uniform random
regime of the paper's experiments, the lag-one correlated ablation,
and a two-state burst-Markov stream modelling idle/active traffic.

Every generator returns a :class:`WordStream`: the drawn word values,
not one ``{net: bit}`` dict per cycle.  The batch engines turn whole
batches of it into input bit lanes
(:func:`repro.sim.backends.input_lanes`); iterating it yields the
per-cycle dicts for everything else.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Iterable, Iterator, List, Sequence, Tuple


def random_words(
    rng: random.Random, width: int, count: int
) -> List[int]:
    """*count* independent uniform integers in ``[0, 2**width)``."""
    top = (1 << width) - 1
    return [rng.randint(0, top) for _ in range(count)]


#: Dyadic resolution of the vectorized Bernoulli flip masks: per-bit
#: flip probabilities are quantized to multiples of 2**-16.
_FLIP_BITS = 16


def _bernoulli_mask(rng: random.Random, width: int, threshold: int) -> int:
    """A *width*-bit mask with each bit set with probability T/2^16.

    Bit-sliced uniform comparison: bit *b* of the *j*-th
    ``getrandbits`` draw is digit *j* of an independent 16-bit uniform
    number for lane *b*; the classical MSB-first comparison circuit
    (``lt``/``eq`` running masks) computes ``uniform < threshold`` for
    all lanes at once.  ``eq`` halves every round, so the loop draws
    ~2 masks on average instead of *width* per-bit ``rng.random()``
    calls.
    """
    full = (1 << width) - 1
    if threshold <= 0:
        return 0
    if threshold >= 1 << _FLIP_BITS:
        return full
    lt = 0
    eq = full
    for j in range(_FLIP_BITS - 1, -1, -1):
        r = rng.getrandbits(width)
        if (threshold >> j) & 1:
            lt |= eq & ~r
            eq &= r
        else:
            eq &= ~r
        if not eq:
            break
    return lt


def correlated_words(
    rng: random.Random, width: int, count: int, flip_probability: float = 0.1
) -> List[int]:
    """A lag-one correlated bit stream.

    Each bit of each word independently flips from its previous value
    with probability *flip_probability* (quantized to a multiple of
    2**-16); 0.5 degenerates to the uniform random stream, small
    values model slowly-varying (e.g. video) signals before
    multiplexing destroys their correlation.

    The per-bit Bernoulli draws are vectorized into whole-word mask
    operations (see :func:`_bernoulli_mask`), so cost per word is a
    couple of ``getrandbits`` calls regardless of width.
    """
    if not 0.0 <= flip_probability <= 1.0:
        raise ValueError("flip_probability must be within [0, 1]")
    if width <= 0:
        return [0] * count
    threshold = round(flip_probability * (1 << _FLIP_BITS))
    words: List[int] = []
    current = rng.randint(0, (1 << width) - 1)
    for _ in range(count):
        current ^= _bernoulli_mask(rng, width, threshold)
        words.append(current)
    return words


def walking_ones(width: int) -> List[int]:
    """``[1, 2, 4, ...]`` — a deterministic pattern used in unit tests."""
    return [1 << i for i in range(width)]


def gray_sequence(width: int, count: int | None = None) -> List[int]:
    """The binary-reflected Gray code sequence (one bit flips per step)."""
    n = count if count is not None else (1 << width)
    return [(i ^ (i >> 1)) & ((1 << width) - 1) for i in range(n)]


def _word_bits(words: Iterable[Tuple[Sequence[int], int]]) -> Dict[int, int]:
    """``{net: bit}`` for ``(nets, value)`` pairs, nets LSB first."""
    bits: Dict[int, int] = {}
    for nets, value in words:
        for i, net in enumerate(nets):
            bits[net] = (value >> i) & 1
    return bits


class WordStream:
    """A replayable stream of word values: what every generator returns.

    ``values[i][k]`` is word *i*'s value in cycle *k*, and
    ``words[i]`` its nets, LSB first.  Iterating yields one
    ``{net: bit}`` dict per cycle — exactly what
    :meth:`WordStimulus.vector` builds from those values — so the event
    engine, sharding and every caller that iterates see the same
    vectors; the batch engines read :attr:`values` directly.  ``len``
    counts cycles, an index yields one cycle's dict and a slice the
    stream of those cycles.  Values must lie within their word's width
    (the generators draw them so).
    """

    __slots__ = ("words", "values")

    def __init__(
        self, words: Sequence[Sequence[int]], values: Sequence[Sequence[int]]
    ) -> None:
        self.words = words
        self.values = values

    def __len__(self) -> int:
        return len(self.values[0]) if self.values else 0

    def _bits(self, cycle: Sequence[int]) -> Dict[int, int]:
        return _word_bits(zip(self.words, cycle))

    def __iter__(self) -> Iterator[Dict[int, int]]:
        return map(self._bits, zip(*self.values))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return WordStream(self.words, [col[index] for col in self.values])
        return self._bits([col[index] for col in self.values])


class WordStimulus:
    """Maps named input words of a circuit onto per-net bit vectors.

    Example::

        stim = WordStimulus({"a": a_nets, "b": b_nets})
        vec = stim.vector(a=12, b=5)          # {net: bit}
        for vec in stim.random(rng, 100):     # 100 random vectors
            sim.step(vec)
    """

    def __init__(self, words: Dict[str, Sequence[int]]):
        if not words:
            raise ValueError("need at least one word")
        self.words = {name: list(nets) for name, nets in words.items()}

    def vector(self, **values: int) -> Dict[int, int]:
        """Build a per-net input vector from keyword word values."""
        unknown = set(values) - set(self.words)
        if unknown:
            raise ValueError(f"unknown words: {sorted(unknown)}")
        for name, value in values.items():
            nets = self.words[name]
            if value < 0 or value >= (1 << len(nets)):
                raise ValueError(
                    f"value {value} out of range for {len(nets)}-bit word {name!r}"
                )
        return _word_bits(
            (self.words[name], value) for name, value in values.items()
        )

    def stream(self, values: Sequence[Sequence[int]]) -> WordStream:
        """A :class:`WordStream` of per-word value columns (word order)."""
        return WordStream(list(self.words.values()), values)

    def random(self, rng: random.Random, count: int) -> WordStream:
        """*count* uniform random vectors covering all words.

        One ``randint`` per word per cycle, cycle-major: the draw order
        every uniform stream has always had.
        """
        randint = rng.randint
        tops = [(1 << len(nets)) - 1 for nets in self.words.values()]
        draws = [randint(0, top) for _ in range(count) for top in tops]
        n = len(tops)
        return self.stream([draws[i::n] for i in range(n)])

    def correlated(
        self,
        rng: random.Random,
        count: int,
        flip_probability: float = 0.1,
    ) -> WordStream:
        """*count* lag-one correlated vectors (see
        :func:`correlated_words`), drawn word by word."""
        return self.stream([
            correlated_words(rng, len(nets), count, flip_probability)
            for nets in self.words.values()
        ])

    def exhaustive(self) -> Iterator[Dict[int, int]]:
        """Yield every combination of word values (small widths only)."""
        names = sorted(self.words)
        widths = [len(self.words[n]) for n in names]
        total_bits = sum(widths)
        if total_bits > 22:
            raise ValueError(
                f"exhaustive stimulus over {total_bits} bits is too large"
            )
        for combo in range(1 << total_bits):
            values = {}
            shift = 0
            for name, w in zip(names, widths):
                values[name] = (combo >> shift) & ((1 << w) - 1)
                shift += w
            yield self.vector(**values)


# ---------------------------------------------------------------------------
# Declarative stimulus specs
# ---------------------------------------------------------------------------

def _canonical_probability(spec: "StimulusSpec", name: str) -> None:
    """Check probability field *name* and store it as a float.

    ``0``, ``0.0`` and ``-0.0`` draw one stream, so they must give one
    fingerprint: adding ``0.0`` maps ``-0.0`` to ``0.0`` and leaves
    every other float as it was.
    """
    p = getattr(spec, name)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be within [0, 1]")
    object.__setattr__(spec, name, float(p) + 0.0)


@dataclass(frozen=True)
class StimulusSpec:
    """A frozen, hashable description of an input stream.

    A spec carries everything needed to reproduce the stream exactly
    — kind, seed and distribution parameters — but not the circuit:
    :meth:`vectors` binds it to a :class:`WordStimulus` at run time.
    Two calls with equal specs and equal word structure yield
    bit-identical streams, which is the property the service layer's
    exact result cache rests on.

    Subclasses set :attr:`kind` and implement :meth:`vectors`;
    register them in :data:`STIMULI` to make them reachable from
    :func:`make_stimulus` and the CLI.
    """

    seed: int = 1995

    #: Registry key; stable across releases (part of fingerprints).
    kind: ClassVar[str] = "base"

    def vectors(self, stim: WordStimulus, count: int) -> WordStream:
        """The *count*-cycle stream over *stim*'s words."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical form: ``{"kind": ..., **params}``."""
        return {"kind": self.kind, **asdict(self)}

    def fingerprint(self, layout: Tuple | None = None) -> str:
        """Stable content hash of this spec (plus optional word layout).

        *layout* is the word structure the stream will be bound to —
        ``((word_name, (net_name, ...)), ...)`` — which the service
        includes because the same spec drives different streams over
        different word shapes.  Without it the hash identifies the
        spec alone.
        """
        from repro.netlist.compiled import content_digest

        return content_digest(
            ("stimulus-v1", tuple(sorted(self.to_dict().items())), layout)
        )

    def describe(self) -> str:
        params = ", ".join(
            f"{k}={v}" for k, v in sorted(asdict(self).items())
        )
        return f"{self.kind}({params})"


@dataclass(frozen=True)
class UniformStimulus(StimulusSpec):
    """Independent uniform random words — the paper's input regime.

    Reproduces :meth:`WordStimulus.random` exactly (same RNG call
    sequence), so experiments that historically drew from
    ``stim.random(random.Random(seed), n)`` hash and replay their
    streams unchanged.
    """

    kind: ClassVar[str] = "uniform"

    def vectors(self, stim: WordStimulus, count: int) -> WordStream:
        return stim.random(random.Random(self.seed), count)


@dataclass(frozen=True)
class CorrelatedStimulus(StimulusSpec):
    """Lag-one correlated words (see :func:`correlated_words`)."""

    flip_probability: float = 0.1

    kind: ClassVar[str] = "correlated"

    def __post_init__(self) -> None:
        _canonical_probability(self, "flip_probability")

    def vectors(self, stim: WordStimulus, count: int) -> WordStream:
        return stim.correlated(
            random.Random(self.seed), count, self.flip_probability
        )


@dataclass(frozen=True)
class BurstMarkovStimulus(StimulusSpec):
    """Two-state burst-Markov words: idle (held value) vs burst (redraw).

    Each word runs an independent two-state Markov chain: in the idle
    state it holds its current value and enters a burst with
    probability *p_burst* per cycle; in the burst state it redraws
    uniformly every cycle and returns to idle with probability
    *p_end*.  Models datapaths that alternate between idle traffic and
    dense activity — a regime between the correlated and uniform
    streams.
    """

    p_burst: float = 0.05
    p_end: float = 0.25

    kind: ClassVar[str] = "burst"

    def __post_init__(self) -> None:
        _canonical_probability(self, "p_burst")
        _canonical_probability(self, "p_end")

    def vectors(self, stim: WordStimulus, count: int) -> WordStream:
        rng = random.Random(self.seed)
        tops = [(1 << len(nets)) - 1 for nets in stim.words.values()]
        value = [rng.randint(0, top) for top in tops]
        bursting = [False] * len(tops)
        columns: List[List[int]] = [[] for _ in tops]
        for _ in range(count):
            for i, top in enumerate(tops):
                if bursting[i]:
                    value[i] = rng.randint(0, top)
                    if rng.random() < self.p_end:
                        bursting[i] = False
                elif rng.random() < self.p_burst:
                    bursting[i] = True
                columns[i].append(value[i])
        return stim.stream(columns)


#: Registered stimulus kinds, by :attr:`StimulusSpec.kind`.
STIMULI: Dict[str, type] = {
    UniformStimulus.kind: UniformStimulus,
    CorrelatedStimulus.kind: CorrelatedStimulus,
    BurstMarkovStimulus.kind: BurstMarkovStimulus,
}


def make_stimulus(kind: str, **params: Any) -> StimulusSpec:
    """Construct a registered :class:`StimulusSpec` by kind name."""
    cls = STIMULI.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown stimulus kind {kind!r}; "
            f"choose from {sorted(STIMULI)}"
        )
    return cls(**params)


def stimulus_from_dict(doc: Dict[str, Any]) -> StimulusSpec:
    """Rebuild a spec from its :meth:`StimulusSpec.to_dict` form."""
    doc = dict(doc)
    kind = doc.pop("kind", None)
    if kind is None:
        raise ValueError("stimulus document lacks a 'kind' field")
    return make_stimulus(kind, **doc)
