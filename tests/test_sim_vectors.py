"""Unit tests for stimulus generation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.netlist.circuit import Circuit
from repro.sim.vectors import (
    BurstMarkovStimulus,
    CorrelatedStimulus,
    STIMULI,
    UniformStimulus,
    WordStimulus,
    correlated_words,
    gray_sequence,
    make_stimulus,
    random_words,
    stimulus_from_dict,
    walking_ones,
)


class TestGenerators:
    def test_random_words_range(self):
        words = random_words(random.Random(1), 6, 500)
        assert len(words) == 500
        assert all(0 <= w < 64 for w in words)

    def test_random_words_cover_space(self):
        words = random_words(random.Random(1), 3, 400)
        assert set(words) == set(range(8))

    def test_correlated_words_flip_rate(self):
        words = correlated_words(random.Random(5), 16, 4000, 0.1)
        flips = sum(
            bin(a ^ b).count("1") for a, b in zip(words, words[1:])
        )
        rate = flips / (16 * (len(words) - 1))
        assert 0.08 < rate < 0.12

    def test_correlated_extremes(self):
        frozen = correlated_words(random.Random(2), 8, 50, 0.0)
        assert len(set(frozen)) == 1  # never flips
        toggling = correlated_words(random.Random(2), 8, 50, 1.0)
        for a, b in zip(toggling, toggling[1:]):
            assert a ^ b == 0xFF  # every bit flips every word
        with pytest.raises(ValueError):
            correlated_words(random.Random(2), 8, 5, 1.5)

    def test_correlated_half_probability_is_uniformish(self):
        words = correlated_words(random.Random(9), 12, 4000, 0.5)
        flips = sum(
            bin(a ^ b).count("1") for a, b in zip(words, words[1:])
        )
        rate = flips / (12 * (len(words) - 1))
        assert 0.48 < rate < 0.52

    def test_correlated_seed_stable(self):
        a = correlated_words(random.Random(77), 16, 100, 0.1)
        b = correlated_words(random.Random(77), 16, 100, 0.1)
        assert a == b

    def test_walking_ones(self):
        assert walking_ones(4) == [1, 2, 4, 8]

    def test_gray_sequence_single_bit_flips(self):
        seq = gray_sequence(4)
        assert len(seq) == 16
        for a, b in zip(seq, seq[1:]):
            assert bin(a ^ b).count("1") == 1
        assert len(set(seq)) == 16


class TestWordStimulus:
    @pytest.fixture
    def stim(self):
        c = Circuit("t")
        a = c.add_input_word("a", 4)
        b = c.add_input_word("b", 3)
        return WordStimulus({"a": a, "b": b}), a, b

    def test_vector_maps_bits(self, stim):
        s, a, b = stim
        vec = s.vector(a=0b1010, b=0b011)
        assert [vec[n] for n in a] == [0, 1, 0, 1]
        assert [vec[n] for n in b] == [1, 1, 0]

    def test_vector_unknown_word(self, stim):
        s, _, _ = stim
        with pytest.raises(ValueError, match="unknown words"):
            s.vector(c=1)

    def test_vector_out_of_range(self, stim):
        s, _, _ = stim
        with pytest.raises(ValueError, match="out of range"):
            s.vector(a=16)

    def test_random_covers_all_words(self, stim):
        s, a, b = stim
        vectors = list(s.random(random.Random(0), 10))
        assert len(vectors) == 10
        for vec in vectors:
            assert set(vec) == set(a) | set(b)

    def test_correlated_stream_length(self, stim):
        s, _, _ = stim
        assert len(list(s.correlated(random.Random(0), 7))) == 7

    def test_exhaustive_enumerates_everything(self, stim):
        s, a, b = stim
        seen = set()
        for vec in s.exhaustive():
            av = sum(vec[n] << i for i, n in enumerate(a))
            bv = sum(vec[n] << i for i, n in enumerate(b))
            seen.add((av, bv))
        assert len(seen) == 16 * 8

    def test_exhaustive_size_guard(self):
        c = Circuit("t")
        w = c.add_input_word("w", 30)
        s = WordStimulus({"w": w})
        with pytest.raises(ValueError, match="too large"):
            list(s.exhaustive())

    def test_empty_words_rejected(self):
        with pytest.raises(ValueError):
            WordStimulus({})


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**20))
def test_random_words_determinism_property(width, seed):
    """Same seed -> same stream (reproducible experiments)."""
    a = random_words(random.Random(seed), width, 20)
    b = random_words(random.Random(seed), width, 20)
    assert a == b


class TestStimulusSpecs:
    @pytest.fixture
    def stim(self):
        c = Circuit("t")
        a = c.add_input_word("a", 5)
        b = c.add_input_word("b", 3)
        return WordStimulus({"a": a, "b": b})

    @pytest.mark.parametrize("kind", sorted(STIMULI))
    def test_seed_stable_reproduction(self, stim, kind):
        """Two calls with an equal spec yield bit-identical streams."""
        spec = make_stimulus(kind, seed=42)
        assert list(spec.vectors(stim, 40)) == list(spec.vectors(stim, 40))

    @pytest.mark.parametrize("kind", sorted(STIMULI))
    def test_roundtrip_through_dict(self, kind):
        spec = make_stimulus(kind, seed=7)
        clone = stimulus_from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_uniform_matches_word_stimulus_random(self, stim):
        """The paper's historical streams replay unchanged."""
        spec = UniformStimulus(seed=1995)
        assert list(spec.vectors(stim, 25)) == list(
            stim.random(random.Random(1995), 25)
        )

    def test_correlated_matches_word_stimulus_correlated(self, stim):
        spec = CorrelatedStimulus(seed=3, flip_probability=0.2)
        assert list(spec.vectors(stim, 25)) == list(
            stim.correlated(random.Random(3), 25, 0.2)
        )

    def test_fingerprint_separates_kinds_seeds_params(self):
        fps = {
            UniformStimulus(seed=1).fingerprint(),
            UniformStimulus(seed=2).fingerprint(),
            CorrelatedStimulus(seed=1).fingerprint(),
            CorrelatedStimulus(seed=1, flip_probability=0.3).fingerprint(),
            BurstMarkovStimulus(seed=1).fingerprint(),
        }
        assert len(fps) == 5

    def test_fingerprint_binds_word_layout(self):
        spec = UniformStimulus(seed=1)
        layout_a = (("a", ("a[0]", "a[1]")),)
        layout_b = (("b", ("b[0]", "b[1]")),)
        assert spec.fingerprint(layout_a) != spec.fingerprint(layout_b)
        assert spec.fingerprint(layout_a) == spec.fingerprint(layout_a)

    def test_burst_markov_alternates_hold_and_redraw(self, stim):
        spec = BurstMarkovStimulus(seed=11, p_burst=0.3, p_end=0.3)
        vecs = list(spec.vectors(stim, 300))
        a_nets = stim.words["a"]
        values = [
            sum(v[n] << i for i, n in enumerate(a_nets)) for v in vecs
        ]
        holds = sum(1 for x, y in zip(values, values[1:]) if x == y)
        # Both regimes must actually occur.
        assert 0 < holds < len(values) - 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CorrelatedStimulus(flip_probability=1.5)
        with pytest.raises(ValueError):
            BurstMarkovStimulus(p_burst=-0.1)
        with pytest.raises(ValueError, match="unknown stimulus kind"):
            make_stimulus("fractal")
        with pytest.raises(ValueError, match="lacks a 'kind'"):
            stimulus_from_dict({"seed": 1})

    def test_equal_probabilities_share_one_fingerprint(self):
        """``0``, ``0.0`` and ``-0.0`` draw one stream: one store key."""
        correlated = [
            make_stimulus("correlated", seed=1, flip_probability=p)
            for p in (0.0, -0.0, 0)
        ]
        assert len({s.fingerprint() for s in correlated}) == 1
        assert {s.describe() for s in correlated} == {
            "correlated(flip_probability=0.0, seed=1)"
        }
        burst = [
            make_stimulus("burst", seed=1, p_burst=a, p_end=b)
            for a, b in ((0, 1), (0.0, 1.0), (-0.0, 1))
        ]
        assert len({s.fingerprint() for s in burst}) == 1
        # Float parameters keep their value, so stored keys still hit.
        spec = CorrelatedStimulus(seed=1, flip_probability=0.1)
        assert spec.to_dict()["flip_probability"] == 0.1

    def test_specs_are_hashable(self):
        assert len({UniformStimulus(seed=1), UniformStimulus(seed=1)}) == 1
