"""Random stream discipline and bounded sampling primitives."""

from __future__ import annotations

import math
import re
from statistics import NormalDist

import numpy as np
import pytest

from conftest import (
    RiggedSweepEnv,
    ScalarStream,
    analytic_truncated_mean,
    categorical,
    make_corpus,
    normal,
    scalar_chain,
    scalar_mix64,
    truncated_gaussian,
)
from trustsim.corpus import split_corpus
from trustsim.errors import InvalidBounds, InvalidConfig
from trustsim.fidelity import compare_modes
from trustsim.rl_env import Hyperparams, train_tabular_policy
from trustsim.sampling import (
    _PHI,
    RandomStream,
    _mix64_array,
    categoricals,
    child_keys,
    cumulative_weights,
    first_uniforms,
    gaussian_truncations,
    integers,
    label_bits,
    nth_draws,
    permutation,
    standard_normals,
    truncated_gaussians,
)
from trustsim.user_model import TruncGauss

# edge keys: 0, 1, the largest, and keys where key + PHI wraps past 2**64
EDGE_KEYS = [0, 1, 2**64 - 1, 2**64 - _PHI, 2**64 - _PHI + 1, 2**64 - _PHI + 12345,
             _PHI, 2**63]


class TestRandomStream:
    def test_same_path_replays_identically(self):
        a, b = RandomStream(42, "x"), RandomStream(42, "x")
        draws = np.arange(1, 6)
        assert nth_draws(a.key, draws).tolist() == nth_draws(b.key, draws).tolist()

    def test_a_stream_is_its_key(self):
        assert RandomStream.__slots__ == ("key",)
        assert type(RandomStream(42, "x").key) is int
        assert repr(RandomStream(0)) == "RandomStream(key=0x5a5a17601b3a0865)"

    def test_child_streams_differ_from_parent_and_siblings(self):
        root = RandomStream(42)
        keys = {
            root.key,
            root.child("a").key,
            root.child("b").key,
            root.child("a", "a").key,
        }
        assert len(keys) == 4
        assert first_uniforms(root.child("a").key) != first_uniforms(root.child("b").key)

    def test_child_draws_are_order_insensitive(self):
        # a substream draws the same alone as beside its siblings
        root = RandomStream(7, "dialog")
        together = first_uniforms(child_keys(root.key, label_bits(["requests", "duration"])))
        assert together[1] == first_uniforms(root.child("duration").key)[0]

    def test_numeric_and_string_labels_compose(self):
        s = RandomStream(1, "u3", 7, "score")
        assert s.key == RandomStream(1).child("u3").child(7, "score").key
        # an int label and its decimal string name different children
        assert s.key != RandomStream(1, "u3", "7", "score").key

    def test_child_ignores_draws_on_the_parent(self):
        # a child's key depends on the parent's key and its labels only
        parent = RandomStream(3, "p")
        assert RandomStream._from_key(parent.key).child("c").key == parent.child("c").key

    def test_draws_follow_the_splitmix64_reference(self):
        # published SplitMix64 outputs for state 1234567
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert nth_draws(1234567, np.arange(1, 4)).tolist() == expected
        assert [nth_draws(1234567, k)[0] for k in (1, 2, 3)] == expected

    def test_known_first_draws(self):
        # pins the stream format: changing these values needs a
        # STREAM_FORMAT bump
        s = RandomStream(0)
        assert s.key == 0x5A5A17601B3A0865
        assert first_uniforms(s.key).tolist() == [0.2197059935042739]
        assert integers(nth_draws(s.key, 2), 10).tolist() == [9]

    @pytest.mark.parametrize("seed", [True, False, 1.5, "7", None, np.bool_(True)])
    @pytest.mark.parametrize("entry", ["RandomStream", "split_corpus", "compare_modes",
                                       "train_tabular_policy"])
    def test_a_seed_that_is_no_integer_is_rejected(self, entry, seed):
        """Every seeded entry point meets the one seed check, `errors.integer`:
        a bool is no seed (True would run as seed 1), and a float, text or
        None is an InvalidConfig, not a bare TypeError."""
        corpus = make_corpus(n_users=4)
        calls = {
            "RandomStream": lambda: RandomStream(seed, "x"),
            "split_corpus": lambda: split_corpus(corpus, 0.8, seed),
            "compare_modes": lambda: compare_modes(corpus, seed),
            "train_tabular_policy": lambda: train_tabular_policy(
                RiggedSweepEnv(), 2, Hyperparams(seed=seed)),
        }
        message = f"seed must be an integer, got {re.escape(repr(seed))}"
        with pytest.raises(InvalidConfig, match=message):
            calls[entry]()

    def test_known_permutation(self):
        # the train/test split's shuffle; pins the stream format as above
        assert permutation(RandomStream(1, "split").key, 10) == [2, 0, 7, 1, 3, 6, 8, 5, 4, 9]


def uniforms(rng, n) -> np.ndarray:
    """The next n uniforms of a scalar stream."""
    return np.array([rng.random() for _ in range(n)])


def tg_draws(mean, sd, lo, hi, rng, n) -> np.ndarray:
    """truncated_gaussians on the next n uniforms of a stream."""
    return truncated_gaussians(gaussian_truncations([mean], [sd], lo, hi), uniforms(rng, n))


def cat_draws(weights, rng, n) -> np.ndarray:
    """categoricals on the next n uniforms of a stream."""
    return categoricals(np.array([cumulative_weights(weights)]), uniforms(rng, n))


class TestTruncatedGaussians:
    def test_all_draws_within_bounds(self):
        draws = tg_draws(30, 10, 18, 60, ScalarStream(3, "tg"), 2000)
        assert all(18 <= x <= 60 for x in draws)

    def test_degenerate_sd_returns_clamped_mean(self):
        rng = ScalarStream(0)
        assert tg_draws(3, 0, 1, 5, rng, 1).tolist() == [3.0]
        assert tg_draws(9, 0, 1, 5, rng, 1).tolist() == [5.0]
        assert tg_draws(-2, 0, 1, 5, rng, 1).tolist() == [1.0]

    def test_empirical_mean_matches_analytic_form(self):
        # oracle computed from the closed-form truncated-normal mean
        draws = tg_draws(3, 1, 1, 5, ScalarStream(11, "mean-check"), 100_000)
        assert abs(draws.mean() - analytic_truncated_mean(3, 1, 1, 5)) < 0.02

    def test_asymmetric_truncation_mean(self):
        draws = tg_draws(1.0, 2.0, 2.0, 9.0, ScalarStream(12, "mean-check"), 100_000)
        assert abs(draws.mean() - analytic_truncated_mean(1.0, 2.0, 2.0, 9.0)) < 0.02

    def test_extreme_truncation_uses_inverse_cdf_and_stays_bounded(self):
        # interval ~8 sd away, where a rejection sampler would never land
        for x in tg_draws(0.0, 1.0, 8.0, 9.0, ScalarStream(5), 50):
            assert 8.0 <= x <= 9.0

    def test_invalid_bounds(self):
        # gaussian_truncations is unchecked; a truncated Gaussian's bounds
        # are checked where its parameters enter, so an empty or inverted
        # interval and a negative sd never reach a record
        with pytest.raises(InvalidBounds):
            TruncGauss(0, 1, 5, 5)
        with pytest.raises(InvalidBounds):
            TruncGauss(0, 1, 6, 5)
        with pytest.raises(InvalidBounds):
            TruncGauss(0, -1, 0, 1)


class TestCategoricals:
    def test_degenerate_weight_always_wins(self):
        assert all(cat_draws((0, 1, 0), ScalarStream(1), 100) == 1)

    def test_frequencies_track_weights(self):
        n = 20_000
        counts = np.bincount(cat_draws((0.2, 0.3, 0.5), ScalarStream(2), n), minlength=3)
        assert np.allclose(counts / n, (0.2, 0.3, 0.5), atol=0.02)

    def test_unnormalized_weights_allowed(self):
        counts = np.bincount(cat_draws((3, 1), ScalarStream(3), 10_000), minlength=2)
        assert abs(counts[0] / 10_000 - 0.75) < 0.02

    @pytest.mark.parametrize("weights", [(), (-1, 2), (0, 0.0)])
    def test_invalid_weights(self, weights):
        with pytest.raises(InvalidBounds):
            cumulative_weights(weights)


def test_truncated_gaussian_histogram_matches_analytic_bins():
    """Binned draw frequencies track the renormalized normal mass per bin."""
    mean, sd, lo, hi = 60.0, 45.0, 20.0, 300.0
    n = 100_000
    draws = tg_draws(mean, sd, lo, hi, ScalarStream(77, "hist"), n)
    edges = np.linspace(lo, hi, 21)
    counts, _ = np.histogram(draws, bins=edges)
    dist = NormalDist(mean, sd)
    z = dist.cdf(hi) - dist.cdf(lo)
    expected = np.array([
        (dist.cdf(edges[i + 1]) - dist.cdf(edges[i])) / z for i in range(20)
    ])
    tv = 0.5 * np.abs(counts / n - expected).sum()
    assert tv < 0.01


def test_upper_tail_interval_is_not_quantized():
    """An interval 8-9 sd above the mean is mirrored into the lower tail,
    where the cdf keeps its precision; computed in the upper tail, the cdf
    would leave only a handful of distinct draws."""
    draws = tg_draws(0.0, 1.0, 8.0, 9.0, ScalarStream(13, "upper-tail"), 2000)
    assert len(np.unique(draws)) > 1900
    assert abs(draws.mean() - analytic_truncated_mean(0.0, 1.0, 8.0, 9.0)) < 0.01


@pytest.mark.parametrize("mean,sd,lo,hi", [
    (3.0, 1.0, 1.0, 5.0),
    (1.0, 2.0, 2.0, 9.0),
    (45.0, math.sqrt(125.0), 20.0, 300.0),
    (0.0, 1.0, -9.0, -8.0),
    (0.0, 1.0, 8.0, 9.0),
    (5.0, 0.5, 0.0, 1.0),
])
def test_truncated_mean_oracle_matches_numerical_integral(mean, sd, lo, hi):
    """The closed-form oracle the sampler tests rely on agrees with a
    trapezoid integral of the truncated density, far tails included."""
    x = np.linspace(lo, hi, 200_001)
    density = np.exp(-0.5 * ((x - mean) / sd) ** 2)
    numeric = np.trapezoid(x * density, x) / np.trapezoid(density, x)
    assert analytic_truncated_mean(mean, sd, lo, hi) == pytest.approx(numeric, rel=1e-9)


class TestArrayStreams:
    """The uint64 array path equals the one-stream-at-a-time path."""

    def keys(self):
        return np.array(EDGE_KEYS, dtype=np.uint64)

    def test_mix_matches_scalar(self):
        assert _mix64_array(self.keys()).tolist() == [scalar_mix64(k) for k in EDGE_KEYS]

    def test_scalar_input_mixes_like_an_array(self):
        assert _mix64_array(2**64 - 1).tolist() == [scalar_mix64(2**64 - 1)]

    @pytest.mark.parametrize("label", ["requests", "", "ü", 0, 7, -1, 2**64 - 1, 2**64])
    def test_child_keys_match_chain(self, label):
        got = child_keys(self.keys(), label_bits([label]))
        assert got.tolist() == [scalar_chain(k, (label,)) for k in EDGE_KEYS]

    def test_child_keys_take_one_label_per_key(self):
        labels = ["a", 3, "b", 0, "a", 2**70, "zz", 11]
        got = child_keys(self.keys(), label_bits(labels))
        assert got.tolist() == [scalar_chain(k, (lab,)) for k, lab in zip(EDGE_KEYS, labels)]

    @pytest.mark.parametrize("path", [(), ("a",), (7, "score"), ("u3", -1, 2**70)])
    def test_stream_keys_match_chain(self, path):
        assert RandomStream(42, *path).key == ScalarStream(42, *path).key
        assert RandomStream(42).child(*path).key == ScalarStream(42, *path).key

    def test_first_uniforms_match_child_streams(self):
        root = ScalarStream(42, "replay")
        labels = ["u1", "u2", 5, "requests"]
        got = first_uniforms(child_keys(root.key, label_bits(labels)))
        assert got.tolist() == [root.child(label).random() for label in labels]

    def test_first_uniforms_wrap_like_the_counter(self):
        got = first_uniforms(self.keys())
        assert got.tolist() == [ScalarStream._from_key(k).random() for k in EDGE_KEYS]
        # a scalar key near 2**64 wraps too, without a numpy scalar warning
        assert first_uniforms(2**64 - 1).tolist() == [
            ScalarStream._from_key(2**64 - 1).random()]

    def test_empty_arrays(self):
        assert first_uniforms(child_keys(5, label_bits([]))).shape == (0,)

    def test_nth_draws_follow_the_counter(self):
        streams = [ScalarStream._from_key(k) for k in EDGE_KEYS]
        for k in range(1, 6):
            assert nth_draws(self.keys(), k).tolist() == [s._next64() for s in streams]

    def test_nth_draws_take_an_array_of_draw_numbers(self):
        for key in EDGE_KEYS:
            stream = ScalarStream._from_key(key)
            assert nth_draws(key, np.arange(1, 9)).tolist() == [
                stream._next64() for _ in range(8)]
        # a column of keys against a row of draw numbers
        got = nth_draws(self.keys()[:, None], np.arange(1, 4))
        assert got.T.tolist() == [nth_draws(self.keys(), k).tolist() for k in (1, 2, 3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 2**31, 2**32 - 1])
    def test_integers_match_the_stream(self, n):
        streams = [ScalarStream._from_key(k) for k in EDGE_KEYS]
        expected = [s.integers(n) for s in streams]
        assert integers(nth_draws(self.keys(), 1), n).tolist() == expected
        # the largest draw gives the largest integer
        assert integers(np.array([2**64 - 1], dtype=np.uint64), n).tolist() == [n - 1]

    def test_integers_take_an_array_of_bounds(self):
        bounds = [1, 2, 3, 4, 7, 2**31, 2**32 - 1, 10]
        expected = [ScalarStream._from_key(k).integers(n) for k, n in zip(EDGE_KEYS, bounds)]
        assert integers(nth_draws(self.keys(), 1), np.array(bounds)).tolist() == expected

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**64, 2.5, 3.0, True, np.True_])
    def test_integers_reject_n_out_of_range(self, n):
        with pytest.raises(InvalidBounds):
            integers(nth_draws(self.keys(), 1), n)
        # one bound out of range in an array of bounds
        with pytest.raises(InvalidBounds):
            integers(nth_draws(self.keys(), 1), [5, 3, n, 1, 1, 1, 1, 1])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 308])
    def test_permutation_matches_the_stream(self, n):
        for key in EDGE_KEYS:
            assert permutation(key, n) == ScalarStream._from_key(key).permutation(n)

    def test_standard_normals_match_the_stream(self):
        u = first_uniforms(self.keys())
        assert standard_normals(u).tolist() == [
            normal(ScalarStream._from_key(k), 0.0, 1.0) for k in EDGE_KEYS]


class TestArraySamplers:
    def test_categoricals_match_categorical(self):
        weights = [(0.5, 0.25, 0.125, 0.125), (0.0, 1.0, 0.0, 0.0),
                   (0.0, 0.0, 0.0, 3.0), (1e-320, 0.0, 1e-320, 0.0),
                   # a target that rounds up to the total
                   (0.0, 5e-324, 0.0, 0.0)]
        rows, u, expected = [], [], []
        for i, w in enumerate(weights):
            for j in range(50):
                rng = ScalarStream(i, j)
                u.append(ScalarStream(i, j).random())
                rows.append(cumulative_weights(w))
                expected.append(categorical(w, rng))
        assert categoricals(np.array(rows), np.array(u)).tolist() == expected

    def test_truncated_gaussians_match_truncated_gaussian(self):
        cases = [(45.0, 11.2, 20.0, 300.0), (200.0, 5.0, 10.0, 30.0),
                 (25.0, 0.0, 20.0, 45.0), (80.0, 0.0, 20.0, 45.0),
                 (-8.5, 0.25, -9.0, -8.0), (1e300, 1e-300, 0.0, 1.0)]
        truncations = gaussian_truncations(*np.repeat(cases, 40, axis=0).T)
        u, expected = [], []
        for i, (mean, sd, a, b) in enumerate(cases):
            for j in range(40):
                u.append(ScalarStream(i, j).random())
                expected.append(truncated_gaussian(mean, sd, a, b, ScalarStream(i, j)))
        assert truncated_gaussians(truncations, np.array(u)).tolist() == expected

    def test_an_indexed_draw_equals_the_draw_on_the_gathered_records(self):
        cases = [(45.0, 11.2, 20.0, 300.0), (200.0, 5.0, 10.0, 30.0),
                 (25.0, 0.0, 20.0, 45.0), (-8.5, 0.25, -9.0, -8.0)]
        # the records as columns of a wider array, as in a table's rows
        rows = np.zeros((len(cases), 9))
        rows[:, 2:8] = gaussian_truncations(*np.array(cases).T)
        index = np.array([3, 0, 0, 2, 1, 3, 2, 2, 0, 1] * 30)
        u = np.array([ScalarStream(7, j).random() for j in range(len(index))])
        expected = truncated_gaussians(rows[index, 2:8], u)
        assert (truncated_gaussians(rows[:, 2:8], u, index).tobytes()
                == expected.tobytes())
