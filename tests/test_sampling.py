"""Random stream discipline and bounded sampling primitives."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from conftest import analytic_truncated_mean
from trustsim.errors import InvalidBounds
from trustsim.sampling import (
    RandomStream,
    categorical,
    truncated_gaussian,
)


class TestRandomStream:
    def test_same_path_replays_identically(self):
        a, b = RandomStream(42, "x"), RandomStream(42, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_child_streams_differ_from_parent_and_siblings(self):
        root = RandomStream(42)
        keys = {
            root.key,
            root.child("a").key,
            root.child("b").key,
            root.child("a", "a").key,
        }
        assert len(keys) == 4
        assert root.child("a").random() != root.child("b").random()

    def test_child_draws_are_order_insensitive(self):
        # drawing from one substream must not shift a sibling
        root1 = RandomStream(7, "dialog")
        _ = root1.child("requests").random()
        dur1 = root1.child("duration").random()

        root2 = RandomStream(7, "dialog")
        dur2 = root2.child("duration").random()
        assert dur1 == dur2

    def test_numeric_and_string_labels_compose(self):
        s = RandomStream(1, "u3", 7, "score")
        assert s.key == RandomStream(1).child("u3").child(7, "score").key
        # an int label and its decimal string name different children
        assert s.key != RandomStream(1, "u3", "7", "score").key

    def test_child_ignores_draws_on_the_parent(self):
        parent = RandomStream(3, "p")
        before = parent.child("c").key
        parent.random()
        assert parent.child("c").key == before

    def test_draws_follow_the_splitmix64_reference(self):
        # published SplitMix64 outputs for state 1234567
        s = RandomStream._from_key(1234567)
        assert [s._next64() for _ in range(3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_known_first_draws(self):
        # pins the stream format: changing these values needs a
        # STREAM_FORMAT bump
        s = RandomStream(0)
        assert s.key == 0x5A5A17601B3A0865
        assert [s.random(), s.integers(10)] == [0.2197059935042739, 9]


class TestTruncatedGaussian:
    def test_all_draws_within_bounds(self):
        rng = RandomStream(3, "tg")
        draws = [truncated_gaussian(30, 10, 18, 60, rng) for _ in range(2000)]
        assert all(18 <= x <= 60 for x in draws)

    def test_degenerate_sd_returns_clamped_mean(self):
        rng = RandomStream(0)
        assert truncated_gaussian(3, 0, 1, 5, rng) == 3.0
        assert truncated_gaussian(9, 0, 1, 5, rng) == 5.0
        assert truncated_gaussian(-2, 0, 1, 5, rng) == 1.0

    def test_empirical_mean_matches_analytic_form(self):
        # oracle computed from the closed-form truncated-normal mean
        rng = RandomStream(11, "mean-check")
        draws = np.array([truncated_gaussian(3, 1, 1, 5, rng) for _ in range(100_000)])
        assert abs(draws.mean() - analytic_truncated_mean(3, 1, 1, 5)) < 0.02

    def test_asymmetric_truncation_mean(self):
        rng = RandomStream(12, "mean-check")
        draws = np.array([truncated_gaussian(1.0, 2.0, 2.0, 9.0, rng)
                          for _ in range(100_000)])
        assert abs(draws.mean() - analytic_truncated_mean(1.0, 2.0, 2.0, 9.0)) < 0.02

    def test_extreme_truncation_uses_inverse_cdf_and_stays_bounded(self):
        # interval ~8 sd away, where a rejection sampler would never land
        rng = RandomStream(5)
        for _ in range(50):
            x = truncated_gaussian(0.0, 1.0, 8.0, 9.0, rng)
            assert 8.0 <= x <= 9.0

    def test_invalid_bounds(self):
        rng = RandomStream(0)
        with pytest.raises(InvalidBounds):
            truncated_gaussian(0, 1, 5, 5, rng)
        with pytest.raises(InvalidBounds):
            truncated_gaussian(0, 1, 6, 5, rng)
        with pytest.raises(InvalidBounds):
            truncated_gaussian(0, -1, 0, 1, rng)


class TestCategorical:
    def test_degenerate_weight_always_wins(self):
        rng = RandomStream(1)
        assert all(categorical((0, 1, 0), rng) == 1 for _ in range(100))

    def test_frequencies_track_weights(self):
        rng = RandomStream(2)
        counts = np.zeros(3)
        n = 20_000
        for _ in range(n):
            counts[categorical((0.2, 0.3, 0.5), rng)] += 1
        assert np.allclose(counts / n, (0.2, 0.3, 0.5), atol=0.02)

    def test_unnormalized_weights_allowed(self):
        rng = RandomStream(3)
        counts = np.zeros(2)
        for _ in range(10_000):
            counts[categorical((3, 1), rng)] += 1
        assert abs(counts[0] / 10_000 - 0.75) < 0.02

    @pytest.mark.parametrize("weights", [(), (-1, 2), (0, 0.0)])
    def test_invalid_weights(self, weights):
        with pytest.raises(InvalidBounds):
            categorical(weights, RandomStream(0))


def test_truncated_gaussian_histogram_matches_analytic_bins():
    """Binned draw frequencies track the renormalized normal mass per bin."""
    mean, sd, lo, hi = 60.0, 45.0, 20.0, 300.0
    rng = RandomStream(77, "hist")
    n = 100_000
    draws = np.array([truncated_gaussian(mean, sd, lo, hi, rng) for _ in range(n)])
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
    rng = RandomStream(13, "upper-tail")
    draws = np.array([truncated_gaussian(0.0, 1.0, 8.0, 9.0, rng) for _ in range(2000)])
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
