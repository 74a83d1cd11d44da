"""Hypothesis property tests of the sampling primitives.

Kept apart from test_sampling.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from trustsim.sampling import (
    RandomStream,
    _chain,
    _mix64,
    _mix64_array,
    categorical,
    child_keys,
    first_uniforms,
    gaussian_truncation,
    label_bits,
    truncated_gaussian,
    truncated_gaussians,
)

labels = st.lists(st.one_of(st.text(max_size=8), st.integers(-2**70, 2**70)),
                  max_size=4)
seeds = st.integers(-2**70, 2**70)
finite = st.floats(allow_nan=False, allow_infinity=False)
# examples take microseconds; a wall-clock deadline only adds flakiness
# on a loaded machine
property_test = settings(deadline=None)


class TestProperties:
    @property_test
    @given(seeds, labels)
    def test_uniforms_lie_strictly_inside_the_unit_interval(self, seed, path):
        rng = RandomStream(seed, *path)
        assert all(0.0 < rng.random() < 1.0 for _ in range(20))

    @property_test
    @given(seeds, labels, st.integers(1, 2**70))
    def test_integers_lie_in_range(self, seed, path, n):
        rng = RandomStream(seed, *path)
        assert all(0 <= rng.integers(n) < n for _ in range(20))

    @property_test
    @given(seeds, st.integers(0, 300))
    def test_permutation_is_a_permutation(self, seed, n):
        assert sorted(RandomStream(seed, "perm").permutation(n)) == list(range(n))

    @property_test
    @given(seeds, labels)
    def test_same_seed_and_path_replay(self, seed, path):
        a, b = RandomStream(seed, *path), RandomStream(seed).child(*path)
        assert a.key == b.key
        assert ([a.random(), a.integers(7), a.normal(1.0, 2.0), a.permutation(5)]
                == [b.random(), b.integers(7), b.normal(1.0, 2.0), b.permutation(5)])

    @property_test
    @given(finite, st.floats(min_value=0.0, allow_infinity=False), finite, finite,
           st.integers(0, 2**64 - 1))
    def test_truncated_gaussian_stays_in_bounds(self, mean, sd, lo, hi, seed):
        assume(lo < hi)
        rng = RandomStream(seed)
        assert all(lo <= truncated_gaussian(mean, sd, lo, hi, rng) <= hi
                   for _ in range(5))

    @property_test
    @given(st.floats(-60.0, 60.0), st.floats(1e-9, 30.0),
           st.floats(1e-300, 1e300), st.integers(0, 2**64 - 1))
    def test_truncated_gaussian_stays_in_far_tails(self, z_lo, width, sd, seed):
        # bounds placed in sd units on either side of the mean, up to 60 sd out
        lo, hi = z_lo * sd, (z_lo + width) * sd
        assume(lo < hi)
        rng = RandomStream(seed)
        assert all(lo <= truncated_gaussian(0.0, sd, lo, hi, rng) <= hi
                   for _ in range(5))

    @property_test
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
                    min_size=1, max_size=8),
           st.integers(0, 2**64 - 1))
    def test_categorical_never_picks_zero_weight(self, weights, seed):
        assume(0 < math.fsum(weights) < math.inf and sum(weights) < math.inf)
        rng = RandomStream(seed)
        assert all(weights[categorical(weights, rng)] > 0 for _ in range(20))

    @property_test
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20), labels)
    def test_array_chain_matches_scalar(self, keys, path):
        arr = np.array(keys, dtype=np.uint64)
        assert _mix64_array(arr).tolist() == [_mix64(k) for k in keys]
        for label in path:
            arr = child_keys(arr, label_bits([label]))
        assert arr.tolist() == [_chain(k, path) for k in keys]
        assert first_uniforms(arr).tolist() == [
            RandomStream._from_key(k).child(*path).random() for k in keys]

    @property_test
    @given(finite, st.floats(min_value=0.0, allow_infinity=False), finite, finite,
           st.integers(0, 2**64 - 1))
    def test_array_truncated_gaussian_matches_scalar(self, mean, sd, lo, hi, seed):
        assume(lo < hi)
        u = np.array([RandomStream(seed, i).random() for i in range(5)])
        truncation = [gaussian_truncation(mean, sd, lo, hi)] * 5
        got = truncated_gaussians(np.full(5, mean), truncation, lo, hi, u)
        assert got.tolist() == [
            truncated_gaussian(mean, sd, lo, hi, RandomStream(seed, i)) for i in range(5)]
