"""Hypothesis property tests of the sampling primitives.

Kept apart from test_sampling.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist, StatisticsError

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (ScalarStream, categorical_from, duration_record, gaussian_truncation,
                      scalar_chain, scalar_mix64, truncated_gaussian, truncated_gaussian_from)
from trustsim.corpus import DURATION_FLOOR_S, MIN_DURATION_S, duration_truncation
from trustsim.sampling import (
    _P_MAX,
    _P_MIN,
    _VECTOR_MIN,
    RandomStream,
    _mix64_array,
    _normal_quantiles,
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

labels = st.lists(st.one_of(st.text(max_size=8), st.integers(-2**70, 2**70)),
                  max_size=4)
seeds = st.integers(-2**70, 2**70)
finite = st.floats(allow_nan=False, allow_infinity=False)
# A categorical weight: zero, a few least subnormals (a total near 5e-324,
# where a target u * total can round up to the total), any subnormal, or
# up to 3e307, so that five of them sum near 1e308 and stay finite.
weights = st.one_of(st.just(0.0), st.integers(1, 4).map(lambda k: k * math.ulp(0.0)),
                    st.floats(0.0, sys.float_info.min, exclude_max=True),
                    st.floats(0.0, 3e307))
# a uniform as `first_uniforms` draws it: an odd multiple of 2**-53 in (0, 1)
uniforms = st.integers(0, 2**52 - 1).map(lambda k: (k + 0.5) * 2.0 ** -52)


def weight_row(k: int):
    """k weights with a positive finite total."""
    return st.lists(weights, min_size=k, max_size=k).filter(lambda row: 0 < sum(row) < math.inf)


# rows of 1-6 weights, all of one length, each with its uniform: the
# tables' rows have 4 and 5
weight_rows = st.integers(1, 6).flatmap(lambda k: st.lists(st.tuples(
    weight_row(k), st.one_of(uniforms, st.sampled_from([2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]))),
    min_size=1, max_size=8))
# examples take microseconds; a wall-clock deadline only adds flakiness
# on a loaded machine
property_test = settings(deadline=None)


class TestProperties:
    @property_test
    @given(seeds, labels)
    def test_uniforms_lie_strictly_inside_the_unit_interval(self, seed, path):
        keys = child_keys(RandomStream(seed, *path).key, label_bits(range(20)))
        assert all(0.0 < u < 1.0 for u in first_uniforms(keys).tolist())

    @property_test
    @given(seeds, labels, st.integers(1, 2**32 - 1))
    def test_integers_lie_in_range(self, seed, path, n):
        draws = nth_draws(RandomStream(seed, *path).key, np.arange(1, 21))
        assert all(0 <= i < n for i in integers(draws, n).tolist())

    @property_test
    @given(seeds, st.integers(0, 300))
    def test_permutation_is_a_permutation(self, seed, n):
        assert sorted(permutation(RandomStream(seed, "perm").key, n)) == list(range(n))

    @property_test
    @given(seeds, st.integers(0, 300))
    def test_permutation_matches_scalar(self, seed, n):
        key = RandomStream(seed, "perm").key
        assert permutation(key, n) == ScalarStream._from_key(key).permutation(n)

    @property_test
    @given(seeds, labels)
    def test_same_seed_and_path_replay(self, seed, path):
        a, b = RandomStream(seed, *path), RandomStream(seed).child(*path)
        assert a.key == b.key == ScalarStream(seed, *path).key

    @property_test
    @given(finite, st.floats(min_value=0.0, allow_infinity=False), finite, finite,
           st.integers(0, 2**64 - 1))
    def test_truncated_gaussian_stays_in_bounds(self, mean, sd, lo, hi, seed):
        assume(lo < hi)
        rng = ScalarStream(seed)
        u = np.array([rng.random() for _ in range(5)])
        draws = truncated_gaussians(gaussian_truncations([mean], [sd], lo, hi), u)
        assert all(lo <= draws) and all(draws <= hi)

    @property_test
    @given(st.floats(-60.0, 60.0), st.floats(1e-9, 30.0),
           st.floats(1e-300, 1e300), st.integers(0, 2**64 - 1))
    def test_truncated_gaussian_stays_in_far_tails(self, z_lo, width, sd, seed):
        # bounds placed in sd units on either side of the mean, up to 60 sd out
        lo, hi = z_lo * sd, (z_lo + width) * sd
        assume(lo < hi)
        rng = ScalarStream(seed)
        u = np.array([rng.random() for _ in range(5)])
        draws = truncated_gaussians(gaussian_truncations([0.0], [sd], lo, hi), u)
        assert all(lo <= draws) and all(draws <= hi)

    @property_test
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
                    min_size=1, max_size=8),
           st.integers(0, 2**64 - 1))
    def test_categorical_never_picks_zero_weight(self, weights, seed):
        assume(0 < math.fsum(weights) < math.inf and sum(weights) < math.inf)
        rng = ScalarStream(seed)
        u = np.array([rng.random() for _ in range(20)])
        picks = categoricals(np.array([cumulative_weights(weights)]), u)
        assert all(weights[i] > 0 for i in picks.tolist())

    @property_test
    @given(weight_rows)
    # a target that rounds up to the total takes the second bisection
    @example([([0.0, math.ulp(0.0)], 0.9), ([math.ulp(0.0), 0.0], 1.0 - 2.0 ** -53)])
    @example([([0.0, 0.0, 1e308, 0.0, 0.0], 0.5), ([3e307] * 5, 1.0 - 2.0 ** -53)])
    # one column, and one more than the tables' rows hold
    @example([([math.ulp(0.0)], 0.5), ([2.0], 1.0 - 2.0 ** -53)])
    @example([([0.0, 1.0, 0.0, 0.0, 2.0, 0.0], 0.5), ([2e307] * 6, 1.0 - 2.0 ** -53)])
    def test_categoricals_equal_the_scalar_oracle(self, cases):
        """`categoricals` draws the index the scalar bisection oracle draws,
        row for row."""
        cumulatives = [cumulative_weights(row) for row, _ in cases]
        u = [ui for _, ui in cases]
        assert categoricals(np.array(cumulatives), np.array(u)).tolist() == [
            categorical_from(c, ui) for c, ui in zip(cumulatives, u)]

    @property_test
    @given(st.integers(1, 6).flatmap(weight_row), st.integers(0, 2**64 - 1))
    def test_one_row_broadcasts_against_a_thousand_uniforms(self, row, key):
        cumulative = cumulative_weights(row)
        u = first_uniforms(child_keys(key, label_bits(range(1000))))
        assert categoricals(np.array([cumulative]), u).tolist() == [
            categorical_from(cumulative, ui) for ui in u.tolist()]

    @property_test
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20), labels)
    def test_array_chain_matches_scalar(self, keys, path):
        arr = np.array(keys, dtype=np.uint64)
        assert _mix64_array(arr).tolist() == [scalar_mix64(k) for k in keys]
        for label in path:
            arr = child_keys(arr, label_bits([label]))
        assert arr.tolist() == [scalar_chain(k, path) for k in keys]
        assert arr.tolist() == [RandomStream._from_key(k).child(*path).key for k in keys]
        assert first_uniforms(arr).tolist() == [
            ScalarStream._from_key(k).child(*path).random() for k in keys]

    @property_test
    @given(finite, st.floats(min_value=0.0, allow_infinity=False), finite, finite,
           st.integers(0, 2**64 - 1))
    def test_array_truncated_gaussian_matches_scalar(self, mean, sd, lo, hi, seed):
        assume(lo < hi)
        u = np.array([ScalarStream(seed, i).random() for i in range(5)])
        truncation = gaussian_truncation(mean, sd, lo, hi)
        assert (gaussian_truncations([mean], [sd], lo, hi).tobytes()
                == np.array([truncation], dtype=np.float64).tobytes())
        expected = [truncated_gaussian(mean, sd, lo, hi, ScalarStream(seed, i))
                    for i in range(5)]
        assert truncated_gaussians([truncation] * 5, u).tolist() == expected
        assert truncated_gaussians(truncation, u).tolist() == expected

    @property_test
    @given(st.lists(st.tuples(
        finite, st.floats(min_value=0.0, allow_infinity=False),
        st.one_of(st.just(DURATION_FLOOR_S),
                  st.floats(MIN_DURATION_S, 1e300, exclude_min=True)),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)), min_size=1, max_size=5))
    def test_duration_record_draws_floor_the_truncated_draw(self, cases):
        # the rule the duration record stands for, written out: truncate to
        # [MIN_DURATION_S, hi], then floor at DURATION_FLOOR_S
        def floored(mean, sd, hi, u):
            return max(truncated_gaussian_from(
                gaussian_truncation(mean, sd, MIN_DURATION_S, hi), u), DURATION_FLOOR_S)

        records = duration_truncation(*np.array([case[:3] for case in cases]).T)
        assert records.tobytes() == np.array(
            [duration_record(*case[:3]) for case in cases], dtype=np.float64).tobytes()
        records = records.tolist()
        u = np.array([case[3] for case in cases])
        expected = [floored(*case) for case in cases]
        assert [truncated_gaussian_from(r, case[3])
                for r, case in zip(records, cases)] == expected
        assert truncated_gaussians(records, u).tolist() == expected
        mean, sd, hi, _ = cases[0]
        assert truncated_gaussians(records[0], u).tolist() == [
            floored(mean, sd, hi, ui) for ui in u.tolist()]

    @property_test
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
           st.integers(1, 8))
    def test_nth_draws_match_scalar(self, keys, draws):
        streams = [ScalarStream._from_key(k) for k in keys]
        for k in range(1, draws + 1):
            assert nth_draws(np.array(keys, dtype=np.uint64), k).tolist() == [
                s._next64() for s in streams]

    @property_test
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
           st.integers(1, 2**32 - 1), st.integers(1, 4))
    def test_array_integers_match_scalar(self, keys, n, draws):
        streams = [ScalarStream._from_key(k) for k in keys]
        for k in range(1, draws + 1):
            got = integers(nth_draws(np.array(keys, dtype=np.uint64), k), n)
            assert got.tolist() == [s.integers(n) for s in streams]

    @property_test
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 2**32 - 1)),
                    min_size=1, max_size=20))
    def test_array_bound_integers_match_scalar(self, pairs):
        keys, bounds = zip(*pairs)
        got = integers(nth_draws(np.array(keys, dtype=np.uint64), 1), np.array(bounds))
        assert got.tolist() == [ScalarStream._from_key(k).integers(n) for k, n in pairs]


_INV_CDF = NormalDist().inv_cdf


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _around(x: float, k: int = 100) -> list:
    """x and its k nearest floats on either side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# the branch points of AS241 in uniforms: |p - 0.5| = 0.425, where the
# central branch ends, and sqrt(-log(r)) = 5 for r = min(p, 1 - p), where
# the far tail begins
_CENTRAL_ENDS = _around(0.075) + _around(0.925)
_FAR_ENDS = _around(math.exp(-25.0)) + _around(1.0 - math.exp(-25.0))
# lower-tail uniforms where numpy's log and math.log differ in the last bit
# (numpy 2.x on x86-64), and with it the quantile
_LOG_SPLITS = [0.04653227485322813, 0.049263865988488593, 0.008998490959060227]


# uniforms at the kernel's own edges: |p - 0.5| exactly 0.425, the last
# central one; sqrt(-log(p)) exactly 5.0, the last of the near tail; the
# least and greatest uniforms; and NaN, which takes the tail
_CENTRAL_EXACT = [p for p in _CENTRAL_ENDS if abs(p - 0.5) == 0.425]
_FIVE_EXACT = [p for p in _FAR_ENDS if p < 0.5 and math.sqrt(-math.log(p)) == 5.0]
_KERNEL_EDGES = _CENTRAL_EXACT + _FIVE_EXACT + [2.0 ** -1074, 1.0 - 2.0 ** -53, math.nan]


class TestNormalQuantiles:
    """`_normal_quantiles`, the numpy kernel of `standard_normals`, against
    its oracle `NormalDist.inv_cdf`, bit for bit."""

    @property_test
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=64))
    def test_kernel_equals_inv_cdf(self, p):
        assert _bits(_normal_quantiles(np.array(p))) == _bits([_INV_CDF(v) for v in p])

    @pytest.mark.parametrize("name,points", [
        ("ends", [_P_MIN, _P_MAX, 0.5]), ("central ends", _CENTRAL_ENDS),
        ("far ends", _FAR_ENDS), ("log splits", _LOG_SPLITS)])
    def test_kernel_equals_inv_cdf_at(self, name, points):
        assert _bits(_normal_quantiles(np.array(points))) == _bits([_INV_CDF(p) for p in points])

    def test_branch_points_straddle_their_branches(self):
        # the neighbourhoods take both sides of each branch point
        q = np.abs(np.array(_CENTRAL_ENDS) - 0.5)
        assert (q == 0.425).any() and (q < 0.425).any() and (q > 0.425).any()
        r = np.sqrt(-np.log(np.minimum(_FAR_ENDS, 1.0 - np.array(_FAR_ENDS))))
        assert (r <= 5.0).any() and (r > 5.0).any()

    def test_kernel_edges_are_exact(self):
        assert _CENTRAL_EXACT and _FIVE_EXACT

    @property_test
    @given(st.lists(st.one_of(st.sampled_from(_KERNEL_EDGES),
                              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                    min_size=1, max_size=32),
           st.integers(0, 2**64 - 1))
    # NaN among the lower tail, far tail included, and the upper tail
    @example([math.nan, 1e-300, 0.01, math.nan, 1.0 - 1e-12, 0.99], 0)
    def test_kernel_equals_inv_cdf_at_its_edges(self, points, key):
        """On an array that `standard_normals` hands to the kernel, the
        edge points sit among uniforms, spread over the array."""
        u = first_uniforms(child_keys(key, label_bits(range(_VECTOR_MIN))))
        u[::len(u) // len(points)][:len(points)] = points
        assert _bits(standard_normals(u)) == _bits([_INV_CDF(p) for p in u.tolist()])

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, -0.5, 1.5, -math.inf, math.inf])
    def test_kernel_rejects_what_inv_cdf_rejects(self, p):
        with pytest.raises(StatisticsError):
            _INV_CDF(p)
        with pytest.raises(StatisticsError):
            _normal_quantiles(np.array([0.3, p]))
        with pytest.raises(StatisticsError):
            standard_normals(np.full(_VECTOR_MIN, p))

    def test_nan_gives_nan(self):
        assert math.isnan(_INV_CDF(math.nan))
        assert np.isnan(_normal_quantiles(np.array([0.3, math.nan, 0.01]))).tolist() == [
            False, True, False]

    @pytest.mark.parametrize("size", [_VECTOR_MIN - 1, _VECTOR_MIN])
    def test_standard_normals_equal_inv_cdf_at_the_cut(self, size):
        u = first_uniforms(child_keys(RandomStream(size, "cut").key, label_bits(range(size))))
        u[::3] = np.exp(-700.0 * u[::3])  # lower tail, far tail included
        u[1::3] = 1.0 - 1e-12 * u[1::3]  # upper tail
        u[:len(_LOG_SPLITS)] = _LOG_SPLITS
        assert _bits(standard_normals(u)) == _bits([_INV_CDF(p) for p in u.tolist()])
