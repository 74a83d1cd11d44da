"""Hypothesis property tests of the fidelity distances.

Kept apart from test_fidelity.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from trustsim.fidelity import kl_divergence

weights = st.floats(0.0, 1e6)
# examples take microseconds; a wall-clock deadline only adds flakiness
property_test = settings(deadline=None)


def vectors(size):
    return st.lists(weights, min_size=size, max_size=size).filter(lambda v: sum(v) > 0)


vector_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(vectors(n), vectors(n)))
smoothings = st.sampled_from([0.0, 1e-6, 0.5])


class TestProperties:
    @property_test
    @given(vector_pairs, smoothings)
    def test_kl_is_non_negative(self, pair, smoothing):
        p, q = pair
        assert kl_divergence(p, q, smoothing) >= 0.0

    @property_test
    @given(st.integers(1, 8).flatmap(vectors), smoothings)
    def test_kl_of_a_vector_with_itself_is_zero(self, p, smoothing):
        assert kl_divergence(p, p, smoothing) == 0.0
