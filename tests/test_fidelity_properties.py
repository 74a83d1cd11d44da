"""Hypothesis property tests of the fidelity distances.

Kept apart from test_fidelity.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import any_outcome, reference_evaluate_simulator, reference_kl
from trustsim.errors import ValueOutOfRange
from trustsim.fidelity import _kl_divergences, evaluate_simulator
from trustsim.simulator import SimulatedLog
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus

weights = st.floats(0.0, 1e6)
# examples take microseconds; a wall-clock deadline only adds flakiness
property_test = settings(deadline=None)


def vectors(size):
    return st.lists(weights, min_size=size, max_size=size).filter(lambda v: sum(v) > 0)


vector_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(vectors(n), vectors(n)))


def kl(p, q) -> float:
    return _kl_divergences(np.array([p], dtype=float), np.array([q], dtype=float))[0]


CORPUS = generate_synthetic_corpus(GeneratorConfig(n_dialogs=3), seed=2)
# values a hand-built log may hold that no replay draws: large enough that a
# step's squared error overflows (1e200, the one a corpus holds too), or out
# of a corpus column's range
OVERFLOWING = 1e200
UNDRAWN = [math.nan, math.inf, -math.inf, OVERFLOWING, -1e300]
plants = st.lists(st.tuples(
    st.one_of(st.tuples(st.sampled_from(["game_score", "duration"]), st.sampled_from(UNDRAWN)),
              st.tuples(st.just("difficulty"), st.sampled_from([0, 6]))),
    st.integers(0, CORPUS.exchange_count - 1)), min_size=1, max_size=4)


class TestProperties:
    @property_test
    @given(vector_pairs)
    def test_kl_is_non_negative(self, pair):
        p, q = pair
        assert kl(p, q) >= 0.0
        assert kl(p, q) == reference_kl(p, q)

    @property_test
    @given(st.integers(1, 8).flatmap(vectors))
    def test_kl_of_a_vector_with_itself_is_zero(self, p):
        assert kl(p, p) == 0.0

    @property_test
    @given(plants)
    def test_a_log_the_loop_rejected_is_rejected_alike(self, planted):
        """A log holding a value out of its column's range is refused when
        it is built; one whose values are in range but overflow a step's
        squared error is refused by evaluate_simulator as by the loop."""
        columns = {name: np.array(getattr(CORPUS, name))
                   for name in ("game_score", "help_request", "suggestion_request",
                                "duration", "difficulty")}
        for (name, value), exchange in planted:
            columns[name][exchange] = value
        out_of_range = any(columns[name][exchange] != OVERFLOWING
                           for (name, _), exchange in planted)

        def build():
            return SimulatedLog(corpus=CORPUS, used_fallback=np.zeros(len(CORPUS.step), bool),
                                **columns)

        if out_of_range:
            with pytest.raises(ValueOutOfRange):
                build()
            return
        log = build()
        got = any_outcome(lambda log: evaluate_simulator(log, "x"), log)
        assert got[0] is ValueOutOfRange
        assert got == any_outcome(lambda log: reference_evaluate_simulator(log, "x"), log)
