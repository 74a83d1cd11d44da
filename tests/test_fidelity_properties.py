"""Hypothesis property tests of the fidelity distances.

Kept apart from test_fidelity.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import any_outcome, reference_evaluate_simulator
from trustsim.fidelity import evaluate_simulator, kl_divergence
from trustsim.simulator import SimulatedLog
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus

weights = st.floats(0.0, 1e6)
# examples take microseconds; a wall-clock deadline only adds flakiness
property_test = settings(deadline=None)


def vectors(size):
    return st.lists(weights, min_size=size, max_size=size).filter(lambda v: sum(v) > 0)


vector_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(vectors(n), vectors(n)))

CORPUS = generate_synthetic_corpus(GeneratorConfig(n_dialogs=3), seed=2)
# values a hand-built log may hold that no replay draws: non-finite, or
# large enough that a step's squared error overflows
UNDRAWN = [math.nan, math.inf, -math.inf, 1e200, -1e300]
plants = st.lists(st.tuples(
    st.one_of(st.tuples(st.sampled_from(["game_score", "duration"]), st.sampled_from(UNDRAWN)),
              st.tuples(st.just("difficulty"), st.sampled_from([0, 6]))),
    st.integers(0, CORPUS.exchange_count - 1)), min_size=1, max_size=4)


class TestProperties:
    @property_test
    @given(vector_pairs)
    def test_kl_is_non_negative(self, pair):
        p, q = pair
        assert kl_divergence(p, q) >= 0.0

    @property_test
    @given(st.integers(1, 8).flatmap(vectors))
    def test_kl_of_a_vector_with_itself_is_zero(self, p):
        assert kl_divergence(p, p) == 0.0

    @property_test
    @given(plants)
    def test_a_log_the_loop_rejected_is_rejected_alike(self, planted):
        columns = {name: np.array(getattr(CORPUS, name))
                   for name in ("game_score", "help_request", "suggestion_request",
                                "duration", "difficulty")}
        for (name, value), exchange in planted:
            columns[name][exchange] = value
        log = SimulatedLog(corpus=CORPUS, used_fallback=np.zeros(len(CORPUS.step), bool),
                           **columns)
        got = any_outcome(lambda log: evaluate_simulator(log, "x"), log)
        assert got == any_outcome(lambda log: reference_evaluate_simulator(log, "x"), log)
