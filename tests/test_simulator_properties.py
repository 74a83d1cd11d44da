"""Hypothesis property test of the batched replay against the per-turn
loop it replaced.

Kept apart from test_simulator.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from conftest import reference_log, reference_replay
from trustsim.behavior_tables import TableMode, build_table
from trustsim.sampling import RandomStream
from trustsim.simulator import replay_conditions
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus


class TestProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(list(TableMode)), st.integers(1, 30),
           st.integers(1, 12), st.integers(0, 2**16), st.integers(0, 2**16),
           st.integers(-2**70, 2**70))
    def test_batch_equals_per_turn_loop(self, mode, threshold, n_dialogs,
                                        fit_seed, replay_corpus_seed, seed):
        fitted = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs),
                                           seed=fit_seed)
        # a corpus the table was not fitted on reaches unseen contexts
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs),
                                           seed=replay_corpus_seed)
        table = build_table(fitted, mode, threshold)
        for replayed in (fitted, corpus):
            log = replay_conditions(replayed, table, RandomStream(seed, "replay"))
            assert log == reference_log(
                reference_replay(replayed, table, RandomStream(seed, "replay")))
