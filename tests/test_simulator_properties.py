"""Hypothesis property tests of the batched replay against the per-turn
loop it replaced.

Kept apart from test_simulator.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

from conftest import assert_every_turn_matches_oracle, reference_log, reference_replay
from trustsim.behavior_tables import (
    TableMode,
    build_table,
    table_from_json_dict,
    table_to_json_dict,
)
from trustsim.errors import InvalidConfig
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
                replayed, reference_replay(replayed, table, RandomStream(seed, "replay")))


# Finite statistics at the edges of the float range: a zero and the least
# subnormal sd, an sd whose square still fits, and means whose square does
# not (so merging them into their slices overflows).
EXTREME_STATS = [
    *((name, sd) for name in ("score_sd", "duration_sd") for sd in (0.0, 5e-324, 1e150)),
    *((name, mean) for name in ("score_mean", "duration_mean") for mean in (1e300, -1e300)),
]


class TestExtremeTables:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(list(TableMode)), st.integers(1, 30),
           st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(EXTREME_STATS)),
                    min_size=1, max_size=12),
           st.integers(0, 2**32))
    def test_every_table_that_loads_replays(self, small_corpus, mode, threshold,
                                            edits, seed):
        """The values checked at load leave no draw that can fail: a table
        whose combinations hold extreme finite values either loads and
        replays as the per-turn loop does, or is rejected at load."""
        payload = table_to_json_dict(build_table(small_corpus, mode, threshold))
        observed = [(k, c) for k, row in enumerate(payload["n"])
                    for c, n in enumerate(row) if n > 0]
        for index, (name, value) in edits:
            k, c = observed[index % len(observed)]
            payload[name][k][c] = value
        try:
            table = table_from_json_dict(payload)
        except InvalidConfig:
            event("rejected at load: merged statistics overflow")
            return
        event("loaded")
        log = replay_conditions(small_corpus, table, RandomStream(seed, "replay"))
        assert log == reference_log(
            small_corpus, reference_replay(small_corpus, table, RandomStream(seed, "replay")))
        assert_every_turn_matches_oracle(table, seed)
