"""Hypothesis property tests of the batched replay against the per-turn
loop it replaced, and of the bounds every drawn turn holds.

Kept apart from test_simulator.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

from hypothesis import event, example, given, settings, strategies as st

from conftest import (
    assert_drawn_log,
    assert_drawn_turn,
    assert_every_turn_matches_oracle,
    corpus_user,
    env_turns,
    reference_log,
    reference_replay,
    users_of,
)
from trustsim.behavior_tables import (
    TableMode,
    build_table,
    table_from_json_dict,
    table_to_json_dict,
)
from trustsim.corpus import ACT_ORDER, STEPS_PER_DIALOG
from trustsim.errors import InvalidConfig
from trustsim.sampling import RandomStream
from trustsim.simulator import replay_conditions, simulate_turn
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.user_model import fit_trait_distributions


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
# subnormal sd, an sd whose square still fits, means whose square does not
# (so merging them into their slices overflows), and a mean so far below
# the lower truncation bound that every draw clamps onto that bound.
EXTREME_STATS = [
    *((name, sd) for name in ("score_sd", "duration_sd") for sd in (0.0, 5e-324, 1e150)),
    *((name, mean) for name in ("score_mean", "duration_mean")
      for mean in (1e300, -1e300, -1e6)),
]


class TestExtremeTables:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(list(TableMode)), st.integers(1, 30),
           st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(EXTREME_STATS)),
                    min_size=1, max_size=12),
           st.integers(0, 2**32))
    # draws that clamp onto the duration floor and the lowest option score
    @example(TableMode.TASK_STEP_BASED, 1,
             [(5, ("duration_mean", -1e6)), (6, ("score_mean", -1e6))], 3)
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
        assert_drawn_log(log)
        assert_every_turn_matches_oracle(table, seed)  # checks every turn's bounds too
        for turn in env_turns(table, fit_trait_distributions(small_corpus), seed):
            assert_drawn_turn(turn)


@st.composite
def fitted_corpora(draw):
    """A generated corpus of 2 to 12 dialogs and a table fitted on it."""
    corpus = generate_synthetic_corpus(
        GeneratorConfig(n_dialogs=draw(st.integers(2, 12), label="dialogs")),
        seed=draw(st.integers(0, 2**32), label="corpus seed"))
    return corpus, build_table(corpus, draw(st.sampled_from(list(TableMode))),
                               draw(st.integers(1, 30), label="threshold"))


drawn_turns = settings(deadline=None, max_examples=25)


class TestDrawnTurns:
    """SimulatedTurn checks no bound, so every turn drawn from a table
    fitted on a generated corpus must hold them by construction."""

    @drawn_turns
    @given(fitted_corpora(), st.integers(-2**70, 2**70))
    def test_replayed_rows_are_in_range(self, fitted, seed):
        corpus, table = fitted
        assert_drawn_log(replay_conditions(corpus, table, RandomStream(seed, "replay")))

    @drawn_turns
    @given(fitted_corpora(), st.integers(-2**70, 2**70))
    def test_simulated_turns_are_in_range(self, fitted, seed):
        # every user of the corpus, Corpus-shaped, at every step and act
        corpus, table = fitted
        rng = RandomStream(seed, "turns")
        for user in users_of(corpus):
            for step in range(1, STEPS_PER_DIALOG + 1):
                for act in ACT_ORDER:
                    assert_drawn_turn(simulate_turn(table, corpus_user(user), step, act,
                                                    rng.child(user.user_id, step, act.value)))

    @drawn_turns
    @given(fitted_corpora(), st.integers(-2**70, 2**70))
    def test_env_turns_are_in_range(self, fitted, seed):
        corpus, table = fitted
        for turn in env_turns(table, fit_trait_distributions(corpus), seed):
            assert_drawn_turn(turn)
