"""Turn sampling soundness, dialog chaining, replay alignment, log output."""

from __future__ import annotations

import json
import math

import pytest

from conftest import (
    analytic_truncated_mean,
    make_dialog,
    make_exchange,
    make_user,
    reference_log,
    reference_log_bytes,
    reference_replay,
)
from trustsim import simulator
from trustsim.behavior_tables import (
    ContextKey,
    TableMode,
    build_table,
    combo_index,
    load_table,
    lookup,
    table_to_json_dict,
)
from trustsim.corpus import Corpus, ProactiveAct
from trustsim.errors import (
    InvalidBounds,
    InvalidConfig,
    NoDataForCondition,
    ValueOutOfRange,
)
from trustsim.sampling import RandomStream
from trustsim.simulator import (
    LOG_COLUMNS,
    SimulatedTurn,
    replay_conditions,
    save_simulated_log,
    simulate_turn,
)
from trustsim.user_model import binarize_traits


def turn(**kwargs):
    base = dict(help_request=False, suggestion_request=False, duration=42.0,
                difficulty=3, game_score=20.0, used_fallback=False)
    return SimulatedTurn(**{**base, **kwargs})


class TestTurnInvariants:
    def test_duration_floor_is_strict(self):
        with pytest.raises(ValueOutOfRange):
            turn(duration=20.0)
        assert turn(duration=20.0001).duration > 20.0

    @pytest.mark.parametrize("difficulty", [0, 6, 2.5, "3"])
    def test_difficulty_must_be_likert_int(self, difficulty):
        with pytest.raises(ValueOutOfRange):
            turn(difficulty=difficulty)

    def test_score_nonnegative(self):
        with pytest.raises(ValueOutOfRange):
            turn(game_score=-0.5)


def soundness_corpus() -> Corpus:
    """16 same-trait users whose step-1 rows pin one cell exactly:
    combos 8/4/2/2, known per-combo moments, degenerate side combos."""
    ff = dict(zip("abcd", [
        dict(duration=30.0, game_score=10.0, difficulty=1),
        dict(duration=40.0, game_score=20.0, difficulty=2),
        dict(duration=50.0, game_score=20.0, difficulty=2),
        dict(duration=60.0, game_score=30.0, difficulty=5),
    ]))
    payloads = [ff["abcd"[i % 4]] for i in range(8)]
    payloads += [dict(suggestion_request=True, duration=80.0, game_score=30.0,
                      difficulty=3)] * 4
    payloads += [dict(help_request=True, duration=100.0, game_score=10.0,
                      difficulty=4)] * 2
    payloads += [dict(help_request=True, suggestion_request=True, duration=120.0,
                      game_score=20.0, difficulty=5)] * 2
    users, dialogs = [], {}
    for i, payload in enumerate(payloads):
        uid = f"u{i:02d}"
        users.append(make_user(user_id=uid))
        dialogs[uid] = tuple(
            make_exchange(step, dialog_id=f"d-{uid}",
                          **(payload if step == 1 else {}))
            for step in range(1, 13)
        )
    return Corpus(users=tuple(users), dialogs=dialogs)


SOUNDNESS_DURATION_HI = 45.0


@pytest.fixture(scope="module")
def draws():
    table = build_table(soundness_corpus(), TableMode.TASK_STEP_BASED)
    profile = make_user()
    # the low ceiling clamps the sd-0 side combos (means 80..120 s) onto it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "DURATION_HI", SOUNDNESS_DURATION_HI)
        return [
            simulate_turn(table, profile, 1, ProactiveAct.NONE,
                          RandomStream(123, "sound", i))
            for i in range(10_000)
        ]


class TestTurnSampling:
    DURATION_HI = SOUNDNESS_DURATION_HI

    def combo_of(self, t):
        return (t.help_request, t.suggestion_request)

    def test_request_combo_frequencies(self, draws):
        n = len(draws)
        freq = {c: 0 for c in [(False, False), (False, True),
                               (True, False), (True, True)]}
        for t in draws:
            freq[self.combo_of(t)] += 1
        assert abs(freq[(False, False)] / n - 0.500) < 0.02
        assert abs(freq[(False, True)] / n - 0.250) < 0.02
        assert abs(freq[(True, False)] / n - 0.125) < 0.02
        assert abs(freq[(True, True)] / n - 0.125) < 0.02

    def test_all_draws_typed_and_bounded(self, draws):
        for t in draws:
            assert t.duration > 20.0
            assert t.duration <= self.DURATION_HI
            assert isinstance(t.difficulty, int) and 1 <= t.difficulty <= 5
            assert 10.0 <= t.game_score <= 30.0  # step 1 option range
            assert t.used_fallback is False

    def test_main_combo_duration_tracks_truncated_mean(self, draws):
        durs = [t.duration for t in draws if self.combo_of(t) == (False, False)]
        expected = analytic_truncated_mean(45.0, math.sqrt(125.0), 20.0,
                                           self.DURATION_HI)
        assert abs(sum(durs) / len(durs) - expected) < 0.4

    def test_main_combo_score_tracks_truncated_mean(self, draws):
        scores = [t.game_score for t in draws if self.combo_of(t) == (False, False)]
        # symmetric truncation of N(20, sqrt(50)) on [10, 30] keeps mean 20
        assert abs(sum(scores) / len(scores) - 20.0) < 0.35

    def test_main_combo_difficulty_frequencies(self, draws):
        subset = [t.difficulty for t in draws if self.combo_of(t) == (False, False)]
        n = len(subset)
        for cls, p in ((1, 0.25), (2, 0.50), (3, 0.0), (4, 0.0), (5, 0.25)):
            assert abs(subset.count(cls) / n - p) < 0.02

    def test_degenerate_combos_are_exact(self, draws):
        for t in draws:
            combo = self.combo_of(t)
            if combo == (False, True):
                # sd-0 duration mean 80 clamps onto the upper bound
                assert t.duration == self.DURATION_HI
                assert t.game_score == 30.0
                assert t.difficulty == 3
            elif combo == (True, False):
                assert t.duration == self.DURATION_HI
                assert t.game_score == 10.0
                assert t.difficulty == 4
            elif combo == (True, True):
                assert t.duration == self.DURATION_HI
                assert t.game_score == 20.0
                assert t.difficulty == 5

    def test_deterministic_per_stream(self):
        table = build_table(soundness_corpus(), TableMode.TASK_STEP_BASED)
        profile = make_user()
        a = simulate_turn(table, profile, 1, ProactiveAct.NONE,
                          RandomStream(9, "t"))
        b = simulate_turn(table, profile, 1, ProactiveAct.NONE,
                          RandomStream(9, "t"))
        assert a == b


class TestScoreClamping:
    def off_grid_table(self):
        # a cell whose score mean sits far above the step-1 option range
        user = make_user(user_id="u0")
        corpus = Corpus(users=(user,),
                        dialogs={"u0": make_dialog("u0", game_score=200.0)})
        return build_table(corpus, TableMode.TASK_STEP_BASED,
                           fallback_threshold=1)

    def test_clamped_scores_stay_on_option_range(self):
        table = self.off_grid_table()
        t = simulate_turn(table, make_user(), 1, ProactiveAct.NONE,
                          RandomStream(0))
        assert t.game_score == 30.0


class TestFallbackFlag:
    def test_sparse_context_sets_flag(self):
        table = build_table(soundness_corpus(), TableMode.TASK_STEP_BASED)
        # opposite trait tuple never appears in the corpus
        stranger = make_user(user_id="zz", domain_expertise=1.0,
                             trust_propensity=5.0, technical_affinity=1.0)
        key = ContextKey(binarize_traits(stranger), ProactiveAct.NONE, 1)
        assert key not in table.cells
        t = simulate_turn(table, stranger, 1, ProactiveAct.NONE, RandomStream(4))
        assert t.used_fallback is True
        _, flagged = lookup(table, key)
        assert flagged is True


class TestReplay:
    def test_alignment_with_corpus_order(self, small_corpus):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        log = replay_conditions(small_corpus, table, RandomStream(3, "replay"))
        pairs = list(small_corpus.iter_exchanges())
        assert len(log) == len(pairs)
        for i, (user, ex) in enumerate(pairs):
            assert log.user_id[i] == user.user_id
            assert log.dialog_id[i] == ex.dialog_id
            assert log.step[i] == ex.step
            assert log.complexity[i] == ex.complexity
            assert log.proactive_act[i] is ex.proactive_act

    def test_deterministic(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        a = replay_conditions(small_corpus, table, RandomStream(5, "r"))
        b = replay_conditions(small_corpus, table, RandomStream(5, "r"))
        assert a == b

    def test_threshold_one_never_falls_back_on_replay(self, small_corpus):
        # replay only queries contexts that occur, so every lookup hits
        # a populated cell once the threshold admits single observations
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED,
                            fallback_threshold=1)
        log = replay_conditions(small_corpus, table, RandomStream(8))
        assert log.fallback_rate() == 0.0

    def test_default_threshold_falls_back_on_sparse_corpus(self, small_corpus):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        log = replay_conditions(small_corpus, table, RandomStream(8))
        assert 0.0 < log.fallback_rate() <= 1.0


class TestLogOutput:
    @pytest.fixture()
    def log(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        return replay_conditions(small_corpus, table, RandomStream(2))

    def test_csv_layout(self, log, tmp_path):
        path = tmp_path / "log.csv"
        save_simulated_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(LOG_COLUMNS)
        assert len(lines) == len(log) + 1
        assert ",true," in lines[1] or ",false," in lines[1]

    def test_jsonl_rows_parse(self, log, tmp_path):
        path = tmp_path / "log.jsonl"
        save_simulated_log(log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(log)
        row = json.loads(lines[0])
        assert row["user_id"] == log.user_id[0]
        assert isinstance(row["duration"], str)  # repr keeps full precision

    def test_byte_stable(self, log, tmp_path):
        save_simulated_log(log, tmp_path / "a.csv")
        save_simulated_log(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_format_rejected(self, log, tmp_path):
        with pytest.raises(InvalidConfig):
            save_simulated_log(log, tmp_path / "log.xml", file_format="xml")


def assert_replay_matches_oracle(corpus, table, seed, tmp_path):
    """replay_conditions equals the per-turn loop, column for column and
    in the bytes of both log formats."""
    log = replay_conditions(corpus, table, RandomStream(seed, "replay"))
    records = reference_replay(corpus, table, RandomStream(seed, "replay"))
    assert log == reference_log(records)
    for file_format in ("csv", "jsonl"):
        path = tmp_path / f"log.{file_format}"
        save_simulated_log(log, path, file_format)
        assert path.read_bytes() == reference_log_bytes(records, file_format)
    flagged = sum(turn.used_fallback for _, _, turn in records)
    assert log.fallback_rate() == (flagged / len(records) if records else 0.0)


class TestReplayOracle:
    @pytest.mark.parametrize("mode", list(TableMode))
    @pytest.mark.parametrize("threshold", [1, 10, None, 40])
    @pytest.mark.parametrize("seed", [2, 3, 99])
    def test_small_corpus(self, small_corpus, mode, threshold, seed, tmp_path):
        table = (build_table(small_corpus, mode) if threshold is None
                 else build_table(small_corpus, mode, threshold))
        assert_replay_matches_oracle(small_corpus, table, seed, tmp_path)

    @pytest.mark.parametrize("mode", list(TableMode))
    def test_standard_corpus(self, default_corpus, mode, tmp_path):
        table = build_table(default_corpus, mode)
        assert_replay_matches_oracle(default_corpus, table, 42, tmp_path)

    def test_table_of_another_corpus(self, small_corpus, drifting_corpus, tmp_path):
        # contexts the table never saw descend the fallback ladder
        table = build_table(drifting_corpus, TableMode.TASK_STEP_BASED, 25)
        assert_replay_matches_oracle(small_corpus, table, 7, tmp_path)

    def test_one_user_corpus(self, small_corpus, tmp_path):
        uid = small_corpus.users[3].user_id
        one = Corpus(users=(small_corpus.users[3],),
                     dialogs={uid: small_corpus.dialogs[uid]})
        for mode in TableMode:
            table = build_table(small_corpus, mode)
            assert_replay_matches_oracle(one, table, 5, tmp_path)

    def test_empty_corpus(self, small_corpus, tmp_path):
        empty = Corpus(users=(), dialogs={})
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        assert len(replay_conditions(empty, table, RandomStream(1))) == 0
        assert_replay_matches_oracle(empty, table, 1, tmp_path)

    def test_clamped_durations_and_scores(self, tmp_path, monkeypatch):
        # sd-0 side combos clamp onto the lowered ceiling, and an off-grid
        # score mean clamps onto the option range
        monkeypatch.setattr(simulator, "DURATION_HI", SOUNDNESS_DURATION_HI)
        corpus = soundness_corpus()
        assert_replay_matches_oracle(
            corpus, build_table(corpus, TableMode.TASK_STEP_BASED), 11, tmp_path)
        off_grid = TestScoreClamping().off_grid_table()
        assert_replay_matches_oracle(corpus, off_grid, 12, tmp_path)


class TestCorruptTable:
    """A loaded table can carry values the build never writes; replay
    checks only the (context, combination) pairs it draws, and fails where
    the per-turn loop fails, with the same error."""

    SEED = 5

    @pytest.fixture()
    def table(self, small_corpus):
        # threshold 1: every replayed context is served by its own cell
        return build_table(small_corpus, TableMode.TASK_STEP_BASED, 1)

    def drawn(self, corpus, table) -> list:
        records = reference_replay(corpus, table, RandomStream(self.SEED, "replay"))
        return [(ContextKey(binarize_traits(user), ex.proactive_act, ex.step),
                 combo_index(turn.help_request, turn.suggestion_request))
                for user, ex, turn in records]

    def reload(self, table, tmp_path, edit):
        payload = table_to_json_dict(table)
        edit(payload)
        (tmp_path / "table.json").write_text(json.dumps(payload))
        return load_table(tmp_path / "table.json")

    @staticmethod
    def no_rung_at_step_two(payload):
        payload["fallback_threshold"] = 10_000
        for name in ("fallback_cells", "condition_cells"):
            payload[name] = [e for e in payload[name] if e["condition"] != 2]

    def negative_sd(self, key, combo):
        def edit(payload):
            for entry in payload["cells"]:
                if (entry["traits"], entry["act"], entry["condition"]) == (
                        key.trait_tuple.bits, key.proactive_act.value, key.condition):
                    entry["combos"][combo]["duration_sd"] = -1.0
        return edit

    def outcomes(self, corpus, table):
        """(error or None) of the per-turn loop and of the batch."""
        results = []
        for replay in (reference_replay, replay_conditions):
            try:
                replay(corpus, table, RandomStream(self.SEED, "replay"))
                results.append(None)
            except Exception as exc:  # noqa: BLE001 - compared below
                results.append(exc)
        return results

    def test_drawn_pair_fails_like_the_per_turn_loop(self, small_corpus, table,
                                                     tmp_path):
        drawn = self.drawn(small_corpus, table)
        for turn in (0, 17, len(drawn) - 1):
            bad = self.reload(table, tmp_path, self.negative_sd(*drawn[turn]))
            scalar, batch = self.outcomes(small_corpus, bad)
            assert isinstance(scalar, InvalidBounds)
            assert type(batch) is type(scalar) and str(batch) == str(scalar)

    def test_undrawn_pair_is_never_checked(self, small_corpus, table, tmp_path):
        drawn = set(self.drawn(small_corpus, table))
        undrawn = next((key, combo) for key, cell in table.cells.items()
                       for combo, stats in enumerate(cell.combos)
                       if stats.n > 0 and (key, combo) not in drawn)
        bad = self.reload(table, tmp_path, self.negative_sd(*undrawn))
        assert self.outcomes(small_corpus, bad) == [None, None]
        assert_replay_matches_oracle(small_corpus, bad, self.SEED, tmp_path)

    def test_context_without_rung_fails_like_the_per_turn_loop(self, small_corpus,
                                                               table, tmp_path):
        bad = self.reload(table, tmp_path, self.no_rung_at_step_two)
        scalar, batch = self.outcomes(small_corpus, bad)
        assert isinstance(scalar, NoDataForCondition)
        assert type(batch) is type(scalar) and str(batch) == str(scalar)

    def test_first_failing_turn_decides_the_error(self, small_corpus, table,
                                                  tmp_path):
        # turn 0 (step 1) draws a corrupt pair before turn 1 (step 2) finds
        # no rung, so both replays raise the pair's error
        first = self.drawn(small_corpus, table)[0]

        def edit(payload):
            self.negative_sd(*first)(payload)
            self.no_rung_at_step_two(payload)
            # keep step 1 served by its trait cell above the raised threshold
            for entry in payload["cells"]:
                if entry["condition"] == 1:
                    entry["n"] *= 10_000
                    entry["request_counts"] = [10_000 * c
                                               for c in entry["request_counts"]]
        bad = self.reload(table, tmp_path, edit)
        scalar, batch = self.outcomes(small_corpus, bad)
        assert isinstance(scalar, InvalidBounds)
        assert type(batch) is type(scalar) and str(batch) == str(scalar)
