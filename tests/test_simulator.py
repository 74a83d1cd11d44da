"""Turn sampling soundness, dialog chaining, replay alignment, log output."""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import (
    analytic_truncated_mean,
    assert_every_turn_matches_oracle,
    corpus_from_rows,
    dialogs_of,
    draw_parameters,
    exchanges_of,
    lower_duration_ceiling,
    make_dialog,
    make_exchange,
    make_user,
    mode_keys,
    oracle_table,
    reference_combo_stats,
    reference_log,
    reference_log_bytes,
    reference_replay,
    served_row,
    simulated_turns,
    users_of,
)
from trustsim.behavior_tables import (
    REQUEST_COMBOS,
    TableMode,
    build_table,
    key_code,
    lookup,
)
from trustsim.corpus import Corpus, ProactiveAct, complexity_of_step
from trustsim.errors import InvalidConfig, LengthMismatch, StepOutOfRange, ValueOutOfRange
from trustsim.sampling import RandomStream
from trustsim.simulator import (
    LOG_COLUMNS,
    SimulatedLog,
    replay_conditions,
    save_simulated_log,
    simulate_turn,
)
from trustsim.user_model import trait_codes


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
    return corpus_from_rows(users, dialogs)


SOUNDNESS_DURATION_HI = 45.0


@pytest.fixture(scope="module")
def draws():
    profile = make_user()
    # the low ceiling clamps the sd-0 side combos (means 80..120 s) onto it
    with pytest.MonkeyPatch.context() as mp:
        lower_duration_ceiling(mp, SOUNDNESS_DURATION_HI)
        table = build_table(soundness_corpus(), TableMode.TASK_STEP_BASED)
        return simulated_turns(table, profile, 1, ProactiveAct.NONE,
                               RandomStream(123, "sound"), range(10_000))


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

    def test_rejects_an_act_that_is_no_proactive_act(self):
        table = build_table(soundness_corpus(), TableMode.TASK_STEP_BASED)
        with pytest.raises(InvalidConfig, match="act must be a ProactiveAct"):
            simulate_turn(table, make_user(), 1, "None", RandomStream(9, "t"))

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("step", [0, 13, True, 2.0, "3"], ids=repr)
    def test_a_bad_step_is_a_step_error_in_either_mode(self, mode, step):
        """The step is checked before the key, so a step outside 1..12, a
        bool or a non-int is a StepOutOfRange under either conditioning."""
        table = build_table(soundness_corpus(), mode)
        with pytest.raises(StepOutOfRange, match=r"step must be an integer in 1\.\.12"):
            simulate_turn(table, make_user(), step, ProactiveAct.NONE, RandomStream(9, "t"))


class TestScoreClamping:
    def off_grid_table(self):
        # a cell whose score mean sits far above the step-1 option range
        user = make_user(user_id="u0")
        corpus = corpus_from_rows((user,), {"u0": make_dialog("u0", game_score=200.0)})
        return build_table(corpus, TableMode.TASK_STEP_BASED,
                           fallback_threshold=1)

    def test_clamped_scores_stay_on_option_range(self):
        table = self.off_grid_table()
        t = simulate_turn(table, make_user(), 1, ProactiveAct.NONE,
                          RandomStream(0))
        assert t.game_score == 30.0


class TestTurnOracle:
    """simulate_turn against the inline per-turn oracle, in every context
    key and combination."""

    @pytest.mark.parametrize("mode", list(TableMode))
    @pytest.mark.parametrize("threshold", [1, 10, 40])
    def test_small_corpus(self, small_corpus, mode, threshold):
        assert_every_turn_matches_oracle(build_table(small_corpus, mode, threshold), 7)

    @pytest.mark.parametrize("mode", list(TableMode))
    def test_soundness_table_under_a_lowered_ceiling(self, mode, monkeypatch):
        lower_duration_ceiling(monkeypatch, SOUNDNESS_DURATION_HI)
        assert_every_turn_matches_oracle(build_table(soundness_corpus(), mode), 8)

    def test_off_grid_table(self):
        assert_every_turn_matches_oracle(TestScoreClamping().off_grid_table(), 9)


class TestTableRows:
    @pytest.mark.parametrize("mode", list(TableMode))
    @pytest.mark.parametrize("threshold", [1, 10, 40])
    def test_lookup_reads_the_rows_replay_gathers(self, default_corpus, mode, threshold):
        table = build_table(default_corpus, mode, threshold)
        oracle = oracle_table(table)
        keys = mode_keys(mode)
        assert table.row_index.shape == (len(keys), len(REQUEST_COMBOS))
        assert table.rows.shape[1] == 17 and table.rows.dtype == np.float64
        assert not table.rows.flags.writeable
        for k, key in enumerate(keys):
            assert lookup(table, *key) == k
            condition = key[2]
            complexity = (complexity_of_step(condition)
                          if mode is TableMode.TASK_STEP_BASED else condition)
            for combo in range(len(REQUEST_COMBOS)):
                assert served_row(table, k, combo) == draw_parameters(
                    reference_combo_stats(oracle, key, combo), complexity)


class TestFallbackFlag:
    def test_sparse_context_sets_flag(self):
        table = build_table(soundness_corpus(), TableMode.TASK_STEP_BASED)
        # opposite trait code never appears in the corpus
        stranger = make_user(user_id="zz", domain_expertise=1.0,
                             trust_propensity=5.0, technical_affinity=1.0)
        trait = trait_codes(stranger)
        assert table.n[key_code(table.mode, trait, 0, 1)].sum() == 0
        t = simulate_turn(table, stranger, 1, ProactiveAct.NONE, RandomStream(4))
        assert t.used_fallback is True
        assert table.used_fallback[lookup(table, trait, ProactiveAct.NONE, 1)]


class TestReplay:
    def test_rows_pair_with_the_corpus_exchanges(self, small_corpus, tmp_path):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        log = replay_conditions(small_corpus, table, RandomStream(3, "replay"))
        assert log.corpus is small_corpus
        pairs = list(exchanges_of(small_corpus))
        assert len(log) == len(pairs)
        save_simulated_log(log, tmp_path / "log.jsonl")
        rows = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert len(rows) == len(pairs)
        for row, (user, ex) in zip(rows, pairs):
            assert (row["user_id"], row["dialog_id"], row["step"], row["complexity"],
                    row["proactive_act"]) == (user.user_id, ex.dialog_id, ex.step,
                                              ex.complexity, ex.proactive_act.value)

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


DRAWN_COLUMNS = [f.name for f in fields(SimulatedLog) if f.name != "corpus"]


class TestSimulatedLog:
    @pytest.fixture()
    def log(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        return replay_conditions(small_corpus, table, RandomStream(2))

    @pytest.mark.parametrize("name", DRAWN_COLUMNS)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_column_one_row_off_is_rejected(self, log, name, extra):
        column = getattr(log, name)
        column = column[:-1] if extra < 0 else np.append(column, column[:1])
        with pytest.raises(LengthMismatch, match=name):
            replace(log, **{name: column})

    def test_equal_only_with_an_equal_corpus(self, log, small_corpus):
        drawn = {name: getattr(log, name) for name in DRAWN_COLUMNS}
        # an equal corpus that is another object
        assert SimulatedLog(corpus=replace(small_corpus), **drawn) == log
        renamed = replace(small_corpus, dialog_id=("x", *small_corpus.dialog_id[1:]))
        assert SimulatedLog(corpus=renamed, **drawn) != log
        flipped = ~log.help_request
        assert replace(log, help_request=flipped) != log

    @pytest.mark.parametrize("name,value", [
        ("difficulty", 2.9), ("difficulty", True), ("help_request", 0.7),
        ("suggestion_request", 1), ("used_fallback", 0), ("game_score", "30.0"),
        ("duration", True)])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_value_of_the_wrong_kind_is_rejected(self, log, name, value, as_array):
        """A drawn column is not cast: a float difficulty 2.9 would be
        stored as 2, and a help_request of 0.7 as True."""
        column = [value, *getattr(log, name).tolist()[1:]]
        if as_array and not isinstance(value, bool):  # an array of bools is a bool column
            column = np.array(column)
        with pytest.raises(ValueOutOfRange, match=name):
            replace(log, **{name: column})

    def test_ints_are_floats_and_numpy_bools_are_bools(self, log):
        """The kinds a column may be taken from: ints for a float column."""
        as_ints = replace(log, game_score=log.game_score.astype(np.int64))
        assert as_ints.game_score.dtype == np.float64
        assert (as_ints.game_score == np.trunc(log.game_score)).all()
        assert replace(log, used_fallback=log.used_fallback.tolist()) == log

    def test_drawn_columns_are_read_only(self, log):
        for name in DRAWN_COLUMNS:
            with pytest.raises(ValueError):
                getattr(log, name)[0] = getattr(log, name)[1]


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
        assert row["user_id"] == log.corpus.user_id[0]
        assert isinstance(row["duration"], str)  # repr keeps full precision

    def test_byte_stable(self, log, tmp_path):
        save_simulated_log(log, tmp_path / "a.csv")
        save_simulated_log(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_format_rejected(self, log, tmp_path):
        with pytest.raises(InvalidConfig):
            save_simulated_log(log, tmp_path / "log.xml")

    @pytest.mark.parametrize("name", ["log.xml", "log", "log.csv.gz"])
    def test_unknown_suffix_rejected(self, log, tmp_path, name):
        with pytest.raises(InvalidConfig, match="unsupported file format"):
            save_simulated_log(log, tmp_path / name)
        assert not (tmp_path / name).exists()

    def test_suffix_case_is_ignored(self, log, tmp_path):
        save_simulated_log(log, tmp_path / "log.JSONL")
        save_simulated_log(log, tmp_path / "log.jsonl")
        assert (tmp_path / "log.JSONL").read_bytes() == (tmp_path / "log.jsonl").read_bytes()


def assert_replay_matches_oracle(corpus, table, seed, tmp_path):
    """replay_conditions equals the per-turn loop, column for column and
    in the bytes of both log formats."""
    log = replay_conditions(corpus, table, RandomStream(seed, "replay"))
    records = reference_replay(corpus, table, RandomStream(seed, "replay"))
    assert log == reference_log(corpus, records)
    for file_format in ("csv", "jsonl"):
        path = tmp_path / f"log.{file_format}"
        save_simulated_log(log, path)
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
        uid = small_corpus.user_id[3]
        one = corpus_from_rows((users_of(small_corpus)[3],),
                               {uid: dialogs_of(small_corpus)[uid]})
        for mode in TableMode:
            table = build_table(small_corpus, mode)
            assert_replay_matches_oracle(one, table, 5, tmp_path)

    def test_empty_corpus(self, small_corpus, tmp_path):
        empty = corpus_from_rows((), {})
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        assert len(replay_conditions(empty, table, RandomStream(1))) == 0
        assert_replay_matches_oracle(empty, table, 1, tmp_path)

    def test_clamped_durations_and_scores(self, tmp_path, monkeypatch):
        # sd-0 side combos clamp onto the lowered ceiling, and an off-grid
        # score mean clamps onto the option range
        lower_duration_ceiling(monkeypatch, SOUNDNESS_DURATION_HI)
        corpus = soundness_corpus()
        table = build_table(corpus, TableMode.TASK_STEP_BASED)
        assert_replay_matches_oracle(corpus, table, 11, tmp_path)
        # the lowered ceiling is reached, not only matched by the oracle
        log = replay_conditions(corpus, table, RandomStream(11, "replay"))
        assert log.duration.max() == SOUNDNESS_DURATION_HI
        off_grid = TestScoreClamping().off_grid_table()
        assert_replay_matches_oracle(corpus, off_grid, 12, tmp_path)

