"""Table construction, fallback ladder, pooling, and serialization."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from conftest import (
    TABLE_CORRUPTIONS,
    combo_index,
    corpus_from_rows,
    exchanges_of,
    make_corpus,
    make_dialog,
    make_exchange,
    make_user,
    reference_build_table,
    reference_combo_stats,
    reference_lookup,
    reference_save_table,
)
from trustsim.behavior_tables import (
    BehaviorTable,
    CellStats,
    ComboStats,
    ContextKey,
    REQUEST_COMBOS,
    TableMode,
    _mode_keys,
    build_table,
    key_code,
    load_table,
    lookup,
    resolve_combo_stats,
    save_table,
    table_from_json_dict,
    table_summary,
    table_to_json_dict,
)
from trustsim.corpus import ACT_ORDER, Corpus, ProactiveAct, complexity_of_step
from trustsim.errors import EmptyCorpus, InvalidConfig, NoDataForCondition, TrustSimError
from trustsim.user_model import ALL_TRAIT_TUPLES, TraitTuple

LOW_TRAITS = dict(domain_expertise=1.0, trust_propensity=1.0, technical_affinity=1.0)
HIGH_TRAITS = dict(domain_expertise=5.0, trust_propensity=5.0, technical_affinity=5.0)

T000 = TraitTuple.from_bits("000")
T111 = TraitTuple.from_bits("111")


def dialog_with(user_id, per_step=None, **defaults):
    """12-step dialog with per-step field overrides layered on defaults."""
    per_step = per_step or {}
    return tuple(
        make_exchange(step, dialog_id=f"d-{user_id}",
                      **{**defaults, **per_step.get(step, {})})
        for step in range(1, 13)
    )


def corpus_of(*entries) -> Corpus:
    """entries: (user, dialog) pairs."""
    return corpus_from_rows([u for u, _ in entries], {u.user_id: d for u, d in entries})


class TestComboIndex:
    def test_fixed_ordering(self):
        assert REQUEST_COMBOS == ((False, False), (False, True),
                                  (True, False), (True, True))
        assert combo_index(False, False) == 0
        assert combo_index(False, True) == 1
        assert combo_index(True, False) == 2
        assert combo_index(True, True) == 3

    def test_coerces_truthiness(self):
        assert combo_index(1, 0) == 2


class TestKeyCode:
    @pytest.mark.parametrize("mode", list(TableMode))
    def test_indexes_the_mode_keys(self, mode):
        keys = _mode_keys(mode)
        columns = [(key.trait_tuple.index, ACT_ORDER.index(key.proactive_act),
                    key.condition) for key in keys]
        assert [key_code(mode, *c) for c in columns] == list(range(len(keys)))
        assert key_code(mode, *np.array(columns).T).tolist() == list(range(len(keys)))


class TestCellInvariants:
    def test_request_counts_must_sum(self):
        with pytest.raises(InvalidConfig):
            CellStats(n=3, request_counts=(1, 1, 0, 0),
                      combos=(ComboStats(0, 0, 0, 0, 0, (0,) * 5),) * 4)

    def test_combo_slot_count_fixed(self):
        with pytest.raises(InvalidConfig):
            CellStats(n=0, request_counts=(0, 0, 0),
                      combos=(ComboStats(0, 0, 0, 0, 0, (0,) * 5),) * 3)

    def test_request_probs_need_data(self):
        empty = CellStats(n=0, request_counts=(0, 0, 0, 0),
                          combos=(ComboStats(0, 0, 0, 0, 0, (0,) * 5),) * 4)
        with pytest.raises(InvalidConfig):
            empty.request_probs

    def test_difficulty_counts_must_sum(self):
        with pytest.raises(InvalidConfig):
            ComboStats(n=2, score_mean=0, score_sd=0, duration_mean=0,
                       duration_sd=0, difficulty_counts=(1, 0, 0, 0, 0))


class TestBuildTableExactCells:
    def make_single_user_corpus(self):
        # complexity-3 steps are 1, 4, 7, 10; give them distinct payloads
        per_step = {
            1: dict(game_score=10.0, duration=30.0),
            4: dict(game_score=20.0, duration=40.0),
            7: dict(game_score=30.0, duration=50.0),
            10: dict(game_score=20.0, duration=40.0),
        }
        user = make_user(user_id="u0", **LOW_TRAITS)
        return corpus_of((user, dialog_with("u0", per_step)))

    def test_complexity_cell_statistics(self):
        table = build_table(self.make_single_user_corpus(),
                            TableMode.COMPLEXITY_BASED)
        cell = table.cells[ContextKey(T000, ProactiveAct.NONE, 3)]
        assert cell.n == 4
        assert cell.request_counts == (4, 0, 0, 0)
        combo = cell.combos[0]
        assert combo.score_mean == pytest.approx(20.0)
        assert combo.score_sd == pytest.approx(math.sqrt(50.0))
        assert combo.duration_mean == pytest.approx(40.0)
        assert combo.duration_sd == pytest.approx(math.sqrt(50.0))
        assert combo.difficulty_counts == (0, 0, 4, 0, 0)

    def test_task_step_cells_have_one_observation_each(self):
        table = build_table(self.make_single_user_corpus(),
                            TableMode.TASK_STEP_BASED)
        for step in range(1, 13):
            cell = table.cells[ContextKey(T000, ProactiveAct.NONE, step)]
            assert cell.n == 1

    def test_request_combos_land_in_their_slots(self):
        per_step = {
            1: dict(help_request=False, suggestion_request=False),
            4: dict(help_request=False, suggestion_request=True),
            7: dict(help_request=True, suggestion_request=False),
            10: dict(help_request=True, suggestion_request=True),
        }
        user = make_user(user_id="u0", **LOW_TRAITS)
        table = build_table(corpus_of((user, dialog_with("u0", per_step))),
                            TableMode.COMPLEXITY_BASED)
        cell = table.cells[ContextKey(T000, ProactiveAct.NONE, 3)]
        assert cell.request_counts == (1, 1, 1, 1)
        assert cell.request_probs == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_bad_mode_and_threshold(self, small_corpus):
        with pytest.raises(InvalidConfig):
            build_table(small_corpus, "complexity")
        with pytest.raises(InvalidConfig):
            build_table(small_corpus, TableMode.COMPLEXITY_BASED,
                        fallback_threshold=0)
        with pytest.raises(InvalidConfig):
            build_table(small_corpus, TableMode.COMPLEXITY_BASED,
                        fallback_threshold=2.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_table(corpus_from_rows((), {}), TableMode.COMPLEXITY_BASED)


MOMENTS = ("score_mean", "score_sd", "duration_mean", "duration_sd")


def assert_cells_match(got: dict, want: dict):
    """Equal keys, counts and difficulty counts; moments to rtol 1e-12."""
    assert got.keys() == want.keys()
    for key, cell in want.items():
        assert got[key].n == cell.n
        assert got[key].request_counts == cell.request_counts
        for mine, theirs in zip(got[key].combos, cell.combos):
            assert mine.n == theirs.n
            assert mine.difficulty_counts == theirs.difficulty_counts
            np.testing.assert_allclose(
                [getattr(mine, name) for name in MOMENTS],
                [getattr(theirs, name) for name in MOMENTS], rtol=1e-12, atol=0)


class TestBuildEqualsReference:
    """build_table's grouped reductions and merged slices against the
    per-level builder they replaced: trait cells, act slices and condition
    slices alike."""

    @pytest.mark.parametrize("threshold", [1, 10, 40])
    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("corpus_name", ["small_corpus", "drifting_corpus",
                                             "default_corpus"])
    def test_cells_and_slices(self, request, tmp_path, corpus_name, mode, threshold):
        corpus = request.getfixturevalue(corpus_name)
        table = build_table(corpus, mode, threshold)
        want = reference_build_table(corpus, mode)
        for got, expected in zip((table.cells, table.fallback_cells,
                                  table.condition_cells), want):
            assert_cells_match(got, expected)
        save_table(table, tmp_path / "a.json")
        loaded = load_table(tmp_path / "a.json")
        assert loaded == table
        assert loaded.resolved == table.resolved
        assert (loaded.fallback_cells, loaded.condition_cells) == (
            table.fallback_cells, table.condition_cells)
        save_table(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def nine_or_ten_corpus(n_extra_none: int) -> Corpus:
    """Corpus where (000, NONE, complexity 3) holds exactly 8 + n_extra_none
    observations; remaining complexity-3 slots carry NOTIFICATION."""
    entries = []
    for i in range(2):
        user = make_user(user_id=f"a{i}", **LOW_TRAITS)
        entries.append((user, make_dialog(user.user_id)))  # 4 each at cond 3
    acts = [ProactiveAct.NOTIFICATION] * 12
    c3_steps = (1, 4, 7, 10)
    for j in range(n_extra_none):
        acts[c3_steps[j] - 1] = ProactiveAct.NONE
    user = make_user(user_id="b0", **LOW_TRAITS)
    entries.append((user, make_dialog(user.user_id, acts=list(acts))))
    return corpus_from_rows([u for u, _ in entries], {u.user_id: d for u, d in entries})


class TestFallbackThresholdBoundary:
    def test_nine_observations_fall_back(self):
        table = build_table(nine_or_ten_corpus(1), TableMode.COMPLEXITY_BASED)
        key = ContextKey(T000, ProactiveAct.NONE, 3)
        assert table.cells[key].n == 9
        stats, used_fallback = lookup(table, key)
        assert used_fallback is True
        assert stats.n == 9  # all NONE/cond-3 rows share the trait tuple here

    def test_ten_observations_resolve_directly(self):
        table = build_table(nine_or_ten_corpus(2), TableMode.COMPLEXITY_BASED)
        key = ContextKey(T000, ProactiveAct.NONE, 3)
        assert table.cells[key].n == 10
        stats, used_fallback = lookup(table, key)
        assert used_fallback is False
        assert stats is table.cells[key]

    def test_lower_threshold_admits_sparse_cell(self):
        table = build_table(nine_or_ten_corpus(1), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=9)
        _, used_fallback = lookup(table, ContextKey(T000, ProactiveAct.NONE, 3))
        assert used_fallback is False


def two_group_corpus() -> Corpus:
    """One low-trait user (sparse cells) and three high-trait users."""
    entries = [(make_user(user_id="x0", **LOW_TRAITS),
                make_dialog("x0", game_score=10.0))]
    for i in range(3):
        uid = f"y{i}"
        entries.append((make_user(user_id=uid, **HIGH_TRAITS),
                        make_dialog(uid, game_score=30.0)))
    return corpus_of(*entries)


def alternating_act_corpus() -> Corpus:
    """One user alternating NONE and NOTIFICATION: no SUGGESTION or
    INTERVENTION slice exists."""
    acts = [ProactiveAct.NONE, ProactiveAct.NOTIFICATION] * 6
    user = make_user(user_id="u0", **LOW_TRAITS)
    return corpus_of((user, make_dialog("u0", acts=acts)))


def combo_gap_corpus() -> Corpus:
    """The low-trait users never request help; the high-trait user always
    does, and nobody asks for a suggestion."""
    entries = []
    for i in range(2):
        uid = f"a{i}"
        entries.append((make_user(user_id=uid, **LOW_TRAITS),
                        make_dialog(uid, game_score=20.0, duration=40.0)))
    entries.append((make_user(user_id="b0", **HIGH_TRAITS),
                    make_dialog("b0", game_score=30.0, duration=60.0,
                                help_request=True)))
    return corpus_of(*entries)


class TestFallbackLadder:
    def test_sparse_traits_use_act_condition_slice(self):
        table = build_table(two_group_corpus(), TableMode.COMPLEXITY_BASED)
        stats, used_fallback = lookup(
            table, ContextKey(T000, ProactiveAct.NONE, 3))
        assert used_fallback is True
        assert stats.n == 16
        assert stats.combos[0].score_mean == pytest.approx(25.0)

    def test_dense_traits_resolve_directly(self):
        table = build_table(two_group_corpus(), TableMode.COMPLEXITY_BASED)
        stats, used_fallback = lookup(
            table, ContextKey(T111, ProactiveAct.NONE, 3))
        assert used_fallback is False
        assert stats.n == 12
        assert stats.combos[0].score_mean == pytest.approx(30.0)

    def test_unseen_act_falls_to_condition_slice(self):
        # only NONE and NOTIFICATION appear; asking for SUGGESTION lands on
        # the condition-wide cell
        table = build_table(alternating_act_corpus(), TableMode.COMPLEXITY_BASED)
        stats, used_fallback = lookup(
            table, ContextKey(T000, ProactiveAct.SUGGESTION, 3))
        assert used_fallback is True
        assert stats is table.condition_cells[3]
        assert stats.n == 4

    def test_act_slice_preferred_over_condition_slice(self):
        table = build_table(alternating_act_corpus(), TableMode.COMPLEXITY_BASED)
        # steps 1 and 7 are NONE at complexity 3, steps 4 and 10 NOTIFICATION
        stats, used_fallback = lookup(
            table, ContextKey(T000, ProactiveAct.NONE, 3))
        assert used_fallback is True
        assert stats.n == 2
        assert stats is table.fallback_cells[(ProactiveAct.NONE, 3)]

    def test_condition_outside_mode_is_rejected(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig):
            lookup(table, ContextKey(T000, ProactiveAct.NONE, 6))
        step_table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        with pytest.raises(InvalidConfig):
            lookup(step_table, ContextKey(T000, ProactiveAct.NONE, 13))

    def test_empty_ladder_raises(self):
        # keys with no rung are rejected when the table is built, not looked up
        with pytest.raises(NoDataForCondition):
            BehaviorTable(mode=TableMode.COMPLEXITY_BASED, fallback_threshold=10,
                          cells={})

    def test_key_of_no_context_is_rejected(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig):
            lookup(table, ContextKey(T000, "none", 3))
        stray = {**table.cells, ContextKey(T000, "none", 3): next(iter(table.cells.values()))}
        with pytest.raises(InvalidConfig, match="names no context"):
            dataclasses.replace(table, cells=stray)


class TestResolveComboStats:
    def test_combo_missing_in_direct_cell_descends(self):
        table = build_table(combo_gap_corpus(), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=2)
        key = ContextKey(T000, ProactiveAct.NONE, 3)
        # the (help, no-suggestion) rows all belong to the other trait group
        combo = resolve_combo_stats(table, key, combo_index(True, False))
        assert combo.n == 4
        assert combo.score_mean == pytest.approx(30.0)
        assert combo.duration_mean == pytest.approx(60.0)

    def test_combo_present_in_direct_cell_stays(self):
        table = build_table(combo_gap_corpus(), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=2)
        key = ContextKey(T000, ProactiveAct.NONE, 3)
        combo = resolve_combo_stats(table, key, combo_index(False, False))
        assert combo.n == 8
        assert combo.score_mean == pytest.approx(20.0)

    def test_combo_absent_everywhere_pools_last_rung(self):
        table = build_table(combo_gap_corpus(), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=2)
        key = ContextKey(T000, ProactiveAct.NONE, 3)
        combo = resolve_combo_stats(table, key, combo_index(True, True))
        # pooled condition-3 slice: 8 rows at (20, 40) and 4 rows at (30, 60)
        assert combo.n == 12
        assert combo.score_mean == pytest.approx(70 / 3)
        assert combo.score_sd == pytest.approx(math.sqrt(200 / 9))
        assert combo.duration_mean == pytest.approx(140 / 3)
        assert combo.duration_sd == pytest.approx(math.sqrt(800 / 9))
        assert combo.difficulty_counts == (0, 0, 12, 0, 0)


def outcome(fn, *args):
    """What a call returns, or the type of the TrustSimError it raises."""
    try:
        return fn(*args)
    except TrustSimError as exc:
        return type(exc)


def without_condition(table, condition):
    """The same table with every cell at one condition removed."""
    return dataclasses.replace(
        table, cells={k: c for k, c in table.cells.items() if k.condition != condition})


GAP_FIXTURES = {
    "two-group": two_group_corpus,
    "alternating-act": alternating_act_corpus,
    "combo-gap": combo_gap_corpus,
    "nine": lambda: nine_or_ten_corpus(1),
    "ten": lambda: nine_or_ten_corpus(2),
}


class TestResolvedLadderEqualsReference:
    """Exhaustive check of the ladder a table resolves once against the
    per-call reference ladder, over every key and request combination of
    both modes. Conditions 0..13 include out-of-mode ones for both modes;
    a key whose act slice has no cell (the alternating-act fixture)
    descends from its trait cell straight to the condition slice. Variants
    that leave a condition with no rung at all are rejected when they are
    built."""

    @pytest.mark.parametrize("threshold", [2, 10])
    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("corpus_name", ["default", *GAP_FIXTURES])
    def test_every_key_and_combo(self, default_corpus, corpus_name, mode, threshold):
        corpus = (default_corpus if corpus_name == "default"
                  else GAP_FIXTURES[corpus_name]())
        table = build_table(corpus, mode, threshold)
        first = mode.conditions()[0]
        with pytest.raises(NoDataForCondition):
            without_condition(table, first)
        with pytest.raises(NoDataForCondition):
            dataclasses.replace(table, cells={})
        seen = set()
        for tt, act, cond in itertools.product(ALL_TRAIT_TUPLES, ACT_ORDER,
                                               range(0, 14)):
            key = ContextKey(tt, act, cond)
            got, want = outcome(lookup, table, key), outcome(reference_lookup, table, key)
            if isinstance(want, type):
                assert got is want
                seen.add(want)
            else:
                assert got[0] is want[0]
                assert got[1] is want[1]
                seen.add(want[1])
            for idx in range(len(REQUEST_COMBOS)):
                assert outcome(resolve_combo_stats, table, key, idx) == outcome(
                    reference_combo_stats, table, key, idx)
        # out-of-mode keys are rejected, and every other key resolves
        assert InvalidConfig in seen and seen - {InvalidConfig}


class TestPooling:
    def combo_from_raw(self, scores, durations, difficulties):
        s = np.asarray(scores, dtype=float)
        d = np.asarray(durations, dtype=float)
        counts = [0] * 5
        for c in difficulties:
            counts[c - 1] += 1
        return ComboStats(len(scores), float(s.mean()), float(s.std()),
                          float(d.mean()), float(d.std()), tuple(counts))

    def test_pooled_matches_concatenated_raw_data(self):
        raw = [
            ([10.0, 20.0], [30.0, 35.0], [1, 2]),
            ([30.0, 30.0, 40.0], [50.0, 55.0, 60.0], [3, 3, 4]),
            ([20.0], [45.0], [5]),
        ]
        combos = [self.combo_from_raw(*r) for r in raw]
        combos.append(ComboStats(0, 0.0, 0.0, 0.0, 0.0, (0,) * 5))
        cell = CellStats(n=6, request_counts=(2, 3, 1, 0), combos=tuple(combos))
        pooled = cell.pooled()
        all_scores = np.concatenate([np.asarray(r[0]) for r in raw])
        all_durs = np.concatenate([np.asarray(r[1]) for r in raw])
        assert pooled.n == 6
        assert pooled.score_mean == pytest.approx(all_scores.mean(), rel=1e-12)
        assert pooled.score_sd == pytest.approx(all_scores.std(), rel=1e-12)
        assert pooled.duration_mean == pytest.approx(all_durs.mean(), rel=1e-12)
        assert pooled.duration_sd == pytest.approx(all_durs.std(), rel=1e-12)
        assert pooled.difficulty_counts == (1, 1, 2, 1, 1)

    def test_empty_cell_pools_to_empty(self):
        cell = CellStats(n=0, request_counts=(0, 0, 0, 0),
                         combos=(ComboStats(0, 0, 0, 0, 0, (0,) * 5),) * 4)
        assert cell.pooled().n == 0

    @pytest.mark.parametrize("n,score_sd", [(1, 1e200), (10 ** 400, 1.0)],
                             ids=["squared-sd", "int-count"])
    def test_overflow_is_invalid_config(self, n, score_sd):
        # the squared sd, or a count too large for a float, overflows
        empty = ComboStats(0, 0.0, 0.0, 0.0, 0.0, (0,) * 5)
        combo = ComboStats(n, 20.0, score_sd, 40.0, 1.0, (n, 0, 0, 0, 0))
        cell = CellStats(n=n, request_counts=(n, 0, 0, 0),
                         combos=(combo, empty, empty, empty))
        with pytest.raises(InvalidConfig):
            cell.pooled()


class TestCorruptTable:
    """Values a build never writes are rejected when a table is built or
    loaded, whether or not a draw would ever read them."""

    @pytest.mark.parametrize("name,value", [
        ("score_mean", math.nan), ("duration_mean", -math.inf),
        pytest.param("score_mean", 10 ** 400, id="score_mean-int-beyond-float"),
        ("score_sd", -1.0), ("duration_sd", math.inf), ("duration_sd", math.nan),
        pytest.param("score_sd", 10 ** 400, id="score_sd-int-beyond-float"),
        ("duration_mean", True), ("score_sd", "1.0"),
    ])
    def test_combo_value_out_of_range(self, name, value):
        stats = dict(n=1, score_mean=20.0, score_sd=1.0, duration_mean=40.0,
                     duration_sd=1.0, difficulty_counts=(1, 0, 0, 0, 0))
        with pytest.raises(InvalidConfig, match=name):
            ComboStats(**{**stats, name: value})

    def test_combo_count_must_equal_request_count(self):
        combo = ComboStats(1, 20.0, 1.0, 40.0, 1.0, (1, 0, 0, 0, 0))
        with pytest.raises(InvalidConfig):
            CellStats(n=2, request_counts=(2, 0, 0, 0), combos=(combo,) * 4)

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("corruption", list(TABLE_CORRUPTIONS))
    def test_rejected_at_load(self, small_corpus, tmp_path, mode, corruption):
        payload = table_to_json_dict(build_table(small_corpus, mode))
        edit, error = TABLE_CORRUPTIONS[corruption]
        edit(payload)
        (tmp_path / "table.json").write_text(json.dumps(payload))
        with pytest.raises(TrustSimError) as info:
            load_table(tmp_path / "table.json")
        assert type(info.value).__name__ == error


def merge_cells(cells):
    """Exact merge of CellStats for the aggregation-equivalence check."""
    n = sum(c.n for c in cells)
    counts = tuple(sum(c.request_counts[i] for c in cells) for i in range(4))
    combos = []
    for i in range(4):
        parts = [c.combos[i] for c in cells if c.combos[i].n > 0]
        m = sum(p.n for p in parts)
        if m == 0:
            combos.append(ComboStats(0, 0.0, 0.0, 0.0, 0.0, (0,) * 5))
            continue
        s_sum = sum(p.n * p.score_mean for p in parts)
        d_sum = sum(p.n * p.duration_mean for p in parts)
        s_sq = sum(p.n * (p.score_sd ** 2 + p.score_mean ** 2) for p in parts)
        d_sq = sum(p.n * (p.duration_sd ** 2 + p.duration_mean ** 2) for p in parts)
        diff = tuple(sum(p.difficulty_counts[j] for p in parts) for j in range(5))
        s_mean, d_mean = s_sum / m, d_sum / m
        combos.append(ComboStats(
            m, s_mean, math.sqrt(max(0.0, s_sq / m - s_mean ** 2)),
            d_mean, math.sqrt(max(0.0, d_sq / m - d_mean ** 2)), diff))
    return CellStats(n=n, request_counts=counts, combos=tuple(combos))


class TestAggregationEquivalence:
    def test_step_cells_pool_to_complexity_cells(self, default_corpus):
        """Merging the four step cells of one complexity recovers the
        complexity cell: counts integer-exact, moments to float precision."""
        by_step = build_table(default_corpus, TableMode.TASK_STEP_BASED)
        by_complexity = build_table(default_corpus, TableMode.COMPLEXITY_BASED)
        steps_of = {k: [s for s in range(1, 13) if 3 + (s - 1) % 3 == k]
                    for k in (3, 4, 5)}
        checked = 0
        for key, cell in by_complexity.cells.items():
            parts = [
                by_step.cells[ContextKey(key.trait_tuple, key.proactive_act, s)]
                for s in steps_of[key.condition]
                if ContextKey(key.trait_tuple, key.proactive_act, s) in by_step.cells
            ]
            merged = merge_cells(parts)
            assert merged.n == cell.n
            assert merged.request_counts == cell.request_counts
            for got, want in zip(merged.combos, cell.combos):
                assert got.n == want.n
                assert got.difficulty_counts == want.difficulty_counts
                assert got.score_mean == pytest.approx(want.score_mean, abs=1e-9)
                assert got.score_sd == pytest.approx(want.score_sd, abs=1e-9)
                assert got.duration_mean == pytest.approx(want.duration_mean, abs=1e-9)
                assert got.duration_sd == pytest.approx(want.duration_sd, abs=1e-9)
            checked += 1
        assert checked == len(by_complexity.cells)

    def test_fallback_slices_also_pool(self, default_corpus):
        by_step = build_table(default_corpus, TableMode.TASK_STEP_BASED)
        by_complexity = build_table(default_corpus, TableMode.COMPLEXITY_BASED)
        for (act, k), cell in by_complexity.fallback_cells.items():
            parts = [by_step.fallback_cells[(act, s)]
                     for s in range(1, 13)
                     if 3 + (s - 1) % 3 == k and (act, s) in by_step.fallback_cells]
            assert merge_cells(parts).n == cell.n


class TestSummary:
    def test_possible_key_counts(self, small_corpus):
        by_complexity = table_summary(
            build_table(small_corpus, TableMode.COMPLEXITY_BASED))
        by_step = table_summary(
            build_table(small_corpus, TableMode.TASK_STEP_BASED))
        assert by_complexity["possible_keys"] == 8 * 4 * 3
        assert by_step["possible_keys"] == 8 * 4 * 12
        assert by_complexity["observed_keys"] > 0
        assert 0.0 <= by_complexity["fallback_fraction"] <= 1.0
        # one observation per (user, step): the step mode spreads the same
        # data over 4x as many keys, so more of its cells are sparse
        assert by_step["fallback_fraction"] >= by_complexity["fallback_fraction"]

    def test_uniform_corpus_slice_accounting(self):
        corpus = make_corpus(n_users=3)  # single trait tuple, all NONE
        summary = table_summary(build_table(corpus, TableMode.COMPLEXITY_BASED))
        assert summary["observed_keys"] == 3
        slices = {(s["act"], s["condition"]): s for s in summary["per_act_condition"]}
        slice_stats = slices[(ProactiveAct.NONE.value, 3)]
        assert slice_stats["n"] == 12
        assert slice_stats["trait_cells_observed"] == 1
        assert slice_stats["trait_cells_at_threshold"] == 1
        assert slice_stats["fallback_fraction"] == pytest.approx(1 - 1 / 8)
        empty_slice = slices[(ProactiveAct.SUGGESTION.value, 4)]
        assert empty_slice["n"] == 0
        assert empty_slice["fallback_fraction"] == 1.0

    def test_json_dict_shape(self, small_corpus):
        payload = table_summary(build_table(small_corpus, TableMode.COMPLEXITY_BASED))
        assert payload["mode"] == "complexity"
        assert len(payload["per_act_condition"]) == 4 * 3
        assert {"act", "condition", "n"} <= set(payload["per_act_condition"][0])
        # ACT_ORDER x condition order
        assert [(s["act"], s["condition"]) for s in payload["per_act_condition"]] == [
            (act.value, k) for act in ACT_ORDER for k in (3, 4, 5)]


class TestSerialization:
    def test_rejects_condition_outside_mode(self, small_corpus):
        payload = table_to_json_dict(
            build_table(small_corpus, TableMode.COMPLEXITY_BASED))
        payload["cells"][0]["condition"] = 7
        with pytest.raises(InvalidConfig):
            table_from_json_dict(payload)

    def test_resolution_is_outside_equality_and_repr(self, small_corpus):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        loaded = table_from_json_dict(table_to_json_dict(table))
        assert loaded.resolved is not table.resolved
        assert loaded.resolved == table.resolved
        assert "resolved" not in repr(table)

    def test_round_trip_preserves_everything(self, small_corpus, tmp_path):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        path = tmp_path / "table.json"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    def test_bytes_equal_the_asdict_writer(self, default_corpus, tmp_path, mode):
        table = build_table(default_corpus, mode)
        save_table(table, tmp_path / "a.json")
        reference_save_table(table, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_is_byte_stable(self, small_corpus, tmp_path):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        save_table(table, tmp_path / "a.json")
        save_table(table, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("tag", ["behavior-table/v0", "behavior-table/v1"])
    def test_rejects_wrong_format_tag(self, small_corpus, tag):
        payload = table_to_json_dict(
            build_table(small_corpus, TableMode.COMPLEXITY_BASED))
        assert set(payload) == {"format", "mode", "fallback_threshold", "cells"}
        payload["format"] = tag
        with pytest.raises(InvalidConfig, match="refit"):
            table_from_json_dict(payload)

    def test_mode_enum_survives(self, small_corpus, tmp_path):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        save_table(table, tmp_path / "t.json")
        assert load_table(tmp_path / "t.json").mode is TableMode.TASK_STEP_BASED


class TestPerStepMeanTracking:
    """When behavior shifts with step position, per-step conditioning
    reproduces each step's mean exactly while complexity conditioning
    smears the four steps of a level together."""

    @pytest.mark.parametrize("attr,value_of", [
        ("score_mean", lambda ex: ex.game_score),
        ("duration_mean", lambda ex: ex.duration),
    ])
    def test_step_cells_track_per_step_means(self, drifting_corpus, attr, value_of):
        step_table = build_table(drifting_corpus, TableMode.TASK_STEP_BASED)
        cx_table = build_table(drifting_corpus, TableMode.COMPLEXITY_BASED)

        def table_mean(table, condition):
            total = n = 0.0
            for key, cell in table.cells.items():
                if key.condition == condition:
                    total += cell.n * getattr(cell.pooled(), attr)
                    n += cell.n
            return total / n

        truth = {s: [] for s in range(1, 13)}
        for _, ex in exchanges_of(drifting_corpus):
            truth[ex.step].append(value_of(ex))

        err_step, err_cx = [], []
        for s in range(1, 13):
            target = sum(truth[s]) / len(truth[s])
            err_step.append(abs(table_mean(step_table, s) - target))
            err_cx.append(abs(table_mean(cx_table, complexity_of_step(s)) - target))
        # per-step cells partition exactly the step's own observations
        assert max(err_step) < 1e-9
        assert sum(err_step) < sum(err_cx)
        assert max(err_cx) > 0.5
