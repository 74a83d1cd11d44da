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
    TABLE_MALFORMATIONS,
    CellStats,
    ComboStats,
    assert_table_equals_oracle,
    combo_at,
    combo_index,
    corpus_from_rows,
    draw_parameters,
    exchanges_of,
    make_corpus,
    make_dialog,
    make_exchange,
    make_user,
    mode_keys,
    oracle_table,
    reference_build_table,
    served_row,
)
from trustsim.behavior_tables import (
    ACT_SLICE,
    COLUMNS,
    CONDITION_SLICE,
    REQUEST_COMBOS,
    ROW_SCORE,
    TABLE_FORMAT,
    TRAIT_CELL,
    BehaviorTable,
    Stats,
    TableMode,
    _merge,
    build_table,
    key_code,
    load_table,
    lookup,
    save_table,
    table_from_json_dict,
    table_summary,
    table_to_json_dict,
)
from trustsim.corpus import ACT_INDEX, ACT_ORDER, Corpus, ProactiveAct, complexity_of_step
from trustsim.errors import EmptyCorpus, InvalidConfig, NoDataForCondition, TrustSimError
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.user_model import N_TRAIT_CODES

LOW_TRAITS = dict(domain_expertise=1.0, trust_propensity=1.0, technical_affinity=1.0)
HIGH_TRAITS = dict(domain_expertise=5.0, trust_propensity=5.0, technical_affinity=5.0)

# the trait codes of LOW_TRAITS and HIGH_TRAITS
T000, T111 = 0b000, 0b111


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
    def test_unravel_index_inverts_it_over_every_key(self, mode):
        """key_code and np.unravel_index(code, (8, 4, len(conditions))) are
        inverses, for ints and for arrays."""
        conditions = mode.conditions()
        shape = (N_TRAIT_CODES, len(ACT_ORDER), len(conditions))
        keys = [(trait, ACT_INDEX[act], condition)
                for trait, act, condition in mode_keys(mode)]
        assert len(keys) == np.prod(shape)
        for code, (trait, act, condition) in enumerate(keys):
            assert key_code(mode, trait, act, condition) == code
            assert tuple(map(int, np.unravel_index(code, shape))) == (
                trait, act, conditions.index(condition))
        codes = key_code(mode, *np.array(keys).T)
        assert codes.tolist() == list(range(len(keys)))
        trait, act, cond = np.unravel_index(codes, shape)
        assert list(zip(trait.tolist(), act.tolist(),
                        np.array(conditions)[cond].tolist())) == keys


def code_of(table, key) -> int:
    trait, act, condition = key
    return key_code(table.mode, trait, ACT_INDEX[act], condition)


def columns_of(table) -> dict:
    return {name: getattr(table, name) for name in COLUMNS}


def with_columns(table, **columns) -> BehaviorTable:
    """The table's mode, threshold and columns, some replaced."""
    return BehaviorTable(table.mode, table.fallback_threshold,
                         **{**columns_of(table), **columns})


def edited_column(table, name, index, value) -> np.ndarray:
    column = getattr(table, name).copy()
    column[index] = value
    return column


class TestColumnInvariants:
    @pytest.fixture(scope="class")
    def table(self, small_corpus):
        return build_table(small_corpus, TableMode.COMPLEXITY_BASED)

    def test_columns_are_read_only(self, table):
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(table, name)[(0,) * getattr(table, name).ndim] = 1
        for array in (table.row_index, table.rows):
            with pytest.raises(ValueError):
                array[0, 0] = 1
        assert table.rows.dtype == np.float64 and table.rows.shape[1] == 17

    @pytest.mark.parametrize("name,shape", [("n", (96, 3)), ("score_sd", (95, 4)),
                                            ("difficulty_counts", (96, 4, 4))])
    def test_shape_is_fixed_by_the_mode(self, table, name, shape):
        with pytest.raises(InvalidConfig, match=name):
            with_columns(table, **{name: np.zeros(shape, dtype=int)})

    @pytest.mark.parametrize("name,dtype", [("n", bool), ("n", float),
                                            ("difficulty_counts", float),
                                            ("score_mean", bool), ("duration_sd", str),
                                            ("score_mean", object)])
    def test_number_type_is_fixed(self, table, name, dtype):
        with pytest.raises(InvalidConfig, match=name):
            with_columns(table, **{name: getattr(table, name).astype(dtype)})

    def test_difficulty_counts_must_sum_to_n(self, table):
        n = edited_column(table, "n", (0, 0), table.n[0, 0] + 1)
        with pytest.raises(InvalidConfig, match=r"table cell \(traits 000, act None, "
                                                r"condition 3, combination \(False, "
                                                r"False\)\): difficulty_counts"):
            with_columns(table, n=n)

    @pytest.mark.parametrize("value,dtype", [(-1, np.int64), (2 ** 53 + 1, np.int64),
                                             (2 ** 63 + 5, np.uint64)])
    def test_counts_are_ints_a_float_holds(self, table, value, dtype):
        n = table.n.astype(dtype)
        n[3, 1] = value  # a uint64 beyond int64 turns negative in int64
        with pytest.raises(InvalidConfig, match=r"n must be an int in 0\.\.2\*\*53"):
            with_columns(table, n=n)

    def test_first_failing_cell_is_reported(self, table):
        """Cells fail in key order, a cell's columns in COLUMNS order."""
        k = table.n.sum(axis=1).argmax()
        broken = dict(score_sd=edited_column(table, "score_sd", (k, 2), -1.0),
                      duration_mean=edited_column(table, "duration_mean", (k, 2), math.nan),
                      score_mean=edited_column(table, "score_mean", (k + 1, 0), math.inf))
        trait = mode_keys(table.mode)[k][0]
        with pytest.raises(InvalidConfig, match=rf"traits {trait:03b}, .*, "
                                                rf"combination \(True, False\)\): "
                                                rf"score_sd must be a finite number >= 0"):
            with_columns(table, **broken)


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
        k = code_of(table, (T000, ProactiveAct.NONE, 3))
        assert table.n[k].tolist() == [4, 0, 0, 0]
        assert table.score_mean[k, 0] == pytest.approx(20.0)
        assert table.score_sd[k, 0] == pytest.approx(math.sqrt(50.0))
        assert table.duration_mean[k, 0] == pytest.approx(40.0)
        assert table.duration_sd[k, 0] == pytest.approx(math.sqrt(50.0))
        assert table.difficulty_counts[k, 0].tolist() == [0, 0, 4, 0, 0]
        # an unobserved combination holds zeros
        assert table.score_mean[k, 1:].tolist() == [0.0] * 3
        assert table.difficulty_counts[k, 1:].sum() == 0

    def test_task_step_cells_have_one_observation_each(self):
        table = build_table(self.make_single_user_corpus(),
                            TableMode.TASK_STEP_BASED)
        for step in range(1, 13):
            assert table.n[code_of(table, (T000, ProactiveAct.NONE, step))].sum() == 1
        assert table.n.sum() == 12

    def test_request_combos_land_in_their_slots(self):
        per_step = {
            1: dict(help_request=False, suggestion_request=False),
            4: dict(help_request=False, suggestion_request=True),
            7: dict(help_request=True, suggestion_request=False),
            10: dict(help_request=True, suggestion_request=True),
        }
        user = make_user(user_id="u0", **LOW_TRAITS)
        table = build_table(corpus_of((user, dialog_with("u0", per_step))),
                            TableMode.COMPLEXITY_BASED, fallback_threshold=4)
        key = (T000, ProactiveAct.NONE, 3)
        assert table.n[code_of(table, key)].tolist() == [1, 1, 1, 1]
        assert table.request_cum[lookup(table, *key)].tolist() == [0.25, 0.5, 0.75, 1.0]

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


DERIVED = ("rung", "used_fallback", "request_cum", "rows", "row_index")


def assert_same_derivation(got: BehaviorTable, want: BehaviorTable):
    """Equal columns and every derived array equal, bit for bit."""
    assert got == want
    for name in DERIVED:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name


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
        oracle = oracle_table(table)
        for got, expected in zip((oracle.cells, oracle.fallback_cells,
                                  oracle.condition_cells), want):
            assert_cells_match(got, expected)
        save_table(table, tmp_path / "a.json")
        loaded = load_table(tmp_path / "a.json")
        assert_same_derivation(loaded, table)
        save_table(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestArrayTableEqualsOracle:
    """Explicit cases of the property in test_behavior_tables_properties.py:
    tables whose condition slices merge their act slices in an order other
    than ACT_ORDER, because an act appears first under a later trait
    tuple."""

    @pytest.mark.parametrize("n_dialogs", [12, 40])
    def test_merge_order_is_not_act_order(self, n_dialogs):
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs), 42)
        table = build_table(corpus, TableMode.TASK_STEP_BASED)
        oracle = oracle_table(table)
        orders = [[act for act, c in oracle.fallback_cells if c == cond]
                  for cond in TableMode.TASK_STEP_BASED.conditions()]
        assert any(order != sorted(order, key=ACT_ORDER.index) for order in orders)
        assert_table_equals_oracle(table)

    @pytest.mark.parametrize("threshold", [1, 10])
    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    def test_default_corpus(self, default_corpus, mode, threshold):
        assert_table_equals_oracle(build_table(default_corpus, mode, threshold))


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
        key = (T000, ProactiveAct.NONE, 3)
        k = code_of(table, key)
        assert table.n[k].sum() == 9
        assert lookup(table, *key) == k and table.used_fallback[k]
        assert table.rung[k] == ACT_SLICE
        # all NONE/cond-3 rows share the trait code here
        assert oracle_table(table).fallback_cells[key[1:]].n == 9

    def test_ten_observations_resolve_directly(self):
        table = build_table(nine_or_ten_corpus(2), TableMode.COMPLEXITY_BASED)
        key = (T000, ProactiveAct.NONE, 3)
        k = code_of(table, key)
        assert table.n[k].sum() == 10
        assert lookup(table, *key) == k and not table.used_fallback[k]
        assert table.rung[k] == TRAIT_CELL
        assert served_row(table, k, 0) == draw_parameters(combo_at(table, (k, 0)), 3)

    def test_lower_threshold_admits_sparse_cell(self):
        table = build_table(nine_or_ten_corpus(1), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=9)
        assert not table.used_fallback[lookup(table, T000, ProactiveAct.NONE, 3)]


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
        k = code_of(table, (T000, ProactiveAct.NONE, 3))
        assert table.used_fallback[k] and table.rung[k] == ACT_SLICE
        assert oracle_table(table).fallback_cells[(ProactiveAct.NONE, 3)].n == 16
        assert served_row(table, k, 0)[ROW_SCORE][0] == pytest.approx(25.0)

    def test_dense_traits_resolve_directly(self):
        table = build_table(two_group_corpus(), TableMode.COMPLEXITY_BASED)
        k = code_of(table, (T111, ProactiveAct.NONE, 3))
        assert not table.used_fallback[k] and table.rung[k] == TRAIT_CELL
        assert table.n[k].sum() == 12
        assert served_row(table, k, 0)[ROW_SCORE][0] == pytest.approx(30.0)

    def test_unseen_act_falls_to_condition_slice(self):
        # only NONE and NOTIFICATION appear; asking for SUGGESTION lands on
        # the condition-wide slice
        table = build_table(alternating_act_corpus(), TableMode.COMPLEXITY_BASED)
        key = (T000, ProactiveAct.SUGGESTION, 3)
        k = code_of(table, key)
        assert lookup(table, *key) == k and table.used_fallback[k]
        assert table.rung[k] == CONDITION_SLICE
        condition_cell = oracle_table(table).condition_cells[3]
        assert condition_cell.n == 4
        assert served_row(table, k, 0) == draw_parameters(condition_cell.combos[0], 3)

    def test_act_slice_preferred_over_condition_slice(self):
        table = build_table(alternating_act_corpus(), TableMode.COMPLEXITY_BASED)
        # steps 1 and 7 are NONE at complexity 3, steps 4 and 10 NOTIFICATION
        k = code_of(table, (T000, ProactiveAct.NONE, 3))
        assert table.used_fallback[k] and table.rung[k] == ACT_SLICE
        assert oracle_table(table).fallback_cells[(ProactiveAct.NONE, 3)].n == 2

    def test_condition_outside_mode_is_rejected(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig):
            lookup(table, T000, ProactiveAct.NONE, 6)
        step_table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        with pytest.raises(InvalidConfig):
            lookup(step_table, T000, ProactiveAct.NONE, 13)

    def test_empty_ladder_raises(self, small_corpus):
        # keys with no rung are rejected when the table is built, not looked up
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(NoDataForCondition):
            with_columns(table, **{name: np.zeros_like(column)
                                   for name, column in columns_of(table).items()})

    def test_act_that_is_no_proactive_act_is_rejected(self, small_corpus):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig, match="act must be a ProactiveAct"):
            lookup(table, T000, "none", 3)

    @pytest.mark.parametrize("trait", [True, False, 1.0, "000", None, -1, 8])
    def test_trait_that_is_no_code_is_rejected(self, small_corpus, trait):
        """A bool, a non-int or an int outside 0..7 names no trait code."""
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig, match="trait code must be an int"):
            lookup(table, trait, ProactiveAct.NONE, 3)

    @pytest.mark.parametrize("mode,condition", [
        (TableMode.TASK_STEP_BASED, True), (TableMode.TASK_STEP_BASED, 2.0),
        (TableMode.COMPLEXITY_BASED, 3.0), (TableMode.COMPLEXITY_BASED, "3")])
    def test_condition_that_is_no_int_is_rejected(self, small_corpus, mode, condition):
        """True equals 1 and 2.0 equals 2, so a membership test alone
        would serve steps 1 and 2 with them."""
        table = build_table(small_corpus, mode)
        with pytest.raises(InvalidConfig, match="condition must be an integer"):
            lookup(table, T000, ProactiveAct.NONE, condition)

    def test_numpy_ints_serve_the_key_of_their_value(self, small_corpus):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        assert lookup(table, np.int64(T111), ProactiveAct.NONE, np.int64(2)) == \
            lookup(table, T111, ProactiveAct.NONE, 2)

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("as_int", [int, np.int64, np.uint8], ids=lambda t: t.__name__)
    def test_returns_the_python_int_key_code(self, small_corpus, mode, as_int):
        """Every key's code as a Python int, for numpy-int parts too."""
        table = build_table(small_corpus, mode)
        for trait, act, condition in mode_keys(mode):
            code = lookup(table, as_int(trait), act, as_int(condition))
            assert type(code) is int
            assert code == key_code(mode, trait, ACT_INDEX[act], condition)


class TestServedStats:
    def test_combo_missing_in_direct_cell_descends(self):
        table = build_table(combo_gap_corpus(), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=2)
        k = code_of(table, (T000, ProactiveAct.NONE, 3))
        # the (help, no-suggestion) rows all belong to the other trait group,
        # so the NONE/condition-3 act slice serves them
        combo = combo_index(True, False)
        served = oracle_table(table).fallback_cells[(ProactiveAct.NONE, 3)].combos[combo]
        assert served.n == 4
        assert served.score_mean == pytest.approx(30.0)
        assert served.duration_mean == pytest.approx(60.0)
        assert served_row(table, k, combo) == draw_parameters(served, 3)

    def test_combo_present_in_direct_cell_stays(self):
        table = build_table(combo_gap_corpus(), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=2)
        k = code_of(table, (T000, ProactiveAct.NONE, 3))
        combo = combo_index(False, False)
        served = combo_at(table, (k, combo))
        assert served.n == 8
        assert served.score_mean == pytest.approx(20.0)
        assert served_row(table, k, combo) == draw_parameters(served, 3)

    def test_combo_absent_everywhere_pools_last_rung(self):
        table = build_table(combo_gap_corpus(), TableMode.COMPLEXITY_BASED,
                            fallback_threshold=2)
        k = code_of(table, (T000, ProactiveAct.NONE, 3))
        combo = combo_index(True, True)
        # pooled condition-3 slice: 8 rows at (20, 40) and 4 rows at (30, 60)
        served = oracle_table(table).condition_cells[3].pooled()
        assert served_row(table, k, combo) == draw_parameters(served, 3)
        assert served.n == 12
        assert served.score_mean == pytest.approx(70 / 3)
        assert served.score_sd == pytest.approx(math.sqrt(200 / 9))
        assert served.duration_mean == pytest.approx(140 / 3)
        assert served.duration_sd == pytest.approx(math.sqrt(800 / 9))
        assert served.difficulty_counts == (0, 0, 12, 0, 0)


def without_condition(table, condition):
    """The same table with every key at one condition emptied."""
    at = np.array([key[2] == condition for key in mode_keys(table.mode)])
    return with_columns(table, **{name: np.where(at.reshape(-1, *[1] * (column.ndim - 1)),
                                                 0, column).astype(column.dtype)
                                  for name, column in columns_of(table).items()})


GAP_FIXTURES = {
    "two-group": two_group_corpus,
    "alternating-act": alternating_act_corpus,
    "combo-gap": combo_gap_corpus,
    "nine": lambda: nine_or_ten_corpus(1),
    "ten": lambda: nine_or_ten_corpus(2),
}


class TestResolvedLadderEqualsReference:
    """Exhaustive check of the ladder a table resolves once against the
    per-call reference ladder of the dataclass oracle, over every key and
    request combination of both modes; a key whose act slice has no data
    (the alternating-act fixture) descends from its trait cell straight to
    the condition slice. Variants that leave a condition with no rung at all
    are rejected when they are built."""

    @pytest.mark.parametrize("threshold", [2, 10])
    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("corpus_name", ["default", *GAP_FIXTURES])
    def test_every_key_and_combo(self, default_corpus, corpus_name, mode, threshold):
        corpus = (default_corpus if corpus_name == "default"
                  else GAP_FIXTURES[corpus_name]())
        table = build_table(corpus, mode, threshold)
        for condition in (mode.conditions()[0], mode.conditions()[-1]):
            with pytest.raises(NoDataForCondition, match=f"condition {condition}$"):
                without_condition(table, condition)
        assert_table_equals_oracle(table)

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    def test_out_of_mode_conditions_are_rejected(self, small_corpus, mode):
        table = build_table(small_corpus, mode)
        for key in itertools.product(range(N_TRAIT_CODES), ACT_ORDER, range(0, 14)):
            cond = key[2]
            if cond in mode.conditions():
                assert lookup(table, *key) == key_code(mode, key[0], ACT_INDEX[key[1]], cond)
            else:
                with pytest.raises(InvalidConfig, match="does not belong"):
                    lookup(table, *key)


def raw_stats(scores, durations, difficulties) -> Stats:
    s, d = np.asarray(scores, dtype=float), np.asarray(durations, dtype=float)
    return Stats(len(s), s.mean() if len(s) else 0.0, s.std() if len(s) else 0.0,
                 d.mean() if len(d) else 0.0, d.std() if len(d) else 0.0,
                 np.bincount(np.asarray(difficulties, dtype=int) - 1, minlength=5))


def stacked(parts) -> Stats:
    return Stats(*map(np.array, zip(*parts)))


class TestMerge:
    def test_merge_matches_concatenated_raw_data(self):
        raw = [
            ([10.0, 20.0], [30.0, 35.0], [1, 2]),
            ([30.0, 30.0, 40.0], [50.0, 55.0, 60.0], [3, 3, 4]),
            ([20.0], [45.0], [5]),
            ([], [], []),
        ]
        merged = _merge(stacked([raw_stats(*r) for r in raw]))
        whole = raw_stats(*(sum((list(r[i]) for r in raw), []) for i in range(3)))
        assert merged.n == 6
        for name in COLUMNS[1:-1]:
            assert getattr(merged, name) == pytest.approx(getattr(whole, name), rel=1e-12)
        assert merged.difficulty_counts.tolist() == [1, 1, 2, 1, 1]

    def test_empty_parts_merge_to_zeros(self):
        merged = _merge(stacked([raw_stats([], [], [])] * 4))
        assert merged.n == 0
        assert [getattr(merged, name).item() for name in COLUMNS[1:-1]] == [0.0] * 4

    def test_parts_without_count_never_enter(self):
        """A part with no count may hold any value; a loaded table's unobserved
        combinations are not checked against the merge."""
        part = raw_stats([20.0, 22.0], [40.0, 44.0], [3, 3])
        junk = Stats(0, 1e308, 1e308, -1e308, 1e308, np.zeros(5, dtype=int))
        for got, want in zip(_merge(stacked([junk, part, junk])), _merge(stacked([part]))):
            assert np.array_equal(got, want)

    def test_overflow_is_invalid_config(self, small_corpus):
        # the squared sd overflows in the merged slices
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig, match="overflow"):
            with_columns(table, score_sd=np.where(table.n > 0, 1e200, 0.0))


class TestCorruptTable:
    """Values a build never writes are rejected when a table is built or
    loaded, whether or not a draw would ever read them."""

    @pytest.mark.parametrize("name,value", [
        ("score_mean", math.nan), ("duration_mean", -math.inf), ("score_mean", math.inf),
        ("score_sd", -1.0), ("duration_sd", math.inf), ("duration_sd", math.nan),
        ("score_sd", -5e-324),
    ])
    def test_combo_value_out_of_range(self, small_corpus, name, value):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        with pytest.raises(InvalidConfig, match=name):
            with_columns(table, **{name: edited_column(table, name, (5, 3), value)})

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

    @pytest.mark.parametrize("malformation", list(TABLE_MALFORMATIONS))
    def test_malformed_payload_is_invalid_config(self, small_corpus, malformation):
        payload = table_to_json_dict(build_table(small_corpus, TableMode.TASK_STEP_BASED))
        with pytest.raises(InvalidConfig):
            table_from_json_dict(TABLE_MALFORMATIONS[malformation](payload))


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
        by_step = oracle_table(build_table(default_corpus, TableMode.TASK_STEP_BASED))
        by_complexity = oracle_table(build_table(default_corpus,
                                                 TableMode.COMPLEXITY_BASED))
        steps_of = {k: [s for s in range(1, 13) if 3 + (s - 1) % 3 == k]
                    for k in (3, 4, 5)}
        checked = 0
        for key, cell in by_complexity.cells.items():
            parts = [by_step.cells[(*key[:2], s)] for s in steps_of[key[2]]
                     if (*key[:2], s) in by_step.cells]
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
        by_step = oracle_table(build_table(default_corpus, TableMode.TASK_STEP_BASED))
        by_complexity = oracle_table(build_table(default_corpus,
                                                 TableMode.COMPLEXITY_BASED))
        # steps 1, 4, 7, 10 are complexity 3, and so on
        pooled = {}
        for (act, step), cell in by_step.fallback_cells.items():
            key = (act, complexity_of_step(step))
            pooled[key] = tuple(map(sum, zip(pooled.get(key, (0,) * len(REQUEST_COMBOS)),
                                             cell.request_counts)))
        assert pooled == {key: cell.request_counts
                          for key, cell in by_complexity.fallback_cells.items()}


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
        corpus = make_corpus(n_users=3)  # single trait code, all NONE
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

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    def test_slice_counts_equal_the_oracle(self, default_corpus, mode):
        table = build_table(default_corpus, mode)
        counts = {(s["act"], s["condition"]): s["n"]
                  for s in table_summary(table)["per_act_condition"]}
        slices = oracle_table(table).fallback_cells
        assert {type(n) for n in counts.values()} == {int}
        assert counts == {(act.value, cond): slices[act, cond].n if (act, cond) in slices else 0
                          for act in ACT_ORDER for cond in mode.conditions()}

    def test_json_dict_shape(self, small_corpus):
        payload = table_summary(build_table(small_corpus, TableMode.COMPLEXITY_BASED))
        assert payload["mode"] == "complexity"
        assert len(payload["per_act_condition"]) == 4 * 3
        assert {"act", "condition", "n"} <= set(payload["per_act_condition"][0])
        # ACT_ORDER x condition order
        assert [(s["act"], s["condition"]) for s in payload["per_act_condition"]] == [
            (act.value, k) for act in ACT_ORDER for k in (3, 4, 5)]


class TestSerialization:
    def test_rejects_columns_of_another_mode(self, small_corpus):
        payload = table_to_json_dict(
            build_table(small_corpus, TableMode.COMPLEXITY_BASED))
        payload["mode"] = TableMode.TASK_STEP_BASED.value
        with pytest.raises(InvalidConfig, match="must be a \\(384, 4\\) array"):
            table_from_json_dict(payload)

    def test_derivation_is_outside_equality_and_repr(self, small_corpus):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        loaded = table_from_json_dict(table_to_json_dict(table))
        assert loaded.row_index is not table.row_index
        assert_same_derivation(loaded, table)
        assert repr(table) == ("BehaviorTable(mode=<TableMode.TASK_STEP_BASED: "
                               "'task-step'>, fallback_threshold=10)")
        assert table != dataclasses.replace(table, fallback_threshold=11)

    def test_round_trip_preserves_everything(self, small_corpus, tmp_path):
        table = build_table(small_corpus, TableMode.TASK_STEP_BASED)
        path = tmp_path / "table.json"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table

    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda m: m.value)
    def test_file_is_one_column_per_statistic(self, default_corpus, tmp_path, mode):
        """Row k of every column is the key of code k: no key is named, and a
        key nothing observed holds zeros."""
        table = build_table(default_corpus, mode)
        save_table(table, tmp_path / "t.json")
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["format"] == TABLE_FORMAT == "behavior-table/v3"
        assert set(payload) == {"format", "mode", "fallback_threshold", *COLUMNS}
        for name in COLUMNS:
            assert payload[name] == getattr(table, name).tolist()
            assert len(payload[name]) == len(mode_keys(mode))

    def test_save_is_byte_stable(self, small_corpus, tmp_path):
        table = build_table(small_corpus, TableMode.COMPLEXITY_BASED)
        save_table(table, tmp_path / "a.json")
        save_table(table, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("tag", ["behavior-table/v0", "behavior-table/v1",
                                     "behavior-table/v2"])
    def test_rejects_wrong_format_tag(self, small_corpus, tag):
        payload = table_to_json_dict(
            build_table(small_corpus, TableMode.COMPLEXITY_BASED))
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
            # the mean over every trait cell at the condition
            at = [key[2] == condition for key in mode_keys(table.mode)]
            return float((table.n[at] * getattr(table, attr)[at]).sum() / table.n[at].sum())

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
