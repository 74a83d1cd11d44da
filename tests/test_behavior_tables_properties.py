"""Hypothesis property tests of the fallback ladder and the table JSON.

Kept apart from test_behavior_tables.py so that the example-based tests
there still run where hypothesis is not installed.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    assert_table_equals_oracle,
    draw_parameters,
    mode_keys,
    oracle_table,
    reference_combo_stats,
)
from trustsim.behavior_tables import (
    COLUMNS,
    REQUEST_COMBOS,
    _STAT_MIN,
    BehaviorTable,
    Stats,
    TableMode,
    _draw_rows,
    _merge,
    build_table,
    load_table,
    save_table,
    table_to_json_dict,
)
from trustsim.corpus import complexity_of_step
from trustsim.errors import InvalidConfig, write_json
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus


@pytest.fixture(scope="module")
def tables(small_corpus):
    """One table per mode; each example re-thresholds it with replace."""
    return {mode: build_table(small_corpus, mode) for mode in TableMode}


class TestLadderProperties:
    @settings(deadline=None, max_examples=60)
    @given(mode=st.sampled_from(list(TableMode)),
           thresholds=st.lists(st.integers(1, 40), min_size=2, max_size=2,
                               unique=True).map(sorted))
    def test_raising_the_threshold_never_turns_a_fallback_into_a_direct_hit(
            self, tables, mode, thresholds):
        low, high = (dataclasses.replace(tables[mode], fallback_threshold=t)
                     for t in thresholds)
        assert (high.used_fallback | ~low.used_fallback).all()
        assert (high.rung >= low.rung).all()


# corpora of 1-12 dialogs, and the sizes of the CI quickstart and the standard corpus
N_DIALOGS = st.one_of(st.integers(1, 12), st.sampled_from([40, 308]))


class TestArrayTableEqualsOracle:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32), n_dialogs=N_DIALOGS,
           mode=st.sampled_from(list(TableMode)), threshold=st.sampled_from([1, 3, 10, 50]))
    def test_every_derived_value_equals_the_dataclass_table(self, seed, n_dialogs, mode,
                                                            threshold):
        """Slices, pooled slices, rungs, flags, request cumulatives, served
        statistics and draw rows, equal to the OracleTable of the same
        columns."""
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs), seed)
        assert_table_equals_oracle(build_table(corpus, mode, threshold))


class TestTableJsonRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32), n_dialogs=st.integers(1, 12),
           mode=st.sampled_from(list(TableMode)), threshold=st.integers(1, 40))
    def test_load_after_save_gives_equal_columns_and_derivation(
            self, tmp_path_factory, seed, n_dialogs, mode, threshold):
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs), seed)
        table = build_table(corpus, mode, threshold)
        path = tmp_path_factory.mktemp("table") / "table.json"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table  # mode, threshold and the columns
        for name in ("request_cum", "used_fallback", "row_index"):
            assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes()
        assert np.array(loaded.rows).tobytes() == np.array(table.rows).tobytes()


def stats_of(rows) -> Stats:
    """Stats of (score, duration, difficulty) rows, by numpy."""
    if not rows:
        return Stats(0, 0.0, 0.0, 0.0, 0.0, np.zeros(5, dtype=int))
    score, duration, difficulty = (np.array(col) for col in zip(*rows))
    return Stats(len(rows), score.mean(), score.std(), duration.mean(), duration.std(),
                 np.bincount(difficulty - 1, minlength=5))


# a sample is a shared offset plus small spreads, so a mean far from zero
# meets an sd far below it: the case where E[x^2] - mean^2 loses the sd
OFFSETS = st.floats(-1e6, 1e6, allow_nan=False)
SPREADS = st.floats(-10.0, 10.0, allow_nan=False)


class TestMergeProperties:
    @settings(deadline=None, max_examples=200)
    @given(OFFSETS, OFFSETS,
           st.lists(st.tuples(SPREADS, SPREADS, st.integers(1, 5), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_merge_of_a_partition_equals_the_whole(self, score_at, duration_at, spread):
        """Merging the four combinations of a cell gives the statistics of
        the concatenated sample: counts exactly, moments to rtol 1e-9 (with
        an absolute floor of 1e-12 times the largest value, because the sd
        of a sample of equal values is rounding noise on both sides)."""
        rows = [(score_at + s, duration_at + d, k, i) for s, d, k, i in spread]
        parts = [[r[:3] for r in rows if r[3] == i] for i in range(len(REQUEST_COMBOS))]
        merged = _merge(Stats(*map(np.array, zip(*map(stats_of, parts)))))
        whole = stats_of([r[:3] for r in rows])
        assert merged.n == whole.n
        assert merged.difficulty_counts.tolist() == whole.difficulty_counts.tolist()
        for mean, sd, column in (("score_mean", "score_sd", 0),
                                 ("duration_mean", "duration_sd", 1)):
            floor = 1e-12 * max(abs(r[column]) for r in rows)
            np.testing.assert_allclose(
                [getattr(merged, mean), getattr(merged, sd)],
                [getattr(whole, mean), getattr(whole, sd)], rtol=1e-9, atol=floor)


# -- the one-pass rows against the scalar row maker ---------------------------

_MAX = sys.float_info.max
# sd 0, subnormal sds, and sds from tiny to the largest float
SDS = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310, 1e-300, _MAX]),
                st.floats(0.0, 1e6), st.floats(0.0, _MAX))
# means near the bounds, far below them (mirrored upper tails), far above
# them, and at the ends of the float range
MEANS = st.one_of(st.floats(-1e3, 1e3), st.floats(-_MAX, _MAX),
                  st.sampled_from([-_MAX, _MAX, -1e300, 1e300, 20.0, 300.0, 10.0, 50.0]))
# counts that float64 holds exactly, and sums past 2**53 that it rounds
COUNTS = st.lists(st.one_of(st.integers(0, 20), st.integers(0, 2 ** 60)),
                  min_size=5, max_size=5).filter(any)
STATISTICS = st.tuples(st.integers(1, 2 ** 53), MEANS, SDS, MEANS, SDS, COUNTS)


def assert_rows_equal_oracle(rows: np.ndarray, statistics, complexity) -> None:
    want = np.array([draw_parameters(Stats(*values), c)
                     for values, c in zip(statistics, complexity)])
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


class TestRowsEqualTheScalarOracle:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(STATISTICS, st.sampled_from([3, 4, 5])), min_size=1,
                    max_size=8))
    def test_one_pass_rows_equal_draw_parameters_bit_for_bit(self, drawn):
        statistics, complexity = zip(*drawn)
        stats = Stats(*(np.array(column) for column in zip(*statistics)))
        rows = _draw_rows(stats, np.array(complexity))
        assert not rows.flags.writeable
        assert_rows_equal_oracle(rows, statistics, complexity)

    @settings(deadline=None, max_examples=40)
    @given(mode=st.sampled_from(list(TableMode)), threshold=st.sampled_from([1, 10]),
           edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.floats(-1e150, 1e150),
                                    SDS.filter(lambda sd: sd < 1e100),
                                    st.floats(-1e150, 1e150),
                                    SDS.filter(lambda sd: sd < 1e100)),
                          min_size=1, max_size=6))
    def test_every_served_row_equals_draw_parameters_in_both_modes(
            self, tables, mode, threshold, edits):
        """Observed combinations given extreme moments; every (key,
        combination) serves, bit for bit, the scalar row of the rung
        statistic the dataclass ladder picks."""
        base = dataclasses.replace(tables[mode], fallback_threshold=threshold)
        columns = {name: getattr(base, name).copy() for name in COLUMNS}
        observed = np.flatnonzero(base.n.ravel())
        for pick, *moments in edits:
            at = np.unravel_index(observed[pick % len(observed)], base.n.shape)
            for name, value in zip(_STAT_MIN, moments):
                columns[name][at] = value
        try:
            table = BehaviorTable(mode, threshold, **columns)
        except InvalidConfig:  # a merged slice overflows the float range
            assume(False)
        oracle = oracle_table(table)
        for code, key in enumerate(mode_keys(mode)):
            condition = key[2]
            complexity = (complexity_of_step(condition)
                          if mode is TableMode.TASK_STEP_BASED else condition)
            for combo in range(len(REQUEST_COMBOS)):
                row = table.rows[table.row_index[code, combo]]
                want = draw_parameters(reference_combo_stats(oracle, key, combo), complexity)
                assert row.tobytes() == np.array(want).tobytes()


class TestTableJsonLayouts:
    def test_indent_2_v3_file_loads_to_an_equal_table(self, tables, tmp_path):
        """A v3 table.json written with two-space indents, as before tables
        were written one line per top-level key, loads alike."""
        for mode, table in tables.items():
            write_json(tmp_path / "indented.json", table_to_json_dict(table))
            save_table(table, tmp_path / "compact.json")
            indented, compact = (load_table(tmp_path / name)
                                 for name in ("indented.json", "compact.json"))
            assert indented == table == compact
            assert indented.rows.tobytes() == compact.rows.tobytes() == table.rows.tobytes()
            lines = [f"{json.dumps(key)}:{json.dumps(value, separators=(',', ':'))}"
                     for key, value in sorted(table_to_json_dict(table).items())]
            assert (tmp_path / "compact.json").read_text(encoding="utf-8") == \
                "{\n" + ",\n".join(lines) + "\n}\n"
