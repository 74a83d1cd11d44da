"""Hypothesis property tests of the fallback ladder and the table JSON.

Kept apart from test_behavior_tables.py so that the example-based tests
there still run where hypothesis is not installed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_table_equals_oracle
from trustsim.behavior_tables import (
    REQUEST_COMBOS,
    Stats,
    TableMode,
    _merge,
    build_table,
    load_table,
    save_table,
)
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
