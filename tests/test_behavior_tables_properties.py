"""Hypothesis property tests of the fallback ladder and the table JSON.

Kept apart from test_behavior_tables.py so that the example-based tests
there still run where hypothesis is not installed.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_combo_stats, reference_lookup
from trustsim.behavior_tables import (
    REQUEST_COMBOS,
    CellStats,
    ComboStats,
    ContextKey,
    TableMode,
    build_table,
    load_table,
    lookup,
    resolve_combo_stats,
    save_table,
)
from trustsim.corpus import ACT_ORDER
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.user_model import ALL_TRAIT_TUPLES

KEYS = {
    mode: [ContextKey(*k) for k in itertools.product(ALL_TRAIT_TUPLES, ACT_ORDER,
                                                      mode.conditions())]
    for mode in TableMode
}


@pytest.fixture(scope="module")
def tables(small_corpus):
    """One table per mode; each example re-thresholds it with replace."""
    return {mode: build_table(small_corpus, mode) for mode in TableMode}


class TestLadderProperties:
    @settings(deadline=None, max_examples=60)
    @given(mode=st.sampled_from(list(TableMode)),
           thresholds=st.lists(st.integers(1, 40), min_size=2, max_size=2,
                               unique=True).map(sorted),
           data=st.data())
    def test_raising_the_threshold_never_turns_a_fallback_into_a_direct_hit(
            self, tables, mode, thresholds, data):
        low, high = (dataclasses.replace(tables[mode], fallback_threshold=t)
                     for t in thresholds)
        keys = data.draw(st.lists(st.sampled_from(KEYS[mode]), min_size=1,
                                  max_size=16))
        for key in keys:
            _, fell_back_low = lookup(low, key)
            _, fell_back_high = lookup(high, key)
            assert fell_back_high or not fell_back_low
            for table in (low, high):
                cell, fell_back = lookup(table, key)
                want_cell, want_fell_back = reference_lookup(table, key)
                assert cell is want_cell and fell_back is want_fell_back
                for idx in range(len(REQUEST_COMBOS)):
                    assert (resolve_combo_stats(table, key, idx)
                            == reference_combo_stats(table, key, idx))


class TestTableJsonRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32), n_dialogs=st.integers(1, 12),
           mode=st.sampled_from(list(TableMode)), threshold=st.integers(1, 40))
    def test_load_after_save_gives_equal_cells_and_resolved_stats(
            self, tmp_path_factory, seed, n_dialogs, mode, threshold):
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs), seed)
        table = build_table(corpus, mode, threshold)
        path = tmp_path_factory.mktemp("table") / "table.json"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table  # mode, threshold and the trait cells
        assert loaded.resolved == table.resolved


def stats_of(rows) -> ComboStats:
    """ComboStats of (score, duration, difficulty) rows, by numpy."""
    if not rows:
        return ComboStats(0, 0.0, 0.0, 0.0, 0.0, (0,) * 5)
    score, duration, difficulty = (np.array(col) for col in zip(*rows))
    return ComboStats(len(rows), float(score.mean()), float(score.std()),
                      float(duration.mean()), float(duration.std()),
                      tuple(np.bincount(difficulty - 1, minlength=5).tolist()))


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
        """Pooling the four combinations of a cell gives the statistics of
        the concatenated sample: counts exactly, moments to rtol 1e-9 (with
        an absolute floor of 1e-12 times the largest value, because the sd
        of a sample of equal values is rounding noise on both sides)."""
        rows = [(score_at + s, duration_at + d, k, i) for s, d, k, i in spread]
        parts = [[r[:3] for r in rows if r[3] == i] for i in range(len(REQUEST_COMBOS))]
        combos = tuple(stats_of(part) for part in parts)
        cell = CellStats(n=len(rows), request_counts=tuple(map(len, parts)),
                         combos=combos)
        merged, whole = cell.pooled(), stats_of([r[:3] for r in rows])
        assert merged.n == whole.n
        assert merged.difficulty_counts == whole.difficulty_counts
        for mean, sd, column in (("score_mean", "score_sd", 0),
                                 ("duration_mean", "duration_sd", 1)):
            floor = 1e-12 * max(abs(r[column]) for r in rows)
            np.testing.assert_allclose(
                [getattr(merged, mean), getattr(merged, sd)],
                [getattr(whole, mean), getattr(whole, sd)], rtol=1e-9, atol=floor)
