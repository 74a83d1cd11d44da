"""Hypothesis property tests of the fallback ladder and the table JSON.

Kept apart from test_behavior_tables.py so that the example-based tests
there still run where hypothesis is not installed.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_combo_stats, reference_lookup
from trustsim.behavior_tables import (
    REQUEST_COMBOS,
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
        assert loaded == table  # mode, threshold and all three cell maps
        assert loaded.resolved == table.resolved
