"""Tests for the benchmark's own arithmetic and instrumentation.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from stats import covered_length, percentile, ratio, summarize, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_nested_children_once():
    tr = Tracer()
    root = tr.record("a", 0, 100)
    child = tr.record("b", 10, 60, root)
    tr.record("c", 20, 30, child)  # grandchild: charged to b, not again to a
    assert tr.self_times() == [50, 40, 10]


def test_self_time_counts_overlapping_children_as_their_union():
    tr = Tracer()
    root = tr.record("a", 0, 100)
    tr.record("b", 10, 50, root)
    tr.record("c", 40, 70, root)  # overlaps b over [40, 50]
    tr.record("d", 90, 120, root)  # runs past the parent's end
    assert tr.self_times()[0] == 100 - (60 + 10)


def test_covered_length_merges_touching_and_ignores_empty():
    assert covered_length([(0, 5), (5, 10), (3, 3)], 0, 20) == 10
    assert covered_length([(-5, 5), (15, 30)], 0, 20) == 10
    assert covered_length([], 0, 20) == 0


def test_wrapped_calls_nest_under_their_caller():
    tr = Tracer()

    def leaf():
        return 1

    wrapped_leaf = tr.wrap(leaf, "x.leaf")
    outer = tr.wrap(lambda: wrapped_leaf() + wrapped_leaf(), "x.outer")
    assert outer() == 2
    assert tr.names == ["x.outer", "x.leaf", "x.leaf"]
    assert tr.parents == [-1, 0, 0]
    assert tr.has_ancestor(2, "x.outer") and not tr.has_ancestor(0, "x.outer")
    selfs = tr.self_times()
    durs = tr.durations()
    assert selfs[0] == durs[0] - durs[1] - durs[2]


# -- percentiles -------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_at_least_ten_samples_above_it():
    values = list(range(1000))
    s = summarize(values)
    assert (s["n"], s["tail_p"]) == (1000, 99.0)
    assert sum(v > s["tail"] for v in values) >= 10
    assert s["median"] == 499.5


def test_percentile_interpolates_between_ranks():
    assert percentile([3, 1, 2, 4], 50) == 2.5
    assert percentile([5], 99) == 5
    assert percentile([0, 10], 90) == 9.0


# -- ratios with their base ---------------------------------------------------

def test_ratio_keeps_numerator_and_base():
    assert ratio(1761, 3600) == {"value": 1761 / 3600, "num": 1761, "base": 3600}
    assert ratio(21000, 300)["value"] == 70.0


def test_ratio_with_empty_base_reads_zero():
    assert ratio(0, 0) == {"value": 0.0, "num": 0, "base": 0}


# -- machine-speed correction ---------------------------------------------------

def test_slowdown_is_wall_time_over_reference_time():
    ref = speed.REF_SLICE_S
    assert speed.factor([ref, ref]) == pytest.approx(1.0)
    # Half the wall time at twice the slice time: 1 s of wall is
    # 0.5 + 0.25 = 0.75 s at the reference speed.
    assert speed.factor([ref, 2 * ref]) == pytest.approx(1 / 0.75)
    with pytest.raises(ValueError):
        speed.factor([])


def test_times_and_rates_are_restated_at_the_reference_speed():
    assert run.at_reference(3.0, "s", 1.5) == pytest.approx(2.0)
    assert run.at_reference(3.0, "ms", 1.5) == pytest.approx(2.0)
    assert run.at_reference(3.0, "1/s", 1.5) == pytest.approx(4.5)
    assert run.at_reference(3.0, "MB", 1.5) == 3.0


def test_sampling_leaves_slices_out_of_the_clock_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    first = len(speed.slices)
    with speed.sampling():
        wall, busy = time.perf_counter(), speed.clock()
        while len(speed.slices) < first + 3:
            pass
        wall, busy = time.perf_counter() - wall, speed.clock() - busy
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A slice may fire between the two clock reads of one line: allow one.
    taken = speed.slices[first:]
    assert wall - busy == pytest.approx(sum(taken), abs=max(taken))


# -- wrappers ----------------------------------------------------------------

def _bindings():
    import numpy as np

    from trustsim import rl_env, simulator

    return {
        "np.random.default_rng": np.random.default_rng,
        "simulator.simulate_turn": simulator.simulate_turn,
        "rl_env.simulate_turn": rl_env.simulate_turn,
        "simulator.lookup": simulator.lookup,
        "TrustSimEnv.step": vars(rl_env.TrustSimEnv)["step"],
    }


def test_wrappers_reach_imported_names_and_are_restored():
    from trustsim import rl_env, simulator

    before = _bindings()
    tr = Tracer()
    with tr.installed(layers.SPECS):
        assert rl_env.simulate_turn is simulator.simulate_turn
        assert rl_env.simulate_turn is not before["rl_env.simulate_turn"]
        assert simulator.lookup.__wrapped__ is before["simulator.lookup"]
    assert _bindings() == before


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed(layers.SPECS):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_specs_naming_missing_functions_are_skipped():
    tr = Tracer()
    with tr.installed([("x.gone", "trustsim.sampling", "no_such_function", None),
                       ("x.gone", "trustsim.rl_env", "NoSuchClass.step", None)]):
        pass
    assert tr.names == []


def test_traced_episode_counts_and_restores():
    from trustsim import behavior_tables, rl_env, synth, trust_model, user_model

    corpus = synth.generate_synthetic_corpus(synth.GeneratorConfig(n_dialogs=24), 5)
    env = rl_env.TrustSimEnv(
        behavior_tables.build_table(corpus, behavior_tables.TableMode.TASK_STEP_BASED),
        user_model.fit_trait_distributions(corpus),
        trust_model.train_classifier(corpus, trust_model.TrainConfig(epochs=5)))
    before = _bindings()
    tr = Tracer()
    with tr.installed(layers.SPECS):
        rl_env.train_tabular_policy(env, 3)
    assert _bindings() == before
    metrics, counts = layers.per_layer(tr, 10**9)
    assert counts["sampling.rng_per_episode"]["base"] == 3
    assert metrics["simulator.turns"] == 36
    assert counts["behavior_tables.lookup_calls"] == ratio(72, 36)
    assert set(metrics) | {"trace.overhead_ratio"} == set(layers.UNITS)


# -- declared metrics ------------------------------------------------------------

def test_benchmark_json_declares_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
