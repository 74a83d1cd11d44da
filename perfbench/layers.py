"""Layer boundaries the traced run wraps, and the per-layer metrics.

Each layer is one module of ``src/trustsim``. A span is named
``<layer>.<function>``; its layer's self time is the span's duration
minus the traced calls it made. What no span covers is reported as the
unattributed remainder of the traced wall time.
"""

from __future__ import annotations

from collections import defaultdict

from stats import percentile, ratio

LAYERS = ("sampling", "synth", "corpus", "user_model", "behavior_tables",
          "simulator", "trust_model", "fidelity", "rl_env", "cli")

CLI_STAGES = ("gen_corpus", "fit", "simulate", "evaluate", "compare")


def _count_lookup(tracer, idx, args, result):
    mode = args[0].mode.value
    tracer.counters["lookups", mode] += 1
    if result[1]:
        tracer.counters["fallbacks", mode] += 1
        tracer.flagged.add(idx)


def _count_rows(tracer, idx, args, corpus):
    tracer.counters["rows_loaded"] += corpus.exchange_count


def _count_dialogs(tracer, idx, args, corpus):
    tracer.counters["dialogs_generated"] += corpus.n_dialogs


# (span name, defining module, attribute, result hook)
SPECS = (
    ("sampling.default_rng", "numpy.random", "default_rng", None),
    ("sampling.truncated_gaussian", "trustsim.sampling", "truncated_gaussian", None),
    ("sampling.categorical", "trustsim.sampling", "categorical", None),
    ("synth.generate", "trustsim.synth", "generate_synthetic_corpus", _count_dialogs),
    ("corpus.load", "trustsim.corpus", "load_corpus", _count_rows),
    ("corpus.save", "trustsim.corpus", "save_corpus", None),
    ("user_model.sample_user", "trustsim.user_model", "sample_user", None),
    ("user_model.fit_traits", "trustsim.user_model", "fit_trait_distributions", None),
    ("behavior_tables.build", "trustsim.behavior_tables", "build_table", None),
    ("behavior_tables.lookup", "trustsim.behavior_tables", "lookup", _count_lookup),
    ("behavior_tables.resolve_combo", "trustsim.behavior_tables",
     "resolve_combo_stats", None),
    ("behavior_tables.save", "trustsim.behavior_tables", "save_table", None),
    ("behavior_tables.load", "trustsim.behavior_tables", "load_table", None),
    ("simulator.turn", "trustsim.simulator", "simulate_turn", None),
    ("simulator.replay", "trustsim.simulator", "replay_conditions", None),
    ("simulator.log_save", "trustsim.simulator", "save_simulated_log", None),
    ("trust_model.extract_features", "trustsim.trust_model", "extract_features", None),
    ("trust_model.predict", "trustsim.trust_model", "predict_trust", None),
    ("trust_model.dataset", "trustsim.trust_model", "corpus_to_dataset", None),
    ("trust_model.train", "trustsim.trust_model", "train_classifier", None),
    ("trust_model.evaluate", "trustsim.trust_model", "evaluate_classifier", None),
    ("fidelity.evaluate_simulator", "trustsim.fidelity", "evaluate_simulator", None),
    ("fidelity.estimate_distribution", "trustsim.fidelity",
     "estimate_distribution", None),
    ("fidelity.compare_modes", "trustsim.fidelity", "compare_modes", None),
    ("rl_env.reset", "trustsim.rl_env", "TrustSimEnv.reset", None),
    ("rl_env.step", "trustsim.rl_env", "TrustSimEnv.step", None),
    ("rl_env.learner", "trustsim.rl_env", "train_tabular_policy", None),
) + tuple(
    (f"cli.{stage}", "trustsim.cli", f"cmd_{stage}", None) for stage in CLI_STAGES
)

_S, _COUNT, _US, _RATIO = "s", "count", "us", "ratio"

# Every per-layer metric with its unit; all read better when lower.
METRICS = (
    ("sampling.rng_constructions", _COUNT),
    ("sampling.rng_construct_s", _S),
    ("sampling.rng_per_episode", _COUNT),
    ("sampling.rng_per_dialog", _COUNT),
    ("sampling.truncated_gaussian_calls", _COUNT),
    ("sampling.truncated_gaussian_s", _S),
    ("sampling.categorical_calls", _COUNT),
    ("sampling.categorical_s", _S),
    ("synth.generate_self_s", _S),
    ("corpus.load_s", _S),
    ("corpus.rows_loaded", _COUNT),
    ("corpus.save_s", _S),
    ("user_model.sample_user_calls", _COUNT),
    ("user_model.sample_user_s", _S),
    ("user_model.fit_traits_s", _S),
    ("behavior_tables.build_calls", _COUNT),
    ("behavior_tables.build_s", _S),
    ("behavior_tables.lookup_calls", _COUNT),
    ("behavior_tables.lookup_s", _S),
    ("behavior_tables.lookup_p50_us", _US),
    ("behavior_tables.lookup_p99_us", _US),
    ("behavior_tables.fallback_ratio", _RATIO),
    ("behavior_tables.fallback_ratio.task-step", _RATIO),
    ("behavior_tables.fallback_ratio.complexity", _RATIO),
    ("behavior_tables.fallback_ratio.simulate_stage", _RATIO),
    ("behavior_tables.io_s", _S),
    ("simulator.turns", _COUNT),
    ("simulator.turn_self_s", _S),
    ("simulator.turn_p50_us", _US),
    ("simulator.turn_p99_us", _US),
    ("simulator.replay_s", _S),
    ("simulator.log_save_s", _S),
    ("trust_model.extract_features_s", _S),
    ("trust_model.predict_calls", _COUNT),
    ("trust_model.predict_s", _S),
    ("trust_model.dataset_s", _S),
    ("trust_model.train_s", _S),
    ("fidelity.evaluate_simulator_s", _S),
    ("fidelity.estimate_distribution_calls", _COUNT),
    ("fidelity.estimate_distribution_s", _S),
    ("rl_env.reset_s", _S),
    ("rl_env.step_self_s", _S),
    ("rl_env.step_p50_us", _US),
    ("rl_env.step_p99_us", _US),
    ("rl_env.learner_self_s", _S),
) + tuple(
    (f"cli.{stage}_self_s", _S) for stage in CLI_STAGES
) + tuple(
    (f"{layer}.self_share", _RATIO) for layer in LAYERS
) + (
    ("trace.unattributed_share", _RATIO),
    ("trace.wall_s", _S),
    ("trace.overhead_ratio", _RATIO),
)

UNITS = dict(METRICS)


class Aggregate:
    """Per-span-name views over one finished trace."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.dur = tracer.durations()
        self.self_ns = tracer.self_times()
        self.by_name = defaultdict(list)
        for idx, name in enumerate(tracer.names):
            self.by_name[name].append(idx)

    def _idx(self, names):
        return [i for n in names for i in self.by_name.get(n, ())]

    def calls(self, *names) -> int:
        return len(self._idx(names))

    def busy_s(self, *names) -> float:
        return sum(self.dur[i] for i in self._idx(names)) / 1e9

    def self_s(self, *names) -> float:
        return sum(self.self_ns[i] for i in self._idx(names)) / 1e9

    def pct_us(self, p, *names) -> float:
        values = [self.dur[i] for i in self._idx(names)]
        return percentile(values, p) / 1e3 if values else 0.0

    def under(self, name, ancestor) -> list:
        return [i for i in self.by_name.get(name, ())
                if self.tracer.has_ancestor(i, ancestor)]


def exact_counts(agg: Aggregate) -> dict:
    """Counts that must repeat exactly between traced runs on one seed,
    each with its base."""
    c = agg.tracer.counters
    counts = {
        "sampling.rng_per_episode": ratio(
            len(agg.under("sampling.default_rng", "rl_env.learner")),
            len(agg.under("rl_env.reset", "rl_env.learner"))),
        "sampling.rng_per_dialog": ratio(
            len(agg.under("sampling.default_rng", "synth.generate")),
            c["dialogs_generated"]),
        "behavior_tables.lookup_calls": ratio(
            agg.calls("behavior_tables.lookup", "behavior_tables.resolve_combo"),
            agg.calls("simulator.turn")),
        "behavior_tables.fallback_ratio": ratio(
            c["fallbacks", "task-step"] + c["fallbacks", "complexity"],
            c["lookups", "task-step"] + c["lookups", "complexity"]),
    }
    for mode in ("task-step", "complexity"):
        counts[f"behavior_tables.fallback_ratio.{mode}"] = ratio(
            c["fallbacks", mode], c["lookups", mode])
    # the CLI simulate stage replays every corpus exchange with its table
    replay = agg.under("behavior_tables.lookup", "cli.simulate")
    counts["behavior_tables.fallback_ratio.simulate_stage"] = ratio(
        len(agg.tracer.flagged.intersection(replay)), len(replay))
    return counts


def per_layer(tracer, wall_ns: int) -> tuple:
    """(metric values, exact-count block) for one traced block."""
    a = Aggregate(tracer)
    counts = exact_counts(a)
    m = {name: counts[name]["value"] for name in counts}
    m.update({
        "sampling.rng_constructions": a.calls("sampling.default_rng"),
        "sampling.rng_construct_s": a.busy_s("sampling.default_rng"),
        "sampling.truncated_gaussian_calls": a.calls("sampling.truncated_gaussian"),
        "sampling.truncated_gaussian_s": a.busy_s("sampling.truncated_gaussian"),
        "sampling.categorical_calls": a.calls("sampling.categorical"),
        "sampling.categorical_s": a.busy_s("sampling.categorical"),
        "synth.generate_self_s": a.self_s("synth.generate"),
        "corpus.load_s": a.busy_s("corpus.load"),
        "corpus.rows_loaded": tracer.counters["rows_loaded"],
        "corpus.save_s": a.busy_s("corpus.save"),
        "user_model.sample_user_calls": a.calls("user_model.sample_user"),
        "user_model.sample_user_s": a.busy_s("user_model.sample_user"),
        "user_model.fit_traits_s": a.busy_s("user_model.fit_traits"),
        "behavior_tables.build_calls": a.calls("behavior_tables.build"),
        "behavior_tables.build_s": a.busy_s("behavior_tables.build"),
        "behavior_tables.lookup_calls": counts["behavior_tables.lookup_calls"]["num"],
        "behavior_tables.lookup_s": a.busy_s("behavior_tables.lookup",
                                             "behavior_tables.resolve_combo"),
        "behavior_tables.lookup_p50_us": a.pct_us(50, "behavior_tables.lookup",
                                                  "behavior_tables.resolve_combo"),
        "behavior_tables.lookup_p99_us": a.pct_us(99, "behavior_tables.lookup",
                                                  "behavior_tables.resolve_combo"),
        "behavior_tables.io_s": a.busy_s("behavior_tables.save", "behavior_tables.load"),
        "simulator.turns": a.calls("simulator.turn"),
        "simulator.turn_self_s": a.self_s("simulator.turn"),
        "simulator.turn_p50_us": a.pct_us(50, "simulator.turn"),
        "simulator.turn_p99_us": a.pct_us(99, "simulator.turn"),
        "simulator.replay_s": a.busy_s("simulator.replay"),
        "simulator.log_save_s": a.busy_s("simulator.log_save"),
        "trust_model.extract_features_s": a.busy_s("trust_model.extract_features"),
        "trust_model.predict_calls": a.calls("trust_model.predict"),
        "trust_model.predict_s": a.busy_s("trust_model.predict"),
        "trust_model.dataset_s": a.busy_s("trust_model.dataset"),
        "trust_model.train_s": a.busy_s("trust_model.train"),
        "fidelity.evaluate_simulator_s": a.busy_s("fidelity.evaluate_simulator"),
        "fidelity.estimate_distribution_calls": a.calls("fidelity.estimate_distribution"),
        "fidelity.estimate_distribution_s": a.busy_s("fidelity.estimate_distribution"),
        "rl_env.reset_s": a.busy_s("rl_env.reset"),
        "rl_env.step_self_s": a.self_s("rl_env.step"),
        "rl_env.step_p50_us": a.pct_us(50, "rl_env.step"),
        "rl_env.step_p99_us": a.pct_us(99, "rl_env.step"),
        "rl_env.learner_self_s": a.self_s("rl_env.learner"),
    })
    for stage in CLI_STAGES:
        m[f"cli.{stage}_self_s"] = a.self_s(f"cli.{stage}")

    layer_ns = dict.fromkeys(LAYERS, 0)
    for name, self_ns in zip(tracer.names, a.self_ns):
        layer_ns[name.split(".", 1)[0]] += self_ns
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_share"] = ns / wall_ns
    m["trace.unattributed_share"] = (wall_ns - sum(layer_ns.values())) / wall_ns
    m["trace.wall_s"] = wall_ns / 1e9
    return m, counts
