"""Release gate: one check per core guarantee, each emitting a verdict line.

Verdict lines collect in VERDICTS; the terminal-summary hook in conftest
prints them after the run, outside output capture.
"""

from __future__ import annotations

import hashlib
import math
import time
from statistics import NormalDist

import numpy as np

from conftest import (
    RiggedSweepEnv,
    combo_index,
    corpus_from_rows,
    make_dialog,
    make_user,
    mode_keys,
    oracle_table,
    simulated_turns,
    stub_trust_model,
    summary_of,
)
from trustsim.behavior_tables import (
    TRAIT_CELL,
    TableMode,
    build_table,
    key_code,
    lookup,
)
from trustsim.cli import main as cli_main
from trustsim.corpus import (
    ACT_INDEX,
    ACT_ORDER,
    SCALE_TRAITS,
    Corpus,
    ProactiveAct,
    complexity_of_step,
    split_corpus,
)
from trustsim.errors import EpisodeFinished
from trustsim.fidelity import Measure, _kl_divergences, compare_modes, evaluate_simulator
from trustsim.rl_env import Hyperparams, N_STATES, TrustSimEnv, train_tabular_policy
from trustsim.sampling import RandomStream
from trustsim.simulator import replay_conditions
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import (
    classification_metrics,
    evaluate_classifier,
    train_classifier,
)
from trustsim.user_model import (default_trait_distributions, fit_trait_distributions,
                                 trait_codes, trait_flags)


VERDICTS: list = []


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_absolute_benchmark_substitution():
    """The corpus behind the originally quoted fidelity numbers is not
    distributed, so absolute targets cannot be recomputed here; the
    remaining checks substitute property guarantees with pinned
    tolerances on synthetic data."""
    substitutes = [n for n in globals()
                   if n.startswith("test_") and n != "test_absolute_benchmark_substitution"]
    verdict("absolute-benchmarks", len(substitutes) == 10,
            f"not recomputable without the reference corpus; "
            f"{len(substitutes)} substituted property checks follow")


def test_kl_divergence_fixtures():
    def kl_divergence(p, q):
        return _kl_divergences(np.array([p]), np.array([q]))[0]

    identical = kl_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    point = kl_divergence([1.0, 0.0], [0.5, 0.5])
    swapped = kl_divergence([0.3, 0.7], [0.7, 0.3])
    closed_form = 0.3 * math.log2(3 / 7) + 0.7 * math.log2(7 / 3)
    ok = (identical == 0.0
          and abs(point - 1.0) <= 1e-12
          and abs(swapped - closed_form) <= 1e-12
          and abs(swapped - 0.4892) <= 1e-3)
    verdict("kl-fixtures", ok,
            f"identity={identical}, point-vs-uniform={point:.12f}, "
            f"swapped={swapped:.6f} (closed form {closed_form:.6f})")


def test_self_replay_fidelity(default_corpus):
    start = time.monotonic()
    table = build_table(default_corpus, TableMode.TASK_STEP_BASED)
    log = replay_conditions(default_corpus, table, RandomStream(11, "self"))
    summary = summary_of(evaluate_simulator(log, "task-step"))
    help_kl = summary[Measure.HELP_REQUEST.value][0]
    sugg_kl = summary[Measure.SUGGESTION_REQUEST.value][0]
    overall = summary["Overall"][0]
    elapsed = time.monotonic() - start
    ok = (help_kl <= 0.05 and sugg_kl <= 0.05 and overall <= 0.25
          and elapsed < 120.0)
    verdict("self-replay-fidelity", ok,
            f"help KL {help_kl:.4f} <= 0.05, suggestion KL {sugg_kl:.4f} <= 0.05, "
            f"overall {overall:.4f} <= 0.25 in {elapsed:.1f}s")


def test_step_drift_mode_ordering():
    wins = 0
    for seed in range(10):
        corpus = generate_synthetic_corpus(
            GeneratorConfig(n_dialogs=308, step_drift=0.8), seed)
        comparison = compare_modes(corpus, seed)
        ts, cb = (summary_of(comparison.reports[mode])["Overall"][0]
                  for mode in (TableMode.TASK_STEP_BASED, TableMode.COMPLEXITY_BASED))
        wins += ts <= cb
    verdict("drift-mode-ordering", wins >= 8,
            f"step conditioning at or below complexity conditioning in {wins}/10 seeds")


def test_step_cells_pool_to_complexity_cells(default_corpus, drifting_corpus):
    ok = True
    checked = 0
    for corpus in (default_corpus, drifting_corpus):
        step_table = oracle_table(build_table(corpus, TableMode.TASK_STEP_BASED))
        cx_table = oracle_table(build_table(corpus, TableMode.COMPLEXITY_BASED))
        for (trait, act, complexity), cell in cx_table.cells.items():
            step_keys = [(trait, act, s) for s in range(1, 13)
                         if complexity_of_step(s) == complexity]
            parts = [step_table.cells[k] for k in step_keys if k in step_table.cells]
            ok &= sum(p.n for p in parts) == cell.n
            for i in range(len(cell.combos)):
                ok &= sum(p.combos[i].n for p in parts) == cell.combos[i].n
                summed = tuple(sum(p.combos[i].difficulty_counts[d] for p in parts)
                               for d in range(5))
                ok &= summed == cell.combos[i].difficulty_counts
            checked += 1
    verdict("aggregation-equivalence", ok and checked > 50,
            f"{checked} complexity cells match their pooled step cells with integer equality")


def fallback_probe_corpus(partial_steps) -> Corpus:
    # complexity-3 steps are 1, 4, 7, 10: two full dialogs give 8 target
    # observations, the third dialog tops the cell up to 9 or 10
    full = [ProactiveAct.NOTIFICATION if s in (1, 4, 7, 10) else ProactiveAct.NONE
            for s in range(1, 13)]
    partial = [ProactiveAct.NOTIFICATION if s in partial_steps else ProactiveAct.NONE
               for s in range(1, 13)]
    users = tuple(make_user(user_id=f"u{i}") for i in range(3))
    dialogs = {"u0": make_dialog("u0", full), "u1": make_dialog("u1", full),
               "u2": make_dialog("u2", partial)}
    return corpus_from_rows(users, dialogs)


def test_fallback_threshold_boundary():
    key = (trait_codes(make_user()), ProactiveAct.NOTIFICATION, 3)
    code = key_code(TableMode.COMPLEXITY_BASED, key[0], ACT_INDEX[key[1]], key[2])
    table9 = build_table(fallback_probe_corpus((1,)), TableMode.COMPLEXITY_BASED)
    table10 = build_table(fallback_probe_corpus((1, 4)), TableMode.COMPLEXITY_BASED)
    fell_back9, fell_back10 = (bool(table.used_fallback[lookup(table, *key)])
                               for table in (table9, table10))
    ok = (table9.n[code].sum() == 9 and fell_back9 is True
          and fell_back10 is False and table10.rung[code] == TRAIT_CELL
          and table10.n[code].sum() == 10)
    verdict("fallback-boundary", ok,
            f"n=9 falls back ({fell_back9}), n=10 resolves directly ({fell_back10})")


def test_simulated_draw_soundness(default_corpus):
    table = build_table(default_corpus, TableMode.COMPLEXITY_BASED)
    cells = oracle_table(table).cells
    key = max((k for k in cells if k[2] == 3), key=lambda k: cells[k].n)
    cell = cells[key]
    trait, act, _ = key
    level = lambda flag: 4.0 if flag else 1.0
    expertise, propensity, affinity = trait_flags(trait)
    profile = make_user(
        user_id="probe",
        domain_expertise=level(expertise),
        trust_propensity=level(propensity),
        technical_affinity=level(affinity),
    )
    ok = cell.n >= table.fallback_threshold
    worst = 0.0
    for seed in (101, 202, 303):
        counts = [0, 0, 0, 0]
        for turn in simulated_turns(table, profile, 1, act, RandomStream(seed, "draw"),
                                    range(10_000)):
            ok &= (not turn.used_fallback
                   and turn.duration > 20.0
                   and isinstance(turn.difficulty, int)
                   and 1 <= turn.difficulty <= 5)
            counts[combo_index(turn.help_request, turn.suggestion_request)] += 1
        worst = max(worst, *[abs(c / 10_000 - p)
                             for c, p in zip(counts, cell.request_probs)])
    ok &= worst <= 0.02
    verdict("simulator-soundness", ok,
            f"max request-combination deviation {worst:.4f} <= 0.02 over "
            f"3 seeds x 10^4 draws from the n={cell.n} cell; "
            f"durations > 20s, difficulties in 1..5")


def pooled_x2_z(counts, probs) -> float:
    """The z of Pearson's X² summed over the rows of multinomial counts,
    each row against its cell probabilities. Under the null, a row's X²
    has mean exactly k - 1 and variance 2(k - 1) + (Σ 1/p - k² - 2k + 2) / n;
    rows with no count are left out."""
    n = counts.sum(axis=1)
    counts, probs, n = counts[n > 0], probs[n > 0], n[n > 0]
    k = counts.shape[1]
    expected = n[:, None] * probs
    x2 = ((counts - expected) ** 2 / expected).sum()
    var = (2 * (k - 1) + ((1 / probs).sum(axis=1) - k * k - 2 * k + 2) / n).sum()
    return (x2 - (k - 1) * len(n)) / math.sqrt(var)


_STD = NormalDist()


def truncated_normal_moments(dist) -> tuple:
    """The closed-form mean and sd of N(mean, sd) truncated to [lo, hi]:
    with a, b the standardized bounds and Z = Phi(b) - Phi(a), the mean is
    mu + sigma (phi(a) - phi(b)) / Z and the variance
    sigma^2 (1 + (a phi(a) - b phi(b)) / Z - ((phi(a) - phi(b)) / Z)^2)."""
    a, b = (dist.lo - dist.mean) / dist.sd, (dist.hi - dist.mean) / dist.sd
    z = _STD.cdf(b) - _STD.cdf(a)
    shift = (_STD.pdf(a) - _STD.pdf(b)) / z
    var = 1 + (a * _STD.pdf(a) - b * _STD.pdf(b)) / z - shift ** 2
    return dist.mean + dist.sd * shift, dist.sd * math.sqrt(var)


def rounded_age_moments(dist) -> tuple:
    """The mean and sd of floor(x + 0.5) for x from the truncated age
    distribution, through the pmf of each integer age."""
    dist_of = NormalDist(dist.mean, dist.sd)
    ages = range(int(dist.lo), int(dist.hi) + 1)
    mass = [dist_of.cdf(min(k + 0.5, dist.hi)) - dist_of.cdf(max(k - 0.5, dist.lo))
            for k in ages]
    pmf = np.array(mass) / sum(mass)
    mean = float(pmf @ np.array(ages))
    return mean, math.sqrt(float(pmf @ (np.array(ages) - mean) ** 2))


def test_fit_recovers_generator():
    """The fitted task-step table and trait distributions against the
    generator's ground truth. The request combinations and the difficulty
    classes of each key are multinomial in the process's probabilities, as
    the two requests are drawn independently and the difficulty depends on
    trait code and step only. Each fitted trait mean is a z-score against
    the closed-form mean of the generator's truncated normal (age through
    the pmf of its rounded draw) with the closed-form sd, and the gender
    counts are multinomial in `gender_probs`. The bound |z| <= 4 on each
    pooled X² and each trait z was fixed before the first run."""
    config = GeneratorConfig(n_dialogs=15_400)
    proc = config.process
    keys = mode_keys(TableMode.TASK_STEP_BASED)
    help_p, sugg_p = (np.array([prob(code, act, step) for code, act, step in keys])
                      for prob in (proc.help_prob, proc.sugg_prob))
    request_p = np.column_stack([(1 - help_p) * (1 - sugg_p), (1 - help_p) * sugg_p,
                                 help_p * (1 - sugg_p), help_p * sugg_p])
    difficulty_p = np.array([proc.difficulty_pmf(code, step) for code, _, step in keys])
    traits = config.traits
    moments = {name: (rounded_age_moments if name == "age" else truncated_normal_moments)(
        getattr(traits, name)) for name in ("age",) + SCALE_TRAITS}
    z = {"requests": [], "difficulty": [], "worst trait": [], "gender": []}
    for seed in (1, 2, 3):
        corpus = generate_synthetic_corpus(config, seed)
        table = build_table(corpus, TableMode.TASK_STEP_BASED)
        z["requests"].append(pooled_x2_z(table.n, request_p))
        z["difficulty"].append(pooled_x2_z(table.difficulty_counts.sum(axis=1), difficulty_p))
        fitted, n = fit_trait_distributions(corpus), corpus.n_dialogs
        trait_z = [(getattr(fitted, name).mean - mean) / (sd / math.sqrt(n))
                   for name, (mean, sd) in moments.items()]
        z["worst trait"].append(max(trait_z, key=abs))
        gender_counts = np.bincount(corpus.gender, minlength=len(traits.gender_probs))
        z["gender"].append(pooled_x2_z(gender_counts[None], np.array([traits.gender_probs])))
    ok = all(abs(v) <= 4.0 for values in z.values() for v in values)
    verdict("fit-recovers-generator", ok,
            "; ".join(f"{name} z " + ", ".join(f"{v:.2f}" for v in values)
                      for name, values in z.items())
            + f" (|z| <= 4) over {len(keys)} task-step keys, {len(moments)} trait means "
              f"and gender at seeds 1-3 x 15400 dialogs")


def counting_oracle(y_true, y_pred):
    # brute-force metric recount from the raw pairs, no shared code path
    pairs = list(zip(y_true, y_pred))
    n = len(pairs)
    accuracy = sum(1 for t, p in pairs if t == p) / n
    majority = max(y_true.count(c) for c in set(y_true)) / n
    confusion = [[0] * 5 for _ in range(5)]
    for t, p in pairs:
        confusion[t - 1][p - 1] += 1
    f1s = []
    for cls in range(1, 6):
        support = sum(1 for t, _ in pairs if t == cls)
        if support == 0:
            continue
        tp = sum(1 for t, p in pairs if t == cls and p == cls)
        fp = sum(1 for t, p in pairs if t != cls and p == cls)
        fn = support - tp
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    macro = sum(f1s) / len(f1s)
    return accuracy, majority, macro, tuple(tuple(row) for row in confusion)


def test_trust_classifier_gain_and_exact_metrics(default_corpus):
    train, test = split_corpus(default_corpus, 0.8, seed=5)
    model = train_classifier(train)
    report = evaluate_classifier(model, test)
    gain = report.accuracy - report.majority_baseline

    y_true = [1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5]
    y_pred = [1, 2, 1, 2, 2, 3, 2, 3, 3, 4, 3, 5, 4, 4, 3, 5, 5, 5, 4, 5]
    got = classification_metrics(y_true, y_pred)
    accuracy, majority, macro, confusion = counting_oracle(y_true, y_pred)
    exact = (got.n == 20 and got.accuracy == accuracy
             and got.majority_baseline == majority
             and got.macro_f1 == macro and got.confusion == confusion)
    ok = gain >= 0.10 and exact
    verdict("trust-classifier", ok,
            f"held-out accuracy {report.accuracy:.3f} vs majority "
            f"{report.majority_baseline:.3f} (gain {gain * 100:.1f}pp >= 10pp); "
            f"20-row metrics equal the counting oracle: {exact}")


def test_rl_horizon_and_dominant_policy(default_corpus):
    table = build_table(default_corpus, TableMode.TASK_STEP_BASED)
    env = TrustSimEnv(table, default_trait_distributions(),
                      stub_trust_model([0.0, 0.0, 1.0, 0.0, 0.0]))
    state = env.reset(RandomStream(3, "gate"))
    steps = 0
    done = False
    while not done:
        state, _, done = env.step(ProactiveAct.SUGGESTION)
        steps += 1
    horizon_ok = steps == 12 and state.step == 12
    try:
        env.step(ProactiveAct.NONE)
        horizon_ok = False
    except EpisodeFinished:
        pass

    start = time.monotonic()
    result = train_tabular_policy(
        RiggedSweepEnv(), 5000,
        Hyperparams(alpha=0.3, gamma=0.9, epsilon=0.5, seed=0))
    elapsed = time.monotonic() - start
    suggestion = ACT_ORDER.index(ProactiveAct.SUGGESTION)
    dominant = (bool(result.q.any(axis=1).all())
                and bool(np.all(result.policy == suggestion)))
    ok = horizon_ok and dominant and elapsed < 60.0
    verdict("rl-environment", ok,
            f"12-step horizon enforced ({horizon_ok}); dominant action greedy in "
            f"all {N_STATES} states after 5000 episodes in {elapsed:.1f}s < 60s")


def test_pipeline_determinism(tmp_path):
    def run_chain(base):
        gen, fit, sim = base / "gen", base / "fit", base / "sim"
        ev, comparison, rl = base / "eval", base / "cmp", base / "rl"
        corpus_path = str(gen / "corpus.csv")
        commands = [
            ["gen-corpus", "--seed", "21", "--dialogs", "40", "--out", str(gen)],
            ["fit", "--corpus", corpus_path, "--seed", "22", "--out", str(fit)],
            ["simulate", "--corpus", corpus_path, "--seed", "23",
             "--table", str(fit / "table.json"), "--out", str(sim)],
            ["evaluate", "--corpus", corpus_path, "--seed", "24",
             "--table", str(fit / "table.json"), "--out", str(ev)],
            ["compare", "--corpus", corpus_path, "--seed", "25",
             "--out", str(comparison)],
            ["train-rl", "--fit", str(fit), "--seed", "26",
             "--episodes", "25", "--out", str(rl)],
        ]
        for argv in commands:
            assert cli_main(argv) == 0, argv
        digests = {}
        for stage in (gen, fit, sim, ev, comparison, rl):
            for path in sorted(stage.iterdir()):
                digests[f"{stage.name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        return digests

    # rerun with the identical invocation, overwriting in place
    first = run_chain(tmp_path)
    second = run_chain(tmp_path)
    ok = first == second and len(first) >= 18
    verdict("pipeline-determinism", ok,
            f"all 6 stages rerun bit-identically ({len(first)} artifacts compared)")
