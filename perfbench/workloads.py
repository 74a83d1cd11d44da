"""The benchmark's workloads: set-up, one closed-loop operation, output
checks, and the fixed block of work a traced run measures.

All load comes from this one process: each operation starts only after
the previous one finished. Inputs derive from the workload seed alone.
CLI ``--out`` directories live in the run's scratch directory and hold
only what the CLI wrote; no timing data goes there. Timings use
``speed.clock``, which leaves out the calibration slices of a timed run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

from speed import clock
from stats import median_line, percentile, summarize

from trustsim import (
    behavior_tables,
    cli,
    corpus as corpus_io,
    rl_env,
    synth,
    trust_model,
    user_model,
)

STANDARD_DIALOGS = 308
LARGE_DIALOGS = 5 * STANDARD_DIALOGS
WARMUP_DIALOGS = 32
STEPS = 12
EPISODES_PER_CALL = 200
BLOCK_EPISODES = 1000


class Checks:
    """Operations attempted and failed; an operation fails on any problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems=()) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_problems(out: Path) -> list:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return [f"{out / name}: manifest {digest} does not match the file"
            for name, digest in manifest["artifacts"].items()
            if digest != f"sha256:{_sha256(out / name)}"]


def run_stage(argv) -> tuple:
    """(seconds, exit code, captured stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        code = cli.main([str(a) for a in argv])
        seconds = clock() - start
    return seconds, code, err.getvalue()


def stage_problems(argv, code, stderr, out: Path) -> list:
    if code != 0:
        return [f"trustsim {argv[0]} exited {code}: {stderr.strip()[:300]}"]
    return manifest_problems(out)


def _seeds(seed: int, label: str):
    rng = random.Random(f"{seed}/{label}")
    while True:
        yield rng.randrange(1 << 31)


class Pipeline308:
    """The five CLI stages in order on a fresh standard corpus per pass."""

    name = "pipeline-308"
    op_unit = "passes"
    STAGES = ("gen-corpus", "fit", "simulate", "evaluate", "compare")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._pass_seeds = _seeds(seed, "pass")
        self._first = None  # stage argv of the first pass, kept for the re-run

    @staticmethod
    def plan(root: Path, seed: int, dialogs: int) -> list:
        corpus = root / "corpus" / "corpus.csv"
        table = root / "fit" / "table.json"
        common = ["--corpus", corpus, "--seed", seed]
        return [
            ["gen-corpus", "--seed", seed, "--dialogs", dialogs, "--out", root / "corpus"],
            ["fit", *common, "--out", root / "fit"],
            ["simulate", *common, "--table", table, "--out", root / "sim"],
            ["evaluate", *common, "--table", table, "--out", root / "eval"],
            ["compare", *common, "--out", root / "cmp"],
        ]

    def set_up(self, k: int) -> None:
        """Warm-up pass of every stage on a small corpus, so lazy imports
        and first-call costs are paid before timing."""
        root = self.workdir / f"setup-{k}"
        for argv in self.plan(root, self.seed, WARMUP_DIALOGS):
            _, code, stderr = run_stage(argv)
            if code != 0:
                raise RuntimeError(f"set-up stage {argv[0]} exited {code}: {stderr}")
        shutil.rmtree(root)

    def _pass(self, root: Path, seed: int, checks: Checks) -> dict:
        times = {}
        for argv in self.plan(root, seed, STANDARD_DIALOGS):
            seconds, code, stderr = run_stage(argv)
            times[argv[0]] = seconds
            out = Path(argv[argv.index("--out") + 1])
            problems = stage_problems(argv, code, stderr, out)
            if argv[0] == "simulate" and not problems:
                with (out / "sim_log.csv").open(encoding="utf-8") as fh:
                    rows = sum(1 for _ in csv.reader(fh)) - 1
                if rows != STANDARD_DIALOGS * STEPS:
                    problems.append(f"replay log has {rows} rows for "
                                    f"{STANDARD_DIALOGS * STEPS} exchanges")
            checks.op(problems)
        return times

    def op(self, i: int, checks: Checks) -> dict:
        root = self.workdir / f"pass-{i}"
        seed = next(self._pass_seeds)
        times = self._pass(root, seed, checks)
        if self._first is None:
            self._first = self.plan(root, seed, STANDARD_DIALOGS)
        else:
            shutil.rmtree(root)
        samples = {f"{stage.replace('-', '_')}_s": [times[stage]] for stage in self.STAGES}
        samples["pipeline_s"] = [sum(times.values())]
        samples["op_ms"] = [1e3 * sum(times.values())]
        return samples

    def finish(self, checks: Checks) -> None:
        """Re-run one stage of the first pass with the same seed; its
        artifact hashes must repeat. The seed picks which stage."""
        argv = list(self._first[self.seed % len(self._first)])
        at = argv.index("--out") + 1
        first_out = Path(argv[at])
        argv[at] = self.workdir / "rerun"
        _, code, stderr = run_stage(argv)
        problems = stage_problems(argv, code, stderr, Path(argv[at]))
        if not problems:
            before, after = (json.loads((d / "manifest.json").read_text())["artifacts"]
                             for d in (first_out, Path(argv[at])))
            if before != after:
                problems.append(f"re-run of {argv[0]} changed artifact hashes")
        checks.op(problems)

    def block(self, tag: str, checks: Checks) -> None:
        root = self.workdir / f"block-{tag}"
        self._pass(root, self.seed, checks)
        shutil.rmtree(root)

    @staticmethod
    def named(samples: dict) -> list:
        return [median_line(name, samples[name], "s") for name in
                [f"{stage.replace('-', '_')}_s" for stage in Pipeline308.STAGES]
                + ["pipeline_s"]]


class _EpisodeProbe:
    """Pass-through env that stamps each episode start and counts steps."""

    def __init__(self, env):
        self.env = env
        self.starts = []
        self.steps = []
        self.done_at = []

    def reset(self, rng):
        self.starts.append(clock())
        self.steps.append(0)
        self.done_at.append(None)
        return self.env.reset(rng)

    def step(self, action):
        result = self.env.step(action)
        self.steps[-1] += 1
        if result[2]:
            self.done_at[-1] = self.steps[-1]
        return result


class RlTrain:
    """Tabular Q-learning against TrustSimEnv fitted on a standard corpus."""

    name = "rl-train"
    op_unit = "episodes"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._call_seeds = _seeds(seed, "qlearn")
        self.env = None

    def set_up(self, k: int) -> None:
        corpus = synth.generate_synthetic_corpus(
            synth.GeneratorConfig(n_dialogs=STANDARD_DIALOGS), self.seed)
        table = behavior_tables.build_table(
            corpus, behavior_tables.TableMode.TASK_STEP_BASED, 10)
        self.env = rl_env.TrustSimEnv(
            table, user_model.fit_trait_distributions(corpus),
            trust_model.train_classifier(corpus))

    def _train(self, episodes: int, seed: int, checks: Checks) -> list:
        probe = _EpisodeProbe(self.env)
        result = rl_env.train_tabular_policy(probe, episodes, rl_env.Hyperparams(seed=seed))
        end = clock()
        if len(result.returns) != episodes or len(probe.starts) != episodes:
            checks.op([f"asked for {episodes} episodes, got {len(result.returns)} "
                       f"returns and {len(probe.starts)} resets"])
        for ep, ret in enumerate(result.returns):
            steps, done_at = probe.steps[ep], probe.done_at[ep]
            checks.op([] if steps == STEPS and done_at == STEPS and math.isfinite(ret)
                      else [f"episode {ep}: {steps} steps, done at {done_at}, "
                            f"return {ret}"])
        return [b - a for a, b in zip(probe.starts, probe.starts[1:] + [end])]

    def op(self, i: int, checks: Checks) -> dict:
        episode_s = self._train(EPISODES_PER_CALL, next(self._call_seeds), checks)
        return {"op_ms": [1e3 * s for s in episode_s]}

    def finish(self, checks: Checks) -> None:
        pass

    def block(self, tag: str, checks: Checks) -> None:
        self._train(BLOCK_EPISODES, self.seed, checks)

    @staticmethod
    def named(samples: dict) -> list:
        ms = samples["op_ms"]
        tail = summarize(ms)["tail_p"]
        return [
            ("rl_episodes_per_s", 1e3 * len(ms) / sum(ms), "1/s",
             f"{len(ms)} episodes / {sum(ms) / 1e3:.3f} s"),
            ("rl_episode_p50_ms", percentile(ms, 50), "ms", f"n={len(ms)}"),
            ("rl_episode_p99_ms", percentile(ms, 99), "ms",
             f"n={len(ms)}; highest percentile with 10 samples beyond it: p{tail}"),
        ]


class FitLarge:
    """The CLI fit stage, then classifier evaluation, on a 5x corpus."""

    name = "fit-large"
    op_unit = "fit + evaluate cycles"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.csv = workdir / "large" / "corpus.csv"
        self.corpus = None

    def set_up(self, k: int) -> None:
        self.corpus = synth.generate_synthetic_corpus(
            synth.GeneratorConfig(n_dialogs=LARGE_DIALOGS), self.seed)
        self.csv.parent.mkdir(parents=True, exist_ok=True)
        corpus_io.save_corpus(self.corpus, self.csv)

    def _cycle(self, out: Path, checks: Checks) -> tuple:
        argv = ["fit", "--corpus", self.csv, "--seed", self.seed, "--out", out]
        fit_s, code, stderr = run_stage(argv)
        problems = stage_problems(argv, code, stderr, out)
        checks.op(problems)
        if problems:
            return fit_s, math.inf
        model = trust_model.load_classifier(out / "trust_model.json")
        start = clock()
        report = trust_model.evaluate_classifier(model, self.corpus)
        eval_s = clock() - start
        rows = LARGE_DIALOGS * STEPS
        checks.op([] if report.n == rows and report.accuracy > report.majority_baseline
                  else [f"classifier: n={report.n} of {rows}, accuracy "
                        f"{report.accuracy:.3f} vs majority {report.majority_baseline:.3f}"])
        shutil.rmtree(out)
        return fit_s, eval_s

    def op(self, i: int, checks: Checks) -> dict:
        fit_s, eval_s = self._cycle(self.workdir / f"fit-{i}", checks)
        return {"fit_large_s": [fit_s],
                "classifier_eval_rows_per_s": [LARGE_DIALOGS * STEPS / eval_s],
                "op_ms": [1e3 * (fit_s + eval_s)]}

    def finish(self, checks: Checks) -> None:
        pass

    def block(self, tag: str, checks: Checks) -> None:
        self._cycle(self.workdir / f"block-{tag}", checks)

    @staticmethod
    def named(samples: dict) -> list:
        return [median_line("fit_large_s", samples["fit_large_s"], "s"),
                median_line("classifier_eval_rows_per_s",
                            samples["classifier_eval_rows_per_s"], "1/s")]


WORKLOADS = {w.name: w for w in (Pipeline308, RlTrain, FitLarge)}
