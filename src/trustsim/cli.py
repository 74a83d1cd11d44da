"""Batch command-line front end.

Every stochastic subcommand takes an explicit --seed; outputs land in
--out together with manifest.json listing the resolved config and the
sha256 of each artifact, so identical invocations are checkable for
bit-identical results. Later stages read what `fit` wrote: `simulate`
and `evaluate` its --table, `train-rl` its whole --fit directory.
Exit codes: 0 success, 1 usage, 2 validation (including a missing --corpus,
--table, --config or --fit file, or an --out below a file), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .behavior_tables import (
    DEFAULT_FALLBACK_THRESHOLD,
    TABLE_FORMAT,
    TableMode,
    build_table,
    load_table,
    save_table,
    table_summary,
)
from .corpus import load_corpus, save_corpus, write_csv_rows
from .errors import InvalidConfig, TrustSimError, read_json, write_compact_json, write_json
from .fidelity import (
    compare_modes,
    evaluate_simulator,
    render_report_text,
    report_csv_rows,
)
from .rl_env import Hyperparams, RewardConfig, TrustSimEnv, train_tabular_policy
from .sampling import STREAM_FORMAT, RandomStream
from .simulator import replay_conditions, save_simulated_log
from .synth import GeneratorConfig, generate_synthetic_corpus
from .trust_model import (
    MODEL_FORMAT,
    load_classifier,
    save_classifier,
    train_classifier,
)
from .user_model import fit_trait_distributions, load_trait_distributions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

MODE_NAMES = {m.value: m for m in TableMode}

FIT_FILES = ("table.json", "trait_dists.json", "trust_model.json")  # read by --fit


def _number(kind):
    """The argparse type of a number option: `kind` (int or float) of its
    text. Text holding an underscore, which int() and float() read between
    digits ("2_0" as 20), is refused, so such an option is a usage error."""
    def parse(text: str):
        if "_" in text:
            raise ValueError("an underscore in a number")
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names it: "invalid int value"
    return parse


_INT, _FLOAT = _number(int), _number(float)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # validation failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, artifacts) -> None:
    # Fixed for a given environment, so identical invocations still write
    # identical manifests.
    versions = {"trustsim": __version__, "numpy": np.__version__,
                "python": platform.python_version()}
    manifest = {
        "command": command,
        "config": {**config, "stream_format": STREAM_FORMAT,
                   "model_format": MODEL_FORMAT, "table_format": TABLE_FORMAT,
                   "versions": versions},
        "artifacts": {name: f"sha256:{_sha256(out_dir / name)}" for name in artifacts},
    }
    write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_generator_config(args) -> GeneratorConfig:
    if getattr(args, "config", None):
        config = GeneratorConfig.from_json_dict(read_json(args.config, "config"))
    else:
        config = GeneratorConfig()
    if args.dialogs is not None:
        config = replace(config, n_dialogs=args.dialogs)
    return config


def cmd_gen_corpus(args) -> int:
    out = _out_dir(args)
    config = _load_generator_config(args)
    corpus = generate_synthetic_corpus(config, args.seed)
    corpus_name = f"corpus.{args.format}"
    save_corpus(corpus, out / corpus_name)
    write_json(out / "generator_params.json", config.to_json_dict())
    _write_manifest(out, "gen-corpus",
                    {"seed": args.seed, "format": args.format,
                     "generator": config.to_json_dict()},
                    [corpus_name, "generator_params.json"])
    print(f"wrote {corpus.exchange_count} exchanges "
          f"({corpus.n_dialogs} dialogs) to {out / corpus_name}")
    return EXIT_OK


def cmd_fit(args) -> int:
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    mode = MODE_NAMES[args.mode]
    table = build_table(corpus, mode, args.fallback_threshold)
    save_table(table, out / "table.json")
    dists = fit_trait_distributions(corpus)
    write_json(out / "trait_dists.json", dists.to_json_dict())
    model = train_classifier(corpus)
    save_classifier(model, out / "trust_model.json")
    summary = table_summary(table)
    write_json(out / "table_summary.json", summary)
    _write_manifest(out, "fit",
                    {"corpus": str(args.corpus), "mode": args.mode,
                     "fallback_threshold": args.fallback_threshold,
                     "seed": args.seed},
                    [*FIT_FILES, "table_summary.json"])
    print(f"fitted {mode.value} table ({summary['observed_keys']} cells), "
          f"trait distributions, and trust model under {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    table = load_table(args.table)
    log = replay_conditions(corpus, table, RandomStream(args.seed, "replay"))
    log_name = f"sim_log.{args.format}"
    save_simulated_log(log, out / log_name)
    _write_manifest(out, "simulate",
                    {"corpus": str(args.corpus), "seed": args.seed,
                     "mode": table.mode.value, "format": args.format,
                     "table": str(args.table)},
                    [log_name])
    print(f"replayed {len(log)} turns (fallback rate {log.fallback_rate():.3f}) "
          f"to {out / log_name}")
    return EXIT_OK


def _write_report(out: Path, stem: str, report) -> list:
    """Write a report as JSON, text and CSV; the names of the three files."""
    names = [f"{stem}.json", f"{stem}.txt", f"{stem}.csv"]
    write_json(out / names[0], report.to_json_dict())
    (out / names[1]).write_text(render_report_text(report), encoding="utf-8")
    with open(out / names[2], "w", newline="", encoding="utf-8") as fh:
        write_csv_rows(fh, report_csv_rows(report))
    return names


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    table = load_table(args.table)
    log = replay_conditions(corpus, table, RandomStream(args.seed, "replay"))
    report = evaluate_simulator(log, table.mode.value)
    _write_manifest(out, "evaluate",
                    {"corpus": str(args.corpus), "seed": args.seed,
                     "mode": table.mode.value, "table": str(args.table)},
                    _write_report(out, "report", report))
    print(render_report_text(report))
    return EXIT_OK


def cmd_compare(args) -> int:
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    comparison = compare_modes(corpus, args.seed,
                               train_fraction=args.train_fraction,
                               fallback_threshold=args.fallback_threshold)
    _write_manifest(out, "compare",
                    {"corpus": str(args.corpus), "seed": args.seed,
                     "train_fraction": args.train_fraction,
                     "fallback_threshold": args.fallback_threshold},
                    _write_report(out, "comparison", comparison))
    print(render_report_text(comparison))
    return EXIT_OK


def cmd_train_rl(args) -> int:
    out = _out_dir(args)
    fit = Path(args.fit)
    table = load_table(fit / "table.json")
    env = TrustSimEnv(table, load_trait_distributions(fit / "trait_dists.json"),
                      load_classifier(fit / "trust_model.json"),
                      RewardConfig(args.score_weight, args.trust_weight))
    result = train_tabular_policy(env, args.episodes, Hyperparams(seed=args.seed))
    write_compact_json(out / "policy.json", {
        "format": "tabular-policy/v1",
        "policy": [int(a) for a in result.policy],
        "q": [[float(v) for v in row] for row in result.q],
    })
    with open(out / "returns.csv", "w", newline="", encoding="utf-8") as fh:
        write_csv_rows(fh, [("episode", "return")] + [(str(i), repr(r)) for i, r in
                                                      enumerate(result.returns)])
    _write_manifest(out, "train-rl",
                    {"fit": str(args.fit), "mode": table.mode.value,
                     "episodes": args.episodes, "seed": args.seed,
                     "score_weight": args.score_weight,
                     "trust_weight": args.trust_weight},
                    ["policy.json", "returns.csv"])
    window = min(100, len(result.returns))
    mean_tail = sum(result.returns[-window:]) / window
    print(f"trained {args.episodes} episodes; mean return over last {window}: "
          f"{mean_tail:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trustsim",
                     description="Corpus-based trust-aware user simulation")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(p, needs_corpus=True):
        if needs_corpus:
            p.add_argument("--corpus", required=True, help="corpus file (csv/jsonl)")
        p.add_argument("--seed", type=_INT, required=True,
                       help="root random seed for this run")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    add_common(p, needs_corpus=False)
    p.add_argument("--dialogs", type=_INT, default=None,
                   help="dialog count override")
    p.add_argument("--config", default=None,
                   help="generator config JSON; --dialogs replaces its n_dialogs")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("fit", help="fit behavior table, traits, and trust model")
    add_common(p)
    p.add_argument("--mode", choices=tuple(MODE_NAMES), default="task-step")
    p.add_argument("--fallback-threshold", type=_INT, default=DEFAULT_FALLBACK_THRESHOLD)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="replay corpus conditions through the simulator")
    add_common(p)
    p.add_argument("--table", required=True, help="behavior table JSON written by fit")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="replay and score one simulation mode")
    add_common(p)
    p.add_argument("--table", required=True, help="behavior table JSON written by fit")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train/test comparison of both modes")
    add_common(p)
    p.add_argument("--train-fraction", type=_FLOAT, default=0.8)
    p.add_argument("--fallback-threshold", type=_INT, default=DEFAULT_FALLBACK_THRESHOLD)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train-rl", help="train the reference tabular policy")
    add_common(p, needs_corpus=False)
    p.add_argument("--fit", required=True, help="output directory of fit")
    p.add_argument("--episodes", type=_INT, required=True)
    p.add_argument("--score-weight", type=_FLOAT, default=0.5)
    p.add_argument("--trust-weight", type=_FLOAT, default=0.5)
    p.set_defaults(func=cmd_train_rl)

    return parser


def _check_input_files(args) -> None:
    paths = [(flag, getattr(args, flag, None)) for flag in ("corpus", "table", "config")]
    if getattr(args, "fit", None) is not None:
        paths += [("fit", Path(args.fit) / name) for name in FIT_FILES]
    for flag, path in paths:
        if path is not None and not Path(path).is_file():
            raise InvalidConfig(f"--{flag} {path} is not an existing file")
    # --out is made with its parents: the first that exists must be a directory
    for path in (Path(args.out), *Path(args.out).parents):
        if path.is_dir():
            break
        if path.exists() or path.is_symlink():
            raise InvalidConfig(f"--out {args.out}: {path} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _check_input_files(args)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, TrustSimError) else EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
