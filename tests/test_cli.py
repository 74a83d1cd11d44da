"""End-to-end command surface: artifacts, manifests, and exit codes."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trustsim

from conftest import TABLE_CORRUPTIONS, TABLE_MALFORMATIONS, model_keeping
from trustsim.behavior_tables import TABLE_FORMAT, TableMode, build_table, load_table
from trustsim.cli import build_parser, main
from trustsim.corpus import load_corpus, save_corpus
from trustsim.rl_env import Hyperparams, N_STATES, TrustSimEnv, train_tabular_policy
from trustsim.sampling import STREAM_FORMAT
from trustsim.synth import GeneratorConfig
from trustsim.trust_model import MODEL_FORMAT, train_classifier
from trustsim.user_model import fit_trait_distributions


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_file(work):
    out = work / "gen"
    code = main(["gen-corpus", "--seed", "7", "--dialogs", "40",
                 "--out", str(out)])
    assert code == 0
    return out / "corpus.csv"


@pytest.fixture(scope="module")
def fit_dir(work, corpus_file):
    out = work / "fit"
    code = main(["fit", "--corpus", str(corpus_file), "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out


def copy_fit(fit_dir, dest):
    """A copy of the fit directory that a test may corrupt."""
    shutil.copytree(fit_dir, dest)
    return dest


class TestGenCorpus:
    def test_artifacts_and_manifest(self, work, corpus_file, capsys):
        out = corpus_file.parent
        for name in ("corpus.csv", "generator_params.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-corpus"
        assert manifest["config"]["seed"] == 7
        for name, tagged in manifest["artifacts"].items():
            assert tagged == f"sha256:{sha256(out / name)}"

    def test_corpus_loads_with_requested_size(self, corpus_file):
        corpus = load_corpus(corpus_file)
        assert corpus.n_dialogs == 40
        assert corpus.exchange_count == 480

    def test_reruns_are_bit_identical(self, work):
        a, b = work / "rerun_a", work / "rerun_b"
        for out in (a, b):
            assert main(["gen-corpus", "--seed", "9", "--dialogs", "6",
                         "--out", str(out)]) == 0
        assert (a / "corpus.csv").read_bytes() == (b / "corpus.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_written_generator_params_load_back(self, corpus_file):
        params = json.loads((corpus_file.parent / "generator_params.json").read_text())
        assert GeneratorConfig.from_json_dict(params) == GeneratorConfig(n_dialogs=40)

    def test_config_file_with_flag_overrides(self, work):
        config_path = work / "gen_config.json"
        config_path.write_text(json.dumps(
            GeneratorConfig(n_dialogs=8, step_drift=0.5).to_json_dict()))
        out = work / "from_config"
        assert main(["gen-corpus", "--seed", "2", "--config", str(config_path),
                     "--dialogs", "6", "--out", str(out)]) == 0
        params = json.loads((out / "generator_params.json").read_text())
        assert params["n_dialogs"] == 6       # flag wins
        assert params["step_drift"] == 0.5    # file value kept

    # sha256 of corpora written before generation was batched: the batched
    # generator must reproduce them byte for byte
    @pytest.mark.parametrize("flags, name, digest", [
        (["--dialogs", "40"], "corpus.csv",
         "b8e84f6c3544b509781a34273cb1cc98180d45f61e35599b1b82247451c5456f"),
        (["--dialogs", "40", "--format", "jsonl"], "corpus.jsonl",
         "4ef21e180bd13b287b2fda0a495dd048db6e581d467a1f9a4ca2d9a798e010b3"),
        ([], "corpus.csv",
         "db530267d4c10a1722f48a3078aa8f91e5da7ba6009024b36c48b51e1c97a9d1"),
    ])
    def test_golden_corpus_hashes(self, work, flags, name, digest):
        out = work / f"golden_{len(flags)}_{name}"
        assert main(["gen-corpus", "--seed", "42", *flags, "--out", str(out)]) == 0
        assert sha256(out / name) == digest

    def test_jsonl_format(self, work):
        out = work / "gen_jsonl"
        assert main(["gen-corpus", "--seed", "3", "--dialogs", "4",
                     "--format", "jsonl", "--out", str(out)]) == 0
        assert (out / "corpus.jsonl").exists()
        assert load_corpus(out / "corpus.jsonl").n_dialogs == 4


class TestManifest:
    def test_config_records_stream_format_and_versions(self, corpus_file, fit_dir):
        for out in (corpus_file.parent, fit_dir):
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config["stream_format"] == STREAM_FORMAT == 2
            assert set(config["versions"]) == {"trustsim", "numpy", "python"}
            assert config["versions"]["numpy"] == np.__version__


    def test_every_stage_records_model_and_table_format(self, work, corpus_file,
                                                        fit_dir):
        corpus, table = str(corpus_file), str(fit_dir / "table.json")
        later = {"simulate": ["--corpus", corpus, "--table", table],
                 "evaluate": ["--corpus", corpus, "--table", table],
                 "compare": ["--corpus", corpus],
                 "train-rl": ["--fit", str(fit_dir), "--episodes", "1"]}
        outs = [corpus_file.parent, fit_dir]
        for stage, flags in later.items():
            outs.append(work / f"model_format_{stage}")
            assert main([stage, *flags, "--seed", "1", "--out", str(outs[-1])]) == 0
        for out in outs:
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config["model_format"] == MODEL_FORMAT == "trust-model/v3"
            assert config["table_format"] == TABLE_FORMAT == "behavior-table/v3"


class TestFit:
    def test_artifact_set(self, fit_dir):
        for name in ("table.json", "trait_dists.json", "trust_model.json",
                     "table_summary.json", "manifest.json"):
            assert (fit_dir / name).exists()

    def test_table_round_trips(self, fit_dir):
        table = load_table(fit_dir / "table.json")
        assert table.mode is TableMode.TASK_STEP_BASED
        assert table.fallback_threshold == 10
        assert table.n.sum() > 0

    def test_summary_is_json(self, fit_dir):
        summary = json.loads((fit_dir / "table_summary.json").read_text())
        assert summary["possible_keys"] == 8 * 4 * 12


class TestSimulate:
    def test_with_prefit_table(self, work, corpus_file, fit_dir):
        out = work / "sim"
        code = main(["simulate", "--corpus", str(corpus_file), "--seed", "4",
                     "--table", str(fit_dir / "table.json"), "--out", str(out)])
        assert code == 0
        lines = (out / "sim_log.csv").read_text().splitlines()
        assert len(lines) == 480 + 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "task-step"

    def test_quickstart_log_is_pinned(self, tmp_path):
        # README's quickstart chain; changing this digest needs a
        # STREAM_FORMAT bump
        corpus, fit, sim = tmp_path / "corpus", tmp_path / "fit", tmp_path / "sim"
        assert main(["gen-corpus", "--seed", "42", "--dialogs", "40",
                     "--out", str(corpus)]) == 0
        assert main(["fit", "--corpus", str(corpus / "corpus.csv"), "--seed", "1",
                     "--out", str(fit)]) == 0
        assert main(["simulate", "--corpus", str(corpus / "corpus.csv"), "--seed", "2",
                     "--table", str(fit / "table.json"), "--out", str(sim)]) == 0
        assert STREAM_FORMAT == 2
        assert sha256(sim / "sim_log.csv") == (
            "b6bd727e5c829cc7cedb0445056e2039fa4a9645d72ed66cb78c55b5c5ea92b2")

    @pytest.mark.parametrize("uid, did", [("u\r0", "d\r0"), ('u,"0"', "d,0")],
                             ids=["carriage-return", "comma-and-quote"])
    def test_ids_holding_carriage_returns(self, tmp_path, corpus_file, uid, did):
        # a cell holding a bare "\r", a comma or a quote is quoted, so the
        # log reads back row for row
        corpus = load_corpus(corpus_file)
        path = tmp_path / "corpus.csv"
        save_corpus(dataclasses.replace(corpus, user_id=(uid,) + corpus.user_id[1:],
                                        dialog_id=(did,) + corpus.dialog_id[1:]), path)
        fit, out = tmp_path / "fit", tmp_path / "sim"
        assert main(["fit", "--corpus", str(path), "--seed", "1",
                     "--out", str(fit)]) == 0
        assert main(["simulate", "--corpus", str(path), "--seed", "2",
                     "--table", str(fit / "table.json"), "--out", str(out)]) == 0
        with open(out / "sim_log.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 480 + 1
        assert {len(row) for row in rows} == {11}
        assert rows[1][:2] == [uid, did]

    def test_jsonl_log(self, work, corpus_file):
        fit = work / "fit_complexity"
        assert main(["fit", "--corpus", str(corpus_file), "--seed", "1",
                     "--mode", "complexity", "--out", str(fit)]) == 0
        out = work / "sim_jsonl"
        code = main(["simulate", "--corpus", str(corpus_file), "--seed", "4",
                     "--format", "jsonl", "--table", str(fit / "table.json"),
                     "--out", str(out)])
        assert code == 0
        first = json.loads((out / "sim_log.jsonl").read_text().splitlines()[0])
        assert first["step"] == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "complexity"


class TestGoldenChain:
    """sha256 of the artifacts of one small seed-42 chain that no BLAS
    product feeds; trust_model.json and the train-rl outputs are left to
    the pipeline-determinism gate, which reruns them on the same machine.
    The manifests hold their run's paths."""

    DIGESTS = {
        "fit/table.json": "1fcc8bf407b4d64df3459279b5a4de6e3965804c6f56ada062e5cc3c4c99e42f",
        "fit/trait_dists.json":
            "7f680d7cd9e3dbb7884c34dcfab7cff80bb34f9f8288945ceb6a66e360e4a4da",
        "fit/table_summary.json":
            "fccd4ad43b4ff10cf27a404bbd5921e4e0e1f1f91c02cd7280dcda0c23981b77",
        "eval/report.json": "6954ea952ac7b389480866baa47b94cbb4aa4176e0215c0e826b7506b13256dc",
        "eval/report.txt": "50965705e878152afc1211f059a62ff55a3f7b8bfd54d70f2d559e748877b30b",
        "eval/report.csv": "15d28d8f2d1deb60d00243cd3696e5af62082fc6b41fdce03f621889f71e1970",
        "cmp/comparison.json":
            "a2cef54b7117908588bd0aa56fb190854f407d39b7a10fbabe1746a5698ebdae",
        "cmp/comparison.txt":
            "a5f4b05a47cbc377c34c766e89daa120f45d5704d5cebe16bc6c9167064d4d3f",
        "cmp/comparison.csv":
            "3d96a225f47975a395eefd2e39084ea51137f5b4fddc7d5f1460d43663339289",
    }

    def test_artifacts_are_pinned(self, tmp_path):
        corpus = str(tmp_path / "corpus" / "corpus.csv")
        for args in (["gen-corpus", "--seed", "42", "--dialogs", "40", "--out", "corpus"],
                     ["fit", "--corpus", corpus, "--seed", "1", "--out", "fit"],
                     ["evaluate", "--corpus", corpus, "--seed", "3",
                      "--table", str(tmp_path / "fit" / "table.json"), "--out", "eval"],
                     ["compare", "--corpus", corpus, "--seed", "4", "--out", "cmp"]):
            assert main(args[:-1] + [str(tmp_path / args[-1])]) == 0
        assert {name: sha256(tmp_path / name) for name in self.DIGESTS} == self.DIGESTS


class TestGoldenRL:
    """sha256 of `q.tobytes()`, the policy and the returns of 600 episodes
    (two blocks of 256 and a partial one) trained on the seed-42 standard
    corpus's fit, per mode and learner seed. Unlike `TestGoldenChain`,
    these pass through BLAS products (the classifier's training and the
    block's score parts), so they are pinned for the BLAS they were
    computed with, x86-64 numpy's OpenBLAS. A change to the draw or step
    kernels that keeps them is bit-identical."""

    EPISODES = 600
    DIGESTS = {
        ("complexity", 0): "096836a09d056a7d641c90c7c2d26ac9f76b794280af3b013f763b99be4b9161",
        ("complexity", 5): "90fdf1abd3a858c82f13585f165efa9b1b22dce855e8c3333525a638af64b6e7",
        ("complexity", 42): "f34a9d117bb4457cfbd1ec04b8c83198de0388ffdf5a6ec38b75a8b5e2e2f5f4",
        ("task-step", 0): "d2bebd4d5d1f341c2da8f149679fe17c5e11c297596423881908c77f1bc2d6f3",
        ("task-step", 5): "94e0065b555b9dc9e2a3199f284d06dd2707687dad309b34340360ef5a8ccfab",
        ("task-step", 42): "8153fc0c8061a5423606cc70e426d3f752ae8b76852485c73c136642d8f22c7c",
    }

    @pytest.fixture(scope="class")
    def fits(self, default_corpus):
        traits, model = fit_trait_distributions(default_corpus), train_classifier(default_corpus)
        return {mode: (build_table(default_corpus, mode), traits, model) for mode in TableMode}

    @pytest.mark.parametrize("seed", [0, 5, 42])
    @pytest.mark.parametrize("mode", list(TableMode), ids=lambda mode: mode.value)
    def test_training_is_pinned(self, fits, mode, seed):
        result = train_tabular_policy(TrustSimEnv(*fits[mode]), self.EPISODES,
                                      Hyperparams(seed=seed))
        assert self.digest(result) == self.DIGESTS[mode.value, seed]

    # a three-class model per mode: the fit's rows and biases of these classes
    THREE_CLASS_DIGESTS = {
        ("complexity", (2, 3, 4)): "32ac8305b9596f6988d07a1cc3f3f345404746c69535f0bfd3e7824f0bd3af0e",
        ("task-step", (1, 3, 5)): "d7ab1fde073da8dc1e9a3f50755030813a2bde060a65aca9cb9c8e62496cc970",
    }

    @pytest.mark.parametrize("mode, classes", THREE_CLASS_DIGESTS,
                             ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_a_three_class_model_is_pinned(self, fits, mode, classes):
        table, traits, model = fits[TableMode(mode)]
        env = TrustSimEnv(table, traits, model_keeping(model, classes))
        result = train_tabular_policy(env, self.EPISODES, Hyperparams(seed=0))
        assert self.digest(result) == self.THREE_CLASS_DIGESTS[mode, classes]

    @staticmethod
    def digest(result) -> str:
        digest = hashlib.sha256(result.q.tobytes())
        digest.update(result.policy.astype(np.int64).tobytes())
        digest.update(np.array(result.returns).tobytes())
        return digest.hexdigest()


class TestEvaluate:
    def test_report_bundle(self, work, corpus_file, fit_dir, capsys):
        out = work / "eval"
        table = fit_dir / "table.json"
        code = main(["evaluate", "--corpus", str(corpus_file), "--seed", "5",
                     "--table", str(table), "--out", str(out)])
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["mode"], config["table"]) == ("task-step", str(table))
        report = json.loads((out / "report.json").read_text())
        assert "Overall" in report["rows"]
        assert "GameScore" in report["rows"]
        text = (out / "report.txt").read_text()
        assert "Overall" in text
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "mode,measure,kl_mean,kl_sd,mse_mean,mse_sd"
        assert len(csv_lines) == 1 + 5 + 1
        assert "Overall" in capsys.readouterr().out


class TestCompare:
    def test_both_modes_reported(self, work, corpus_file):
        out = work / "cmp"
        code = main(["compare", "--corpus", str(corpus_file), "--seed", "6",
                     "--out", str(out)])
        assert code == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert set(comparison) == {"complexity", "task-step"}

    def test_rerun_bit_identical(self, work, corpus_file):
        a, b = work / "cmp_a", work / "cmp_b"
        for out in (a, b):
            assert main(["compare", "--corpus", str(corpus_file), "--seed", "6",
                         "--out", str(out)]) == 0
        for name in ("comparison.json", "comparison.txt", "comparison.csv",
                     "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrainRl:
    def test_policy_and_returns(self, work, fit_dir):
        out = work / "rl"
        code = main(["train-rl", "--fit", str(fit_dir), "--seed", "0",
                     "--episodes", "25", "--out", str(out)])
        assert code == 0
        policy = json.loads((out / "policy.json").read_text())
        assert policy["format"] == "tabular-policy/v1"
        assert len(policy["policy"]) == N_STATES
        assert len(policy["q"]) == N_STATES
        returns = (out / "returns.csv").read_text().splitlines()
        assert returns[0] == "episode,return"
        assert len(returns) == 25 + 1
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["fit"], config["mode"]) == (str(fit_dir), "task-step")
        assert not {"corpus", "fallback_threshold"} & set(config)

    def test_fit_directory_matches_in_process_rebuild(self, work, corpus_file, fit_dir):
        """The policy trained on the fit's files equals, byte for byte, one
        trained on a table, trait distributions and classifier rebuilt
        from the corpus in this process."""
        out = work / "rl_oracle"
        assert main(["train-rl", "--fit", str(fit_dir), "--seed", "5",
                     "--episodes", "60", "--out", str(out)]) == 0
        corpus = load_corpus(corpus_file)
        env = TrustSimEnv(build_table(corpus, TableMode.TASK_STEP_BASED),
                          fit_trait_distributions(corpus), train_classifier(corpus))
        result = train_tabular_policy(env, 60, Hyperparams(seed=5))
        policy = {"format": "tabular-policy/v1",
                  "policy": [int(a) for a in result.policy],
                  "q": [[float(v) for v in row] for row in result.q]}
        # one line per top-level key, in key order, with no spaces
        assert (out / "policy.json").read_text() == "{\n" + ",\n".join(
            f"{json.dumps(key)}:{json.dumps(policy[key], separators=(',', ':'))}"
            for key in ("format", "policy", "q")) + "\n}\n"
        assert (out / "returns.csv").read_text() == "episode,return\n" + "".join(
            f"{i},{r!r}\n" for i, r in enumerate(result.returns))

    def test_summary_names_the_real_window(self, work, fit_dir, capsys):
        out = work / "rl20"
        assert main(["train-rl", "--fit", str(fit_dir), "--seed", "0",
                     "--episodes", "20", "--out", str(out)]) == 0
        returns = [float(row.split(",")[1]) for row in
                   (out / "returns.csv").read_text().splitlines()[1:]]
        printed = capsys.readouterr().out.strip()
        assert printed == (f"trained 20 episodes; mean return over last 20: "
                           f"{sum(returns) / 20:.3f}")


class TestOptions:
    # every option string of every subcommand, in parser order, --help aside
    OPTIONS = {
        "gen-corpus": ["--seed", "--out", "--dialogs", "--config", "--format"],
        "fit": ["--corpus", "--seed", "--out", "--mode", "--fallback-threshold"],
        "simulate": ["--corpus", "--seed", "--out", "--table", "--format"],
        "evaluate": ["--corpus", "--seed", "--out", "--table"],
        "compare": ["--corpus", "--seed", "--out", "--train-fraction",
                    "--fallback-threshold"],
        "train-rl": ["--seed", "--out", "--fit", "--episodes", "--score-weight",
                     "--trust-weight"],
    }

    def test_every_subcommand_pins_its_options(self):
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        options = {name: [flag for action in sub._actions
                          if not isinstance(action, argparse._HelpAction)
                          for flag in action.option_strings]
                   for name, sub in commands.choices.items()}
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 30

    def test_drift_flag_is_usage_error(self, work, capsys):
        assert main(["gen-corpus", "--seed", "1", "--drift", "0.5",
                     "--out", str(work / "x14")]) == 1
        assert "--drift" in capsys.readouterr().err
        assert not (work / "x14").exists()


class TestExitCodes:
    def test_missing_seed_is_usage_error(self, work, capsys):
        assert main(["gen-corpus", "--out", str(work / "x1")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, work):
        assert main(["frobnicate", "--seed", "1"]) == 1

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-corpus" in capsys.readouterr().out

    def test_domain_validation_maps_to_2(self, work, capsys):
        assert main(["gen-corpus", "--seed", "1", "--dialogs", "0",
                     "--out", str(work / "x2")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    def test_bad_episode_count_maps_to_2(self, work, fit_dir):
        assert main(["train-rl", "--fit", str(fit_dir), "--seed", "1",
                     "--episodes", "0", "--out", str(work / "x3")]) == 2

    def test_reward_weights_whose_return_overflows_map_to_2(self, work, fit_dir, capsys):
        # each weight is finite, but 12 steps of reward 2e308 are not
        assert main(["train-rl", "--fit", str(fit_dir), "--seed", "1", "--episodes", "20",
                     "--score-weight", "1e308", "--trust-weight", "1e308",
                     "--out", str(work / "x-overflow")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
        assert not (work / "x-overflow" / "policy.json").exists()

    @pytest.mark.parametrize("stage,extra", [
        ("simulate", ["--mode", "complexity"]),
        ("simulate", ["--fallback-threshold", "5"]),
        ("evaluate", ["--mode", "task-step"]),
        ("evaluate", ["--fallback-threshold", "5"]),
        ("train-rl", ["--corpus", "corpus.csv"]),
        ("train-rl", ["--mode", "task-step"]),
        ("train-rl", ["--fallback-threshold", "5"]),
    ])
    def test_rebuild_flags_are_usage_errors(self, work, corpus_file, fit_dir, stage,
                                            extra):
        if stage == "train-rl":
            argv = ["train-rl", "--fit", str(fit_dir), "--episodes", "1"]
        else:
            argv = [stage, "--corpus", str(corpus_file),
                    "--table", str(fit_dir / "table.json")]
        assert main(argv + extra + ["--seed", "1", "--out", str(work / "x12")]) == 1

    @pytest.mark.parametrize("stage", ["simulate", "evaluate"])
    def test_replay_without_table_is_usage_error(self, work, corpus_file, stage):
        assert main([stage, "--corpus", str(corpus_file), "--seed", "1",
                     "--out", str(work / "x13")]) == 1

    @pytest.mark.parametrize("stage,option,text", [
        ("gen-corpus", "--seed", "4_2"),
        ("gen-corpus", "--dialogs", "4_0"),
        ("fit", "--fallback-threshold", "1_0"),
        ("compare", "--train-fraction", "0.8_0"),
        ("compare", "--fallback-threshold", "1_0"),
        ("train-rl", "--episodes", "2_0"),
        ("train-rl", "--score-weight", "0.5_0"),
        ("train-rl", "--trust-weight", "0.5_0"),
    ])
    def test_an_underscore_in_a_number_is_usage_error(self, work, corpus_file, fit_dir,
                                                      capsys, stage, option, text):
        # int() and float() read "2_0" as 20 and "0.5_0" as 0.5
        out = work / "x-underscore"
        options = {"gen-corpus": {"--dialogs": "4"},
                   "fit": {"--corpus": str(corpus_file)},
                   "compare": {"--corpus": str(corpus_file)},
                   "train-rl": {"--fit": str(fit_dir), "--episodes": "2"}}[stage]
        options = {"--seed": "1", **options, option: text, "--out": str(out)}
        assert main([stage, *(cell for item in options.items() for cell in item)]) == 1
        kind = "float" if "." in text else "int"
        assert f"{option}: invalid {kind} value: '{text}'" in capsys.readouterr().err
        assert not out.exists()

    def test_the_module_runs_as_a_process(self, work, fit_dir):
        """`python -m trustsim.cli` exits with main's code: 0 for --help, 1
        for a usage error, 2 for a validation error."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(trustsim.__file__).parent.parent),
                          os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "trustsim.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        assert run("--help").returncode == 0
        out = work / "x-process"
        underscore = run("train-rl", "--fit", str(fit_dir), "--seed", "5",
                         "--episodes", "2_0", "--out", str(out))
        assert underscore.returncode == 1
        assert "--episodes: invalid int value: '2_0'" in underscore.stderr
        assert not out.exists()
        missing = run("fit", "--corpus", str(work / "missing.csv"), "--seed", "1",
                      "--out", str(out))
        assert missing.returncode == 2
        assert json.loads(missing.stderr)["error"] == "InvalidConfig"
        assert not out.exists()

    def test_bad_train_fraction_maps_to_2(self, work, corpus_file):
        assert main(["compare", "--corpus", str(corpus_file), "--seed", "1",
                     "--train-fraction", "1.5", "--out", str(work / "x4")]) == 2

    def test_single_user_corpus_fails_fit_as_validation(self, work):
        gen = work / "tiny"
        assert main(["gen-corpus", "--seed", "1", "--dialogs", "1",
                     "--out", str(gen)]) == 0
        assert main(["fit", "--corpus", str(gen / "corpus.csv"), "--seed", "1",
                     "--out", str(work / "x5")]) == 2

    @pytest.mark.parametrize("flag", ["corpus", "table", "config", "fit"])
    def test_missing_input_file_is_validation_error(self, work, corpus_file, fit_dir,
                                                    capsys, flag):
        missing = str(work / f"no_such_{flag}")
        if flag == "config":
            argv = ["gen-corpus", "--config", missing]
        elif flag == "fit":
            argv = ["train-rl", "--fit", missing, "--episodes", "1"]
        else:
            argv = ["evaluate", "--corpus", str(corpus_file),
                    "--table", str(fit_dir / "table.json"), f"--{flag}", missing]
        assert main(argv + ["--seed", "1", "--out", str(work / "x6")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert f"--{flag} {missing}" in err["message"]

    @pytest.mark.parametrize("flag", ["table", "config", "fit"])
    def test_empty_input_path_is_validation_error(self, work, corpus_file, capsys,
                                                  monkeypatch, flag):
        monkeypatch.chdir(work)  # "" names the working directory, which holds no fit
        if flag == "config":
            argv = ["gen-corpus", "--config", ""]
        elif flag == "fit":
            argv = ["train-rl", "--fit", "", "--episodes", "1"]
        else:
            argv = ["evaluate", "--corpus", str(corpus_file), "--table", ""]
        assert main(argv + ["--seed", "1", "--out", str(work / "x18")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"

    @pytest.mark.parametrize("name", ["table.json", "trait_dists.json",
                                      "trust_model.json"])
    def test_fit_directory_missing_a_file_is_validation_error(self, work, fit_dir,
                                                              capsys, name):
        fit = copy_fit(fit_dir, work / f"fit_without_{name}")
        (fit / name).unlink()
        assert main(["train-rl", "--fit", str(fit), "--seed", "1", "--episodes", "1",
                     "--out", str(work / "x14")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert str(fit / name) in err["message"]

    @pytest.mark.parametrize("value", ["38", True, None, float("inf")])
    def test_non_numeric_trait_field_in_config_is_validation_error(self, work, capsys,
                                                                  value):
        payload = GeneratorConfig(n_dialogs=5).to_json_dict()
        payload["traits"]["age"]["mean"] = value
        bad = work / f"bad_config_mean_{value}.json"
        bad.write_text(json.dumps(payload))
        assert main(["gen-corpus", "--seed", "1", "--config", str(bad),
                     "--out", str(work / "x15")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidBounds"

    @pytest.mark.parametrize("field, value", [("difficulty_sd", 0), ("difficulty_sd", -1),
                                              ("duration_sd", -1)])
    def test_process_sd_out_of_domain_is_validation_error(self, work, capsys, field,
                                                          value):
        payload = GeneratorConfig(n_dialogs=5).to_json_dict()
        payload["process"][field] = value
        bad = work / f"bad_config_{field}_{value}.json"
        bad.write_text(json.dumps(payload))
        assert main(["gen-corpus", "--seed", "1", "--config", str(bad),
                     "--out", str(work / "x16")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert field in err["message"]

    @pytest.mark.parametrize("fields", [("duration_base", "duration_complexity"),
                                        ("help_base", "help_complexity"),
                                        ("best_base", "best_expertise"),
                                        ("difficulty_base", "difficulty_complexity")])
    def test_process_sum_beyond_float_range_is_validation_error(self, work, capsys,
                                                                fields):
        payload = GeneratorConfig(n_dialogs=5).to_json_dict()
        for field in fields:
            payload["process"][field] = 10 ** 308  # finite; the sum is not
        bad = work / f"bad_config_{fields[0]}_overflow.json"
        bad.write_text(json.dumps(payload))
        assert main(["gen-corpus", "--seed", "1", "--config", str(bad),
                     "--out", str(work / "x17")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "overflow" in err["message"]

    def test_corrupt_table_is_validation_error(self, work, corpus_file, capsys):
        bad = work / "bad_table.json"
        bad.write_text("{not json")
        assert main(["evaluate", "--corpus", str(corpus_file), "--seed", "1",
                     "--table", str(bad), "--out", str(work / "x7")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    @pytest.mark.parametrize("malform", [
        "not-json", "missing-keys", "not-object", "unknown-process-key",
        "unknown-traits-key", "traits-type", "process-type", "gender-probs",
        "unknown-top-key", "unknown-trait", "process-text", "act-entry-text",
        "dialogs-bool", "drift-bool", "duration-inf",
    ])
    def test_malformed_generator_config_is_validation_error(self, work, capsys,
                                                            malform):
        payload = GeneratorConfig(n_dialogs=5).to_json_dict()
        if malform == "missing-keys":
            payload = {"n_dialogs": 5}
        elif malform == "not-object":
            payload = [payload]
        elif malform == "unknown-process-key":
            payload["process"]["bogus"] = 1.0
        elif malform == "unknown-traits-key":
            payload["traits"]["age"]["bogus"] = 1.0
        elif malform == "traits-type":
            payload["traits"] = 5
        elif malform == "process-type":
            payload["process"] = [1.0]
        elif malform == "gender-probs":
            payload["traits"]["gender_probs"] = ["a", "b", "c"]
        elif malform == "unknown-top-key":
            payload["bogus"] = 1
        elif malform == "unknown-trait":
            payload["traits"]["height"] = dict(payload["traits"]["age"])
        elif malform == "process-text":
            payload["process"]["help_base"] = "0.3"
        elif malform == "act-entry-text":
            payload["process"]["help_act"][1] = "x"
        elif malform == "dialogs-bool":
            payload["n_dialogs"] = True
        elif malform == "drift-bool":
            payload["step_drift"] = True
        elif malform == "duration-inf":
            payload["duration_hi"] = float("inf")  # written as Infinity
        bad = work / f"bad_config_{malform}.json"
        bad.write_text("{not json" if malform == "not-json" else json.dumps(payload))
        assert main(["gen-corpus", "--seed", "1", "--config", str(bad),
                     "--out", str(work / "x10")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    @pytest.mark.parametrize("malform", list(TABLE_MALFORMATIONS))
    def test_malformed_table_is_validation_error(self, work, corpus_file, fit_dir,
                                                 capsys, malform):
        payload = json.loads((fit_dir / "table.json").read_text())
        bad = work / f"bad_table_{malform}.json"
        bad.write_text(json.dumps(TABLE_MALFORMATIONS[malform](payload)))
        assert main(["simulate", "--corpus", str(corpus_file), "--seed", "1",
                     "--table", str(bad), "--out", str(work / "x9")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    @pytest.mark.parametrize("stage", ["simulate", "evaluate", "train-rl"])
    @pytest.mark.parametrize("corruption", list(TABLE_CORRUPTIONS))
    def test_corrupt_table_value_is_validation_error(self, work, corpus_file, fit_dir,
                                                     capsys, corruption, stage):
        fit = copy_fit(fit_dir, work / f"fit_{corruption}_{stage}")
        payload = json.loads((fit / "table.json").read_text())
        edit, error = TABLE_CORRUPTIONS[corruption]
        edit(payload)
        (fit / "table.json").write_text(json.dumps(payload))
        if stage == "train-rl":
            argv = ["train-rl", "--fit", str(fit), "--episodes", "1"]
        else:
            argv = [stage, "--corpus", str(corpus_file), "--table", str(fit / "table.json")]
        assert main(argv + ["--seed", "1", "--out", str(work / "x19")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("malform,error", [
        ("not-object", "InvalidConfig"),
        ("schema_version", "SchemaMismatch"),
        ("classes", "SchemaMismatch"),
        ("weights", "SchemaMismatch"),
        ("biases", "SchemaMismatch"),
        ("weight-strings", "SchemaMismatch"),
        ("class-labels", "SchemaMismatch"),
        ("classes-descending", "SchemaMismatch"),
        ("classes-repeated", "SchemaMismatch"),
        ("not-json", "InvalidConfig"),
        ("format-v1", "InvalidConfig"),
        ("format-v2", "InvalidConfig"),
        ("nan-weight", "ValueOutOfRange"),
        ("inf-bias", "ValueOutOfRange"),
        ("nan-last-weight", "ValueOutOfRange"),
        ("negative-inf-bias", "ValueOutOfRange"),
        ("overflowing-duration-weight", "ValueOutOfRange"),
        ("huge-int-weight", "SchemaMismatch"),
        ("true-weight", "SchemaMismatch"),
        ("numeric-string-bias", "SchemaMismatch"),
        ("overflowing-scores", "ValueOutOfRange"),
        ("unknown-key", "SchemaMismatch"),
        ("v2-feature-scale", "SchemaMismatch"),
        ("feature-names-order", "SchemaMismatch"),
        ("feature_names", "SchemaMismatch"),
    ])
    def test_malformed_model_is_validation_error(self, work, fit_dir, capsys,
                                                 malform, error):
        fit = copy_fit(fit_dir, work / f"fit_bad_model_{malform}")
        payload = json.loads((fit / "trust_model.json").read_text())
        if malform == "not-object":
            payload = [payload]
        elif malform == "weight-strings":
            payload["weights"] = [["w"] * len(row) for row in payload["weights"]]
        elif malform == "class-labels":
            payload["classes"] = [str(c) for c in payload["classes"]]
        elif malform == "classes-descending":  # ties would go to the higher label
            payload["classes"] = payload["classes"][::-1]
        elif malform == "classes-repeated":
            payload["classes"] = [payload["classes"][0]] * len(payload["classes"])
        elif malform == "format-v1":  # a model from before the joint trainer
            payload["format"] = "trust-model/v1"
        elif malform == "format-v2":  # standardized-space weights, mean and scale
            payload["format"] = "trust-model/v2"
        elif malform == "nan-weight":  # written as JSON NaN
            payload["weights"][0][3] = math.nan
        elif malform == "inf-bias":
            payload["biases"][-1] = math.inf
        elif malform == "nan-last-weight":
            payload["weights"][-1][-1] = math.nan
        elif malform == "negative-inf-bias":
            payload["biases"][0] = -math.inf
        elif malform == "overflowing-duration-weight":  # 1e306 x 300 s overflows
            payload["weights"][0][payload["feature_names"].index("duration")] = 1e306
        elif malform == "huge-int-weight":  # an int beyond the float range
            payload["weights"][0][3] = 10 ** 400
        elif malform == "true-weight":  # not the weight 1.0
            payload["weights"][0][3] = True
        elif malform == "numeric-string-bias":  # not the bias 1.5
            payload["biases"][0] = "1.5"
        elif malform == "overflowing-scores":  # finite, but the scores are inf
            payload["weights"] = [[1e308 * (-1) ** j for j in range(len(row))]
                                  for row in payload["weights"]]
        elif malform == "unknown-key":
            payload["weight"] = payload["weights"]
        elif malform == "v2-feature-scale":  # a v2 key in a v3 file
            payload["feature_scale"] = [1.0] * len(payload["feature_names"])
        elif malform == "feature-names-order":
            payload["feature_names"] = payload["feature_names"][::-1]
        elif malform != "not-json":
            del payload[malform]
        (fit / "trust_model.json").write_text(
            "{not json" if malform == "not-json" else json.dumps(payload))
        assert main(["train-rl", "--fit", str(fit), "--seed", "1", "--episodes", "1",
                     "--out", str(work / "x16")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("malform,error", [
        ("not-json", "InvalidConfig"),
        ("not-object", "InvalidConfig"),
        ("missing-trait", "InvalidConfig"),
        ("trait-not-object", "InvalidConfig"),
        ("missing-field", "InvalidConfig"),
        ("gender-probs-text", "InvalidConfig"),
        ("mean-text", "InvalidBounds"),
        ("sd-bool", "InvalidBounds"),
        ("hi-huge-int", "InvalidBounds"),
        ("sd-negative", "InvalidBounds"),
    ])
    def test_malformed_trait_distributions_are_validation_errors(self, work, fit_dir,
                                                                  capsys, malform,
                                                                  error):
        fit = copy_fit(fit_dir, work / f"fit_bad_traits_{malform}")
        payload = json.loads((fit / "trait_dists.json").read_text())
        if malform == "not-object":
            payload = [payload]
        elif malform == "missing-trait":
            del payload["openness"]
        elif malform == "trait-not-object":
            payload["age"] = 3
        elif malform == "missing-field":
            del payload["age"]["sd"]
        elif malform == "gender-probs-text":
            payload["gender_probs"] = [str(p) for p in payload["gender_probs"]]
        elif malform == "mean-text":
            payload["age"]["mean"] = str(payload["age"]["mean"])
        elif malform == "sd-bool":
            payload["neuroticism"]["sd"] = True
        elif malform == "hi-huge-int":  # an int beyond the float range
            payload["age"]["hi"] = 10 ** 400
        elif malform == "sd-negative":
            payload["age"]["sd"] = -1.0
        (fit / "trait_dists.json").write_text(
            "{not json" if malform == "not-json" else json.dumps(payload))
        assert main(["train-rl", "--fit", str(fit), "--seed", "1", "--episodes", "1",
                     "--out", str(work / "x17")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_malformed_corpus_is_validation_error(self, work, capsys):
        bad = work / "bad.csv"
        bad.write_text("user_id,step\nu0,1\n")
        assert main(["fit", "--corpus", str(bad), "--seed", "1",
                     "--out", str(work / "x8")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingColumn"

    @pytest.mark.parametrize("malform,message", [
        ("short-row", "(row 480): the header has 24 columns"),
        ("long-row", "fields=25 out of range (row 3)"),
        ("header-twice", "header='user_id' out of range: column named twice"),
        ("jsonl-not-json", "(row 480): not JSON"),
        ("jsonl-number", "line=5 out of range (row 2): not a JSON object"),
        ("jsonl-list", "(row 2): not a JSON object"),
    ])
    def test_malformed_corpus_rows_are_validation_errors(self, work, corpus_file,
                                                         capsys, malform, message):
        lines = corpus_file.read_text().splitlines()
        suffix = "jsonl" if malform.startswith("jsonl") else "csv"
        if suffix == "jsonl":
            lines = [json.dumps(dict(zip(lines[0].split(","), line.split(","))))
                     for line in lines[1:]]
        if malform in ("short-row", "jsonl-not-json"):
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
        elif malform == "long-row":
            lines[3] += ",extra"
        elif malform == "header-twice":
            lines = [line + "," + line.split(",")[0] for line in lines]
        else:
            lines[1] = "5" if malform == "jsonl-number" else '["u0"]'
        bad = work / f"bad_{malform}.{suffix}"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--corpus", str(bad), "--seed", "1",
                     "--out", str(work / "x11")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueOutOfRange"
        assert message in err["message"]


# Edits of the module's 40-dialog corpus and its generator config: each
# writes an input into the given directory and returns its path.

def _csv_rows(corpus_file) -> list:
    with open(corpus_file, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv_rows(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _crlf_copy(corpus_file, dest):
    # as a spreadsheet saves it: every line ends in "\r\n", so the loader
    # leaves the split path for the csv.reader path
    path = dest / "crlf.csv"
    path.write_bytes(corpus_file.read_bytes().replace(b"\n", b"\r\n"))
    return path


def _complexity_fit(corpus_file, dest):
    # the env looks up its contexts per table mode; the module's fit is task-step
    assert main(["fit", "--corpus", str(corpus_file), "--seed", "1",
                 "--mode", "complexity", "--out", str(dest)]) == 0
    return dest


def _float_age(corpus_file, dest):
    # a user's second row gives the age of the first as a float, 52 -> 52.0
    path = dest / "float-age.jsonl"
    save_corpus(load_corpus(corpus_file), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1]["user_id"] == rows[0]["user_id"] and type(rows[0]["age"]) is int
    rows[1]["age"] = float(rows[0]["age"])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def _openness_disagrees(corpus_file, dest):
    # the second row of the first user gives another openness
    rows = _csv_rows(corpus_file)
    uid, col = rows[0].index("user_id"), rows[0].index("openness")
    assert rows[2][uid] == rows[1][uid]
    rows[2][col] = "1.0" if rows[1][col] != "1.0" else "2.0"
    return _write_csv_rows(rows, dest / "openness.csv")


def _latin1_byte(corpus_file, dest):
    # the user id's "u" in the last line as the Latin-1 byte of "é"
    lines = corpus_file.read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b"u", b"\xe9", 1)
    path = dest / "latin1.csv"
    path.write_bytes(b"".join(lines))
    return path


def _long_cell(corpus_file, dest):
    # a user id one character past the csv module's field limit
    rows = _csv_rows(corpus_file)
    rows[1][rows[0].index("user_id")] = "u" * (csv.field_size_limit() + 1)
    return _write_csv_rows(rows, dest / "long-cell.csv")


def _generator_config(n_dialogs=None, **process):
    def edit(corpus_file, dest):
        params = json.loads((corpus_file.parent / "generator_params.json").read_text())
        params["process"].update(process)
        if n_dialogs is not None:
            params["n_dialogs"] = n_dialogs
        path = dest / "generator_params.json"
        path.write_text(json.dumps(params))
        return path
    return edit


# the novice difficulty pmf overflows to nan; the one dialog's user is an
# expert at seed 0 and a novice at seed 1
_NOVICE_PMF_NAN = _generator_config(n_dialogs=1, difficulty_base=1e308,
                                    difficulty_low_expertise=1e308)
# experts' help sums are inf, and at complexity 5 the complexity term is
# -inf: inf + -inf is nan
_HELP_NAN = _generator_config(help_base=1e308, help_expertise=1e308,
                              help_complexity=-1e308)


def _same_fit_files(out, fit_dir):
    for name in ("table.json", "trust_model.json"):
        assert (out / name).read_bytes() == (fit_dir / name).read_bytes(), name


def _twenty_returns(out, fit_dir):
    # 20 episodes: one return each, plus the CSV header
    assert len((out / "returns.csv").read_text().splitlines()) == 21


class TestEditedInputs:
    """One edited input file through `main`, as a user would hand it over:
    the edit, the argv ({input} names the edited file), the exit code, and
    the error name on stderr, or for a run that exits 0 a check of what it
    wrote."""

    CASES = {
        "crlf-corpus": (_crlf_copy, ["fit", "--corpus", "{input}", "--seed", "1"],
                        0, _same_fit_files),
        "complexity-fit": (_complexity_fit, ["train-rl", "--fit", "{input}", "--seed", "5",
                                             "--episodes", "20"], 0, _twenty_returns),
        "jsonl-float-age": (_float_age, ["fit", "--corpus", "{input}", "--seed", "1"],
                            2, "ValueOutOfRange"),
        "openness-disagrees": (_openness_disagrees,
                               ["fit", "--corpus", "{input}", "--seed", "1"],
                               2, "ValueOutOfRange"),
        "not-utf-8": (_latin1_byte, ["fit", "--corpus", "{input}", "--seed", "1"],
                      2, "ValueOutOfRange"),
        "cell-past-csv-limit": (_long_cell, ["fit", "--corpus", "{input}", "--seed", "1"],
                                2, "ValueOutOfRange"),
        **{f"novice-pmf-nan-seed-{seed}": (
            _NOVICE_PMF_NAN, ["gen-corpus", "--config", "{input}", "--seed", str(seed)],
            2, "InvalidBounds") for seed in (0, 1)},
        **{f"help-nan-seed-{seed}": (
            _HELP_NAN, ["gen-corpus", "--config", "{input}", "--seed", str(seed)],
            2, "InvalidConfig") for seed in (0, 1)},
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_and_error(self, tmp_path, corpus_file, fit_dir, capsys, case):
        edit, argv, code, expected = self.CASES[case]
        path = edit(corpus_file, tmp_path)
        out = tmp_path / "out"
        assert main([arg.format(input=path) for arg in argv] + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert json.loads(err)["error"] == expected
        else:
            assert err == ""
            expected(out, fit_dir)
