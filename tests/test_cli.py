"""End-to-end command surface: artifacts, manifests, and exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from trustsim.behavior_tables import TableMode, build_table, load_table
from trustsim.cli import main
from trustsim.corpus import load_corpus
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


    def test_every_stage_records_model_format(self, work, corpus_file, fit_dir):
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
            assert config["model_format"] == MODEL_FORMAT == "trust-model/v2"


class TestFit:
    def test_artifact_set(self, fit_dir):
        for name in ("table.json", "trait_dists.json", "trust_model.json",
                     "table_summary.json", "manifest.json"):
            assert (fit_dir / name).exists()

    def test_table_round_trips(self, fit_dir):
        table = load_table(fit_dir / "table.json")
        assert table.mode is TableMode.TASK_STEP_BASED
        assert table.fallback_threshold == 10
        assert len(table.cells) > 0

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
        assert (out / "policy.json").read_text() == (
            json.dumps(policy, indent=2, sort_keys=True) + "\n")
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

    @pytest.mark.parametrize("malform", ["keys", "mode", "act", "not-object", "cells",
                                         "count", "mean", "condition", "threshold",
                                         "mode-condition"])
    def test_malformed_table_is_validation_error(self, work, corpus_file, fit_dir,
                                                 capsys, malform):
        payload = json.loads((fit_dir / "table.json").read_text())
        cell = payload["cells"][0]
        if malform == "keys":
            payload = {"format": payload["format"]}
        elif malform == "mode":
            payload["mode"] = "per-minute"
        elif malform == "act":
            cell["act"] = "Nudge"
        elif malform == "not-object":
            payload = [payload]
        elif malform == "cells":
            payload["cells"] = 5
        elif malform == "count":
            cell["request_counts"][0] = str(cell["request_counts"][0])
        elif malform == "mean":
            cell["combos"][0]["score_mean"] = "high"
        elif malform == "condition":
            cell["condition"] = str(cell["condition"])
        elif malform == "mode-condition":
            cell["condition"] = 13  # the task-step table has steps 1..12
        else:
            payload["fallback_threshold"] = 0.5
        bad = work / f"bad_table_{malform}.json"
        bad.write_text(json.dumps(payload))
        assert main(["simulate", "--corpus", str(corpus_file), "--seed", "1",
                     "--table", str(bad), "--out", str(work / "x9")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    @pytest.mark.parametrize("malform,error", [
        ("not-object", "InvalidConfig"),
        ("schema_version", "SchemaMismatch"),
        ("classes", "SchemaMismatch"),
        ("weights", "SchemaMismatch"),
        ("feature_scale", "SchemaMismatch"),
        ("weight-strings", "SchemaMismatch"),
        ("class-labels", "SchemaMismatch"),
        ("not-json", "InvalidConfig"),
        ("format-v1", "InvalidConfig"),
        ("nan-weight", "ValueOutOfRange"),
        ("inf-bias", "ValueOutOfRange"),
        ("nan-mean", "ValueOutOfRange"),
        ("zero-scale", "ValueOutOfRange"),
        ("negative-scale", "ValueOutOfRange"),
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
        elif malform == "format-v1":  # a model from before the joint trainer
            payload["format"] = "trust-model/v1"
        elif malform == "nan-weight":  # written as JSON NaN
            payload["weights"][0][3] = math.nan
        elif malform == "inf-bias":
            payload["biases"][-1] = math.inf
        elif malform == "nan-mean":
            payload["feature_mean"][0] = math.nan
        elif malform == "zero-scale":
            payload["feature_scale"][5] = 0.0
        elif malform == "negative-scale":
            payload["feature_scale"][5] = -1.0
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
