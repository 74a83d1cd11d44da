"""Hypothesis fuzz of the fit artifacts that later CLI stages read.

One edit to one file of a fit directory (`table.json`, `trust_model.json`
or `trait_dists.json`) is either harmless (exit 0) or a validation error
(exit 2, a JSON error on stderr); it is never a runtime failure (exit 3).
An --out that is an existing file, or a path below one, is a validation
error of every subcommand too.

Kept apart from test_cli.py so that the example-based tests there still
run where hypothesis is not installed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from conftest import TABLE_CORRUPTIONS, TABLE_MALFORMATIONS
from trustsim import errors
from trustsim.cli import EXIT_OK, EXIT_VALIDATION, FIT_FILES, main

# Values an edit may put anywhere: wrong JSON types, the edges of the int
# and float ranges, and text that names something in one of the files.
HOSTILE = (None, True, False, 0, -1, 1, 2 ** 63, 10 ** 400, 0.5, -1e308, 1e308,
           math.nan, math.inf, -math.inf, "", "x", "task-step", "101", [], {}, [0],
           {"n": 0})


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-corpus", "--seed", "3", "--dialogs", "20",
                     "--out", str(work / "gen")]) == EXIT_OK
        assert main(["fit", "--corpus", str(work / "gen" / "corpus.csv"), "--seed", "1",
                     "--out", str(work / "fit")]) == EXIT_OK
    return work


@st.composite
def edited(draw, payload):
    """A copy of a JSON payload with one value replaced, tweaked or
    deleted, or one entry added to an object or list."""
    payload = copy.deepcopy(payload)
    parent, key, node = None, None, payload
    # descend four times in five, so edits reach the leaves of deep files
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        parent, node = node, node[key]
    replacements = list(HOSTILE)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        replacements += [-node, node + 1, node * 1e300, str(node)]
    kinds = ["replace"]
    if parent is not None:
        kinds.append("delete")
    if isinstance(node, (dict, list)):
        kinds.append("grow")
    kind = draw(st.sampled_from(kinds))
    event(kind)
    value = draw(st.sampled_from(replacements))
    if kind == "replace":
        if parent is None:
            return value
        parent[key] = value
    elif kind == "delete":
        del parent[key]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(["bogus", *sorted(node)]))] = value
    else:
        node.append(copy.deepcopy(draw(st.sampled_from(node))) if node else value)
    return payload


def subcommand_argv(work, command) -> list:
    """Arguments of a run of `command` on the fixture's corpus and fit."""
    corpus = ["--corpus", str(work / "gen" / "corpus.csv")]
    table = ["--table", str(work / "fit" / "table.json")]
    return {"gen-corpus": ["gen-corpus", "--dialogs", "3"],
            "fit": ["fit", *corpus],
            "simulate": ["simulate", *corpus, *table],
            "evaluate": ["evaluate", *corpus, *table],
            "compare": ["compare", *corpus],
            "train-rl": ["train-rl", "--fit", str(work / "fit"), "--episodes", "1"],
            }[command]


class TestOutBelowAFile:
    @pytest.mark.parametrize("below", ["", "x", "x/y"])
    @pytest.mark.parametrize("command", ["gen-corpus", "fit", "simulate", "evaluate",
                                         "compare", "train-rl"])
    def test_is_a_validation_error(self, fit_dir, command, below):
        corpus = fit_dir / "gen" / "corpus.csv"
        before = corpus.read_bytes()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(subcommand_argv(fit_dir, command)
                        + ["--seed", "1", "--out", str(corpus / below)])
        assert code == EXIT_VALIDATION, err.getvalue()
        assert json.loads(err.getvalue()) == {
            "error": "InvalidConfig",
            "message": f"--out {corpus / below}: {corpus} is not a directory"}
        assert corpus.read_bytes() == before


class TestFitArtifactFuzz:
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_edit_is_exit_0_or_a_validation_error(self, fit_dir, data):
        name = data.draw(st.sampled_from(FIT_FILES))
        payloads = {n: json.loads((fit_dir / "fit" / n).read_text()) for n in FIT_FILES}
        payloads[name] = data.draw(edited(payloads[name]))
        fuzz = fit_dir / "edited"
        fuzz.mkdir(exist_ok=True)
        for n, payload in payloads.items():
            (fuzz / n).write_text(json.dumps(payload))
        stage = data.draw(st.sampled_from(
            ["simulate", "train-rl"] if name == "table.json" else ["train-rl"]))
        if stage == "simulate":
            argv = ["simulate", "--corpus", str(fit_dir / "gen" / "corpus.csv"),
                    "--table", str(fuzz / "table.json")]
        else:
            argv = ["train-rl", "--fit", str(fuzz), "--episodes", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--seed", "1", "--out", str(fit_dir / "out")])
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
        if code == EXIT_VALIDATION:
            event(json.loads(err.getvalue())["error"])

    @pytest.mark.parametrize("stage", ["simulate", "train-rl"])
    @pytest.mark.parametrize("edit", [*TABLE_MALFORMATIONS, *TABLE_CORRUPTIONS])
    def test_named_table_edit_is_a_typed_validation_error(self, fit_dir, stage, edit):
        """The load boundary's named cases: a column of the wrong length, a
        bool or float count, a negative count, a NaN or inf mean, a negative
        sd, a difficulty row off its count, an unknown or missing key, the
        v2 tag, and the rest of TABLE_MALFORMATIONS and TABLE_CORRUPTIONS."""
        fuzz = fit_dir / f"named-{edit}"
        fuzz.mkdir(exist_ok=True)
        for n in FIT_FILES:
            payload = json.loads((fit_dir / "fit" / n).read_text())
            if n == "table.json" and edit in TABLE_CORRUPTIONS:
                TABLE_CORRUPTIONS[edit][0](payload)
            elif n == "table.json":
                payload = TABLE_MALFORMATIONS[edit](payload)
            (fuzz / n).write_text(json.dumps(payload))
        if stage == "simulate":
            argv = ["simulate", "--corpus", str(fit_dir / "gen" / "corpus.csv"),
                    "--table", str(fuzz / "table.json")]
        else:
            argv = ["train-rl", "--fit", str(fuzz), "--episodes", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--seed", "1", "--out", str(fit_dir / "out")])
        assert code == EXIT_VALIDATION, err.getvalue()
        error = json.loads(err.getvalue())["error"]
        assert issubclass(getattr(errors, error), errors.TrustSimError)
        assert error == (TABLE_CORRUPTIONS[edit][1] if edit in TABLE_CORRUPTIONS
                         else "InvalidConfig")
