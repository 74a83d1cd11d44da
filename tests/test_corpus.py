"""Corpus data model, file round-trips, and splitting."""

from __future__ import annotations

import csv
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    any_outcome,
    cells_line,
    corpus_csv_lines,
    corpus_from_rows,
    csv_reader_load,
    dialogs_of,
    line_cells,
    make_corpus,
    make_dialog,
    make_user,
    reference_load_corpus,
    reference_save_corpus,
)
from trustsim import corpus as corpus_module
from trustsim.corpus import (
    CORPUS_COLUMNS,
    Corpus,
    EXCHANGE_COLUMNS,
    GENDER_ORDER,
    Gender,
    ProactiveAct,
    STORED_COLUMNS,
    USER_COLUMNS,
    complexity_of_step,
    format_cells,
    load_corpus,
    max_option_score,
    option_scores,
    save_corpus,
    split_corpus,
)
from trustsim.errors import (
    EmptyCorpus,
    IncompleteDialog,
    InvalidConfig,
    LengthMismatch,
    MissingColumn,
    StepOutOfRange,
    TrustSimError,
    ValueOutOfRange,
)
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus


class TestComplexityOfStep:
    # the stated pattern lists 3, 4, 5, 3, 4, 5 and the game repeats it
    EXPECTED = [3, 4, 5, 3, 4, 5, 3, 4, 5, 3, 4, 5]

    def test_full_enumeration(self):
        assert [complexity_of_step(s) for s in range(1, 13)] == self.EXPECTED

    def test_first_and_fifth_values(self):
        assert complexity_of_step(1) == 3
        assert complexity_of_step(5) == 4

    def test_cycle_continuation(self):
        assert complexity_of_step(7) == 3

    def test_accepts_numpy_integers(self):
        assert complexity_of_step(np.int64(3)) == 5

    @pytest.mark.parametrize("step", [0, 13, -1, 3.0, "3", True])
    def test_rejects_out_of_range(self, step):
        with pytest.raises(StepOutOfRange):
            complexity_of_step(step)


class TestOptionScores:
    def test_scales(self):
        assert option_scores(3) == (10.0, 20.0, 30.0)
        assert option_scores(5) == (10.0, 20.0, 30.0, 40.0, 50.0)
        assert max_option_score(4) == 40.0

    def test_rejects_bad_complexity(self):
        with pytest.raises(ValueOutOfRange):
            option_scores(6)


USER_VALUES = USER_COLUMNS[1:]  # the user columns held as numpy arrays


def corpus_columns(corpus) -> dict:
    """The keyword arguments that rebuild the corpus."""
    return dict(user_id=corpus.user_id, dialog_id=corpus.dialog_id,
                **{name: getattr(corpus, name).copy()
                   for name in USER_VALUES + STORED_COLUMNS})


class TestCorpusArrayChecks:
    def test_columns_rebuild_an_equal_corpus(self):
        corpus = make_corpus(n_users=3)
        assert Corpus(**corpus_columns(corpus)) == corpus

    @pytest.mark.parametrize("name", STORED_COLUMNS)
    @pytest.mark.parametrize("size", [23, 25])
    def test_column_of_the_wrong_length(self, name, size):
        columns = corpus_columns(make_corpus(n_users=2))
        columns[name] = np.resize(columns[name], size)
        with pytest.raises(LengthMismatch, match=name):
            Corpus(**columns)

    @pytest.mark.parametrize("name", USER_VALUES)
    @pytest.mark.parametrize("size", [1, 3])
    def test_user_column_of_the_wrong_length(self, name, size):
        columns = corpus_columns(make_corpus(n_users=2))
        columns[name] = np.resize(columns[name], size)
        with pytest.raises(LengthMismatch, match=name):
            Corpus(**columns)

    @pytest.mark.parametrize("name,value", [
        ("difficulty", 0), ("difficulty", 6), ("trust", 0), ("competence", 9),
        ("reliability", -1), ("predictability", 6), ("proactive_act", 4),
        ("proactive_act", -1), ("game_score", -5.0), ("game_score", -0.5),
        ("duration", 15.0), ("duration", 20.0), ("game_score", np.nan),
        ("game_score", np.inf), ("duration", np.inf), ("duration", np.nan),
        ("age", 17), ("age", 61), ("gender", 3), ("gender", -1), ("openness", 0.5),
        ("neuroticism", 5.5), ("trust_propensity", np.nan),
    ])
    def test_value_out_of_range(self, name, value):
        columns = corpus_columns(make_corpus(n_users=2))
        columns[name][17 if name in STORED_COLUMNS else 1] = value
        with pytest.raises(ValueOutOfRange) as err:
            Corpus(**columns)
        assert err.value.field == name
        assert err.value.value == value or np.isnan(value)

    def test_duration_just_above_20_accepted(self):
        columns = corpus_columns(make_corpus())
        columns["duration"][0] = np.nextafter(20.0, 21.0)
        assert Corpus(**columns).duration[0] > 20.0

    def test_duplicate_user_ids(self):
        columns = corpus_columns(make_corpus(n_users=2))
        columns["user_id"] = ("u0", "u0")
        with pytest.raises(ValueOutOfRange, match="unique"):
            Corpus(**columns)

    def test_user_id_that_is_no_string(self):
        columns = corpus_columns(make_corpus(n_users=2))
        columns["user_id"] = ("u0", 1)
        with pytest.raises(ValueOutOfRange, match="user_id=1"):
            Corpus(**columns)

    @pytest.mark.parametrize("dialog_id", [6, None, b"d1", 1.5])
    def test_dialog_id_that_is_no_string(self, dialog_id):
        """An id that is no string would not come back from a file as it
        went in: 6 loads as "6", and a JSON null not at all."""
        columns = corpus_columns(make_corpus(n_users=2))
        columns["dialog_id"] = ("d0", dialog_id)
        with pytest.raises(ValueOutOfRange,
                           match=f"^dialog_id={re.escape(repr(dialog_id))} out of range: a string$"):
            Corpus(**columns)

    # each is a value the cast to the column's dtype would change silently
    @pytest.mark.parametrize("name,change", [
        ("difficulty", lambda c: c + 0.7),
        ("help_request", lambda c: np.full(c.shape, 2)),
        ("duration", lambda c: np.full(c.shape, "34.1")),
        ("difficulty", lambda c: c > 2),
        ("proactive_act", lambda c: np.full(c.shape, 0.5)),
        ("age", lambda c: np.full(c.shape, 30.5)),
        ("gender", lambda c: [GENDER_ORDER[g] for g in c.tolist()]),
        ("openness", lambda c: c > 2),
        # numpy reads a bool among the numbers of a list as a number
        ("difficulty", lambda c: [True, *c.tolist()[1:]]),
        ("difficulty", lambda c: [*c.tolist()[:-1], np.True_]),
        ("game_score", lambda c: [True, *c.tolist()[1:]]),
        ("game_score", lambda c: [*c.tolist()[:-1], np.True_]),
        ("openness", lambda c: [True, *c.tolist()[1:]]),
        ("openness", lambda c: [*c.tolist()[:-1], np.True_]),
    ], ids=["float-difficulty", "int-help-request", "text-duration", "bool-difficulty",
            "float-act", "float-age", "gender-enums", "bool-trait",
            "true-in-difficulty", "numpy-true-in-difficulty", "true-in-game-score",
            "numpy-true-in-game-score", "true-in-openness", "numpy-true-in-openness"])
    def test_column_of_the_wrong_kind(self, name, change):
        columns = corpus_columns(make_corpus(n_users=2))
        columns[name] = change(columns[name])
        with pytest.raises(ValueOutOfRange) as err:
            Corpus(**columns)
        assert err.value.field == name

    @pytest.mark.parametrize("name,dtype", [("game_score", np.int64), ("age", np.uint8),
                                            ("difficulty", np.uint8), ("duration", np.int32)])
    def test_ints_of_any_width_are_taken(self, name, dtype):
        corpus = make_corpus(n_users=2)
        columns = corpus_columns(corpus)
        columns[name] = columns[name].astype(dtype)
        assert Corpus(**columns) == corpus

    @pytest.mark.parametrize("dialog_ids", [("d0",), ("d0", "d1", "d2")])
    def test_dialog_id_count_differs_from_user_count(self, dialog_ids):
        columns = corpus_columns(make_corpus(n_users=2))
        columns["dialog_id"] = dialog_ids
        with pytest.raises(LengthMismatch, match="dialog ids"):
            Corpus(**columns)

    def test_columns_are_read_only_copies(self):
        columns = corpus_columns(make_corpus())
        corpus = Corpus(**columns)
        columns["trust"][0] = 5
        assert corpus.trust[0] == 3
        with pytest.raises(ValueError):
            corpus.trust[0] = 5


class TestUserInvariants:
    """The checks of the row-form UserRecord in conftest, which
    reference_load_corpus relies on to raise ValueOutOfRange."""

    @pytest.mark.parametrize("age", [17, 61])
    def test_age_bounds(self, age):
        with pytest.raises(ValueOutOfRange):
            make_user(age=age)

    def test_scale_trait_bounds(self):
        with pytest.raises(ValueOutOfRange):
            make_user(trust_propensity=5.3)
        with pytest.raises(ValueOutOfRange):
            make_user(neuroticism=0.5)

    @pytest.mark.parametrize("gender", ["male", 0, None, ProactiveAct.NONE])
    def test_gender_must_be_a_gender(self, gender):
        with pytest.raises(ValueOutOfRange) as err:
            make_user(gender=gender)
        assert err.value.field == "gender"

    @pytest.mark.parametrize("name", ["openness", "trust_propensity"])
    def test_bool_trait_value_rejected(self, name):
        with pytest.raises(ValueOutOfRange) as err:
            make_user(**{name: True})
        assert err.value.field == name

    @pytest.mark.parametrize("user_id", [7, None, b"u0"])
    def test_user_id_must_be_a_string(self, user_id):
        with pytest.raises(ValueOutOfRange) as err:
            make_user(user_id=user_id)
        assert err.value.field == "user_id"


class TestCorpusInvariants:
    def test_exchange_count_identity(self):
        corpus = make_corpus(n_users=2)
        assert corpus.n_dialogs == 2
        assert corpus.exchange_count == 24

    def test_step_and_complexity_follow_from_the_order(self):
        corpus = make_corpus(n_users=2)
        assert corpus.step.tolist() == list(range(1, 13)) * 2
        assert corpus.complexity.tolist() == [complexity_of_step(s)
                                              for s in range(1, 13)] * 2

    def test_equality_compares_the_columns(self):
        corpus = make_corpus(n_users=2)
        assert corpus == make_corpus(n_users=2)
        assert corpus != make_corpus(n_users=2, duration=33.5)
        assert corpus != make_corpus(n_users=2, acts=ProactiveAct.SUGGESTION)
        assert corpus != make_corpus(n_users=2, user_overrides={"openness": 3.5})
        columns = corpus_columns(corpus)
        columns["dialog_id"] = ("d0", "other")
        assert corpus != Corpus(**columns)

    def test_empty_corpus(self):
        empty = corpus_from_rows((), {})
        assert (empty.n_dialogs, empty.exchange_count, empty.step.size) == (0, 0, 0)

    def test_the_row_form_oracle_checks_whole_dialogs(self):
        user = make_user()
        dialog = make_dialog(user.user_id)
        with pytest.raises(IncompleteDialog):
            corpus_from_rows((user,), {user.user_id: dialog[:11]})
        with pytest.raises(IncompleteDialog):
            corpus_from_rows((user,), {user.user_id: dialog[1:] + dialog[:1]})
        with pytest.raises(IncompleteDialog):
            corpus_from_rows((user,), {})


class TestFileRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_save_load_reproduces_corpus(self, tmp_path, small_corpus, fmt):
        path = tmp_path / f"c.{fmt}"
        save_corpus(small_corpus, path)
        loaded = load_corpus(path)
        assert loaded == small_corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_second_save_is_byte_identical(self, tmp_path, small_corpus, fmt):
        p1, p2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        save_corpus(small_corpus, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("text", ["a\rb", "a\r", "a\r\nb", "a,\"\r"])
    def test_ids_with_carriage_returns_survive_csv(self, tmp_path, text):
        user = make_user(user_id=text)
        corpus = corpus_from_rows((user,), {text: make_dialog(text)})
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bytes_equal_the_per_row_writer(self, tmp_path, default_corpus, fmt):
        save_corpus(default_corpus, tmp_path / f"a.{fmt}")
        reference_save_corpus(default_corpus, tmp_path / f"b.{fmt}")
        assert (tmp_path / f"a.{fmt}").read_bytes() == (tmp_path / f"b.{fmt}").read_bytes()

    @pytest.mark.parametrize("text", [",", '"', "\n", "\r", "", 'a,"b"\r\nc'])
    def test_ids_holding_csv_specials_equal_the_csv_module(self, tmp_path, small_corpus, text):
        """A dialog's user cells are joined once into each of its rows; a
        dialog whose ids hold a "\r" has its rows quoted whole."""
        corpus = replace(small_corpus,
                         user_id=(small_corpus.user_id[0], text, *small_corpus.user_id[2:]),
                         dialog_id=(*small_corpus.dialog_id[:2], text,
                                    *small_corpus.dialog_id[3:]))
        save_corpus(corpus, tmp_path / "a.csv")
        reference_save_corpus(corpus, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert load_corpus(tmp_path / "a.csv") == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_mixed_column_types_equal_the_per_row_writer(self, tmp_path, fmt):
        # ints among the floats of a column are written as ints, cell by cell
        users = (make_user("u\r0", openness=3), make_user("u1", openness=3.25))
        dialogs = {"u\r0": make_dialog("u\r0", duration=42), "u1": make_dialog("u1")}
        corpus = corpus_from_rows(users, dialogs)
        save_corpus(corpus, tmp_path / f"a.{fmt}")
        reference_save_corpus(corpus, tmp_path / f"b.{fmt}")
        assert (tmp_path / f"a.{fmt}").read_bytes() == (tmp_path / f"b.{fmt}").read_bytes()
        assert load_corpus(tmp_path / f"a.{fmt}") == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_empty_corpus_writes_the_header_only(self, tmp_path, fmt):
        empty = corpus_from_rows((), {})
        save_corpus(empty, tmp_path / f"a.{fmt}")
        reference_save_corpus(empty, tmp_path / f"b.{fmt}")
        assert (tmp_path / f"a.{fmt}").read_bytes() == (tmp_path / f"b.{fmt}").read_bytes()

    def test_two_users_gives_24_exchanges(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(n_users=2), path)
        assert load_corpus(path).exchange_count == 24

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("duration")
        rows = [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                for line in lines]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(MissingColumn):
            load_corpus(path)

    def test_bad_duration_names_row_and_field(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("duration")
        cells = lines[3].split(",")
        cells[col] = "15.0"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert err.value.field == "duration"
        assert err.value.row == 3

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_second_dialog_id_for_a_user_names_row(self, tmp_path, fmt):
        path = tmp_path / f"c.{fmt}"
        save_corpus(make_corpus(), path)
        (rewrite_cells if fmt == "csv" else rewrite_objects)(path, {(5, "dialog_id"): "other"})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert err.value.field == "dialog_id"
        assert err.value.row == 5

    def test_columns_cover_both_schemas(self):
        assert set(USER_COLUMNS) & set(EXCHANGE_COLUMNS) == set()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_corpus(tmp_path / "c.parquet")

    def test_unknown_suffix_rejected_on_save(self, tmp_path):
        with pytest.raises(InvalidConfig, match="unsupported file format"):
            save_corpus(make_corpus(), tmp_path / "c.txt")
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("line", [0, -1])
    def test_non_utf8_byte_is_value_error(self, tmp_path, fmt, line):
        # 40 users make the file several decode buffers long, so the last
        # line is decoded only after earlier rows were yielded
        path = tmp_path / f"c.{fmt}"
        save_corpus(make_corpus(n_users=40), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line] = lines[line].replace(b"u", b"\xe9", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.value) == ("file", str(path))
        assert "not UTF-8: byte 0xe9" in str(err.value)


class TestFormatCells:
    def test_an_int_column_shares_one_text_per_value(self):
        cells = format_cells([3, 12, 3, -1, 12])
        assert cells == ["3", "12", "3", "-1", "12"]
        assert cells[1] is cells[4]

    def test_float_zeros_keep_their_sign(self):
        assert format_cells([0.0, -0.0, 0.0]) == ["0.0", "-0.0", "0.0"]

    def test_a_float_array_shares_one_text_per_bit_pattern(self):
        # two distinct values in four cells: the memo keeps -0.0 apart from 0.0
        cells = format_cells(np.array([0.0, -0.0, 0.0, -0.0]))
        assert cells == ["0.0", "-0.0", "0.0", "-0.0"]
        assert cells[0] is cells[2] and cells[1] is cells[3]

    def test_a_float_array_of_mostly_distinct_values_is_formatted_value_by_value(self):
        cells = format_cells(np.array([0.5, -0.0, 0.0]))
        assert cells == ["0.5", "-0.0", "0.0"]


def rewrite_cells(path, edits):
    """Rewrite a saved CSV; edits maps (data row, column) -> new cell text."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for (row, col), text in edits.items():
        cells = lines[row].split(",")
        cells[header.index(col)] = text
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def rewrite_objects(path, edits):
    """Rewrite a saved JSONL; edits maps (data row, column) -> new value."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for (row, col), value in edits.items():
        rows[row - 1][col] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


class TestLoaderOracle:
    """load_corpus against the per-row loader it replaced."""

    @pytest.mark.parametrize("fixture", ["default_corpus", "drifting_corpus",
                                         "small_corpus"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_equals_reference(self, tmp_path, request, fixture, fmt):
        corpus = request.getfixturevalue(fixture)
        path = tmp_path / f"c.{fmt}"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded == reference_load_corpus(path) == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_user_text_that_parses_equal_loads(self, tmp_path, fmt):
        corpus = make_corpus(user_overrides={"openness": 3.0})
        path = tmp_path / f"c.{fmt}"
        save_corpus(corpus, path)
        if fmt == "csv":
            rewrite_cells(path, {(2, "openness"): "3", (3, "gender"): "Female",
                                 (4, "age"): " 30", (14, "technical_affinity"): "3.50"})
        else:
            rewrite_objects(path, {(2, "openness"): 3, (3, "gender"): "Female",
                                   (4, "age"): "30", (14, "technical_affinity"): "3.5"})
        loaded = load_corpus(path)
        assert loaded == reference_load_corpus(path) == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_user_text_that_parses_different_names_row(self, tmp_path, fmt):
        path = tmp_path / f"c.{fmt}"
        save_corpus(make_corpus(user_overrides={"openness": 3.0}), path)
        if fmt == "csv":
            rewrite_cells(path, {(5, "openness"): "3.25"})
        else:
            rewrite_objects(path, {(5, "openness"): 3.25})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == ("user_id", 5)
        assert "user columns differ between rows" in str(err.value)

    def test_signed_zero_scores_keep_their_sign(self, tmp_path):
        # "0.0" and "-0.0" are equal floats but distinct texts, each parsed once
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(n_users=2), path)
        rewrite_cells(path, {(row, "game_score"): "-0.0" if row % 3 else "0.0"
                             for row in range(1, 25)})
        loaded = load_corpus(path)
        assert loaded == reference_load_corpus(path)
        assert np.signbit(loaded.game_score).tolist() == [row % 3 != 0 for row in range(1, 25)]
        save_corpus(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_trait_text_names_its_row(self, tmp_path, text):
        # the fifth row of the second user
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(n_users=2), path)
        rewrite_cells(path, {(17, "openness"): text})
        error, message = load_outcome(load_corpus, path)
        assert (error, message) == load_outcome(reference_load_corpus, path)
        assert error is ValueOutOfRange
        assert message.startswith(f"openness={text!r} out of range (row 17)")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("field,text", [
        ("age", "17"), ("age", "61"), ("age", "99999999999999999999999"),
        ("neuroticism", "0.5"), ("trust_propensity", "5.3"), ("step", "13"),
        ("step", "0"), ("complexity", "4"), ("game_score", "-5.0"), ("duration", "20.0"),
        ("duration", "15.5"), ("difficulty", "0"), ("difficulty", "6"), ("trust", "0"),
        ("competence", "9"), ("reliability", "-1"), ("predictability", "6"),
    ])
    def test_value_out_of_range_names_row(self, tmp_path, fmt, field, text):
        # row 4 is step 4, of complexity 3
        path = tmp_path / f"c.{fmt}"
        save_corpus(make_corpus(), path)
        if fmt == "csv":
            rewrite_cells(path, {(4, field): text})
        else:
            rewrite_objects(path, {(4, field): json.loads(text)})
        error, message = load_outcome(load_corpus, path)
        assert (error, message) == load_outcome(reference_load_corpus, path)
        assert error is ValueOutOfRange
        assert message == f"{field}={json.loads(text)!r} out of range (row 4)"

    def test_first_bad_field_of_a_row_is_named(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        rewrite_cells(path, {(7, "duration"): "slow", (7, "trust"): "x",
                             (7, "age"): "old"})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == ("age", 7)
        # a reused user record does not hide a later row's bad exchange field
        save_corpus(make_corpus(), path)
        rewrite_cells(path, {(7, "duration"): "slow", (7, "trust"): "x"})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == ("duration", 7)

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        lines = path.read_text().splitlines()
        lines.insert(3, "")
        path.write_text("\n".join(lines) + "\n")
        assert load_corpus(path) == make_corpus()
        rewrite_cells(path, {(4, "duration"): "15.0"})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert err.value.row == 3

    def test_columns_may_come_in_any_order(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(["note"] + row[::-1]) + "\n" for row in rows))
        assert load_corpus(path) == make_corpus()


class TestJsonlValueTypes:
    @pytest.mark.parametrize("field,value", [
        ("age", None), ("age", [30]), ("age", 30.0), ("step", 1.9), ("step", True),
        ("trust", 4.6), ("difficulty", "3.0"), ("openness", True),
        ("duration", False), ("game_score", None), ("help_request", None),
        ("openness", 10 ** 400),
        # read through str() these were the act "None" and the ids "None",
        # "{'x': 1}", "1.5" and "True"
        ("proactive_act", None), ("user_id", None), ("dialog_id", {"x": 1}),
        ("user_id", 1.5), ("dialog_id", True),
    ])
    def test_rejected_with_row(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        save_corpus(make_corpus(), path)
        rewrite_objects(path, {(4, field): value})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == (field, 4)

    @pytest.mark.parametrize("field,value", [
        ("user_id", None), ("user_id", 1.5), ("user_id", [1]),
        ("dialog_id", {"x": [1]}), ("dialog_id", True), ("dialog_id", None),
    ])
    def test_an_id_of_another_json_type_rejected_on_a_whole_dialog(self, tmp_path, field,
                                                                    value):
        # on every row of the user its dialog stays whole, so only the type
        # check can reject it
        path = tmp_path / "c.jsonl"
        save_corpus(make_corpus(), path)
        rewrite_objects(path, {(row, field): value for row in range(1, 13)})
        with pytest.raises(ValueOutOfRange, match="not a string or an integer") as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == (field, 1)

    @pytest.mark.parametrize("field,value", [
        ("age", "30"), ("step", " 4"), ("openness", 3), ("duration", "42"),
        ("help_request", "false"), ("help_request", 0), ("gender", "FEMALE"),
        ("user_id", 0),
    ])
    def test_integer_and_number_text_accepted(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        save_corpus(make_corpus(), path)
        edits = {(4, field): value}
        if field == "user_id":  # every row of the user, so the dialog stays whole
            edits = {(row, field): value for row in range(1, 13)}
        rewrite_objects(path, edits)
        assert load_corpus(path) == reference_load_corpus(path)

    def test_blank_lines_are_skipped_and_not_counted_as_rows(self, tmp_path):
        corpus = make_corpus(n_users=2)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        spaced = tmp_path / "spaced.jsonl"

        def write_spaced():
            spaced.write_text("\n" + "\n \n".join(lines) + "\n\t\n", encoding="utf-8")

        write_spaced()
        assert load_corpus(spaced) == corpus
        row = json.loads(lines[5])
        row["difficulty"] = 9
        lines[5] = json.dumps(row)
        write_spaced()
        with pytest.raises(ValueOutOfRange, match=r"^difficulty=9 out of range \(row 6\)$"):
            load_corpus(spaced)

    def test_csv_integer_text_rules_unchanged(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        rewrite_cells(path, {(4, "trust"): "4.0"})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == ("trust", 4)
        assert "invalid literal for int()" in str(err.value)


class TestUnderscoreText:
    """int() and float() read an underscore between digits, "4_2.5" as
    42.5 and "1_2" as 12; the loader refuses such number text alike on
    the split path, the csv.reader path and in JSON lines. Ids may hold
    underscores."""

    CORPORA = {"uniform": make_corpus,  # few distinct texts a column: parsed once each
               "synthetic": lambda: generate_synthetic_corpus(GeneratorConfig(n_dialogs=2), 42)}

    @pytest.mark.parametrize("field, text", [
        ("duration", "4_2.5"), ("duration", "42.5_"), ("game_score", "1_0.0"),
        ("trust", "1_2"), ("step", "0_4"), ("age", "_30"), ("openness", "3_5")])
    @pytest.mark.parametrize("source", CORPORA)
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rejected_with_row(self, tmp_path, fmt, source, field, text):
        path = tmp_path / f"c.{fmt}"
        save_corpus(self.CORPORA[source](), path)
        if fmt == "csv":
            rewrite_cells(path, {(4, field): text})
            assert TestSplitPath.splits(path)
            assert any_outcome(csv_reader_load, path) == any_outcome(load_corpus, path)
        else:
            rewrite_objects(path, {(4, field): text})
        error, message = any_outcome(load_corpus, path)
        assert (error, message) == (ValueOutOfRange, f"{field}={text!r} out of range "
                                                     f"(row 4): an underscore in a number")
        assert any_outcome(reference_load_corpus, path) == (error, message)

    @pytest.mark.parametrize("field, text", [("age", "3_0"), ("openness", "3_5")])
    def test_rejected_over_a_whole_run(self, tmp_path, field, text):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        rewrite_cells(path, {(row, field): text for row in range(13, 25)})
        for load in (load_corpus, csv_reader_load, reference_load_corpus):
            assert any_outcome(load, path) == (
                ValueOutOfRange, f"{field}={text!r} out of range (row 13): "
                                 f"an underscore in a number")

    def test_only_the_cells_with_an_underscore_are_marked(self):
        cells = ["42.5", "4_2.5", "42.5", "50.0", "1_0"]
        values, bad = corpus_module._parse_column("duration", cells, True)
        assert bad.tolist() == [False, True, False, False, True]
        assert values[~bad].tolist() == [42.5, 42.5, 50.0]

    def test_a_file_without_one_checks_no_cell_alone(self, tmp_path, monkeypatch):
        checked = []
        monkeypatch.setattr(corpus_module, "_number_text",
                            lambda raw: checked.append(raw) or raw)
        path = tmp_path / "c.csv"
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=50), seed=11)
        save_corpus(corpus, path)
        assert load_corpus(path) == csv_reader_load(path) == corpus
        assert checked == []

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_ids_may_hold_underscores(self, tmp_path, fmt):
        corpus = replace(make_corpus(), user_id=("u_0", "1_2"), dialog_id=("d_0", "3_4"))
        path = tmp_path / f"c.{fmt}"
        save_corpus(corpus, path)
        assert load_corpus(path) == reference_load_corpus(path) == corpus


def test_a_load_holds_no_column_twice(tmp_path):
    # each column's block parts are dropped as it is joined, and a column
    # parsed to its dtype is not cast into a copy: 1.84 x the size of a
    # 1540-dialog CSV, against 2.70 x where every part outlived the join
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=1540), 42)
    path = tmp_path / "c.csv"
    save_corpus(corpus, path)
    tracemalloc.start()
    try:
        loaded = load_corpus(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == corpus
    assert peak <= 2.2 * path.stat().st_size


def test_a_jsonl_load_holds_each_line_as_its_values(tmp_path):
    # each line is held as its tuple of CORPUS_COLUMNS values, not as its
    # dict: 1.47 x the size of a 1540-dialog JSON-lines file, against 4.78 x
    # where every line's dict was held until the file ended
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=1540), 42)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    tracemalloc.start()
    try:
        loaded = load_corpus(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == corpus
    assert peak <= 2.0 * path.stat().st_size


class TestSplitCorpus:
    def test_counts_with_floor_rule(self, small_corpus):
        train, test = split_corpus(small_corpus, 0.8, seed=1)
        assert (train.n_dialogs, test.n_dialogs) == (32, 8)

    def test_half_split_of_308(self, default_corpus):
        train, test = split_corpus(default_corpus, 0.5, seed=1)
        assert (train.n_dialogs, test.n_dialogs) == (154, 154)

    def test_deterministic_per_seed(self, small_corpus):
        a = split_corpus(small_corpus, 0.8, seed=9)
        b = split_corpus(small_corpus, 0.8, seed=9)
        assert a[0].user_id == b[0].user_id

    def test_no_user_straddles_the_split(self, small_corpus):
        train, test = split_corpus(small_corpus, 0.7, seed=2)
        train_ids, test_ids = set(train.user_id), set(test.user_id)
        assert train_ids & test_ids == set()
        assert train_ids | test_ids == set(small_corpus.user_id)

    def test_dialogs_travel_with_their_user(self, small_corpus):
        train, _ = split_corpus(small_corpus, 0.8, seed=3)
        dialogs = dialogs_of(small_corpus)
        for user, dialog in dialogs_of(train).items():
            assert dialog == dialogs[user]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            split_corpus(corpus_from_rows((), {}), 0.5, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, small_corpus, fraction):
        with pytest.raises(InvalidConfig):
            split_corpus(small_corpus, fraction, seed=0)


@pytest.fixture()
def parsed(monkeypatch):
    """The cell count of each call parsing a column, by column name."""
    counts, parse = {}, corpus_module._parse_column

    def spy(name, cells, *args):
        counts.setdefault(name, []).append(len(cells))
        return parse(name, cells, *args)

    monkeypatch.setattr(corpus_module, "_parse_column", spy)
    return counts


def load_outcome(load, path):
    """The corpus a loader returns, or the type and message of its error."""
    try:
        return load(path)
    except TrustSimError as exc:
        return type(exc), str(exc)


class TestLoaderBlocks:
    """load_corpus against the per-row loader on files longer than two
    blocks, with the rows that matter on either side of a block boundary;
    read errors, which that oracle does not model, against their
    messages."""

    BLOCK = corpus_module._BLOCK_ROWS
    # A block holds whole dialogs, so no dialog of a file as saved crosses a
    # boundary. With the first data row moved to the end (off_grid), each
    # later dialog starts a row early: user 43 holds data rows BLOCK..BLOCK
    # + 11, its first row in the first block and the others in the second.
    STRADDLER = BLOCK // 12

    def off_grid(self, rows):
        """The rows with the first moved to the end, so that the straddler's
        first row is the last of the first block and rows[BLOCK:] begin
        with its later rows."""
        rows = rows[1:] + rows[:1]
        first = self.STRADDLER * 12 - 1
        assert first == self.BLOCK - 1
        dialogs = [row["dialog_id"] for row in rows[first - 1:first + 13]]
        assert dialogs[0] != dialogs[1] == dialogs[12] != dialogs[13]
        return rows

    @pytest.fixture(scope="class")
    def corpus(self):
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=100), seed=3)
        assert corpus.exchange_count > 2 * self.BLOCK
        return corpus

    @staticmethod
    def write(corpus, path, edit, columns=CORPUS_COLUMNS):
        """Save the corpus, then let edit change its list of row dicts:
        CSV cells as text, JSON values as they are. A CSV file is written
        with these columns, a column the corpus lacks holding "x"."""
        save_corpus(corpus, path)
        if path.suffix == ".csv":
            with path.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        else:
            rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows = edit(rows)
        if path.suffix == ".csv":
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows([row.get(c, "x") for c in columns] for row in rows)
        else:
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))

    def assert_matches_reference(self, path):
        outcome = load_outcome(load_corpus, path)
        assert outcome == load_outcome(reference_load_corpus, path)
        return outcome

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_user_cell_changed_after_the_boundary(self, tmp_path, corpus, fmt):
        first = self.STRADDLER * 12  # its first data row, in an off-grid file
        assert first <= self.BLOCK < first + 11

        def edit(rows):
            rows = self.off_grid(rows)
            row = rows[self.BLOCK + 1]  # data row BLOCK + 2, in the second block
            assert row["user_id"] == rows[first - 1]["user_id"]
            row["openness"] = "4.75" if fmt == "csv" else 4.75
            return rows

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        error, message = self.assert_matches_reference(path)
        assert error is ValueOutOfRange
        assert f"(row {self.BLOCK + 2})" in message
        assert "user columns differ between rows" in message

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_user_text_that_parses_equal_across_the_boundary(self, tmp_path, corpus, fmt):
        def edit(rows):
            rows = self.off_grid(rows)
            row = rows[self.BLOCK]  # the straddler's second row, in the second block
            if fmt == "csv":
                row["age"] = f" {row['age']}"
                row["openness"] += "0"  # a trait's repr has a decimal point
            else:
                row["age"] = str(row["age"])
            return rows

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        assert self.assert_matches_reference(path) == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bad_cell_in_the_last_block_beats_an_incomplete_dialog(self, tmp_path,
                                                                   corpus, fmt):
        def edit(rows):
            del rows[3]  # user u0000 is one exchange short
            rows[-5]["duration"] = "slow"
            return rows

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        error, message = self.assert_matches_reference(path)
        assert error is ValueOutOfRange
        assert message.startswith("duration='slow' out of range")
        assert f"(row {corpus.exchange_count - 5})" in message

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_incomplete_dialog_is_found_after_every_row(self, tmp_path, corpus, fmt):
        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, lambda rows: rows[:3] + rows[4:])
        error, message = self.assert_matches_reference(path)
        assert error is IncompleteDialog
        assert "11 exchanges" in message

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_user_rows_shuffled_across_blocks(self, tmp_path, corpus, fmt):
        def edit(rows):
            # keep the straddling user's first row in place, scatter the others
            rows = self.off_grid(rows)
            first = self.STRADDLER * 12 - 1
            moved = rows[first + 1:first + 12]
            rest = rows[:first + 1] + rows[first + 12:]
            for k, row in enumerate(reversed(moved)):
                rest.insert(len(rest) - 60 * k, row)
            return rest

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        assert self.assert_matches_reference(path) == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_shuffled_rows_with_a_repeated_step(self, tmp_path, corpus, fmt):
        def edit(rows):
            rows = self.off_grid(rows)
            first = self.STRADDLER * 12 - 1
            rows[first + 3]["step"], rows[first + 3]["complexity"] = (
                rows[first + 2]["step"], rows[first + 2]["complexity"])
            rows.append(rows.pop(first + 3))
            return rows

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        error, message = self.assert_matches_reference(path)
        assert error is IncompleteDialog
        assert "steps out of order at position 4" in message

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_parse_failure_beats_a_range_failure_in_its_row(self, tmp_path, corpus, fmt):
        def edit(rows):
            rows[self.BLOCK + 20]["age"] = "70" if fmt == "csv" else 70
            rows[self.BLOCK + 20]["duration"] = "slow"
            return rows

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        error, message = self.assert_matches_reference(path)
        assert message.startswith("duration='slow' out of range")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_differing_user_columns_beat_a_second_dialog_id(self, tmp_path, corpus, fmt):
        def edit(rows):
            rows = self.off_grid(rows)  # the straddler's third row, in the second block
            rows[self.BLOCK + 1]["dialog_id"] = "other"
            rows[self.BLOCK + 1]["gender"] = "other"
            rows[self.BLOCK + 1]["openness"] = "4.75" if fmt == "csv" else 4.75
            return rows

        path = tmp_path / f"c.{fmt}"
        self.write(corpus, path, edit)
        error, message = self.assert_matches_reference(path)
        assert "user columns differ between rows" in message

    @pytest.mark.parametrize("short_row, bad_row", [(700, 3), (3, 700), (600, 600)])
    def test_a_short_row_comes_after_the_rows_before_it(self, tmp_path, corpus,
                                                         short_row, bad_row):
        path = tmp_path / "c.csv"
        self.write(corpus, path, lambda rows: rows)
        rewrite_cells(path, {(bad_row, "duration"): "slow"})
        lines = path.read_text().splitlines()
        lines[short_row] = lines[short_row].rpartition(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        if short_row <= bad_row:
            assert str(err.value) == (f"fields=23 out of range (row {short_row}): "
                                      f"the header has 24 columns")
        else:
            assert (err.value.field, err.value.row) == ("duration", bad_row)

    @pytest.mark.parametrize("fields", [23, 25])
    @pytest.mark.parametrize("odd_row, bad_row", [(700, 3), (3, 700), (600, 600)])
    def test_a_row_of_the_wrong_width_equals_the_per_row_loader(self, tmp_path, corpus,
                                                               fields, odd_row, bad_row):
        path = tmp_path / "c.csv"
        self.write(corpus, path, lambda rows: rows)
        rewrite_cells(path, {(bad_row, "duration"): "slow"})
        lines = path.read_text().splitlines()
        lines[odd_row] = (lines[odd_row].rpartition(",")[0] if fields == 23
                          else lines[odd_row] + ",extra")
        path.write_text("\n".join(lines) + "\n")
        error, message = self.assert_matches_reference(path)
        assert error is ValueOutOfRange
        if odd_row <= bad_row:
            assert message == (f"fields={fields} out of range (row {odd_row}): "
                               f"the header has 24 columns")
        else:
            assert message.startswith("duration='slow' out of range")

    def test_a_json_error_anywhere_beats_every_row(self, tmp_path, corpus):
        path = tmp_path / "c.jsonl"
        self.write(corpus, path, lambda rows: rows)
        rewrite_objects(path, {(3, "duration"): "slow"})
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert str(err.value).startswith(
            f"line='{{not json' out of range (row {corpus.exchange_count + 1}): not JSON")

    @staticmethod
    def drop_keys(path, drops):
        """Remove the keys (row, name) from the JSON lines, rows from 1."""
        lines = path.read_text().splitlines()
        for row, name in drops:
            obj = json.loads(lines[row - 1])
            del obj[name]
            lines[row - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")

    def test_the_first_line_lacking_a_column_names_its_row(self, tmp_path, corpus):
        path = tmp_path / "c.jsonl"
        self.write(corpus, path, lambda rows: rows)
        rewrite_objects(path, {(2, "duration"): "slow"})
        self.drop_keys(path, [(self.BLOCK + 3, "trust"), (self.BLOCK + 3, "age"), (700, "step")])
        error, message = self.assert_matches_reference(path)
        assert (error, message) == (MissingColumn, f"column 'age' missing from {path} "
                                                   f"(row {self.BLOCK + 3})")

    def test_a_json_error_beats_a_line_lacking_a_column(self, tmp_path, corpus):
        path = tmp_path / "c.jsonl"
        self.write(corpus, path, lambda rows: rows)
        self.drop_keys(path, [(3, "age")])
        path.write_text(path.read_text() + "[]\n")
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert str(err.value) == (f"line=[] out of range (row {corpus.exchange_count + 1}): "
                                  f"not a JSON object")

    def test_a_byte_that_is_not_utf8_comes_after_the_rows_before_it(self, tmp_path, corpus):
        path = tmp_path / "c.csv"
        self.write(corpus, path, lambda rows: rows)
        rewrite_cells(path, {(2, "duration"): "slow"})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(b"u", b"\xe9", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == ("duration", 2)


class TestLoaderRuns:
    """load_corpus against the per-row loader on CSV files grouped by
    dialog, as saved, whose user columns the loader parses once per dialog
    where each dialog's lines start with the same user cells (see
    corpus._split_blocks), with one dialog's cells edited or the columns
    laid out otherwise; and JSON lines, which it parses cell by cell."""

    DIALOG = 5  # the edited dialog: data rows 61..72
    FIRST = DIALOG * 12  # its first row, counted from 0

    @pytest.fixture(scope="class")
    def corpus(self):
        # 600 rows: a block of 516 rows (43 dialogs) and a block of 84
        return generate_synthetic_corpus(GeneratorConfig(n_dialogs=50), seed=11)

    def outcome(self, corpus, path, edit, columns=CORPUS_COLUMNS):
        TestLoaderBlocks.write(corpus, path, edit, columns)
        outcome = load_outcome(load_corpus, path)
        assert outcome == load_outcome(reference_load_corpus, path)
        return outcome

    def test_a_file_as_saved_is_parsed_by_runs(self, tmp_path, corpus, parsed):
        assert self.outcome(corpus, tmp_path / "c.csv", lambda rows: rows) == corpus
        assert parsed["age"] == parsed["dialog_id"] == [43, 7]
        assert parsed["duration"] == parsed["step"] == [516, 84]

    LEAD = CORPUS_COLUMNS[:12]  # the DIALOG_COLUMNS
    LAYOUTS = {  # a header, and the cell count of each call parsing age
        "lead permuted": (LEAD[5:] + LEAD[:5] + CORPUS_COLUMNS[12:], [43, 7]),
        "a column appended": (CORPUS_COLUMNS + ("note",), [43, 7]),
        "reversed": (CORPUS_COLUMNS[::-1], [516, 84]),
        "a column among the first 12": (LEAD[:4] + ("note",) + CORPUS_COLUMNS[4:], [516, 84]),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_a_header_layout(self, tmp_path, corpus, parsed, layout):
        columns, counts = self.LAYOUTS[layout]
        assert self.outcome(corpus, tmp_path / "c.csv", lambda rows: rows, columns) == corpus
        assert parsed["age"] == parsed["dialog_id"] == counts
        assert parsed["duration"] == [516, 84]

    @pytest.mark.parametrize("first, later", [("4.75", "4.750"), ("4.750", "4.75"),
                                              ("0.0", "-0.0"), ("-0.0", "0.0")])
    def test_a_later_row_spelling_a_trait_otherwise(self, tmp_path, corpus, parsed,
                                                    first, later):
        def edit(rows):
            for row in rows[self.FIRST:self.FIRST + 12]:
                row["openness"] = first
            rows[self.FIRST + 7]["openness"] = later
            return rows

        loaded = self.outcome(corpus, tmp_path / "c.csv", edit)
        if float(first):
            assert loaded.openness[self.DIALOG] == 4.75
        else:  # out of range at the dialog's first row, with that row's sign
            assert loaded == (ValueOutOfRange, f"openness={float(first)!r} out of range "
                                               f"(row {self.FIRST + 1})")
        assert parsed["openness"][0] == parsed["age"][0] == 516

    def test_a_differing_value_names_its_row(self, tmp_path, corpus, parsed):
        def edit(rows):
            rows[self.FIRST + 7]["openness"] = repr(corpus.openness[self.DIALOG].item() / 2)
            return rows

        error, message = self.outcome(corpus, tmp_path / "c.csv", edit)
        assert error is ValueOutOfRange
        assert message == (f"user_id={corpus.user_id[self.DIALOG]!r} out of range "
                           f"(row {self.FIRST + 8}): user columns differ between rows")
        assert parsed["openness"][0] == parsed["age"][0] == 516

    @pytest.mark.parametrize("field, text", [("openness", "nan"), ("openness", "inf"),
                                             ("gender", "robot")])
    def test_a_bad_cell_over_a_whole_run(self, tmp_path, corpus, parsed, field, text):
        def edit(rows):
            for row in rows[self.FIRST:self.FIRST + 12]:
                row[field] = text
            return rows

        error, message = self.outcome(corpus, tmp_path / "c.csv", edit)
        assert error is ValueOutOfRange
        assert message.startswith(f"{field}={text!r} out of range (row {self.FIRST + 1})")
        assert parsed[field][0] == 43

    def test_two_dialogs_interleaved(self, tmp_path, corpus, parsed):
        def edit(rows):
            pair = rows[self.FIRST:self.FIRST + 24]
            rows[self.FIRST:self.FIRST + 24] = pair[0::2] + pair[1::2]
            return rows

        assert self.outcome(corpus, tmp_path / "c.csv", edit) == corpus
        assert parsed["age"] == [516, 7]

    @pytest.mark.parametrize("field, first, later", [
        ("openness", 1, 1.0), ("openness", 1.0, 1), ("openness", 1, True),
        ("age", 30, 30.0), ("age", 30, True), ("gender", "male", "Male")])
    def test_a_jsonl_run_of_values_that_compare_equal(self, tmp_path, corpus, parsed,
                                                      field, first, later):
        def edit(rows):
            for row in rows[self.FIRST:self.FIRST + 12]:
                row[field] = first
            rows[self.FIRST + 7][field] = later
            return rows

        loaded = self.outcome(corpus, tmp_path / "c.jsonl", edit)
        if field == "age" or later is True:
            error, message = loaded
            assert message.startswith(f"{field}={later!r} out of range (row {self.FIRST + 8})")
        else:
            assert getattr(loaded, field)[self.DIALOG] == (0 if field == "gender" else 1.0)
        assert parsed["dialog_id"] == [516, 84]


def _with_cell(lines, row, col, text) -> list:
    cells = line_cells(lines[row])
    cells[col] = text
    lines[row] = cells_line(cells)
    return lines


def _columns(lines, order, last_name=None) -> list:
    """The file with its columns in this order of old indices, the last
    header cell renamed where a name is given."""
    rows = [[line_cells(line)[j] for j in order] for line in lines]
    if last_name:
        rows[0][-1] = last_name
    return [cells_line(cells) for cells in rows]


_BOUNDARY = corpus_module._BLOCK_ROWS  # the first data row of the second block
_UID, _DID = CORPUS_COLUMNS.index("user_id"), CORPUS_COLUMNS.index("dialog_id")
_AGE, _OPENNESS = CORPUS_COLUMNS.index("age"), CORPUS_COLUMNS.index("openness")
_LEAD = len(corpus_module.DIALOG_COLUMNS)


def _with_column(lines, at, name) -> list:
    """The file with a column of this name inserted at this index, its
    cells "x"."""
    rows = [line_cells(line) for line in lines]
    for i, cells in enumerate(rows):
        cells.insert(at, name if i == 0 else b"x")
    return [cells_line(cells) for cells in rows]


def _interleaved(lines, first) -> list:
    """The file with the 12 rows from data row first and the 12 after them
    interleaved."""
    pair = lines[first:first + 24]
    lines[first:first + 24] = [line for rows in zip(pair[:12], pair[12:]) for line in rows]
    return lines


def _user_ids(lines, last_in_lead=False) -> list:
    """The file with user u1 on data rows 1..12, but for u10 on row 7; with
    user_id and dialog_id swapped, user_id ends the leading cells."""
    if last_in_lead:
        lines = _columns(lines, [_DID, *range(1, _DID), _UID, *range(_DID + 1, len(CORPUS_COLUMNS))])
    uid = _DID if last_in_lead else _UID
    for row in range(1, 13):
        lines = _with_cell(lines, row, uid, b"u10" if row == 7 else b"u1")
    return lines


def _other_age(lines, row) -> list:
    age = line_cells(lines[row])[_AGE]
    return _with_cell(lines, row, _AGE, b"19" if age == b"18" else b"18")


# An edit of the saved lines (45 dialogs: a block of 43 and a block of 2),
# and how the split path reads each block: "c" where it splits each dialog's
# user cells once, "e" where it splits every cell. None where the split path
# does not read the file: it must leave every file csv.reader might read
# otherwise to that path, which parses every cell.
SPLIT_EDITS = {
    "as saved": (lambda lines: lines, "cc"),
    "header reordered": (lambda lines: _columns(lines, range(len(CORPUS_COLUMNS))[::-1]), "ee"),
    "extra column": (lambda lines: _columns(lines, [*range(len(CORPUS_COLUMNS)), _UID],
                                            b"note"), "cc"),
    "dialog columns permuted within the lead": (lambda lines: _columns(
        lines, [*range(_LEAD)[::-1], *range(_LEAD, len(CORPUS_COLUMNS))]), "cc"),
    "extra column among the first 12": (lambda lines: _with_column(lines, 5, b"note"), "ee"),
    "a user cell spelled otherwise mid-dialog": (lambda lines: _with_cell(
        lines, 18, _OPENNESS, line_cells(lines[18])[_OPENNESS] + b"0"), "ec"),
    "a user cell changed mid-dialog": (lambda lines: _other_age(lines, 18), "ec"),
    "a user cell changed in the last block": (lambda lines: _other_age(lines, _BOUNDARY + 15),
                                              "ce"),
    "an 11-row dialog": (lambda lines: [*lines[:18], *lines[19:]], "ee"),
    "two dialogs interleaved": (lambda lines: _interleaved(lines, 13), "ec"),
    "user ids u1 and u10": (_user_ids, "ec"),
    "user ids u1 and u10, user_id last in the lead": (lambda lines: _user_ids(lines, True), "ec"),
    "quoted cell": (lambda lines: _with_cell(lines, 3, _UID, b'"' + line_cells(lines[3])[_UID] + b'"'),
                    None),
    "crlf": (lambda lines: [line[:-1] + b"\r\n" for line in lines], None),
    "crlf, a text column last": (lambda lines: [
        line[:-1] + b"\r\n" for line in _columns(lines, [*range(_DID), *range(_DID + 1, len(
            CORPUS_COLUMNS)), _DID])], None),
    "cr inside a row": (lambda lines: _with_cell(lines, 7, 2, b"3\r"), None),
    "blank line": (lambda lines: [*lines[:9], b"\n", *lines[9:]], None),
    "blank line at the block boundary": (
        lambda lines: [*lines[:_BOUNDARY + 1], b"\n", *lines[_BOUNDARY + 1:]], None),
    "nul": (lambda lines: _with_cell(lines, 5, _UID, b"u\0"), None),
    "no final newline": (lambda lines: [*lines[:-1], lines[-1][:-1]], None),
    "a cell missing": (lambda lines: [*lines[:4], cells_line(line_cells(lines[4])[1:]), *lines[5:]],
                       None),
    "a cell moved to the next row": (lambda lines: [
        *lines[:4], cells_line(line_cells(lines[4])[1:]), cells_line(line_cells(lines[5]) + [b"1"]), *lines[6:]],
        None),
    "column named twice": (lambda lines: _columns(lines, [*range(len(CORPUS_COLUMNS)), _UID]),
                           None),
    "column missing": (lambda lines: _columns(lines, range(1, len(CORPUS_COLUMNS))), None),
    **{f"non-UTF-8 byte at data row {row}": (
        lambda lines, row=row: _with_cell(lines, row, _UID, b"u\xe9"), None)
       for row in (_BOUNDARY - 1, _BOUNDARY, _BOUNDARY + 1)},
}


def _block_modes(parsed) -> str:
    """How each block parsed was read: "c" where its age column held a cell
    per dialog, "e" where it held one per row, as duration does."""
    return "".join("c" if age < duration else "e"
                   for age, duration in zip(parsed.pop("age", []), parsed.pop("duration", [])))


class TestSplitPath:
    """The CSV loader splits a block in C only where csv.reader reads it
    cell for cell alike; any other file loads on the csv.reader path, with
    the same corpus or the same error. The split path splits each dialog's
    user cells once only where the header leads with them and each of its
    lines starts with them; elsewhere it splits, and the loader parses,
    every cell."""

    @pytest.fixture(scope="class")
    def lines(self):
        return corpus_csv_lines(45, seed=7)  # two blocks

    @staticmethod
    def splits(path) -> bool:
        try:
            for _ in corpus_module._split_blocks(path):
                pass
        except corpus_module._Unsplittable:
            return False
        return True

    @pytest.mark.parametrize("kind", SPLIT_EDITS)
    def test_split_only_where_csv_reader_reads_alike(self, lines, tmp_path, parsed, kind):
        edit, modes = SPLIT_EDITS[kind]
        path = tmp_path / "c.csv"
        path.write_bytes(b"".join(edit(list(lines))))
        assert self.splits(path) is (modes is not None)
        parsed.clear()
        outcome = any_outcome(load_corpus, path)
        loaded = _block_modes(parsed)
        assert outcome == any_outcome(csv_reader_load, path)
        read = _block_modes(parsed)
        assert read == "e" * len(read)
        if modes is None:  # the split path gave up, and the csv.reader path ended the load
            assert loaded.endswith(read)
        else:
            assert loaded == modes

    def test_edits_that_keep_the_cells_keep_the_corpus(self, lines, tmp_path):
        want = load_corpus(self.write(tmp_path / "saved.csv", lines))
        for kind in ("header reordered", "extra column", "dialog columns permuted within the lead",
                     "extra column among the first 12", "a user cell spelled otherwise mid-dialog",
                     "two dialogs interleaved", "quoted cell", "crlf", "crlf, a text column last"):
            edit, _ = SPLIT_EDITS[kind]
            assert load_corpus(self.write(tmp_path / "c.csv", edit(list(lines)))) == want

    @staticmethod
    def write(path, lines):
        path.write_bytes(b"".join(lines))
        return path

    def test_a_field_beyond_the_csv_limit_is_left_to_csv_reader(self, lines, tmp_path):
        """csv.reader raises on a field longer than csv.field_size_limit(),
        which the loader reports as a ValueOutOfRange of the file; the split
        path would read it."""
        limit = csv.field_size_limit()
        path = self.write(tmp_path / "c.csv",
                          _with_cell(list(lines), 2, _UID, b"u" * (limit + 1)))
        assert not self.splits(path)
        error, message = any_outcome(load_corpus, path)
        assert error is ValueOutOfRange
        assert message == (f"file={str(path)!r} out of range: "
                           f"field larger than field limit ({limit})")
        assert any_outcome(csv_reader_load, path) == (error, message)
