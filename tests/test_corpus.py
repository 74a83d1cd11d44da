"""Corpus data model, file round-trips, and splitting."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import (
    make_corpus,
    make_dialog,
    make_exchange,
    make_user,
    reference_load_corpus,
    reference_save_corpus,
)
from trustsim.corpus import (
    Corpus,
    EXCHANGE_COLUMNS,
    Exchange,
    Gender,
    ProactiveAct,
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
    MissingColumn,
    StepOutOfRange,
    ValueOutOfRange,
)


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


class TestExchangeInvariants:
    def test_duration_at_or_below_20_rejected(self):
        with pytest.raises(ValueOutOfRange) as err:
            make_exchange(1, duration=15.0)
        assert err.value.field == "duration"
        with pytest.raises(ValueOutOfRange):
            make_exchange(1, duration=20.0)

    def test_complexity_must_match_step(self):
        with pytest.raises(ValueOutOfRange):
            Exchange(dialog_id="d", step=1, complexity=4,
                     proactive_act=ProactiveAct.NONE, game_score=10.0,
                     help_request=False, suggestion_request=False, duration=30.0,
                     difficulty=3, trust=3, competence=3, reliability=3,
                     predictability=3)

    @pytest.mark.parametrize("field,value", [
        ("difficulty", 0), ("difficulty", 6), ("trust", 0), ("competence", 9),
        ("reliability", -1), ("predictability", 6),
    ])
    def test_likert_bounds(self, field, value):
        with pytest.raises(ValueOutOfRange):
            make_exchange(1, **{field: value})

    def test_negative_score_rejected(self):
        with pytest.raises(ValueOutOfRange):
            make_exchange(1, game_score=-5.0)


class TestUserInvariants:
    @pytest.mark.parametrize("age", [17, 61])
    def test_age_bounds(self, age):
        with pytest.raises(ValueOutOfRange):
            make_user(age=age)

    def test_scale_trait_bounds(self):
        with pytest.raises(ValueOutOfRange):
            make_user(trust_propensity=5.3)
        with pytest.raises(ValueOutOfRange):
            make_user(neuroticism=0.5)


class TestCorpusInvariants:
    def test_exchange_count_identity(self):
        corpus = make_corpus(n_users=2)
        assert corpus.n_dialogs == 2
        assert corpus.exchange_count == 24

    def test_eleven_exchanges_rejected(self):
        user = make_user()
        dialog = make_dialog(user.user_id)[:11]
        with pytest.raises(IncompleteDialog):
            Corpus(users=(user,), dialogs={user.user_id: dialog})

    def test_steps_must_be_ordered(self):
        user = make_user()
        dialog = make_dialog(user.user_id)
        shuffled = dialog[1:] + dialog[:1]
        with pytest.raises(IncompleteDialog):
            Corpus(users=(user,), dialogs={user.user_id: shuffled})

    def test_users_and_dialogs_must_match(self):
        user = make_user()
        with pytest.raises(IncompleteDialog):
            Corpus(users=(user,), dialogs={})


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
        corpus = Corpus(users=(user,), dialogs={text: make_dialog(text)})
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bytes_equal_the_per_row_writer(self, tmp_path, default_corpus, fmt):
        save_corpus(default_corpus, tmp_path / f"a.{fmt}")
        reference_save_corpus(default_corpus, tmp_path / f"b.{fmt}")
        assert (tmp_path / f"a.{fmt}").read_bytes() == (tmp_path / f"b.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_mixed_column_types_equal_the_per_row_writer(self, tmp_path, fmt):
        # ints among the floats of a column are written as ints, cell by cell
        users = (make_user("u\r0", openness=3), make_user("u1", openness=3.25))
        dialogs = {"u\r0": make_dialog("u\r0", duration=42), "u1": make_dialog("u1")}
        corpus = Corpus(users=users, dialogs=dialogs)
        save_corpus(corpus, tmp_path / f"a.{fmt}")
        reference_save_corpus(corpus, tmp_path / f"b.{fmt}")
        assert (tmp_path / f"a.{fmt}").read_bytes() == (tmp_path / f"b.{fmt}").read_bytes()
        assert load_corpus(tmp_path / f"a.{fmt}") == corpus

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_empty_corpus_writes_the_header_only(self, tmp_path, fmt):
        empty = Corpus(users=(), dialogs={})
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
        corpus = make_corpus()
        uid = corpus.users[0].user_id
        exchanges = list(corpus.dialogs[uid])
        exchanges[4] = dataclasses.replace(exchanges[4], dialog_id="other")
        save_corpus(Corpus(users=corpus.users, dialogs={**corpus.dialogs, uid: exchanges}),
                    path)
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
    ])
    def test_rejected_with_row(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        save_corpus(make_corpus(), path)
        rewrite_objects(path, {(4, field): value})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == (field, 4)

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

    def test_csv_integer_text_rules_unchanged(self, tmp_path):
        path = tmp_path / "c.csv"
        save_corpus(make_corpus(), path)
        rewrite_cells(path, {(4, "trust"): "4.0"})
        with pytest.raises(ValueOutOfRange) as err:
            load_corpus(path)
        assert (err.value.field, err.value.row) == ("trust", 4)
        assert "invalid literal for int()" in str(err.value)


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
        assert [u.user_id for u in a[0].users] == [u.user_id for u in b[0].users]

    def test_no_user_straddles_the_split(self, small_corpus):
        train, test = split_corpus(small_corpus, 0.7, seed=2)
        train_ids = {u.user_id for u in train.users}
        test_ids = {u.user_id for u in test.users}
        assert train_ids & test_ids == set()
        assert train_ids | test_ids == {u.user_id for u in small_corpus.users}

    def test_dialogs_travel_with_their_user(self, small_corpus):
        train, _ = split_corpus(small_corpus, 0.8, seed=3)
        for user in train.users:
            assert train.dialogs[user.user_id] == small_corpus.dialogs[user.user_id]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            split_corpus(Corpus(users=(), dialogs={}), 0.5, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, small_corpus, fraction):
        with pytest.raises(InvalidConfig):
            split_corpus(small_corpus, fraction, seed=0)


class TestExchangeValueEquality:
    def test_dataclass_equality_is_semantic(self):
        a = make_exchange(4, duration=33.25)
        b = dataclasses.replace(a)
        assert a == b
        assert a != dataclasses.replace(a, duration=33.5)
