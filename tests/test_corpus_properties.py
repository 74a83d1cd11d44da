"""Property tests: the streaming loader against the per-row loader it
replaced, its split path against its csv.reader path, the column-wise
writer against the per-row writer, and the join-per-row and per-dialog CSV
writers against the csv-module writer.

One cell of a saved corpus is replaced by drawn text, through the csv
module or in the line as it stands; both loaders must then return equal
corpora, or both raise the same typed error with the same message. A
corpus that loads is written by both writers, byte for byte alike. Kept
apart from test_corpus.py so that the example-based tests there still run
where hypothesis is not installed.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    any_outcome,
    cells_line,
    corpus_csv_lines,
    csv_reader_load,
    line_cells,
    reference_load_corpus,
    reference_save_corpus,
    reference_write_csv_rows,
)
from trustsim import corpus as corpus_module
from trustsim.corpus import (
    CORPUS_COLUMNS,
    format_cells,
    load_corpus,
    save_corpus,
    write_csv_rows,
    write_dialog_rows,
)
from trustsim.errors import TrustSimError
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus

N_ROWS = 36  # three dialogs

# Spellings at the edges of the field parsers: padding, integer text in a
# float field and float text in an int field, non-finite floats, bool and
# enum spellings, and values of other fields.
EDGE_TEXT = [
    "", " ", " 3", "3 ", "3.0", "3", "03", "-1", "0", "1", "5", "6", "18", "61",
    "20", "20.0", "1e3", "1_0", "nan", "NaN", "inf", "-inf", "True", "true",
    "FALSE", "yes", "male", "Male", " FEMALE ", "other", "unknown",
    "None", "Notification", "suggestion", " Intervention ", "Nudge", "d-0",
]


def outcome(load, path):
    try:
        return load(path)
    except TrustSimError as exc:
        return type(exc), str(exc)


def assert_load_and_save_match_references(path):
    loaded = outcome(load_corpus, path)
    assert loaded == outcome(reference_load_corpus, path)
    if isinstance(loaded, tuple):  # an error
        return
    for fmt in ("csv", "jsonl"):
        save_corpus(loaded, path.with_name(f"new.{fmt}"))
        reference_save_corpus(loaded, path.with_name(f"old.{fmt}"))
        assert (path.with_name(f"new.{fmt}").read_bytes()
                == path.with_name(f"old.{fmt}").read_bytes())


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=N_ROWS // 12), seed=5)
    root = tmp_path_factory.mktemp("props")
    for fmt in ("csv", "jsonl"):
        save_corpus(corpus, root / f"saved.{fmt}")
    return root


def cell_text(rows):
    """Drawn replacement text: an edge spelling, free text a UTF-8 file can
    hold, or another cell."""
    return st.one_of(
        st.sampled_from(EDGE_TEXT),
        st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6),
        st.tuples(st.integers(1, N_ROWS), st.integers(0, len(CORPUS_COLUMNS) - 1))
        .map(lambda rc: rows[rc[0]][rc[1]]),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_cell_replaced_by_text(saved, data):
    rows = list(csv.reader(io.StringIO((saved / "saved.csv").read_text())))
    row = data.draw(st.integers(0, N_ROWS), label="row")  # 0 is the header
    col = data.draw(st.integers(0, len(CORPUS_COLUMNS) - 1), label="col")
    rows[row][col] = data.draw(cell_text(rows), label="text")
    path = saved / "mutated.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        reference_write_csv_rows(handle, rows)
    assert_load_and_save_match_references(path)


# Texts for a cell rewritten in the line as it stands: no quote, "\r" or
# line break, so that the split path can read the file, but commas that
# change a line's width
PLAIN_TEXT = st.text(st.sampled_from("u01.5-e, "), max_size=5)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_csv_cell_rewritten_in_place(saved, data):
    """A saved corpus, its leading user cells in a drawn order, with one
    cell of one line rewritten as it stands: where that line still starts
    with its dialog's first line's user cells, the loader splits them once
    per dialog; else it splits every cell. Either way it loads what the
    per-row loader loads."""
    lines = (saved / "saved.csv").read_bytes().splitlines(keepends=True)
    lead = len(corpus_module.DIALOG_COLUMNS)
    order = [*data.draw(st.permutations(range(lead)), label="lead"),
             *range(lead, len(CORPUS_COLUMNS))]
    rows = [[line_cells(line)[j] for j in order] for line in lines]
    row = data.draw(st.integers(1, N_ROWS), label="row")
    col = data.draw(st.integers(0, len(CORPUS_COLUMNS) - 1), label="col")
    rows[row][col] = data.draw(st.one_of(
        st.sampled_from(EDGE_TEXT).map(str.encode),
        PLAIN_TEXT.map(str.encode),
        st.integers(1, N_ROWS).map(lambda other: rows[other][col]),
    ), label="text")
    path = saved / "rewritten.csv"
    path.write_bytes(b"".join(map(cells_line, rows)))
    assert outcome(load_corpus, path) == outcome(reference_load_corpus, path)


# Cell text at the edges of the quoting rule: delimiters, quotes, both line
# breaks alone and as a pair, padding, non-ASCII and empty cells.
CSV_CELLS = st.one_of(
    st.sampled_from(["", " ", ",", '"', "\r", "\n", "\r\n", '""', "a,b", 'say "hi"',
                     "ü", "\u2028", " x "]),
    st.text(st.sampled_from(',"\r\n ab\xe9\u4e2d'), max_size=5),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(CSV_CELLS, max_size=4), max_size=6))
def test_csv_writer_equals_the_csv_module_and_reads_back(rows):
    written, expected = io.StringIO(), io.StringIO()
    write_csv_rows(written, rows)
    reference_write_csv_rows(expected, rows)
    assert written.getvalue() == expected.getvalue()
    # a row of no cells is a blank line, which csv.reader reads as no cells
    assert list(csv.reader(io.StringIO(written.getvalue(), newline=""))) == rows


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dialog_writer_equals_the_csv_module(data):
    """write_dialog_rows, each dialog's cells joined once into its rows'
    prefix, against the csv-module writer on every row's cells; its own
    cells are drawn from the quoting edges, or plain but for at most one
    character that _csv_line quotes for."""
    n_dialogs = data.draw(st.integers(0, 4), label="dialogs")
    special = data.draw(st.sampled_from(["", ",", '"', "\n", "\r", None]), label="special")
    own = CSV_CELLS if special is None else st.text(st.sampled_from("ab1." + special),
                                                    max_size=3)
    dialog_columns = data.draw(st.lists(st.lists(CSV_CELLS, min_size=n_dialogs,
                                                 max_size=n_dialogs), min_size=2, max_size=3))
    row_columns = data.draw(st.lists(st.lists(own, min_size=12 * n_dialogs,
                                              max_size=12 * n_dialogs), min_size=2, max_size=3))
    names = [f"c{j}" for j in range(len(dialog_columns) + len(row_columns))]
    written, expected = io.StringIO(), io.StringIO()
    write_dialog_rows(written, names, dialog_columns, row_columns)
    dialog_rows = [cells for cells in zip(*dialog_columns) for _ in range(12)]
    reference_write_csv_rows(expected, [names, *map(tuple.__add__, dialog_rows,
                                                    zip(*row_columns))])
    assert written.getvalue() == expected.getvalue()


# floats whose texts a bit-pattern memo must keep apart or share
FLOAT_EDGES = [0.0, -0.0, 1.5, 10.0, 5e-324, -5e-324, 1e308, 0.1 + 0.2, 0.30000000000000004]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()), max_size=40))
def test_float_cells_are_each_values_repr(values):
    """format_cells on a float64 array, with its memo of one text per bit
    pattern where at most half the values are distinct, gives each value's
    repr."""
    assert format_cells(np.array(values, dtype=np.float64)) == list(map(repr, values))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 70), st.floats(allow_nan=False),
    st.sampled_from(EDGE_TEXT), st.lists(st.integers(1, 5), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_jsonl_value_replaced(saved, data):
    objects = [json.loads(line) for line in
               (saved / "saved.jsonl").read_text().splitlines()]
    row = data.draw(st.integers(0, N_ROWS - 1), label="row")
    col = data.draw(st.sampled_from(CORPUS_COLUMNS), label="col")
    objects[row][col] = data.draw(JSON_VALUES, label="value")
    path = saved / "mutated.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objects))
    assert_load_and_save_match_references(path)


# -- the split path against the csv.reader path --------------------------------

SPLIT_DIALOGS = 45  # 540 rows: a block of 516 rows and a block of 24
BOUNDARY = corpus_module._BLOCK_ROWS  # the first data row of the second block, counted from 0


@pytest.fixture(scope="module")
def split_lines():
    return corpus_csv_lines(SPLIT_DIALOGS, seed=7)


def _edit(data, lines: list, kind: str) -> None:
    """Apply one drawn edit of this kind to the file's lines, in place."""
    n = len(lines)
    row = data.draw(st.one_of(st.integers(1, n - 1),
                              st.sampled_from([BOUNDARY, BOUNDARY + 1, BOUNDARY + 2])),
                    label="row")
    if kind == "quote":  # csv.reader reads a quoted cell as its text
        cells = line_cells(lines[row])
        col = data.draw(st.integers(0, len(cells) - 1), label="col")
        cells[col] = b'"' + cells[col] + b'"'
        lines[row] = cells_line(cells)
    elif kind in ("cr", "nul", "non-utf8"):
        byte = {"cr": b"\r", "nul": b"\0", "non-utf8": b"\xe9"}[kind]
        at = data.draw(st.integers(0, len(lines[row]) - 1), label="at")
        lines[row] = lines[row][:at] + byte + lines[row][at:]
    elif kind == "crlf":
        lines[:] = [line[:-1] + b"\r\n" for line in lines]
    elif kind == "blank":
        lines.insert(row, b"\n")
    elif kind == "no final newline":
        lines[-1] = lines[-1].rstrip(b"\n")
    elif kind in ("cell missing", "cell extra", "cells moved"):
        cells = line_cells(lines[row])
        if kind != "cell extra":
            del cells[data.draw(st.integers(0, len(cells) - 1), label="col")]
        lines[row] = cells_line(cells)
        if kind != "cell missing" and row + 1 < n:
            # with "cells moved" the two rows hold width x rows cells in all
            extra = line_cells(lines[row + 1])
            lines[row + 1] = cells_line(extra + [extra[-1]])
    elif kind in ("header reordered", "extra column"):
        order = list(range(len(line_cells(lines[0]))))
        name = data.draw(st.sampled_from([b"extra", b"user_id", b"duration"]), label="name")
        if kind == "header reordered":
            order = data.draw(st.permutations(order), label="order")
        else:
            order.insert(data.draw(st.integers(0, len(order)), label="at"), 0)
        for i, line in enumerate(lines):
            cells = line_cells(line)
            if len(cells) == len(order):
                picked = [cells[j] for j in order]
                if kind == "extra column":  # a new name, or a name given twice
                    picked[order.index(0)] = name if i == 0 else b"x"
                lines[i] = cells_line(picked)
    elif kind == "column renamed":
        cells = line_cells(lines[0])
        cells[data.draw(st.integers(0, len(cells) - 1), label="col")] = b"renamed"
        lines[0] = cells_line(cells)
    elif kind == "cell text":
        cells = line_cells(lines[row])
        col = data.draw(st.integers(0, len(cells) - 1), label="col")
        cells[col] = data.draw(st.sampled_from(EDGE_TEXT), label="text").encode()
        lines[row] = cells_line(cells)


EDITS = ("quote", "cr", "crlf", "blank", "nul", "no final newline", "cell missing",
         "cell extra", "cells moved", "header reordered", "extra column",
         "column renamed", "non-utf8", "cell text")


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_split_path_equals_the_csv_reader_path(split_lines, tmp_path_factory, data):
    """Whatever the edits, the split path (and its fall back) loads the
    corpus the csv.reader path loads, or raises the identical error."""
    lines = list(split_lines)
    for kind in data.draw(st.lists(st.sampled_from(EDITS), min_size=0, max_size=3),
                          label="edits"):
        _edit(data, lines, kind)
    path = tmp_path_factory.mktemp("split") / "edited.csv"
    path.write_bytes(b"".join(lines))
    assert any_outcome(load_corpus, path) == any_outcome(csv_reader_load, path)
