"""Property tests: the streaming loader against the per-row loader it
replaced, the column-wise writer against the per-row writer, and the
join-per-row CSV writer against the csv-module writer.

One cell of a saved corpus is replaced by drawn text; both loaders must then
return equal corpora, or both raise the same typed error with the same
message. A corpus that loads is written by both writers, byte for byte
alike. Kept apart from test_corpus.py so that the example-based tests
there still run where hypothesis is not installed.
"""

from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_load_corpus, reference_save_corpus, reference_write_csv_rows
from trustsim.corpus import CORPUS_COLUMNS, load_corpus, save_corpus, write_csv_rows
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
