"""Dialog-corpus data model, file IO, and splitting.

A corpus holds one 12-step dialog per user. Every exchange records the
agent's proactive act, the user's observable behavior for that task step,
and the user's four self-reported trust annotations. A Corpus holds the
users' traits and the exchanges as columns; files are flat (one row per
exchange, user columns denormalized); see CORPUS_COLUMNS.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    EmptyCorpus,
    IncompleteDialog,
    InvalidConfig,
    LengthMismatch,
    MissingColumn,
    StepOutOfRange,
    TrustSimError,
    ValueOutOfRange,
    finite_number,
    integer,
)
from .sampling import RandomStream, gaussian_truncations, permutation

STEPS_PER_DIALOG = 12
COMPLEXITY_LEVELS = (3, 4, 5)
MIN_DURATION_S = 20.0
# drawn durations are floored to this, as a duration must exceed MIN_DURATION_S
DURATION_FLOOR_S = math.nextafter(MIN_DURATION_S, math.inf)
# upper truncation bound of drawn durations, synthetic and simulated
DURATION_HI = 300.0


def duration_truncation(mean, sd, hi) -> np.ndarray:
    """The `gaussian_truncations` records of drawn durations: row i is
    N(mean[i], sd) truncated to [MIN_DURATION_S, hi], its draws clamped to
    [DURATION_FLOOR_S, hi]; sd and hi are one value or one per element."""
    records = gaussian_truncations(mean, sd, MIN_DURATION_S, hi)
    records[:, 4] = DURATION_FLOOR_S
    return records


LIKERT_MIN, LIKERT_MAX = 1, 5
AGE_MIN, AGE_MAX = 18, 60

# Synthetic game score table: a step with k options scores them
# 10, 20, ..., 10k; the agent-preferred option is the maximum.
OPTION_SCORE_UNIT = 10.0


class ProactiveAct(Enum):
    """The four agent act types, ordered by increasing autonomy."""

    NONE = "None"
    NOTIFICATION = "Notification"
    SUGGESTION = "Suggestion"
    INTERVENTION = "Intervention"


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"
    OTHER = "other"


# Canonical act ordering used for one-hot encodings and action indices.
ACT_ORDER = (
    ProactiveAct.NONE,
    ProactiveAct.NOTIFICATION,
    ProactiveAct.SUGGESTION,
    ProactiveAct.INTERVENTION,
)
ACT_INDEX = {act: i for i, act in enumerate(ACT_ORDER)}
GENDER_ORDER = (Gender.MALE, Gender.FEMALE, Gender.OTHER)


def complexity_of_step(step: int) -> int:
    """Number of options at a task step: the period-3 cycle 3,4,5 over 1..12.
    A step that is no `errors.integer` in 1..12 is a StepOutOfRange."""
    return 3 + (integer("step", step, 1, STEPS_PER_DIALOG, StepOutOfRange) - 1) % 3


def option_scores(complexity: int) -> tuple[float, ...]:
    """Attainable option scores at a step of the given complexity."""
    if complexity not in COMPLEXITY_LEVELS:
        raise ValueOutOfRange("complexity", complexity)
    return tuple(OPTION_SCORE_UNIT * i for i in range(1, complexity + 1))


def max_option_score(complexity: int) -> float:
    return OPTION_SCORE_UNIT * complexity


# The 1..5 scale traits of a user, in schema order.
SCALE_TRAITS = (
    "technical_affinity",
    "trust_propensity",
    "domain_expertise",
    "openness",
    "conscientiousness",
    "extraversion",
    "agreeableness",
    "neuroticism",
)

# The fields of an exchange, in file order; a Corpus holds those from
# proactive_act on as numpy columns.
EXCHANGE_COLUMNS = ("dialog_id", "step", "complexity", "proactive_act", "game_score",
                    "help_request", "suggestion_request", "duration", "difficulty",
                    "trust", "competence", "reliability", "predictability")
STORED_COLUMNS = EXCHANGE_COLUMNS[3:]
USER_COLUMNS = ("user_id", "age", "gender") + SCALE_TRAITS
_USER_VALUES = USER_COLUMNS[1:]  # the numpy columns of a Corpus with a value per user
LIKERT_COLUMNS = ("difficulty", "trust", "competence", "reliability", "predictability")
# The closed range of each checked field, in the order a row is checked; a
# float beyond the largest finite one is out. The loader checks complexity
# as its difference from that of the step.
_RANGES = {"age": (AGE_MIN, AGE_MAX), "gender": (0, len(GENDER_ORDER) - 1),
           **dict.fromkeys(SCALE_TRAITS, (LIKERT_MIN, LIKERT_MAX)),
           "step": (1, STEPS_PER_DIALOG), "complexity": (0, 0),
           "proactive_act": (0, len(ACT_ORDER) - 1), "game_score": (0.0, sys.float_info.max),
           **dict.fromkeys(("help_request", "suggestion_request"), (False, True)),
           "duration": (DURATION_FLOOR_S, sys.float_info.max),
           **dict.fromkeys(LIKERT_COLUMNS, (LIKERT_MIN, LIKERT_MAX))}


def _out_of_range(name: str, column: np.ndarray) -> np.ndarray:
    lo, hi = _RANGES[name]
    return ~((lo <= column) & (column <= hi))


@dataclass(frozen=True, eq=False)
class Corpus:
    """All users plus one complete 12-step dialog per user, in columns.

    User u has one user_id, one dialog_id and value u of each user column;
    row i of an exchange column is user i // 12 at step i % 12 + 1. Every
    other field is a read-only numpy column, gender as its index into
    GENDER_ORDER and the act as its index into ACT_ORDER; step and
    complexity follow from the order, so they are derived, not held."""

    user_id: tuple[str, ...]
    dialog_id: tuple[str, ...]
    age: np.ndarray
    gender: np.ndarray
    technical_affinity: np.ndarray
    trust_propensity: np.ndarray
    domain_expertise: np.ndarray
    openness: np.ndarray
    conscientiousness: np.ndarray
    extraversion: np.ndarray
    agreeableness: np.ndarray
    neuroticism: np.ndarray
    proactive_act: np.ndarray
    game_score: np.ndarray
    help_request: np.ndarray
    suggestion_request: np.ndarray
    duration: np.ndarray
    difficulty: np.ndarray
    trust: np.ndarray
    competence: np.ndarray
    reliability: np.ndarray
    predictability: np.ndarray

    def __post_init__(self):
        ids = tuple(self.user_id)
        object.__setattr__(self, "user_id", ids)
        object.__setattr__(self, "dialog_id", tuple(self.dialog_id))
        for uid in ids:
            if not isinstance(uid, str):
                raise ValueOutOfRange("user_id", uid, detail="a string")
        if len(set(ids)) != len(ids):
            raise ValueOutOfRange("user_id", "duplicate", detail="user ids must be unique")
        if len(self.dialog_id) != len(ids):
            raise LengthMismatch(f"{len(self.dialog_id)} dialog ids for {len(ids)} users")
        n = len(ids) * STEPS_PER_DIALOG
        for name in _USER_VALUES + STORED_COLUMNS:
            values = getattr(self, name)
            column = np.array(values)
            size = len(ids) if name in _USER_VALUES else n
            if column.shape != (size,):
                raise LengthMismatch(f"{name} holds {column.size} values; "
                                     f"{len(ids)} dialogs need {size}")
            column = cast_column(name, values, column, _DTYPES[name])
            bad = _out_of_range(name, column)
            if bad.any():
                raise ValueOutOfRange(name, column[bad][0].item())
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n_dialogs(self) -> int:
        return len(self.user_id)

    @property
    def exchange_count(self) -> int:
        return len(self.user_id) * STEPS_PER_DIALOG

    @property
    def step(self) -> np.ndarray:
        return np.tile(np.arange(1, STEPS_PER_DIALOG + 1), len(self.user_id))

    @property
    def complexity(self) -> np.ndarray:
        return 3 + (self.step - 1) % 3  # complexity_of_step

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.user_id == other.user_id and self.dialog_id == other.dialog_id
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _USER_VALUES + STORED_COLUMNS))


# --- flat file schema -------------------------------------------------------

CORPUS_COLUMNS = USER_COLUMNS + EXCHANGE_COLUMNS

def _parse_bool(raw):
    if type(raw) is bool:
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(raw)


def _parse_int(raw):
    # int() alone would truncate a JSON 1.9 to 1 and read true as 1
    kind = type(raw)
    if kind is str or kind is int:
        return int(raw)
    raise ValueError(f"{kind.__name__} is not an integer")


def _parse_float(raw):
    if type(raw) is bool:
        raise ValueError("bool is not a number")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_gender(raw):  # its index in GENDER_ORDER
    return GENDER_ORDER.index(Gender(str(raw).strip().lower()))


def _parse_act(raw):  # its index in ACT_ORDER
    return ACT_INDEX[ProactiveAct(str(raw).strip())]


_INT_COLUMNS = ("age", "step", "complexity") + LIKERT_COLUMNS
# One parser per flat-file column: raw file value -> typed value, an enum
# as its index.
_PARSERS = {
    "user_id": str,
    "dialog_id": str,
    "gender": _parse_gender,
    "proactive_act": _parse_act,
    **dict.fromkeys(("help_request", "suggestion_request"), _parse_bool),
    **dict.fromkeys(_INT_COLUMNS, _parse_int),
    **dict.fromkeys(SCALE_TRAITS + ("game_score", "duration"), _parse_float),
}
_PARSE_ERRORS = (ValueError, TypeError, OverflowError)


# The dtype of each column, loaded and in a Corpus: ids as int64 codes and
# enums as int64 indexes.
_DTYPES = {name: {_parse_float: np.float64, _parse_bool: bool}.get(parse, np.int64)
           for name, parse in _PARSERS.items()}
# The numpy kinds each dtype's columns are taken from: ints for a float.
_KINDS = {np.float64: "iuf", bool: "b", np.int64: "iu"}
_ROW_FIELDS = ("unparsed", *CORPUS_COLUMNS)


def cast_column(name: str, values, column: np.ndarray, dtype) -> np.ndarray:
    """column, which is np.array(values), cast to dtype (float64, bool or
    int64). Raises ValueOutOfRange where the cast would truncate a float or
    read a bool or text as a number: for a column of another numpy kind
    than _KINDS allows, and for a bool among the numbers of a list."""
    if column.size and column.dtype.kind not in _KINDS[dtype]:
        raise ValueOutOfRange(name, column[:1].tolist()[0],
                              detail=f"a column of {column.dtype}")
    if dtype is not bool and not isinstance(values, np.ndarray):
        # numpy reads true and false among numbers as numbers
        for value in values:
            if isinstance(value, (bool, np.bool_)):
                raise ValueOutOfRange(name, value, detail="a number, not a bool")
    return column.astype(dtype)


def _parse_field(name: str, raw, row: int):
    """Raw file value -> typed value; raises ValueOutOfRange on bad input."""
    try:
        return _PARSERS[name](raw)
    except _PARSE_ERRORS as exc:
        raise ValueOutOfRange(name, raw, row=row, detail=str(exc)) from exc


def _parse_column(name: str, cells, text: bool) -> tuple:
    """One column's cells parsed at once, and the mask of those that do not
    parse, held as 0 (None where all parse). A float text is parsed by
    `float` and then an array check of finiteness. Text cells, as all CSV
    cells are, parse alike when equal, so where at most half the texts
    are distinct (as in the trait columns) each distinct text is parsed
    once; "0.0" and "-0.0" are distinct texts. A column of mostly distinct
    texts (as durations are) is parsed cell by cell, which costs less than
    the memo. JSON values are parsed one by one: 1, 1.0 and true are one
    dict key but different input."""
    parse, dtype = _PARSERS[name], _DTYPES[name]
    try:
        if text:
            if dtype is np.float64:
                parse = float
            distinct = set(cells)
            if 2 * len(distinct) <= len(cells):
                parse = dict(zip(distinct, map(parse, distinct))).__getitem__
        if name in ("user_id", "dialog_id"):  # str never fails
            return list(map(parse, cells)), None
        values = np.fromiter(map(parse, cells), dtype, len(cells))
        if dtype is not np.float64 or np.isfinite(values).all():
            return values, None
    except _PARSE_ERRORS:
        pass
    values, bad = np.zeros(len(cells), dtype), np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        try:
            value = _PARSERS[name](cell)
        except _PARSE_ERRORS:
            bad[i] = True
        else:  # an int beyond these is out of every range, and stays out
            values[i] = min(max(value, -2 ** 62), 2 ** 62) if dtype is np.int64 else value
    return values, bad


def _parse_rows(columns: list, text: bool, users: dict, dialogs: dict) -> dict:
    """The rows of a block, given as their raw cells per column of
    CORPUS_COLUMNS, parsed: the user and dialog ids as their numbers in
    users and dialogs, and under "unparsed" the index in CORPUS_COLUMNS of
    each row's first cell that does not parse (all of them for none)."""
    n_rows = len(columns[0])
    values = {"unparsed": np.full(n_rows, len(CORPUS_COLUMNS))}
    for j, (name, cells) in enumerate(zip(CORPUS_COLUMNS, columns)):
        values[name], bad = _parse_column(name, cells, text)
        if bad is not None:
            values["unparsed"][bad & (values["unparsed"] > j)] = j
    for name, index in (("user_id", users), ("dialog_id", dialogs)):
        for key in dict.fromkeys(values[name]):  # new ids numbered in order
            index.setdefault(key, len(index))
        values[name] = np.fromiter(map(index.__getitem__, values[name]), np.int64, n_rows)
    return values


# The checks of a parsed row, in the order each row is checked: a cell that
# does not parse, the ranges, user values that differ from those of the
# user's first row (named user_id), then a second dialog_id for the user.
_ROW_CHECKS = ("unparsed", *_RANGES, "user_id", "dialog_id")


def infer_format(path: Path) -> str:
    """The format of a corpus or log file, named by the path's suffix."""
    file_format = path.suffix.lstrip(".").lower()
    if file_format not in ("csv", "jsonl"):
        raise InvalidConfig(f"unsupported file format {file_format!r} for {path}")
    return file_format


def _read_rows(path: Path, file_format: str) -> Iterator:
    """Data rows as tuples of raw cells in CORPUS_COLUMNS order, then the
    error that ended the reading, if one did: yielded, not raised, so that
    the rows before it are checked first.

    CSV rows are streamed; blank lines are skipped and not counted. The
    file is decoded as it is read, so a byte that is not UTF-8 surfaces
    while the rows are iterated. Such a byte, or a cell longer than
    csv.field_size_limit(), is a ValueOutOfRange of the file.
    """
    try:
        yield from _decoded_rows(path, file_format)
    except UnicodeDecodeError as exc:
        yield ValueOutOfRange("file", str(path), detail=f"not UTF-8: byte "
                              f"{exc.object[exc.start]:#04x} ({exc.reason})")
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        yield ValueOutOfRange("file", str(path), detail=str(exc))
    except TrustSimError as exc:
        yield exc


def _decoded_rows(path: Path, file_format: str) -> Iterator[tuple]:
    if file_format == "csv":
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            for col in CORPUS_COLUMNS:
                if col not in header:
                    raise MissingColumn(f"column {col!r} missing from {path}")
            for col in header:
                if header.count(col) > 1:
                    raise ValueOutOfRange("header", col, detail="column named twice")
            pick = itemgetter(*(header.index(col) for col in CORPUS_COLUMNS))
            width = len(header)
            row = 0
            for cells in reader:
                if not cells:
                    continue
                row += 1
                if len(cells) != width:
                    raise ValueOutOfRange("fields", len(cells), row=row,
                                          detail=f"the header has {width} columns")
                yield pick(cells)
        return
    rows = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueOutOfRange("line", line, row=len(rows) + 1,
                                      detail=f"not JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueOutOfRange("line", obj, row=len(rows) + 1,
                                      detail="not a JSON object")
            rows.append(obj)
    for i, row in enumerate(rows, start=1):
        for col in CORPUS_COLUMNS:
            if col not in row:
                raise MissingColumn(f"column {col!r} missing from {path} (row {i})")
    yield from map(itemgetter(*CORPUS_COLUMNS), rows)


# Rows parsed at a time: the loader holds the raw cells of one block, not
# of the whole file.
_BLOCK_ROWS = 512


def _row_blocks(path: Path, file_format: str) -> Iterator:
    """The cells of each block of _BLOCK_ROWS rows of `_read_rows`, one
    sequence per column of CORPUS_COLUMNS, then the error that ended the
    reading, if one did."""
    rows = _read_rows(path, file_format)
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        failure = None if isinstance(block[-1], tuple) else block.pop()
        if block:
            yield list(zip(*block))
        if failure is not None:
            yield failure


class _Unsplittable(Exception):
    """A CSV file that the split path might read otherwise than csv.reader."""


def _split_blocks(path: Path) -> Iterator[list]:
    """The cells of each block of _BLOCK_ROWS rows of a CSV file, as
    `_row_blocks` gives them, split in C: the block's lines joined, every
    "\n" made a "," and the text split at ",", each column taken by stride.

    csv.reader reads a block cell for cell alike where the block holds no
    quote, "\r" or NUL, ends in "\n", and has as many cells on every line
    as the header (so no line is blank) and no line longer than the csv
    field limit. Raises _Unsplittable at the first block that is not such,
    where the header is not such a line naming every column of
    CORPUS_COLUMNS once, or where the file is not UTF-8."""
    limit = csv.field_size_limit()

    def plain(lines: list, text: str, commas: int) -> bool:
        return (text.endswith("\n") and '"' not in text and "\r" not in text
                and "\0" not in text and max(map(len, lines)) <= limit
                and set(map(str.count, lines, repeat(","))) == {commas})

    try:
        with path.open(newline="", encoding="utf-8") as handle:
            line = handle.readline()
            header = line[:-1].split(",")
            if not (plain([line], line, len(header) - 1) and set(CORPUS_COLUMNS) <= set(header)
                    and len(set(header)) == len(header)):
                raise _Unsplittable
            width, picks = len(header), list(map(header.index, CORPUS_COLUMNS))
            for lines in iter(lambda: list(islice(handle, _BLOCK_ROWS)), []):
                text = "".join(lines)
                if not plain(lines, text, width - 1):
                    raise _Unsplittable
                cells = text.replace("\n", ",").split(",")
                cells.pop()  # the empty text after the last line's ","
                yield [cells[j::width] for j in picks]
    except UnicodeDecodeError as exc:
        raise _Unsplittable from exc


def load_corpus(path) -> Corpus:
    """Load and validate a corpus from a CSV or JSONL file, by its suffix.

    Rows are grouped by user_id; each user must contribute exactly the
    steps 1..12 of one dialog_id. Row numbers in errors are 1-based data
    rows. The file is parsed column by column, a block of rows at a time,
    and checked with array masks, but the error raised is that of the first
    failing row, as if the rows were checked one by one: a cell that does
    not parse, in CORPUS_COLUMNS order, then _ROW_CHECKS. Whole dialogs are
    checked after every row, users in order of first appearance.

    A CSV file is split in C block by block (`_split_blocks`); at a block,
    header or byte that csv.reader might read otherwise, the load starts
    again on the csv.reader path, so errors are the same either way.
    """
    path = Path(path)
    file_format = infer_format(path)

    def parse(blocks) -> tuple:
        users, dialogs, failure = {}, {}, None
        parts = [{name: np.empty(0, _DTYPES.get(name, np.int64)) for name in _ROW_FIELDS}]
        for block in blocks:
            if isinstance(block, Exception):  # the error that ended the reading
                failure = block
            else:
                parts.append(_parse_rows(block, file_format == "csv", users, dialogs))
        return parts, users, dialogs, failure

    parsed = None
    if file_format == "csv":
        try:
            parsed = parse(_split_blocks(path))
        except _Unsplittable:
            pass
    parts, users, dialogs, failure = parsed or parse(_row_blocks(path, file_format))

    # every row before the failure, checked at once
    v = {name: np.concatenate([part[name] for part in parts]) for name in _ROW_FIELDS}
    owner, step, dialog = v["user_id"], v["step"], v["dialog_id"]
    heads = np.unique(owner, return_index=True)[1]  # each user's first row
    first = heads[owner]
    v["complexity"] = v["complexity"] - (3 + (step - 1) % 3)
    failed = np.stack([v["unparsed"] < len(CORPUS_COLUMNS),
                       *(_out_of_range(name, v[name]) for name in _RANGES),
                       np.any([v[name][first] != v[name] for name in _USER_VALUES], axis=0),
                       dialog[first] != dialog])
    uids, dialog_ids = list(users), list(dialogs)
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        name, uid = _ROW_CHECKS[int(failed[:, i].argmax())], uids[owner[i]]
        if name == "user_id":
            raise ValueOutOfRange("user_id", uid, row=i + 1,
                                  detail="user columns differ between rows")
        if name == "dialog_id":
            raise ValueOutOfRange("dialog_id", dialog_ids[dialog[i]], row=i + 1,
                                  detail=f"user {uid!r} already has dialog "
                                         f"{dialog_ids[dialog[first[i]]]!r}")
        if name == "unparsed":
            name = CORPUS_COLUMNS[v["unparsed"][i]]
        raw = next(islice(_read_rows(path, file_format), i, None))
        # raises where the cell does not parse; else the exact value is out of range
        value = _parse_field(name, raw[CORPUS_COLUMNS.index(name)], i + 1)
        raise ValueOutOfRange(name, value, row=i + 1)
    if failure is not None:
        raise failure

    counts = np.bincount(owner, minlength=len(uids))
    order = np.lexsort((step, owner))
    owners = owner[order]
    # each dialog, its rows sorted by step, must hold the steps 1..12
    position = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    misplaced = step[order] != position
    broken = counts != STEPS_PER_DIALOG
    broken[owners[misplaced]] = True
    if broken.any():
        u = int(broken.argmax())
        raise IncompleteDialog(uids[u], f"{counts[u]} exchanges, need 12"
                               if counts[u] != STEPS_PER_DIALOG else
                               f"steps out of order at position "
                               f"{position[misplaced & (owners == u)][0]}")
    return Corpus(user_id=uids, dialog_id=[dialog_ids[d] for d in dialog[heads].tolist()],
                  **{name: v[name][heads] for name in _USER_VALUES},
                  **{name: v[name][order] for name in STORED_COLUMNS})


def format_cells(column) -> list:
    """One column's values, all of one type, as file text: booleans as
    true/false, floats by repr (the shortest exact round trip), anything
    else by str, ints with one text per distinct value."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    if not column:
        return []
    kind = type(column[0])
    if kind is bool:
        return ["true" if value else "false" for value in column]
    if kind is int:  # one text per distinct int; a float memo would merge -0.0 into 0.0
        text = {value: str(value) for value in set(column)}
        return list(map(text.__getitem__, column))
    return list(map(repr if issubclass(kind, float) else str, column))


def _csv_line(cells) -> str:
    """The line the csv module writes for cells, unterminated: a cell
    holding a comma, a quote or a "\n" is quoted with its quotes doubled,
    and a lone empty cell is written as "". A reader splits a row at a bare
    "\r" that is not quoted, so a row holding one has every cell quoted."""
    line = ",".join(cells)
    # no cell holds a comma, a quote or a line break, so the join is the line
    if line.count(",") == len(cells) - 1 and line \
            and '"' not in line and "\r" not in line and "\n" not in line:
        return line
    every = "\r" in line
    line = ",".join('"' + cell.replace('"', '""') + '"'
                    if every or "," in cell or '"' in cell or "\n" in cell else cell
                    for cell in cells)
    return line or ('""' if cells else "")


def write_csv_rows(handle, rows) -> None:
    """Write text rows as "\n"-terminated CSV that csv.reader reads back cell
    for cell, each row as one join (see _csv_line), a block of rows per
    write."""
    rows = iter(rows)
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        handle.write("\n".join(map(_csv_line, block)) + "\n")


def write_jsonl_rows(handle, names, rows) -> None:
    """Write one JSON object per row, its keys the names in their order."""
    for cells in rows:
        handle.write(json.dumps(dict(zip(names, cells))) + "\n")


def corpus_cells(corpus: Corpus, name: str, text: bool) -> list:
    """The cells of one column of the flat row schema, one per exchange:
    text, but for a number or boolean of a JSON line (text False), which
    stays one; enums are written by value."""
    values = getattr(corpus, name)
    values = list(values) if name in ("user_id", "dialog_id") else values.tolist()
    enum = {"gender": GENDER_ORDER, "proactive_act": ACT_ORDER}.get(name)
    if enum:  # each member's text, read once per column
        values = list(map(tuple(member.value for member in enum).__getitem__, values))
    elif text:
        values = format_cells(values)
    if name in EXCHANGE_COLUMNS[1:]:
        return values
    # a user's cells are made once, then repeated for each exchange
    return [v for v in values for _ in range(STEPS_PER_DIALOG)]


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus in the flat row schema, column by column, as CSV or
    JSON lines by the path's suffix; load(save(c)) == c. CSV cells are
    text; JSON lines keep numbers and booleans and write enums by value."""
    path = Path(path)
    file_format = infer_format(path)
    columns = [corpus_cells(corpus, name, file_format == "csv") for name in CORPUS_COLUMNS]
    if file_format == "csv":
        with path.open("w", newline="", encoding="utf-8") as handle:
            write_csv_rows(handle, chain([CORPUS_COLUMNS], zip(*columns)))
    else:
        with path.open("w", encoding="utf-8") as handle:
            write_jsonl_rows(handle, CORPUS_COLUMNS, zip(*columns))


def split_corpus(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic dialog-granularity split: floor(fraction * dialogs) train.

    A user's dialog never straddles the split; both partitions keep the
    original user order.
    """
    if corpus.n_dialogs == 0:
        raise EmptyCorpus("cannot split an empty corpus")
    finite_number("train_fraction", train_fraction)
    if not 0 < train_fraction < 1:
        raise InvalidConfig(f"train_fraction must be in (0,1), got {train_fraction}")
    n_train = math.floor(train_fraction * corpus.n_dialogs)
    perm = permutation(RandomStream(seed, "split").key, corpus.n_dialogs)
    train = np.zeros(corpus.n_dialogs, dtype=bool)
    train[perm[:n_train]] = True

    def subset(keep: np.ndarray) -> Corpus:
        picked = np.flatnonzero(keep).tolist()
        rows = np.repeat(keep, STEPS_PER_DIALOG)
        return Corpus(user_id=[corpus.user_id[i] for i in picked],
                      dialog_id=[corpus.dialog_id[i] for i in picked],
                      **{name: getattr(corpus, name)[keep] for name in _USER_VALUES},
                      **{name: getattr(corpus, name)[rows] for name in STORED_COLUMNS})

    return subset(train), subset(~train)
