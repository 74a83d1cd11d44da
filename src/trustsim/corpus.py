"""Dialog-corpus data model, file IO, and splitting.

A corpus holds one 12-step dialog per user. Every exchange records the
agent's proactive act, the user's observable behavior for that task step,
and the user's four self-reported trust annotations. Files are flat
(one row per exchange, user columns denormalized); see CORPUS_COLUMNS.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    EmptyCorpus,
    IncompleteDialog,
    InvalidConfig,
    MissingColumn,
    StepOutOfRange,
    ValueOutOfRange,
)
from .sampling import RandomStream

STEPS_PER_DIALOG = 12
COMPLEXITY_LEVELS = (3, 4, 5)
MIN_DURATION_S = 20.0
# drawn durations are floored to this, as a duration must exceed MIN_DURATION_S
DURATION_FLOOR_S = math.nextafter(MIN_DURATION_S, math.inf)
# upper truncation bound of drawn durations, synthetic and simulated
DURATION_HI = 300.0
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


def complexity_of_step(step: int) -> int:
    """Number of options at a task step: the period-3 cycle 3,4,5 over 1..12."""
    # bool passes isinstance(int) but is never a step; numpy integers are steps
    if isinstance(step, bool) or not isinstance(step, (int, np.integer)) \
            or not 1 <= step <= STEPS_PER_DIALOG:
        raise StepOutOfRange(f"step must be in 1..{STEPS_PER_DIALOG}, got {step!r}")
    return 3 + (int(step) - 1) % 3


def option_scores(complexity: int) -> tuple[float, ...]:
    """Attainable option scores at a step of the given complexity."""
    if complexity not in COMPLEXITY_LEVELS:
        raise ValueOutOfRange("complexity", complexity)
    return tuple(OPTION_SCORE_UNIT * i for i in range(1, complexity + 1))


def max_option_score(complexity: int) -> float:
    return OPTION_SCORE_UNIT * complexity


def _check_likert(field_name: str, value) -> None:
    # bool passes isinstance(int) but is never a valid rating
    if isinstance(value, bool) or not isinstance(value, int) \
            or not LIKERT_MIN <= value <= LIKERT_MAX:
        raise ValueOutOfRange(field_name, value, detail="Likert value in 1..5")


@dataclass(frozen=True)
class Exchange:
    """One user-agent turn: the atomic corpus record."""

    dialog_id: str
    step: int
    complexity: int
    proactive_act: ProactiveAct
    game_score: float
    help_request: bool
    suggestion_request: bool
    duration: float
    difficulty: int
    trust: int
    competence: int
    reliability: int
    predictability: int

    def __post_init__(self):
        if not 1 <= self.step <= STEPS_PER_DIALOG:
            raise ValueOutOfRange("step", self.step)
        if self.complexity != complexity_of_step(self.step):
            raise ValueOutOfRange(
                "complexity", self.complexity,
                detail=f"step {self.step} has complexity {complexity_of_step(self.step)}",
            )
        if self.game_score < 0:
            raise ValueOutOfRange("game_score", self.game_score)
        if not self.duration > MIN_DURATION_S:
            raise ValueOutOfRange("duration", self.duration, detail="must exceed 20 s")
        _check_likert("difficulty", self.difficulty)
        _check_likert("trust", self.trust)
        _check_likert("competence", self.competence)
        _check_likert("reliability", self.reliability)
        _check_likert("predictability", self.predictability)


@dataclass(frozen=True)
class UserRecord:
    """Static per-user traits, observed (corpus) or sampled (simulation)."""

    user_id: str
    age: int
    gender: Gender
    technical_affinity: float
    trust_propensity: float
    domain_expertise: float
    openness: float
    conscientiousness: float
    extraversion: float
    agreeableness: float
    neuroticism: float

    def __post_init__(self):
        if not isinstance(self.age, int) or not AGE_MIN <= self.age <= AGE_MAX:
            raise ValueOutOfRange("age", self.age, detail="integer in 18..60")
        for name in SCALE_TRAITS:
            value = getattr(self, name)
            if not LIKERT_MIN <= value <= LIKERT_MAX:
                raise ValueOutOfRange(name, value, detail="scale value in 1..5")


# The 1..5 scale traits of a UserRecord, in schema order.
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


@dataclass(frozen=True)
class Corpus:
    """All users plus one complete 12-step dialog per user."""

    users: tuple[UserRecord, ...]
    dialogs: dict[str, tuple[Exchange, ...]]

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(
            self, "dialogs", {uid: tuple(exs) for uid, exs in self.dialogs.items()}
        )
        ids = [u.user_id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueOutOfRange("user_id", "duplicate", detail="user ids must be unique")
        if set(self.dialogs) != set(ids):
            missing = set(ids).symmetric_difference(self.dialogs)
            raise IncompleteDialog(sorted(missing)[0] if missing else "?",
                                   "users and dialogs must match 1:1")
        for uid, exchanges in self.dialogs.items():
            if len(exchanges) != STEPS_PER_DIALOG:
                raise IncompleteDialog(uid, f"{len(exchanges)} exchanges, need 12")
            for i, ex in enumerate(exchanges, start=1):
                if ex.step != i:
                    raise IncompleteDialog(uid, f"steps out of order at position {i}")

    @property
    def n_dialogs(self) -> int:
        return len(self.users)

    @property
    def exchange_count(self) -> int:
        return sum(len(d) for d in self.dialogs.values())

    def iter_exchanges(self) -> Iterator[tuple[UserRecord, Exchange]]:
        """(user, exchange) pairs in canonical order: user list order, steps ascending."""
        for user in self.users:
            for ex in self.dialogs[user.user_id]:
                yield user, ex


# --- flat file schema -------------------------------------------------------

USER_COLUMNS = ("user_id", "age", "gender") + SCALE_TRAITS
EXCHANGE_COLUMNS = tuple(f.name for f in fields(Exchange))
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


def _parse_gender(raw):
    return Gender(str(raw).strip().lower())


def _parse_act(raw):
    return ProactiveAct(str(raw).strip())


# One parser per flat-file column: raw file value -> typed value.
_PARSERS = {
    "user_id": str,
    "dialog_id": str,
    "gender": _parse_gender,
    "proactive_act": _parse_act,
    **dict.fromkeys(("help_request", "suggestion_request"), _parse_bool),
    **dict.fromkeys(("age", "step", "complexity", "difficulty", "trust",
                     "competence", "reliability", "predictability"), _parse_int),
    **dict.fromkeys(SCALE_TRAITS + ("game_score", "duration"), _parse_float),
}
_PARSE_ERRORS = (ValueError, TypeError, OverflowError)
_USER_PARSERS = tuple(_PARSERS[name] for name in USER_COLUMNS)
_EXCHANGE_PARSERS = tuple(_PARSERS[name] for name in EXCHANGE_COLUMNS)
_N_USER = len(USER_COLUMNS)


def _parse_field(name: str, raw, row: int):
    """Raw file value -> typed value; raises ValueOutOfRange on bad input."""
    try:
        return _PARSERS[name](raw)
    except _PARSE_ERRORS as exc:
        raise ValueOutOfRange(name, raw, row=row, detail=str(exc)) from exc


def _parse_cells(names, parsers, cells, row: int) -> list:
    """Typed values of one row's cells; the first bad cell raises."""
    try:
        return [parse(cell) for parse, cell in zip(parsers, cells)]
    except _PARSE_ERRORS:
        # re-run cell by cell, so the error names the first bad field
        for name, cell in zip(names, cells):
            _parse_field(name, cell, row)
        raise


def _infer_format(path: Path) -> str:
    """The format of a corpus or log file, named by the path's suffix."""
    file_format = path.suffix.lstrip(".").lower()
    if file_format not in ("csv", "jsonl"):
        raise InvalidConfig(f"unsupported file format {file_format!r} for {path}")
    return file_format


def _read_rows(path: Path, file_format: str) -> Iterator[tuple]:
    """Data rows as tuples of raw cells in CORPUS_COLUMNS order.

    CSV rows are streamed; blank lines are skipped and not counted. The
    file is decoded as it is read, so a byte that is not UTF-8 surfaces
    while the rows are iterated.
    """
    try:
        yield from _decoded_rows(path, file_format)
    except UnicodeDecodeError as exc:
        raise ValueOutOfRange("file", str(path), detail=f"not UTF-8: byte "
                              f"{exc.object[exc.start]:#04x} ({exc.reason})") from exc


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


def load_corpus(path) -> Corpus:
    """Load and validate a corpus from a CSV or JSONL file, by its suffix.

    Rows are grouped by user_id; each user must contribute exactly the
    steps 1..12 of one dialog_id. Row numbers in errors are 1-based data
    rows.
    """
    path = Path(path)
    file_format = _infer_format(path)

    users: list[UserRecord] = []
    # user_id -> (raw user cells of the user's first row, its record). Equal
    # text parses to equal values, so a later row with the same text reuses
    # the record. JSON numbers are kept out (1 == 1.0 == True in Python).
    firsts: dict[str, tuple] = {}
    dialogs: dict[str, list[Exchange]] = {}
    for i, raw in enumerate(_read_rows(path, file_format), start=1):
        raw_user = raw[:_N_USER]
        first = firsts.get(str(raw[0]))  # str is the user_id parser
        reuse = first is not None and first[0] == raw_user
        # fields parse in column order, then the records validate, so a
        # row's first bad field is the one reported
        if not reuse:
            user_values = _parse_cells(USER_COLUMNS, _USER_PARSERS, raw_user, i)
        values = _parse_cells(EXCHANGE_COLUMNS, _EXCHANGE_PARSERS, raw[_N_USER:], i)
        try:
            user = first[1] if reuse else UserRecord(*user_values)
            exchange = Exchange(*values)
        except ValueOutOfRange as exc:
            raise ValueOutOfRange(exc.field, exc.value, row=i) from exc
        uid = user.user_id
        if uid not in dialogs:
            text = raw_user if all(type(cell) is str for cell in raw_user) else None
            firsts[uid] = (text, user)
            users.append(user)
            dialogs[uid] = []
        elif not reuse and firsts[uid][1] != user:
            raise ValueOutOfRange("user_id", uid, row=i,
                                  detail="user columns differ between rows")
        elif dialogs[uid][0].dialog_id != exchange.dialog_id:
            raise ValueOutOfRange("dialog_id", exchange.dialog_id, row=i,
                                  detail=f"user {uid!r} already has dialog "
                                         f"{dialogs[uid][0].dialog_id!r}")
        dialogs[uid].append(exchange)

    for dialog in dialogs.values():
        dialog.sort(key=attrgetter("step"))
    return Corpus(users=tuple(users), dialogs=dialogs)


def format_cells(column) -> list:
    """One column's values as file text: booleans as true/false, enums by
    value, floats by repr (the shortest exact round trip), anything else by
    str. A column of one type is formatted in one pass."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    kinds = set(map(type, column))
    if len(kinds) != 1:  # empty, or mixed, such as ints among floats
        return [format_cells((value,))[0] for value in column]
    kind = kinds.pop()
    if kind is bool:
        return ["true" if value else "false" for value in column]
    if issubclass(kind, Enum):
        return [value.value for value in column]
    if kind is int:  # one text per distinct int; a float memo would merge -0.0 into 0.0
        text = {value: str(value) for value in set(column)}
        return [text[value] for value in column]
    return list(map(repr if issubclass(kind, float) else str, column))


def write_csv_rows(handle, rows) -> None:
    """Write text rows as "\n"-terminated CSV that csv.reader reads back cell
    for cell. With that terminator the csv module leaves a bare "\r"
    unquoted, and a reader splits the row there, so a row holding one is
    written with every cell quoted."""
    plain = csv.writer(handle, lineterminator="\n")
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for cells in rows:
        (quoted if "\r" in "".join(cells) else plain).writerow(cells)


def write_jsonl_rows(handle, names, rows) -> None:
    """Write one JSON object per row, its keys the names in their order."""
    for cells in rows:
        handle.write(json.dumps(dict(zip(names, cells))) + "\n")


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus in the flat row schema, column by column, as CSV or
    JSON lines by the path's suffix; load(save(c)) == c. CSV cells are
    text; JSON lines keep numbers and booleans and write enums by value."""
    path = Path(path)
    file_format = _infer_format(path)
    exchanges = [ex for user in corpus.users for ex in corpus.dialogs[user.user_id]]
    columns = []
    for name in CORPUS_COLUMNS:
        per_user = name in USER_COLUMNS
        values = list(map(attrgetter(name), corpus.users if per_user else exchanges))
        if file_format == "csv" or name in ("gender", "proactive_act"):
            values = format_cells(values)
        # a user's cells are made once, then repeated for each exchange
        columns.append([v for v in values for _ in range(STEPS_PER_DIALOG)]
                       if per_user else values)
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
    if not 0 < train_fraction < 1:
        raise InvalidConfig(f"train_fraction must be in (0,1), got {train_fraction}")
    n_train = math.floor(train_fraction * corpus.n_dialogs)
    perm = RandomStream(seed, "split").permutation(corpus.n_dialogs)
    train_ids = {corpus.users[i].user_id for i in perm[:n_train]}

    def subset(keep: set[str]) -> Corpus:
        users = tuple(u for u in corpus.users if u.user_id in keep)
        dialogs = {u.user_id: corpus.dialogs[u.user_id] for u in users}
        return Corpus(users=users, dialogs=dialogs)

    test_ids = {u.user_id for u in corpus.users} - train_ids
    return subset(train_ids), subset(test_ids)
