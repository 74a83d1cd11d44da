"""Conditional behavior tables with sparse-context fallback.

A table holds, for every context key (trait code, proactive act,
condition) and request combination, the count, the score and duration
means and population sds, and the difficulty counts of the exchanges
there, as arrays indexed [key_code, combination]. The condition is either
the step's complexity or the step number itself.

A key below the occurrence threshold falls back to the trait-agnostic
(act, condition) slice, then to the condition-only slice; a sampled request
combination with no observations on the key's rung descends the same ladder
for its continuous statistics, down to the pooled condition slice. A table
file holds only the trait cells; the slices are merged from them, so a
table has one source of truth. When a table is built or loaded its arrays are
checked, its slices merged, every key's rung chosen and the rows its draws
read made, once, so every draw from it succeeds. The merged slices are not
kept: the rungs and rows are made from them, and `table_summary` sums a
slice's count from its trait cells. The rows are one float64
array with a row per distinct rung statistic, made in one array pass;
draws read a key's request cumulatives, flag and rows by its key code,
which `lookup` checks one key for. `table.json` is written with one line
per top-level key.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .corpus import (
    ACT_INDEX,
    ACT_ORDER,
    COMPLEXITY_LEVELS,
    Corpus,
    DURATION_HI,
    LIKERT_MAX,
    LIKERT_MIN,
    OPTION_SCORE_UNIT,
    ProactiveAct,
    STEPS_PER_DIALOG,
    complexity_of_step,
    duration_truncation,
)
from .errors import (EmptyCorpus, InvalidConfig, NoDataForCondition, integer, json_numbers,
                     object_entry, read_json, write_compact_json)
from .sampling import gaussian_truncations
from .user_model import N_TRAIT_CODES, trait_codes

DEFAULT_FALLBACK_THRESHOLD = 10

# (help_request, suggestion_request) in fixed index order 0..3
REQUEST_COMBOS = ((False, False), (False, True), (True, False), (True, True))
N_DIFFICULTY_CLASSES = LIKERT_MAX - LIKERT_MIN + 1

# The continuous statistics of a combination and the least finite value
# each may take; the greatest is the largest float.
_FLOAT_MAX = sys.float_info.max
_STAT_MIN = {"score_mean": -_FLOAT_MAX, "score_sd": 0.0,
             "duration_mean": -_FLOAT_MAX, "duration_sd": 0.0}
# The largest count a float holds exactly, so request shares and merged
# moments are the same whether a count is read as an int or a float.
_MAX_COUNT = 2 ** 53
# What each column of a trait cell must hold, in the words of its error
_CELL_RULES = {"n": "an int in 0..2**53", "score_mean": "a finite number",
               "score_sd": "a finite number >= 0", "duration_mean": "a finite number",
               "duration_sd": "a finite number >= 0",
               "difficulty_counts": "ints in 0..2**53 that sum to n"}

# The rung that serves a key: its own trait cell, its act slice or its
# condition slice; POOLED serves a combination no rung observed.
TRAIT_CELL, ACT_SLICE, CONDITION_SLICE, POOLED = range(4)


class TableMode(Enum):
    COMPLEXITY_BASED = "complexity"
    TASK_STEP_BASED = "task-step"

    def conditions(self) -> tuple:
        if self is TableMode.COMPLEXITY_BASED:
            return COMPLEXITY_LEVELS
        return tuple(range(1, STEPS_PER_DIALOG + 1))


class Stats(NamedTuple):
    """Counts and moments of groups of exchanges, one group per element of
    arrays of one shape; difficulty_counts adds a trailing class axis. A
    group with no count holds zeros. With scalar fields it is one group."""

    n: np.ndarray
    score_mean: np.ndarray
    score_sd: np.ndarray
    duration_mean: np.ndarray
    duration_sd: np.ndarray
    difficulty_counts: np.ndarray

    def reshape(self, *shape) -> "Stats":
        """The groups in this shape; difficulty_counts keeps its class axis."""
        return Stats(*(c.reshape(*shape, *c.shape[self.n.ndim:]) for c in self))

    def take(self, index) -> "Stats":
        return Stats(*(c[index] for c in self))


COLUMNS = Stats._fields


def _merge(parts: Stats) -> Stats:
    """The statistics of the union of the parts along axis 0, by the exact
    merge of Chan, Golub and LeVeque (Am. Stat. 37, 1983): counts add, the
    mean is count-weighted and M2 = sum n*sd^2 + sum n*(mean_i - mean)^2,
    with population sds. The parts are added one at a time in axis order and
    a part with no count is skipped, so each element has the bits of the
    scalar merge of its parts in that order."""
    n = parts.n.sum(axis=0)
    used = parts.n > 0
    moments = []
    # a float product overflows to inf, which the table rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for mean, sd in ((parts.score_mean, parts.score_sd),
                         (parts.duration_mean, parts.duration_sd)):
            total = np.zeros(n.shape)
            for i in range(len(used)):
                total = total + np.where(used[i], parts.n[i] * mean[i], 0.0)
            merged = np.divide(total, n, out=np.zeros(n.shape), where=n > 0)
            m2 = np.zeros(n.shape)
            for i in range(len(used)):
                dev = mean[i] - merged
                m2 = m2 + np.where(used[i], parts.n[i] * (sd[i] * sd[i] + dev * dev), 0.0)
            moments += [merged, np.sqrt(np.divide(m2, n, out=np.zeros(n.shape),
                                                  where=n > 0))]
    return Stats(n, *moments, parts.difficulty_counts.sum(axis=0))


# A row of draw parameters (see _draw_rows): the difficulty cumulatives,
# then the `gaussian_truncations` records of the duration and of the score.
ROW_DIFFICULTY = slice(0, N_DIFFICULTY_CLASSES)
ROW_DURATION = slice(N_DIFFICULTY_CLASSES, N_DIFFICULTY_CLASSES + 6)
ROW_SCORE = slice(N_DIFFICULTY_CLASSES + 6, N_DIFFICULTY_CLASSES + 12)


def _read_only(array) -> np.ndarray:
    array.flags.writeable = False
    return array


def _draw_rows(stats: Stats, complexity) -> np.ndarray:
    """The row a turn's draws read from each statistic of a Stats of 1-d
    arrays, one (n, 17) read-only array made in one pass: the difficulty
    cumulatives, the duration's `duration_truncation` record and the
    score's `gaussian_truncations` record, truncated to the option range of
    a step of complexity[i]. Each row equals, bit for bit, the scalar
    `draw_parameters` of its statistic kept in `tests/conftest.py`."""
    counts = stats.difficulty_counts
    total = counts.sum(axis=1)
    probs = counts / total[:, None]
    # a count past 2**53 is rounded when cast to float; Python divides ints exactly
    big = total > _MAX_COUNT
    if big.any():
        probs[big] = [[c / t for c in row] for row, t in zip(counts[big].tolist(),
                                                              total[big].tolist())]
    duration = duration_truncation(stats.duration_mean, stats.duration_sd, DURATION_HI)
    score = gaussian_truncations(stats.score_mean, stats.score_sd, OPTION_SCORE_UNIT,
                                 OPTION_SCORE_UNIT * np.asarray(complexity))
    return _read_only(np.hstack([np.cumsum(probs, axis=1), duration, score]))


def _derive(cells: Stats, mode: TableMode, threshold: int) -> dict:
    """By name, the five values a table derives from its checked trait
    cells: per key its rung, used_fallback flag and request cumulatives;
    and the `_draw_rows` array with the row index of each (key,
    combination). A rung's statistics come from the trait cells, the act
    slices (act x condition x combination, merged over the trait codes in
    key order), the condition slices (condition x combination, merged over
    the act slices in the order they first appear among the keys) or their
    pooled statistics (per condition)."""
    conditions = mode.conditions()
    n_traits, n_acts, n_conds = N_TRAIT_CODES, len(ACT_ORDER), len(conditions)
    n_keys, n_combos = cells.n.shape
    act_slices = _merge(cells.reshape(n_traits, n_acts, n_conds, n_combos))
    # the act slices of a condition merge in the order their first trait
    # cell comes among the keys, trait-major
    seen = cells.n.reshape(n_traits, n_acts, n_conds, n_combos).sum(axis=3) > 0
    first = np.where(seen.any(axis=0), seen.argmax(axis=0), n_traits)
    order = np.argsort(first * n_acts + np.arange(n_acts)[:, None], axis=0)
    condition_slices = _merge(act_slices.take((order, np.arange(n_conds))))
    # the condition slice is the ladder's last rung, so every key resolves
    empty = condition_slices.n.sum(axis=1) == 0
    if empty.any():
        raise NoDataForCondition(
            f"no observations for condition {conditions[int(empty.argmax())]}")
    pooled = _merge(Stats(*(np.moveaxis(c, 1, 0) for c in condition_slices)))

    code = np.arange(n_keys)
    slice_of, cond_of = code % (n_acts * n_conds), code % n_conds
    act_n = act_slices.n.reshape(-1, n_combos)[slice_of]
    cond_n = condition_slices.n[cond_of]
    # the trait cell qualifies only at or above the fallback threshold
    direct = cells.n.sum(axis=1) >= threshold
    rung = np.where(direct, TRAIT_CELL,
                    np.where(act_n.sum(axis=1) > 0, ACT_SLICE, CONDITION_SLICE))
    rung_n = np.choose(rung[:, None], (cells.n, act_n, cond_n))

    # the trait cells, act slices and condition slices flat in index order,
    # then the pooled slices
    levels = (cells, act_slices, condition_slices, pooled)
    if not all(np.isfinite(getattr(level, name)).all()
               for level in levels for name in _STAT_MIN):
        raise InvalidConfig("merged combination statistics overflow the float range")
    offset = np.cumsum([0, *(s.n.size for s in levels)])
    combo = np.arange(n_combos)
    source = np.select(
        [direct[:, None] & (cells.n > 0), act_n > 0, cond_n > 0],
        [code[:, None] * n_combos + combo,
         offset[ACT_SLICE] + slice_of[:, None] * n_combos + combo,
         offset[CONDITION_SLICE] + cond_of[:, None] * n_combos + combo],
        offset[POOLED] + cond_of[:, None])

    # each distinct rung statistic makes one row; every key it serves has
    # the rung's condition, so the first one gives the row's complexity
    complexity = np.array([complexity_of_step(c) if mode is TableMode.TASK_STEP_BASED
                           else c for c in conditions])
    used, first_cell, inverse = np.unique(source.ravel(), return_index=True,
                                          return_inverse=True)
    # the levels are joined only to pick the used statistics, so the join is
    # freed before the rows are made
    served = Stats(*map(np.concatenate, zip(*(s.reshape(-1) for s in levels)))).take(used)
    rows = _draw_rows(served, complexity[cond_of[first_cell // n_combos]])
    return dict(rung=_read_only(rung),
                used_fallback=_read_only(rung != TRAIT_CELL),
                request_cum=_read_only(np.cumsum(rung_n / rung_n.sum(axis=1, keepdims=True),
                                                 axis=1)),
                rows=rows, row_index=_read_only(inverse.reshape(n_keys, n_combos)))


@dataclass(frozen=True, eq=False)
class BehaviorTable:
    """The statistics of every (key, combination), in `key_code` order, and
    what draws and `table_summary` read of their `_derive`: each key's
    rung, used_fallback flag and request cumulatives, and the `_draw_rows`
    array, one row per distinct rung statistic. The merged act and
    condition slices are not kept. The fallback threshold is an `errors.integer` >= 1."""

    mode: TableMode
    fallback_threshold: int
    n: np.ndarray = field(repr=False)
    score_mean: np.ndarray = field(repr=False)
    score_sd: np.ndarray = field(repr=False)
    duration_mean: np.ndarray = field(repr=False)
    duration_sd: np.ndarray = field(repr=False)
    difficulty_counts: np.ndarray = field(repr=False)
    rung: np.ndarray = field(init=False, repr=False)
    used_fallback: np.ndarray = field(init=False, repr=False)
    request_cum: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)
    row_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        threshold = integer("fallback threshold", self.fallback_threshold, lo=1)
        object.__setattr__(self, "fallback_threshold", threshold)
        if not isinstance(self.mode, TableMode):
            raise InvalidConfig(f"mode must be a TableMode, got {self.mode!r}")
        shape = (N_TRAIT_CODES * len(ACT_ORDER) * len(self.mode.conditions()),
                 len(REQUEST_COMBOS))
        cells = Stats(*(self._column(name, shape) for name in COLUMNS))
        self._check_cells(cells)
        for name, value in _derive(cells, self.mode, threshold).items():
            object.__setattr__(self, name, value)

    def _column(self, name: str, shape: tuple) -> np.ndarray:
        """The column as a read-only copy, checked for shape and number type:
        counts in int64, the moments in float64."""
        column = np.array(getattr(self, name))
        counts = name in ("n", "difficulty_counts")
        if name == "difficulty_counts":
            shape = (*shape, N_DIFFICULTY_CLASSES)
        if column.shape != shape or column.dtype.kind not in ("iu" if counts else "iuf"):
            raise InvalidConfig(f"table column {name!r} must be a {shape} array of "
                                f"{'ints' if counts else 'numbers'}, got "
                                f"{column.dtype} {column.shape}")
        # a uint64 count beyond int64 turns negative, which _check_cells reports
        column = column.astype(np.int64 if counts else np.float64)
        object.__setattr__(self, name, _read_only(column))
        return column

    def _check_cells(self, cells: Stats) -> None:
        """Raise the error of the first (key, combination), in key order,
        that holds a value a build never writes, for its first failing
        column."""
        counts_out = lambda c: (c < 0) | (c > _MAX_COUNT)
        failed = np.stack([
            counts_out(cells.n),
            *(~((least <= getattr(cells, name)) & (getattr(cells, name) <= _FLOAT_MAX))
              for name, least in _STAT_MIN.items()),
            counts_out(cells.difficulty_counts).any(axis=2)
            | (cells.difficulty_counts.sum(axis=2) != cells.n)])
        if failed.any():
            code, combo = divmod(int(failed.any(axis=0).argmax()), len(REQUEST_COMBOS))
            name = COLUMNS[int(failed[:, code, combo].argmax())]
            conditions = self.mode.conditions()
            trait, act, cond = np.unravel_index(
                code, (N_TRAIT_CODES, len(ACT_ORDER), len(conditions)))
            raise InvalidConfig(
                f"table cell (traits {trait:03b}, act {ACT_ORDER[act].value}, "
                f"condition {conditions[cond]}, combination {REQUEST_COMBOS[combo]}): {name} "
                f"must be {_CELL_RULES[name]}, got {getattr(cells, name)[code, combo].tolist()}")

    def __eq__(self, other):
        if not isinstance(other, BehaviorTable):
            return NotImplemented
        return ((self.mode, self.fallback_threshold) == (other.mode, other.fallback_threshold)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in COLUMNS))


def key_code(mode: TableMode, trait, act, condition):
    """The index of the context key with this trait code, act index (in
    ACT_ORDER) and condition among the mode's keys, in trait code, act,
    condition order; ints or numpy arrays alike. `np.unravel_index(code,
    (N_TRAIT_CODES, len(ACT_ORDER), len(mode.conditions())))` inverts it."""
    conditions = mode.conditions()
    return (trait * len(ACT_ORDER) + act) * len(conditions) + condition - conditions[0]


def build_table(corpus: Corpus, mode: TableMode,
                fallback_threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> BehaviorTable:
    """Aggregate the corpus into the statistics of every (key, combination).

    Every group is reduced at once: its count, sums and difficulty counts by
    `np.bincount` over the group codes, its sds by a second pass over the
    deviations from the group means."""
    if not isinstance(mode, TableMode):
        raise InvalidConfig(f"mode must be a TableMode, got {mode!r}")
    if corpus.n_dialogs == 0:
        raise EmptyCorpus("cannot build a table from an empty corpus")

    trait = np.repeat(trait_codes(corpus), STEPS_PER_DIALOG)
    condition = corpus.complexity if mode is TableMode.COMPLEXITY_BASED else corpus.step
    # REQUEST_COMBOS order: the help flag major
    combo = 2 * corpus.help_request + corpus.suggestion_request
    group = key_code(mode, trait, corpus.proactive_act, condition) * len(REQUEST_COMBOS) + combo
    shape = (N_TRAIT_CODES * len(ACT_ORDER) * len(mode.conditions()),
             len(REQUEST_COMBOS))
    size = shape[0] * shape[1]
    n = np.bincount(group, minlength=size)

    def moments(values):
        mean = np.divide(np.bincount(group, values, minlength=size), n,
                         out=np.zeros(size), where=n > 0)
        dev = values - mean[group]
        sd = np.sqrt(np.divide(np.bincount(group, dev * dev, minlength=size), n,
                               out=np.zeros(size), where=n > 0))
        return mean.reshape(shape), sd.reshape(shape)

    difficulty = np.bincount(group * N_DIFFICULTY_CLASSES + corpus.difficulty - LIKERT_MIN,
                             minlength=size * N_DIFFICULTY_CLASSES)
    return BehaviorTable(mode, fallback_threshold, n.reshape(shape),
                         *moments(corpus.game_score), *moments(corpus.duration),
                         difficulty.reshape(*shape, N_DIFFICULTY_CLASSES))


def lookup(table: BehaviorTable, trait, act: ProactiveAct, condition) -> int:
    """The key code of the key (trait code, act, condition), as a Python
    int, once each part is checked (by `errors.integer` for the two ints) to
    name one of the table's keys."""
    condition = integer("condition", condition)
    if condition not in table.mode.conditions():
        raise InvalidConfig(f"condition {condition} does not belong to mode "
                            f"{table.mode.value}")
    trait = integer("trait code", trait, 0, N_TRAIT_CODES - 1)
    if not isinstance(act, ProactiveAct):
        raise InvalidConfig(f"act must be a ProactiveAct, got {act!r}")
    return key_code(table.mode, trait, ACT_INDEX[act], condition)


def table_summary(table: BehaviorTable) -> dict:
    """Key counts and fallback shares of the table, overall and per (act,
    condition) slice in ACT_ORDER x condition order, as JSON values."""
    conditions = table.mode.conditions()
    n_slices = len(ACT_ORDER) * len(conditions)
    slice_of = np.arange(len(table.rung)) % n_slices
    observed, direct = (np.bincount(slice_of[mask], minlength=n_slices).tolist()
                        for mask in (table.n.sum(axis=1) > 0, table.rung == TRAIT_CELL))
    # a slice's count is the sum of its trait cells' counts
    slice_n = table.n.reshape(N_TRAIT_CODES, n_slices, -1).sum(axis=(0, 2)).tolist()
    return {
        "mode": table.mode.value,
        "fallback_threshold": table.fallback_threshold,
        "possible_keys": len(table.rung),
        "observed_keys": sum(observed),
        "fallback_fraction": 1.0 - sum(direct) / len(table.rung),
        "per_act_condition": [
            {"act": act.value, "condition": cond, "n": slice_n[s],
             "trait_cells_observed": observed[s], "trait_cells_at_threshold": direct[s],
             "fallback_fraction": 1.0 - direct[s] / N_TRAIT_CODES}
            for s, (act, cond) in enumerate(itertools.product(ACT_ORDER, conditions))],
    }


# v3 stores one column per statistic over every key and combination; v2
# stored a list of the observed trait cells, v1 also their slices
TABLE_FORMAT = "behavior-table/v3"

_TABLE_KEYS = frozenset({"format", "mode", "fallback_threshold", *COLUMNS})


def table_to_json_dict(table: BehaviorTable) -> dict:
    return {"format": TABLE_FORMAT, "mode": table.mode.value,
            "fallback_threshold": table.fallback_threshold,
            **{name: getattr(table, name).tolist() for name in COLUMNS}}


def table_from_json_dict(payload) -> BehaviorTable:
    if not isinstance(payload, dict):
        raise InvalidConfig(f"table JSON must be an object, got {type(payload).__name__}")
    if payload.get("format") != TABLE_FORMAT:
        raise InvalidConfig(f"unsupported table format {payload.get('format')!r}; "
                            f"refit the table with `trustsim fit` for {TABLE_FORMAT}")
    object_entry(payload, _TABLE_KEYS, "table")
    try:
        mode = TableMode(payload["mode"])
    except (ValueError, TypeError) as exc:
        raise InvalidConfig(f"malformed table: {exc}") from exc
    return BehaviorTable(mode, payload["fallback_threshold"],
                         *(json_numbers(f"table column {name!r}", payload[name],
                                        3 if name == "difficulty_counts" else 2,
                                        integers=name in ("n", "difficulty_counts"))
                           for name in COLUMNS))


def save_table(table: BehaviorTable, path) -> None:
    """Write the table with `write_compact_json`: its columns hold thousands
    of numbers. A file in either layout, compact or indented, loads."""
    write_compact_json(path, table_to_json_dict(table))


def load_table(path) -> BehaviorTable:
    return table_from_json_dict(read_json(path, "table"))
