"""Conditional behavior tables with sparse-context fallback.

Each cell aggregates the exchanges sharing (trait tuple, proactive act,
condition), where the condition is either the step's complexity or the
step number itself. A cell below the occurrence threshold falls back to
the trait-agnostic (act, condition) slice, then to the condition-only
slice; a sampled request combination with no conditional observations
descends the same ladder for its continuous statistics. The slices are
not stored: they are merged from the trait cells, so a table has one
source of truth. A table's values are checked, its slices derived and its
ladder resolved once, when it is built or loaded, so every draw from it
succeeds.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import (
    ACT_ORDER,
    COMPLEXITY_LEVELS,
    Corpus,
    LIKERT_MAX,
    LIKERT_MIN,
    ProactiveAct,
    STEPS_PER_DIALOG,
)
from .errors import (EmptyCorpus, InvalidConfig, NoDataForCondition, object_entry,
                     read_json, write_json)
from .user_model import ALL_TRAIT_TUPLES, TraitTuple, binarize_traits

DEFAULT_FALLBACK_THRESHOLD = 10

# (help_request, suggestion_request) in fixed index order 0..3
REQUEST_COMBOS = ((False, False), (False, True), (True, False), (True, True))
N_DIFFICULTY_CLASSES = LIKERT_MAX - LIKERT_MIN + 1

# The continuous statistics of a combination and the least finite value
# each may take; the greatest is the largest float.
_FLOAT_MAX = sys.float_info.max
_STAT_MIN = {"score_mean": -_FLOAT_MAX, "score_sd": 0.0,
             "duration_mean": -_FLOAT_MAX, "duration_sd": 0.0}


class TableMode(Enum):
    COMPLEXITY_BASED = "complexity"
    TASK_STEP_BASED = "task-step"

    def conditions(self) -> tuple:
        if self is TableMode.COMPLEXITY_BASED:
            return COMPLEXITY_LEVELS
        return tuple(range(1, STEPS_PER_DIALOG + 1))


@dataclass(frozen=True)
class ContextKey:
    trait_tuple: TraitTuple
    proactive_act: ProactiveAct
    condition: int  # complexity 3..5 or step 1..12 depending on table mode


@dataclass(frozen=True)
class ComboStats:
    """Continuous/ordinal statistics for one request combination."""

    n: int
    score_mean: float
    score_sd: float
    duration_mean: float
    duration_sd: float
    difficulty_counts: tuple  # classes 1..5

    def __post_init__(self):
        if self.n > 0 and sum(self.difficulty_counts) != self.n:
            raise InvalidConfig("difficulty counts must sum to the combination count")
        for name, least in _STAT_MIN.items():
            value = getattr(self, name)
            # a bound check, not math.isfinite, which raises on a huge int
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not least <= value <= _FLOAT_MAX):
                raise InvalidConfig(f"combination {name} must be a finite number"
                                    f"{' >= 0' if least == 0 else ''}, got {value!r}")


_EMPTY_COMBO = ComboStats(0, 0.0, 0.0, 0.0, 0.0, (0,) * N_DIFFICULTY_CLASSES)


def _merge_combos(combos) -> ComboStats:
    """The statistics of the union of the combinations' samples, by the
    exact merge of Chan, Golub and LeVeque (Am. Stat. 37, 1983): counts add,
    the mean is count-weighted and M2 = sum n*sd^2 + sum n*(mean_i - mean)^2,
    with population sds."""
    parts = [c for c in combos if c.n > 0]
    if not parts:
        return _EMPTY_COMBO
    n = sum(p.n for p in parts)
    # a float product overflows to inf, which ComboStats rejects; only a
    # count beyond the float range raises, when it is converted
    try:
        s_mean = sum(p.n * p.score_mean for p in parts) / n
        d_mean = sum(p.n * p.duration_mean for p in parts) / n
        s_m2 = d_m2 = 0.0
        for p in parts:
            s_dev, d_dev = p.score_mean - s_mean, p.duration_mean - d_mean
            s_m2 += p.n * (p.score_sd * p.score_sd + s_dev * s_dev)
            d_m2 += p.n * (p.duration_sd * p.duration_sd + d_dev * d_dev)
        s_sd, d_sd = math.sqrt(s_m2 / n), math.sqrt(d_m2 / n)
    except OverflowError as exc:
        raise InvalidConfig(f"merged combination statistics overflow: {exc}") from exc
    diff = tuple(map(sum, zip(*(p.difficulty_counts for p in parts))))
    return ComboStats(n, s_mean, s_sd, d_mean, d_sd, diff)


@dataclass(frozen=True)
class CellStats:
    n: int
    request_counts: tuple  # per REQUEST_COMBOS index
    combos: tuple  # ComboStats per REQUEST_COMBOS index

    def __post_init__(self):
        if sum(self.request_counts) != self.n:
            raise InvalidConfig("request counts must sum to cell count")
        if len(self.request_counts) != len(REQUEST_COMBOS) or len(self.combos) != len(REQUEST_COMBOS):
            raise InvalidConfig("cell must carry one slot per request combination")
        if any(c.n != k for c, k in zip(self.combos, self.request_counts)):
            raise InvalidConfig("each combination count must equal its request count")

    @property
    def request_probs(self) -> tuple:
        if self.n <= 0:
            raise InvalidConfig("request_probs undefined for an empty cell")
        return tuple(c / self.n for c in self.request_counts)

    def pooled(self) -> ComboStats:
        """All-combination aggregate of this cell."""
        return _merge_combos(self.combos)


def _merge_cells(cells) -> CellStats:
    """The cell of the union of the cells' samples, merged per combination."""
    return CellStats(
        n=sum(c.n for c in cells),
        request_counts=tuple(map(sum, zip(*(c.request_counts for c in cells)))),
        combos=tuple(_merge_combos(c.combos[i] for c in cells)
                     for i in range(len(REQUEST_COMBOS))),
    )


@dataclass(frozen=True)
class BehaviorTable:
    mode: TableMode
    fallback_threshold: int
    cells: dict  # ContextKey -> CellStats
    # merged from cells: (ProactiveAct, condition) -> CellStats and
    # condition -> CellStats, for each slice with at least one cell
    fallback_cells: dict = field(init=False, compare=False, repr=False)
    condition_cells: dict = field(init=False, compare=False, repr=False)
    # ContextKey -> (most specific usable rung, used_fallback, ComboStats per
    # REQUEST_COMBOS index after the ladder descent), in `_mode_keys` order
    resolved: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        threshold = self.fallback_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, int) or threshold < 1:
            raise InvalidConfig(f"fallback threshold must be an int >= 1, got {threshold!r}")
        keys = _mode_keys(self.mode)
        for key in self.cells.keys() - set(keys):
            _check_condition(self.mode, key.condition)
            raise InvalidConfig(f"{key!r} names no context of mode {self.mode.value}")
        # a built and a loaded table merge their cells in this one order,
        # so they derive the same bits
        keyed = [(key, self.cells.get(key)) for key in keys]
        by_slice, by_condition = {}, {}
        for key, cell in keyed:
            if cell is not None:
                by_slice.setdefault((key.proactive_act, key.condition), []).append(cell)
        fallback = {k: _merge_cells(cells) for k, cells in by_slice.items()}
        for (_, cond), cell in fallback.items():
            by_condition.setdefault(cond, []).append(cell)
        condition = {k: _merge_cells(cells) for k, cells in by_condition.items()}
        object.__setattr__(self, "fallback_cells", fallback)
        object.__setattr__(self, "condition_cells", condition)
        # the condition slice is the ladder's last rung, so every key resolves
        for cond in self.mode.conditions():
            if cond not in condition or condition[cond].n == 0:
                raise NoDataForCondition(f"no observations for condition {cond}")
        resolved = {}
        for key, cell in keyed:
            # the trait cell qualifies only at or above the fallback threshold
            direct = cell is not None and cell.n >= self.fallback_threshold
            rungs = [cell] if direct else []
            slices = (fallback.get((key.proactive_act, key.condition)),
                      condition[key.condition])
            rungs += [r for r in slices if r is not None and r.n > 0]
            combos = tuple(
                next((r.combos[i] for r in rungs if r.combos[i].n > 0), None)
                or rungs[-1].pooled() for i in range(len(REQUEST_COMBOS)))
            resolved[key] = (rungs[0], not direct, combos)
        object.__setattr__(self, "resolved", resolved)


def _mode_keys(mode: TableMode) -> list:
    """Every context key of the mode in canonical order: trait tuple index,
    act, condition. `key_code` indexes this list."""
    return list(itertools.starmap(ContextKey, itertools.product(
        ALL_TRAIT_TUPLES, ACT_ORDER, mode.conditions())))


def key_code(mode: TableMode, trait, act, condition):
    """The `_mode_keys(mode)` index of the key with this trait tuple index,
    act index (in ACT_ORDER) and condition; ints or numpy arrays alike."""
    conditions = mode.conditions()
    return (trait * len(ACT_ORDER) + act) * len(conditions) + condition - conditions[0]


def _check_condition(mode: TableMode, condition) -> None:
    if condition not in mode.conditions():
        raise InvalidConfig(f"condition {condition} does not belong to mode {mode.value}")


def build_table(corpus: Corpus, mode: TableMode,
                fallback_threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> BehaviorTable:
    """Aggregate the corpus into one cell per observed (trait tuple, act,
    condition); the act and condition slices are merged from these cells.

    Every (cell, request combination) group is reduced at once: its count,
    sums and difficulty counts by `np.bincount` over the group codes, its
    sds by a second pass over the deviations from the group means."""
    if not isinstance(mode, TableMode):
        raise InvalidConfig(f"mode must be a TableMode, got {mode!r}")
    if corpus.n_dialogs == 0:
        raise EmptyCorpus("cannot build a table from an empty corpus")

    trait = np.repeat([binarize_traits(user).index for user in corpus.users],
                      STEPS_PER_DIALOG)
    condition = corpus.complexity if mode is TableMode.COMPLEXITY_BASED else corpus.step
    # REQUEST_COMBOS order: the help flag major
    combo = 2 * corpus.help_request + corpus.suggestion_request
    score, duration = corpus.game_score, corpus.duration
    difficulty = corpus.difficulty - LIKERT_MIN

    cell = key_code(mode, trait, corpus.proactive_act, condition)
    groups, group_of = np.unique(cell * len(REQUEST_COMBOS) + combo,
                                 return_inverse=True)
    n = np.bincount(group_of)

    def moments(values):
        mean = np.bincount(group_of, values) / n
        dev = values - mean[group_of]
        return mean.tolist(), np.sqrt(np.bincount(group_of, dev * dev) / n).tolist()

    s_mean, s_sd = moments(score)
    d_mean, d_sd = moments(duration)
    diff = np.bincount(group_of * N_DIFFICULTY_CLASSES + difficulty,
                       minlength=len(groups) * N_DIFFICULTY_CLASSES)
    diff = diff.reshape(-1, N_DIFFICULTY_CLASSES).tolist()

    combos = {}
    for g, (code, count) in enumerate(zip(groups.tolist(), n.tolist())):
        cell_code, slot = divmod(code, len(REQUEST_COMBOS))
        combos.setdefault(cell_code, [_EMPTY_COMBO] * len(REQUEST_COMBOS))[slot] = (
            ComboStats(count, s_mean[g], s_sd[g], d_mean[g], d_sd[g], tuple(diff[g])))
    keys = _mode_keys(mode)
    cells = {keys[code]: CellStats(n=sum(c.n for c in slots),
                                   request_counts=tuple(c.n for c in slots),
                                   combos=tuple(slots))
             for code, slots in combos.items()}
    return BehaviorTable(mode=mode, fallback_threshold=fallback_threshold, cells=cells)


def _no_rung(table: BehaviorTable, key: ContextKey):
    """Raise the error for a key the table did not resolve: every key of
    the table's mode resolves, so its condition lies outside the mode."""
    _check_condition(table.mode, key.condition)
    raise InvalidConfig(f"{key!r} names no context of the table")


def lookup(table: BehaviorTable, key: ContextKey) -> tuple:
    """Resolve a context to (CellStats, used_fallback)."""
    cell, used_fallback, _ = table.resolved.get(key) or _no_rung(table, key)
    return cell, used_fallback


def resolve_combo_stats(table: BehaviorTable, key: ContextKey,
                        combo_idx: int) -> ComboStats:
    """Statistics for one request combination, descending the fallback
    ladder past rungs where that combination was never observed."""
    return (table.resolved.get(key) or _no_rung(table, key))[2][combo_idx]


def table_summary(table: BehaviorTable) -> dict:
    """Key counts and fallback shares of the table, overall and per (act,
    condition) slice in ACT_ORDER x condition order, as JSON values."""
    conditions = table.mode.conditions()
    possible = len(ALL_TRAIT_TUPLES) * len(ACT_ORDER) * len(conditions)
    direct_keys = {k for k, (_, fell_back, _) in table.resolved.items() if not fell_back}
    per_slice = []
    for act in ACT_ORDER:
        for cond in conditions:
            fb = table.fallback_cells.get((act, cond))
            at_or_above = sum(ContextKey(tt, act, cond) in direct_keys
                              for tt in ALL_TRAIT_TUPLES)
            per_slice.append({
                "act": act.value,
                "condition": cond,
                "n": fb.n if fb is not None else 0,
                "trait_cells_observed": sum(
                    1 for tt in ALL_TRAIT_TUPLES
                    if ContextKey(tt, act, cond) in table.cells
                ),
                "trait_cells_at_threshold": at_or_above,
                "fallback_fraction": 1.0 - at_or_above / len(ALL_TRAIT_TUPLES),
            })
    return {
        "mode": table.mode.value,
        "fallback_threshold": table.fallback_threshold,
        "possible_keys": possible,
        "observed_keys": len(table.cells),
        "fallback_fraction": 1.0 - len(direct_keys) / possible,
        "per_act_condition": per_slice,
    }


# v2 stores the trait cells only; v1 also stored the slices, which differ in the last bits
TABLE_FORMAT = "behavior-table/v2"

_TABLE_KEYS = frozenset({"format", "mode", "fallback_threshold", "cells"})
_CELL_KEYS = frozenset({"traits", "act", "condition", "n", "request_counts", "combos"})
_COMBO_KEYS = frozenset({"n", *_STAT_MIN, "difficulty_counts"})


def _int_entry(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InvalidConfig(f"table entry {name!r} must be an int >= 0, got {value!r}")
    return value


def _counts_entry(value, name: str, length: int) -> tuple:
    # type() is int, unlike isinstance, rejects true and false
    if (not isinstance(value, list) or len(value) != length
            or not all(type(v) is int and v >= 0 for v in value)):
        raise InvalidConfig(f"table entry {name!r} must list {length} ints >= 0, "
                            f"got {value!r}")
    return tuple(value)


def _combo_from_dict(d) -> ComboStats:
    d = object_entry(d, _COMBO_KEYS, "table combination")
    return ComboStats(
        n=_int_entry(d["n"], "n"),
        **{name: d[name] for name in _STAT_MIN},
        difficulty_counts=_counts_entry(d["difficulty_counts"], "difficulty_counts",
                                        N_DIFFICULTY_CLASSES),
    )


def _cell_entry(e) -> tuple:
    e = object_entry(e, _CELL_KEYS, "table cell")
    key = ContextKey(TraitTuple.from_bits(e["traits"]), ProactiveAct(e["act"]),
                     _int_entry(e["condition"], "condition"))
    return key, CellStats(
        n=_int_entry(e["n"], "n"),
        request_counts=_counts_entry(e["request_counts"], "request_counts",
                                     len(REQUEST_COMBOS)),
        combos=tuple(_combo_from_dict(c) for c in e["combos"]),
    )


def table_to_json_dict(table: BehaviorTable) -> dict:
    cells = [
        {"traits": key.trait_tuple.bits, "act": key.proactive_act.value,
         "condition": key.condition, "n": cell.n,
         "request_counts": list(cell.request_counts),
         "combos": [{"n": c.n, **{name: getattr(c, name) for name in _STAT_MIN},
                     "difficulty_counts": list(c.difficulty_counts)} for c in cell.combos]}
        for key, cell in ((k, table.cells.get(k)) for k in _mode_keys(table.mode))
        if cell is not None
    ]
    return {
        "format": TABLE_FORMAT,
        "mode": table.mode.value,
        "fallback_threshold": table.fallback_threshold,
        "cells": cells,
    }


def table_from_json_dict(payload) -> BehaviorTable:
    if not isinstance(payload, dict):
        raise InvalidConfig(f"table JSON must be an object, got {type(payload).__name__}")
    if payload.get("format") != TABLE_FORMAT:
        raise InvalidConfig(f"unsupported table format {payload.get('format')!r}; "
                            f"refit the table with `trustsim fit` for {TABLE_FORMAT}")
    object_entry(payload, _TABLE_KEYS, "table")
    try:
        mode = TableMode(payload["mode"])
        entries = [_cell_entry(e) for e in payload["cells"]]
    # ValueError: a mode or act value that names no member; TypeError: a
    # list, cell or combo of the wrong JSON type
    except (ValueError, TypeError) as exc:
        raise InvalidConfig(f"malformed table: {exc}") from exc
    cells = dict(entries)
    # a dict keeps the last of two entries for one context: count them
    if len(cells) != len(entries):
        raise InvalidConfig("table entry 'cells' lists a context twice")
    return BehaviorTable(mode=mode, fallback_threshold=payload["fallback_threshold"],
                         cells=cells)


def save_table(table: BehaviorTable, path) -> None:
    write_json(path, table_to_json_dict(table))


def load_table(path) -> BehaviorTable:
    return table_from_json_dict(read_json(path, "table"))
