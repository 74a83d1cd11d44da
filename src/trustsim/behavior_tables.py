"""Conditional behavior tables with sparse-context fallback.

Each cell aggregates the exchanges sharing (trait tuple, proactive act,
condition), where the condition is either the step's complexity or the
step number itself. A cell below the occurrence threshold falls back to
the trait-agnostic (act, condition) slice, then to the condition-only
slice; a sampled request combination with no conditional observations
descends the same ladder for its continuous statistics. A table's values
are checked, and its ladder resolved, once, when it is built or loaded, so
every draw from it succeeds.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

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
from .errors import EmptyCorpus, InvalidConfig, NoDataForCondition, read_json
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
        """All-combination aggregate of this cell, exact for population SDs."""
        n = self.n
        if n <= 0:
            return _EMPTY_COMBO
        score_sq = dur_sq = score_sum = dur_sum = 0.0
        diff = [0] * N_DIFFICULTY_CLASSES
        # ** 2 and huge ints raise; a product overflows to inf, rejected below
        try:
            for combo in self.combos:
                if combo.n == 0:
                    continue
                score_sum += combo.n * combo.score_mean
                dur_sum += combo.n * combo.duration_mean
                score_sq += combo.n * (combo.score_sd ** 2 + combo.score_mean ** 2)
                dur_sq += combo.n * (combo.duration_sd ** 2 + combo.duration_mean ** 2)
                for i, c in enumerate(combo.difficulty_counts):
                    diff[i] += c
            s_mean, d_mean = score_sum / n, dur_sum / n
            s_var = max(0.0, score_sq / n - s_mean ** 2)
            d_var = max(0.0, dur_sq / n - d_mean ** 2)
        except OverflowError as exc:
            raise InvalidConfig(f"pooled cell statistics overflow: {exc}") from exc
        return ComboStats(n, s_mean, math.sqrt(s_var), d_mean, math.sqrt(d_var),
                          tuple(diff))


@dataclass(frozen=True)
class BehaviorTable:
    mode: TableMode
    fallback_threshold: int
    cells: dict  # ContextKey -> CellStats
    fallback_cells: dict  # (ProactiveAct, condition) -> CellStats
    condition_cells: dict  # condition -> CellStats
    # ContextKey -> (most specific usable rung, used_fallback, ComboStats per
    # REQUEST_COMBOS index after the ladder descent) for every key of the mode
    resolved: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for cond in (*(k.condition for k in self.cells),
                     *(c for _, c in self.fallback_cells), *self.condition_cells):
            _check_condition(self.mode, cond)
        # the condition slice is the ladder's last rung, so every key resolves
        for cond in self.mode.conditions():
            if cond not in self.condition_cells or self.condition_cells[cond].n == 0:
                raise NoDataForCondition(f"no observations for condition {cond}")
        resolved = {}
        for tt, act, cond in itertools.product(ALL_TRAIT_TUPLES, ACT_ORDER,
                                               self.mode.conditions()):
            key = ContextKey(tt, act, cond)
            cell = self.cells.get(key)
            # the trait cell qualifies only at or above the fallback threshold
            direct = cell is not None and cell.n >= self.fallback_threshold
            rungs = [cell] if direct else []
            slices = (self.fallback_cells.get((act, cond)), self.condition_cells.get(cond))
            rungs += [r for r in slices if r is not None and r.n > 0]
            combos = tuple(
                next((r.combos[i] for r in rungs if r.combos[i].n > 0), None)
                or rungs[-1].pooled() for i in range(len(REQUEST_COMBOS)))
            resolved[key] = (rungs[0], not direct, combos)
        object.__setattr__(self, "resolved", resolved)


class _Acc:
    __slots__ = ("scores", "durations", "difficulties")

    def __init__(self):
        self.scores = [[] for _ in REQUEST_COMBOS]
        self.durations = [[] for _ in REQUEST_COMBOS]
        self.difficulties = [[] for _ in REQUEST_COMBOS]

    def add(self, combo_idx: int, score: float, duration: float, difficulty: int):
        self.scores[combo_idx].append(score)
        self.durations[combo_idx].append(duration)
        self.difficulties[combo_idx].append(difficulty)

    def finalize(self) -> CellStats:
        combos = []
        counts = []
        for i in range(len(REQUEST_COMBOS)):
            vals = self.scores[i]
            counts.append(len(vals))
            if not vals:
                combos.append(_EMPTY_COMBO)
                continue
            s = np.array(vals, dtype=float)
            d = np.array(self.durations[i], dtype=float)
            diff = [0] * N_DIFFICULTY_CLASSES
            for c in self.difficulties[i]:
                diff[c - LIKERT_MIN] += 1
            combos.append(ComboStats(
                n=len(vals),
                score_mean=float(s.mean()), score_sd=float(s.std(ddof=0)),
                duration_mean=float(d.mean()), duration_sd=float(d.std(ddof=0)),
                difficulty_counts=tuple(diff),
            ))
        return CellStats(n=sum(counts), request_counts=tuple(counts),
                         combos=tuple(combos))


def _condition_of(exchange, mode: TableMode) -> int:
    if mode is TableMode.COMPLEXITY_BASED:
        return exchange.complexity
    return exchange.step


def combo_index(help_request: bool, suggestion_request: bool) -> int:
    return REQUEST_COMBOS.index((bool(help_request), bool(suggestion_request)))


def _check_condition(mode: TableMode, condition) -> None:
    if condition not in mode.conditions():
        raise InvalidConfig(f"condition {condition} does not belong to mode {mode.value}")


def _check_threshold(threshold) -> None:
    if isinstance(threshold, bool) or not isinstance(threshold, int) or threshold < 1:
        raise InvalidConfig(f"fallback threshold must be an int >= 1, got {threshold!r}")


def build_table(corpus: Corpus, mode: TableMode,
                fallback_threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> BehaviorTable:
    """Aggregate the corpus into trait-specific, act-level, and
    condition-level cells for the given conditioning mode."""
    if not isinstance(mode, TableMode):
        raise InvalidConfig(f"mode must be a TableMode, got {mode!r}")
    _check_threshold(fallback_threshold)
    if corpus.n_dialogs == 0:
        raise EmptyCorpus("cannot build a table from an empty corpus")

    cell_acc: dict = {}
    fb_acc: dict = {}
    cond_acc: dict = {}
    for user in corpus.users:
        traits = binarize_traits(user)
        for ex in corpus.dialogs[user.user_id]:
            cond = _condition_of(ex, mode)
            idx = combo_index(ex.help_request, ex.suggestion_request)
            key = ContextKey(traits, ex.proactive_act, cond)
            for acc_map, acc_key in (
                (cell_acc, key),
                (fb_acc, (ex.proactive_act, cond)),
                (cond_acc, cond),
            ):
                acc = acc_map.get(acc_key)
                if acc is None:
                    acc = acc_map[acc_key] = _Acc()
                acc.add(idx, ex.game_score, ex.duration, ex.difficulty)

    return BehaviorTable(
        mode=mode,
        fallback_threshold=fallback_threshold,
        cells={k: a.finalize() for k, a in cell_acc.items()},
        fallback_cells={k: a.finalize() for k, a in fb_acc.items()},
        condition_cells={k: a.finalize() for k, a in cond_acc.items()},
    )


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


@dataclass(frozen=True)
class TableSummary:
    mode: TableMode
    fallback_threshold: int
    possible_keys: int
    observed_keys: int
    fallback_fraction: float  # share of possible keys that would fall back
    per_act_condition: dict  # (act, condition) -> dict of slice stats

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "fallback_threshold": self.fallback_threshold,
            "possible_keys": self.possible_keys,
            "observed_keys": self.observed_keys,
            "fallback_fraction": self.fallback_fraction,
            "per_act_condition": [
                {"act": act.value, "condition": cond, **stats}
                for (act, cond), stats in sorted(
                    self.per_act_condition.items(),
                    key=lambda kv: (ACT_ORDER.index(kv[0][0]), kv[0][1]),
                )
            ],
        }


def table_summary(table: BehaviorTable) -> TableSummary:
    conditions = table.mode.conditions()
    possible = len(ALL_TRAIT_TUPLES) * len(ACT_ORDER) * len(conditions)
    direct_keys = {k for k, (_, fell_back, _) in table.resolved.items() if not fell_back}
    per_slice = {}
    for act in ACT_ORDER:
        for cond in conditions:
            fb = table.fallback_cells.get((act, cond))
            at_or_above = sum(ContextKey(tt, act, cond) in direct_keys
                              for tt in ALL_TRAIT_TUPLES)
            per_slice[(act, cond)] = {
                "n": fb.n if fb is not None else 0,
                "trait_cells_observed": sum(
                    1 for tt in ALL_TRAIT_TUPLES
                    if ContextKey(tt, act, cond) in table.cells
                ),
                "trait_cells_at_threshold": at_or_above,
                "fallback_fraction": 1.0 - at_or_above / len(ALL_TRAIT_TUPLES),
            }
    return TableSummary(
        mode=table.mode,
        fallback_threshold=table.fallback_threshold,
        possible_keys=possible,
        observed_keys=len(table.cells),
        fallback_fraction=1.0 - len(direct_keys) / possible,
        per_act_condition=per_slice,
    )


TABLE_FORMAT = "behavior-table/v1"


def _combo_to_dict(c: ComboStats) -> dict:
    return {
        "n": c.n,
        "score_mean": c.score_mean, "score_sd": c.score_sd,
        "duration_mean": c.duration_mean, "duration_sd": c.duration_sd,
        "difficulty_counts": list(c.difficulty_counts),
    }


def _int_entry(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InvalidConfig(f"table entry {name!r} must be an int >= 0, got {value!r}")
    return value


def _counts_entry(value, name: str, length: int) -> tuple:
    if not isinstance(value, list) or len(value) != length:
        raise InvalidConfig(f"table entry {name!r} must list {length} counts, "
                            f"got {value!r}")
    return tuple(_int_entry(v, name) for v in value)


def _combo_from_dict(d: dict) -> ComboStats:
    return ComboStats(
        n=_int_entry(d["n"], "n"),
        **{name: d[name] for name in _STAT_MIN},
        difficulty_counts=_counts_entry(d["difficulty_counts"], "difficulty_counts",
                                        N_DIFFICULTY_CLASSES),
    )


def _cell_to_dict(cell: CellStats) -> dict:
    return {
        "n": cell.n,
        "request_counts": list(cell.request_counts),
        "combos": [_combo_to_dict(c) for c in cell.combos],
    }


def _cell_from_dict(d: dict) -> CellStats:
    return CellStats(
        n=_int_entry(d["n"], "n"),
        request_counts=_counts_entry(d["request_counts"], "request_counts",
                                     len(REQUEST_COMBOS)),
        combos=tuple(_combo_from_dict(c) for c in d["combos"]),
    )


def table_to_json_dict(table: BehaviorTable) -> dict:
    cells = [
        {"traits": key.trait_tuple.bits, "act": key.proactive_act.value,
         "condition": key.condition, **_cell_to_dict(cell)}
        for key, cell in sorted(
            table.cells.items(),
            key=lambda kv: (kv[0].trait_tuple.bits,
                            ACT_ORDER.index(kv[0].proactive_act), kv[0].condition),
        )
    ]
    fallback = [
        {"act": act.value, "condition": cond, **_cell_to_dict(cell)}
        for (act, cond), cell in sorted(
            table.fallback_cells.items(),
            key=lambda kv: (ACT_ORDER.index(kv[0][0]), kv[0][1]),
        )
    ]
    condition = [
        {"condition": cond, **_cell_to_dict(cell)}
        for cond, cell in sorted(table.condition_cells.items())
    ]
    return {
        "format": TABLE_FORMAT,
        "mode": table.mode.value,
        "fallback_threshold": table.fallback_threshold,
        "cells": cells,
        "fallback_cells": fallback,
        "condition_cells": condition,
    }


def table_from_json_dict(payload) -> BehaviorTable:
    if not isinstance(payload, dict):
        raise InvalidConfig(f"table JSON must be an object, got {type(payload).__name__}")
    if payload.get("format") != TABLE_FORMAT:
        raise InvalidConfig(f"unsupported table format {payload.get('format')!r}")
    try:
        mode = TableMode(payload["mode"])
        cells = {
            ContextKey(TraitTuple.from_bits(e["traits"]), ProactiveAct(e["act"]),
                       _int_entry(e["condition"], "condition")): _cell_from_dict(e)
            for e in payload["cells"]
        }
        fallback = {
            (ProactiveAct(e["act"]), _int_entry(e["condition"], "condition")):
                _cell_from_dict(e)
            for e in payload["fallback_cells"]
        }
        condition = {_int_entry(e["condition"], "condition"): _cell_from_dict(e)
                     for e in payload["condition_cells"]}
        threshold = payload["fallback_threshold"]
    except KeyError as exc:
        raise InvalidConfig(f"table is missing key {exc}") from exc
    # ValueError: a mode or act value that names no member; TypeError: a
    # list, cell or combo of the wrong JSON type
    except (ValueError, TypeError) as exc:
        raise InvalidConfig(f"malformed table: {exc}") from exc
    # a dict keeps the last of two entries for one context: count them
    for section, parsed in (("cells", cells), ("fallback_cells", fallback),
                            ("condition_cells", condition)):
        if len(parsed) != len(payload[section]):
            raise InvalidConfig(f"table entry {section!r} lists a context twice")
    _check_threshold(threshold)
    return BehaviorTable(
        mode=mode, fallback_threshold=threshold,
        cells=cells, fallback_cells=fallback, condition_cells=condition,
    )


def save_table(table: BehaviorTable, path) -> None:
    Path(path).write_text(
        json.dumps(table_to_json_dict(table), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_table(path) -> BehaviorTable:
    return table_from_json_dict(read_json(path, "table"))
