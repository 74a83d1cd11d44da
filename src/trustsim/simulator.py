"""Turn-level user simulation driven by conditional behavior tables.

One turn: binarize the profile, look up the context cell (with
fallback), sample the request combination, then sample difficulty,
duration, and game score conditional on that combination. Each field
reads a named substream so draws never bleed across fields.

`simulate_turn` draws one turn (the RL environment's path).
`replay_conditions` draws a turn for every corpus exchange at once: the
stream keys and uniforms as uint64 arrays, the table cells as gathers
from the drawn contexts and combinations, the categoricals as counts, and
only `inv_cdf` per element. Its columnar `SimulatedLog` equals, bit for
bit, what `simulate_turn` gives turn by turn.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .behavior_tables import (
    BehaviorTable,
    ContextKey,
    N_DIFFICULTY_CLASSES,
    REQUEST_COMBOS,
    TableMode,
    lookup,
    resolve_combo_stats,
)
from .corpus import (
    ACT_ORDER,
    Corpus,
    LIKERT_MAX,
    LIKERT_MIN,
    MIN_DURATION_S,
    OPTION_SCORE_UNIT,
    ProactiveAct,
    STEPS_PER_DIALOG,
    complexity_of_step,
    max_option_score,
)
from .errors import InvalidBounds, InvalidConfig, LengthMismatch, ValueOutOfRange
from .sampling import (
    RandomStream,
    categorical,
    categoricals,
    child_keys,
    cumulative_weights,
    first_uniforms,
    gaussian_truncation,
    label_bits,
    truncated_gaussian,
    truncated_gaussians,
)
from .user_model import UserProfile, binarize_traits

# Upper truncation bound of simulated durations, in seconds.
DURATION_HI = 300.0


@dataclass(frozen=True)
class SimulatedTurn:
    help_request: bool
    suggestion_request: bool
    duration: float
    difficulty: int
    game_score: float
    used_fallback: bool

    def __post_init__(self):
        if not self.duration > MIN_DURATION_S:
            raise ValueOutOfRange("duration", self.duration,
                                  detail=f"must exceed {MIN_DURATION_S}")
        if (isinstance(self.difficulty, bool) or not isinstance(self.difficulty, int)
                or not LIKERT_MIN <= self.difficulty <= LIKERT_MAX):
            raise ValueOutOfRange("difficulty", self.difficulty)
        if self.game_score < 0:
            raise ValueOutOfRange("game_score", self.game_score)


def simulate_turn(table: BehaviorTable, profile: UserProfile, step: int,
                  act: ProactiveAct, rng: RandomStream) -> SimulatedTurn:
    complexity = complexity_of_step(step)
    condition = step if table.mode is TableMode.TASK_STEP_BASED else complexity
    key = ContextKey(binarize_traits(profile), act, condition)
    cell, used_fallback = lookup(table, key)

    combo_idx = categorical(cell.request_probs, rng.child("requests"))
    help_request, suggestion_request = REQUEST_COMBOS[combo_idx]
    stats = resolve_combo_stats(table, key, combo_idx)

    counts = stats.difficulty_counts
    total = sum(counts)
    probs = tuple(c / total for c in counts)
    difficulty = LIKERT_MIN + categorical(probs, rng.child("difficulty"))

    duration = truncated_gaussian(stats.duration_mean, stats.duration_sd,
                                  MIN_DURATION_S, DURATION_HI,
                                  rng.child("duration"))
    duration = max(duration, math.nextafter(MIN_DURATION_S, math.inf))

    game_score = truncated_gaussian(stats.score_mean, stats.score_sd,
                                    OPTION_SCORE_UNIT, max_option_score(complexity),
                                    rng.child("score"))

    return SimulatedTurn(
        help_request=help_request,
        suggestion_request=suggestion_request,
        duration=duration,
        difficulty=difficulty,
        game_score=game_score,
        used_fallback=used_fallback,
    )


# Columns of a replay log in file order, with the numpy dtype each is held
# in; None keeps a tuple of the corpus's own values.
_LOG_DTYPES = {
    "user_id": None, "dialog_id": None, "step": np.int64, "complexity": np.int64,
    "proactive_act": None, "game_score": np.float64, "help_request": bool,
    "suggestion_request": bool, "duration": np.float64, "difficulty": np.int64,
    "used_fallback": bool,
}
LOG_COLUMNS = tuple(_LOG_DTYPES)


@dataclass(frozen=True, eq=False)
class SimulatedLog:
    """A replay in columns: row i is the simulated turn for corpus
    exchange i. The first five columns copy the exchange's context, the
    other six are drawn. Numeric columns are read-only numpy arrays."""

    user_id: tuple
    dialog_id: tuple
    step: np.ndarray
    complexity: np.ndarray
    proactive_act: tuple
    game_score: np.ndarray
    help_request: np.ndarray
    suggestion_request: np.ndarray
    duration: np.ndarray
    difficulty: np.ndarray
    used_fallback: np.ndarray

    def __post_init__(self):
        for name, dtype in _LOG_DTYPES.items():
            column = getattr(self, name)
            if dtype is None:
                column = tuple(column)
            else:
                column = np.array(column, dtype=dtype)
                column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len({len(getattr(self, name)) for name in LOG_COLUMNS}) > 1:
            raise LengthMismatch("simulated log columns differ in length")

    def __len__(self):
        return len(self.user_id)

    def __eq__(self, other):
        if not isinstance(other, SimulatedLog):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in LOG_COLUMNS)

    def fallback_rate(self) -> float:
        if not len(self):
            return 0.0
        return int(np.count_nonzero(self.used_fallback)) / len(self)


_ACT_CODE = {act: i for i, act in enumerate(ACT_ORDER)}
_STEP_BITS = label_bits(range(STEPS_PER_DIALOG + 1))
_COMBO_FLAGS = np.array(REQUEST_COMBOS, dtype=bool)
_DURATION_FLOOR = math.nextafter(MIN_DURATION_S, math.inf)
# request cumulatives standing in for a context with no rung; its turns
# are flagged as failed and never reach the log
_NO_RUNG = (1.0,) * len(REQUEST_COMBOS)


def replay_conditions(corpus: Corpus, table: BehaviorTable,
                      rng: RandomStream) -> SimulatedLog:
    """Simulate a turn for every exchange under its recorded (user, step,
    act) context; row i pairs with exchange i of the corpus's canonical
    order. Turn i equals `simulate_turn` on `rng.child(user_id, step)`,
    and the first turn `simulate_turn` would fail on raises its error.

    Every turn is drawn at once. Only the (context, combination) pairs
    that are drawn are compiled and checked, as the scalar path checks
    only what it samples.
    """
    users = corpus.users
    dialogs = [corpus.dialogs[user.user_id] for user in users]
    owner = np.repeat(np.arange(len(users)), [len(d) for d in dialogs])
    exchanges = [ex for dialog in dialogs for ex in dialog]
    dialog_id = [ex.dialog_id for ex in exchanges]
    step = np.array([ex.step for ex in exchanges], dtype=np.int64)
    complexity = np.array([ex.complexity for ex in exchanges], dtype=np.int64)
    acts = [ex.proactive_act for ex in exchanges]

    # one code per context key; the conditions of both modes are below 16
    traits = [binarize_traits(user) for user in users]
    trait = np.array([t.index for t in traits], dtype=np.int64)[owner]
    act = np.array([_ACT_CODE[a] for a in acts], dtype=np.int64)
    condition = step if table.mode is TableMode.TASK_STEP_BASED else complexity
    _, key_first, key_of = np.unique((trait * len(ACT_ORDER) + act) * 16 + condition,
                                     return_index=True, return_inverse=True)
    entries = [table.resolved.get(ContextKey(traits[owner[i]], acts[i],
                                             int(condition[i])))
               for i in key_first.tolist()]
    request_cum = np.array([cumulative_weights(e[0].request_probs) if e else _NO_RUNG
                            for e in entries]).reshape(-1, len(REQUEST_COMBOS))
    key_fallback = np.array([bool(e and e[1]) for e in entries], dtype=bool)

    user_keys = child_keys(rng.key, label_bits(user.user_id for user in users))
    turn_keys = child_keys(user_keys[owner], _STEP_BITS[step])

    def uniforms(field: str) -> np.ndarray:
        return first_uniforms(child_keys(turn_keys, label_bits([field])))

    combo = categoricals(request_cum[key_of], uniforms("requests"))
    _, pair_first, pair_of = np.unique(key_of * len(REQUEST_COMBOS) + combo,
                                       return_index=True, return_inverse=True)
    rows, pair_failed = _compile_pairs(entries, key_of[pair_first], combo[pair_first],
                                       complexity[pair_first])
    # gathered field by field, so no temporary holds a whole row per turn
    difficulty = LIKERT_MIN + categoricals(rows[pair_of, _DIFFICULTY],
                                           uniforms("difficulty"))
    duration = np.maximum(
        truncated_gaussians(rows[pair_of, _DURATION_MEAN], rows[pair_of, _DURATION],
                            MIN_DURATION_S, DURATION_HI, uniforms("duration")),
        _DURATION_FLOOR)
    game_score = truncated_gaussians(rows[pair_of, _SCORE_MEAN], rows[pair_of, _SCORE],
                                     OPTION_SCORE_UNIT, max_option_score(complexity),
                                     uniforms("score"))

    # a failed pair, or a value the SimulatedTurn checks reject
    failed = pair_failed[pair_of] | ~(duration > MIN_DURATION_S) | (game_score < 0)
    if failed.any():
        i = int(failed.argmax())
        user = users[owner[i]]
        # the scalar loop stops at this turn too: let it raise its error
        simulate_turn(table, user, exchanges[i].step, acts[i],
                      rng.child(user.user_id, exchanges[i].step))
        raise AssertionError(f"turn {i} failed in the batch only")

    flags = _COMBO_FLAGS[combo]
    return SimulatedLog(
        user_id=[users[j].user_id for j in owner.tolist()],
        dialog_id=dialog_id, step=step, complexity=complexity, proactive_act=acts,
        game_score=game_score, help_request=flags[:, 0], suggestion_request=flags[:, 1],
        duration=duration, difficulty=difficulty, used_fallback=key_fallback[key_of],
    )


# A compiled pair is one row: the difficulty cumulatives, then the mean
# and the `gaussian_truncation` of the duration, then those of the score.
_DIFFICULTY = slice(0, N_DIFFICULTY_CLASSES)
_DURATION_MEAN = N_DIFFICULTY_CLASSES
_DURATION = slice(_DURATION_MEAN + 1, _DURATION_MEAN + 4)
_SCORE_MEAN = _DURATION_MEAN + 4
_SCORE = slice(_SCORE_MEAN + 1, _SCORE_MEAN + 4)
# the row of a pair simulate_turn fails on; its turns never reach the log
_FAILED_ROW = ((1.0,) * N_DIFFICULTY_CLASSES
               + (0.0, *gaussian_truncation(0.0, 0.0, 0.0, 1.0)) * 2)


def _pair_row(stats, score_hi) -> tuple:
    """The row of one combination's statistics, computed and checked as
    simulate_turn computes and checks them, in its order."""
    counts = stats.difficulty_counts
    total = sum(counts)
    difficulty = cumulative_weights(tuple(c / total for c in counts))
    duration = gaussian_truncation(stats.duration_mean, stats.duration_sd,
                                   MIN_DURATION_S, DURATION_HI)
    score = gaussian_truncation(stats.score_mean, stats.score_sd,
                                OPTION_SCORE_UNIT, score_hi)
    return (*difficulty, stats.duration_mean, *duration, stats.score_mean, *score)


def _compile_pairs(entries, keys, combos, complexities) -> tuple:
    """(rows, failed): the row of pair j = (entries[keys[j]], combos[j]),
    and whether simulate_turn fails on it."""
    rows, failed = [], []
    for key, combo, k in zip(keys.tolist(), combos.tolist(), complexities.tolist()):
        entry = entries[key]
        try:
            row = entry and _pair_row(entry[2][combo], max_option_score(k))
        except (InvalidBounds, ArithmeticError):
            row = None
        rows.append(row or _FAILED_ROW)
        failed.append(not row)
    return (np.array(rows, dtype=np.float64).reshape(-1, len(_FAILED_ROW)),
            np.array(failed, dtype=bool))


def _log_cells(column) -> list:
    """One log column as file cells: acts by value, booleans as
    true/false, floats by repr (the shortest exact round trip)."""
    if not isinstance(column, np.ndarray):
        return [v.value if isinstance(v, Enum) else v for v in column]
    if column.dtype == bool:
        return ["true" if v else "false" for v in column.tolist()]
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    return column.tolist()


def save_simulated_log(log: SimulatedLog, path, file_format: str | None = None) -> None:
    path = Path(path)
    if file_format is None:
        file_format = "jsonl" if path.suffix == ".jsonl" else "csv"
    if file_format not in ("csv", "jsonl"):
        raise InvalidConfig(f"unknown log format {file_format!r}")
    rows = zip(*(_log_cells(getattr(log, name)) for name in LOG_COLUMNS))
    if file_format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(LOG_COLUMNS)
            writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(LOG_COLUMNS, row)), sort_keys=True) + "\n")
