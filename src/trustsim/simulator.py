"""Turn-level user simulation driven by conditional behavior tables.

One turn: binarize the profile, look up the context cell (with
fallback), sample the request combination, then sample difficulty,
duration, and game score conditional on that combination. Each field
reads a named substream so draws never bleed across fields.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .behavior_tables import (
    BehaviorTable,
    ContextKey,
    REQUEST_COMBOS,
    TableMode,
    lookup,
    resolve_combo_stats,
)
from .corpus import (
    Corpus,
    LIKERT_MAX,
    LIKERT_MIN,
    MIN_DURATION_S,
    OPTION_SCORE_UNIT,
    ProactiveAct,
    complexity_of_step,
    max_option_score,
)
from .errors import InvalidConfig, ValueOutOfRange
from .sampling import RandomStream, categorical, truncated_gaussian
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


@dataclass(frozen=True)
class ReplayRecord:
    """One simulated turn pinned to the real exchange it mirrors."""

    user_id: str
    dialog_id: str
    step: int
    complexity: int
    proactive_act: ProactiveAct
    turn: SimulatedTurn


@dataclass(frozen=True)
class SimulatedLog:
    records: tuple

    def __len__(self):
        return len(self.records)

    def fallback_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.turn.used_fallback for r in self.records) / len(self.records)


def replay_conditions(corpus: Corpus, table: BehaviorTable,
                      rng: RandomStream) -> SimulatedLog:
    """Simulate a turn for every exchange under its recorded (user, step,
    act) context; output order matches the corpus's canonical exchange
    order, so record i pairs with exchange i."""
    records = []
    for user in corpus.users:
        for ex in corpus.dialogs[user.user_id]:
            turn = simulate_turn(table, user, ex.step, ex.proactive_act,
                                 rng.child(user.user_id, ex.step))
            records.append(ReplayRecord(
                user_id=user.user_id, dialog_id=ex.dialog_id, step=ex.step,
                complexity=ex.complexity, proactive_act=ex.proactive_act,
                turn=turn,
            ))
    return SimulatedLog(records=tuple(records))


LOG_COLUMNS = (
    "user_id", "dialog_id", "step", "complexity", "proactive_act",
    "game_score", "help_request", "suggestion_request", "duration",
    "difficulty", "used_fallback",
)

_TURN_FIELDS = tuple(f.name for f in fields(SimulatedTurn))


def _record_row(rec: ReplayRecord) -> dict:
    row = {
        "user_id": rec.user_id, "dialog_id": rec.dialog_id, "step": rec.step,
        "complexity": rec.complexity, "proactive_act": rec.proactive_act.value,
    }
    for name in _TURN_FIELDS:
        value = getattr(rec.turn, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        row[name] = value
    return row


def save_simulated_log(log: SimulatedLog, path, file_format: str | None = None) -> None:
    path = Path(path)
    if file_format is None:
        file_format = "jsonl" if path.suffix == ".jsonl" else "csv"
    rows = [_record_row(r) for r in log.records]
    if file_format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    elif file_format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        raise InvalidConfig(f"unknown log format {file_format!r}")
