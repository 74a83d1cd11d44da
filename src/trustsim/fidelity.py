"""Fidelity evaluation: per-step KL divergence and MSE between real and
simulated behavior, aggregated per measure and overall.

Convention throughout: P is the real corpus, Q the simulator. KL uses
base-2 logs; histograms get additive smoothing then renormalization so
divergences stay finite off the shared support.

`evaluate_simulator` makes one array pass a measure. It lays the corpus
and log columns out step-major, a (step, real then simulated, dialog)
array in C order, since exchange i is dialog i // 12 at step i % 12 + 1.
It takes the rows' mean squared errors, bins every row at once with one
bincount over row x bin, and runs the Python-float KL loop on each (real,
simulated) row pair. It checks no sample: a `Corpus` and a `SimulatedLog`
refuse, when they are built, any value these histograms have no bin for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .behavior_tables import (
    DEFAULT_FALLBACK_THRESHOLD,
    N_DIFFICULTY_CLASSES,
    TableMode,
    build_table,
)
from .corpus import (
    COMPLEXITY_LEVELS,
    Corpus,
    DURATION_HI,
    LIKERT_MIN,
    MIN_DURATION_S,
    OPTION_SCORE_UNIT,
    STEPS_PER_DIALOG,
    split_corpus,
)
from .errors import EmptySequence, ValueOutOfRange
from .sampling import RandomStream
from .simulator import SimulatedLog, replay_conditions

DEFAULT_SMOOTHING = 1e-6
# Duration histograms: 20 equal bins over the range every duration is drawn in
DURATION_BINS = 20
_DURATION_BIN_WIDTH = (DURATION_HI - MIN_DURATION_S) / DURATION_BINS


class Measure(Enum):
    GAME_SCORE = "GameScore"
    DURATION = "Duration"
    DIFFICULTY = "Difficulty"
    HELP_REQUEST = "HelpRequest"
    SUGGESTION_REQUEST = "SuggestionRequest"


MEASURES = tuple(Measure)

# All option scores any step can award.
SCORE_SUPPORT = tuple(
    OPTION_SCORE_UNIT * i for i in range(1, max(COMPLEXITY_LEVELS) + 1)
)


# The column each measure reads, of a Corpus and of a SimulatedLog.
_MEASURE_FIELDS = {
    Measure.GAME_SCORE: "game_score",
    Measure.DURATION: "duration",
    Measure.DIFFICULTY: "difficulty",
    Measure.HELP_REQUEST: "help_request",
    Measure.SUGGESTION_REQUEST: "suggestion_request",
}


def _histograms(rows: np.ndarray, measure: Measure) -> np.ndarray:
    """One histogram per row of samples, on the measure's support, smoothed
    by DEFAULT_SMOOTHING and renormalized: the bin indices once, then one
    bincount over row x bin. Score samples snap to the nearest option
    score, the lower of two as near; durations clip into
    MIN_DURATION_S..DURATION_HI, in DURATION_BINS bins; a difficulty is a
    whole number in 1..5 and a request 0 or 1, as a SimulatedLog and a
    Corpus hold them."""
    if measure is Measure.GAME_SCORE:
        # the nearest option score, the first of equal distances
        idx = np.zeros(rows.shape, dtype=int)
        nearest = np.abs(SCORE_SUPPORT[0] - rows)
        for i, score in enumerate(SCORE_SUPPORT[1:], 1):
            distance = np.abs(score - rows)
            np.copyto(idx, i, where=distance < nearest)
            np.minimum(nearest, distance, out=nearest)
        n_bins = len(SCORE_SUPPORT)
    elif measure is Measure.DURATION:
        n_bins = DURATION_BINS
        idx = np.minimum(((np.clip(rows, MIN_DURATION_S, DURATION_HI) - MIN_DURATION_S)
                          / _DURATION_BIN_WIDTH).astype(int), n_bins - 1)
    elif measure is Measure.DIFFICULTY:
        idx = rows.astype(int) - LIKERT_MIN
        n_bins = N_DIFFICULTY_CLASSES
    else:
        idx = rows.astype(int)
        n_bins = 2
    n_rows = len(rows)
    idx += n_bins * np.arange(n_rows)[:, None]
    counts = np.bincount(idx.ravel(), minlength=n_rows * n_bins).reshape(n_rows, n_bins)
    probs = counts / counts.sum(axis=1, keepdims=True) + DEFAULT_SMOOTHING
    return probs / probs.sum(axis=1, keepdims=True)


def _kl_divergences(p: np.ndarray, q: np.ndarray) -> list:
    """The base-2 KL divergence of each row pair of p and q, non-negative
    rows of positive sum, renormalized."""
    p = p / p.sum(axis=1, keepdims=True)
    q = q / q.sum(axis=1, keepdims=True)
    return [_kl_of(p_row, q_row) for p_row, q_row in zip(p.tolist(), q.tolist())]


def _kl_of(p: list, q: list) -> float:
    total = 0.0
    # Python floats: pi / qi overflows to inf silently, where numpy scalars warn
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log2(pi / qi)
    # float error can leave a tiny negative residue on equal vectors
    return max(0.0, total)


def _mean_squared_errors(simulated: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The mean squared error of each row pair of samples, the sum over n
    as np.mean takes it: inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.add.reduce((simulated - reference) ** 2, axis=1) / simulated.shape[1]


@dataclass(frozen=True)
class FidelityReport:
    """Per-measure and overall distances for one simulation mode.

    per_step_kl / per_step_mse hold the 12 step values per measure; the
    summary rows are their means and population SDs, and the overall row
    pools all measure x step values.
    """

    mode_tag: str
    per_step_kl: dict  # Measure -> tuple of 12 floats
    per_step_mse: dict
    fallback_rate: float

    def summary_rows(self):
        """(row name, KL mean, KL SD, MSE mean, MSE SD) per measure, then for
        Overall; every report rendering reads these rows."""
        groups = [(m.value, self.per_step_kl[m], self.per_step_mse[m]) for m in MEASURES]
        groups.append(("Overall", [v for m in MEASURES for v in self.per_step_kl[m]],
                       [v for m in MEASURES for v in self.per_step_mse[m]]))
        for name, kl, se in groups:
            kl, se = np.asarray(kl, dtype=float), np.asarray(se, dtype=float)
            yield (name, float(kl.mean()), float(kl.std(ddof=0)),
                   float(se.mean()), float(se.std(ddof=0)))

    def to_json_dict(self) -> dict:
        rows = {name: {"kl_mean": km, "kl_sd": ks, "mse_mean": mm, "mse_sd": ms}
                for name, km, ks, mm, ms in self.summary_rows()}
        for m in MEASURES:
            rows[m.value].update(kl_per_step=list(self.per_step_kl[m]),
                                 mse_per_step=list(self.per_step_mse[m]))
        return {"mode": self.mode_tag, "fallback_rate": self.fallback_rate,
                "rows": rows}


def evaluate_simulator(simulated: SimulatedLog, mode_tag: str) -> FidelityReport:
    """Distances between a replay log and the corpus it replayed, each
    measure compared at each step in one array pass. The log and the corpus
    checked their samples when they were built, so only an empty corpus
    (EmptySequence) and a step whose squared errors overflow
    (ValueOutOfRange) are refused here."""
    corpus = simulated.corpus
    n = corpus.n_dialogs
    per_step_kl = {}
    per_step_mse = {}
    for measure in MEASURES:
        if not n:
            raise EmptySequence(f"no samples for {measure.value}")
        name = _MEASURE_FIELDS[measure]
        # (step, real then simulated, dialog), in C order, so each row sums
        # as the step's samples alone do: exchange i is dialog i // 12 at
        # step i % 12 + 1
        pairs = np.empty((STEPS_PER_DIALOG, 2, n))
        for side, source in enumerate((corpus, simulated)):
            pairs[:, side] = np.reshape(getattr(source, name), (n, STEPS_PER_DIALOG)).T
        errors = _mean_squared_errors(pairs[:, 1], pairs[:, 0])
        # every sample is finite, so only a step's sum of squares can leave
        # the float range
        unfit = ~np.isfinite(errors)
        if unfit.any():
            raise ValueOutOfRange("mean squared error", float(errors[unfit][0]),
                                  detail="overflows the float range")
        probs = _histograms(pairs.reshape(2 * STEPS_PER_DIALOG, n), measure)
        per_step_kl[measure] = tuple(_kl_divergences(probs[0::2], probs[1::2]))
        per_step_mse[measure] = tuple(errors.tolist())

    return FidelityReport(
        mode_tag=mode_tag, per_step_kl=per_step_kl, per_step_mse=per_step_mse,
        fallback_rate=simulated.fallback_rate(),
    )


@dataclass(frozen=True)
class ModeComparison:
    reports: dict  # TableMode -> FidelityReport

    def to_json_dict(self) -> dict:
        return {mode.value: rep.to_json_dict() for mode, rep in self.reports.items()}


def compare_modes(corpus: Corpus, seed: int, train_fraction: float = 0.8,
                  fallback_threshold: int = DEFAULT_FALLBACK_THRESHOLD) -> ModeComparison:
    """Fit both conditioning modes on a train split, replay the test
    split's conditions with each, and report both fidelity tables."""
    train, test = split_corpus(corpus, train_fraction, seed)
    reports = {}
    for mode in (TableMode.COMPLEXITY_BASED, TableMode.TASK_STEP_BASED):
        table = build_table(train, mode, fallback_threshold)
        log = replay_conditions(test, table,
                                RandomStream(seed, "replay", mode.value))
        reports[mode] = evaluate_simulator(log, mode.value)
    return ModeComparison(reports=reports)


def _report_items(reports) -> list:
    """The FidelityReports of a ModeComparison, or a single report."""
    if isinstance(reports, ModeComparison):
        return list(reports.reports.values())
    return [reports]


def render_report_text(reports) -> str:
    """Aligned side-by-side table: one row per measure plus Overall,
    KL mean (SD) and MSE mean (SD) per mode."""
    items = _report_items(reports)
    name_w = max(len(m.value) for m in MEASURES) + 2
    col_w = 24
    lines = []
    header = " " * name_w + "".join(f"{r.mode_tag:>{2 * col_w}}" for r in items)
    lines.append(header)
    sub = " " * name_w + "".join(
        f"{'KL mean (SD)':>{col_w}}{'MSE mean (SD)':>{col_w}}" for _ in items
    )
    lines.append(sub)

    def fmt(mean, sd):
        return f"{mean:.3f} ({sd:.3f})"

    # one summary row per report for each row name
    for same_name in zip(*(r.summary_rows() for r in items)):
        row = f"{same_name[0][0]:<{name_w}}"
        for _, km, ks, mm, ms in same_name:
            row += f"{fmt(km, ks):>{col_w}}{fmt(mm, ms):>{col_w}}"
        lines.append(row)
    lines.append("")
    lines.append("fallback rates: " + ", ".join(
        f"{r.mode_tag}={r.fallback_rate:.3f}" for r in items
    ))
    return "\n".join(lines) + "\n"


def report_csv_rows(reports) -> list:
    """Flat CSV rows: mode, measure, kl_mean, kl_sd, mse_mean, mse_sd."""
    rows = [("mode", "measure", "kl_mean", "kl_sd", "mse_mean", "mse_sd")]
    for r in _report_items(reports):
        rows.extend((r.mode_tag, name, *map(repr, values))
                    for name, *values in r.summary_rows())
    return rows
