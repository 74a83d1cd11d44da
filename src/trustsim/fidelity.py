"""Fidelity evaluation: per-step KL divergence and MSE between real and
simulated behavior, aggregated per measure and overall.

Convention throughout: P is the real corpus, Q the simulator. KL uses
base-2 logs; histograms get additive smoothing then renormalization so
divergences stay finite off the shared support.
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
from .errors import EmptySequence, LengthMismatch, NegativeEntry, ValueOutOfRange
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
_SCORE_GRID = np.array(SCORE_SUPPORT)


def _check_finite(field: str, x: np.ndarray) -> None:
    """Raise ValueOutOfRange on the first nan or infinite entry of x."""
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueOutOfRange(field, float(x[bad][0]), detail="must be finite")


def kl_divergence(p, q) -> float:
    """Base-2 KL divergence D(P || Q) of the renormalized vectors; mass of
    P on a zero of Q yields inf, and 0 * log(0/q) contributes 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatch(f"shape mismatch: {p.shape} vs {q.shape}")
    _check_finite("p", p)
    _check_finite("q", q)
    if (p < 0).any() or (q < 0).any():
        raise NegativeEntry("probability vectors must be non-negative")
    # a vector whose sum leaves the float range is scaled by its maximum first
    with np.errstate(over="ignore"):
        p, q = (x if np.isfinite(x.sum()) else x / x.max() for x in (p, q))
    psum, qsum = p.sum(), q.sum()
    if psum <= 0 or qsum <= 0:
        raise EmptySequence("probability vector has no mass")
    p = p / psum
    q = q / qsum
    total = 0.0
    # Python floats: pi / qi overflows to inf silently, where numpy scalars warn
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log2(pi / qi)
    # float error can leave a tiny negative residue on equal vectors
    return max(0.0, total)


def mse(simulated, reference) -> float:
    """Mean squared error over index-aligned pairs; booleans count 0/1."""
    sim = np.asarray(simulated, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if sim.shape != ref.shape or sim.ndim != 1:
        raise LengthMismatch(f"shape mismatch: {sim.shape} vs {ref.shape}")
    if sim.size == 0:
        raise EmptySequence("cannot average zero squared errors")
    _check_finite("simulated", sim)
    _check_finite("reference", ref)
    with np.errstate(over="ignore"):
        error = float(np.mean((sim - ref) ** 2))
    if not math.isfinite(error):
        raise ValueOutOfRange("mean squared error", error,
                              detail="overflows the float range")
    return error


def estimate_distribution(values, measure: Measure) -> np.ndarray:
    """Empirical histogram on the measure's support, smoothed by
    DEFAULT_SMOOTHING and renormalized. Score samples snap to the nearest
    attainable option score, ties to the lower one; durations clip into
    MIN_DURATION_S..DURATION_HI, in DURATION_BINS bins."""
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise EmptySequence(f"no samples for {measure.value}")
    _check_finite(_MEASURE_FIELDS[measure], x)
    if measure is Measure.GAME_SCORE:
        # argmin keeps the first of equal distances
        idx = np.argmin(np.abs(_SCORE_GRID - x[:, None]), axis=1)
        n_bins = len(SCORE_SUPPORT)
    elif measure is Measure.DURATION:
        n_bins = DURATION_BINS
        idx = np.minimum(((np.clip(x, MIN_DURATION_S, DURATION_HI) - MIN_DURATION_S)
                          / _DURATION_BIN_WIDTH).astype(int), n_bins - 1)
    elif measure is Measure.DIFFICULTY:
        idx = x.astype(int) - LIKERT_MIN
        n_bins = N_DIFFICULTY_CLASSES
        outside = (idx < 0) | (idx >= n_bins)
        if outside.any():
            raise ValueOutOfRange("difficulty", x[outside][0], detail="must be in 1..5")
    else:
        idx = (x != 0).astype(int)
        n_bins = 2
    counts = np.bincount(idx, minlength=n_bins)
    probs = counts / counts.sum() + DEFAULT_SMOOTHING
    return probs / probs.sum()


# The column each measure reads, of a Corpus and of a SimulatedLog.
_MEASURE_FIELDS = {
    Measure.GAME_SCORE: "game_score",
    Measure.DURATION: "duration",
    Measure.DIFFICULTY: "difficulty",
    Measure.HELP_REQUEST: "help_request",
    Measure.SUGGESTION_REQUEST: "suggestion_request",
}


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
    measure compared at each step."""
    corpus = simulated.corpus
    at_step = [corpus.step == step for step in range(1, STEPS_PER_DIALOG + 1)]
    per_step_kl = {}
    per_step_mse = {}
    for measure in MEASURES:
        name = _MEASURE_FIELDS[measure]
        real = np.asarray(getattr(corpus, name), dtype=float)
        sim = np.asarray(getattr(simulated, name), dtype=float)
        kls, mses = [], []
        for rows in at_step:
            real_vals, sim_vals = real[rows], sim[rows]
            p = estimate_distribution(real_vals, measure)
            q = estimate_distribution(sim_vals, measure)
            kls.append(kl_divergence(p, q))
            mses.append(mse(sim_vals, real_vals))
        per_step_kl[measure] = tuple(kls)
        per_step_mse[measure] = tuple(mses)

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
