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
    LIKERT_MIN,
    MIN_DURATION_S,
    OPTION_SCORE_UNIT,
    STEPS_PER_DIALOG,
    split_corpus,
)
from .errors import (
    AlignmentError,
    EmptySequence,
    InvalidConfig,
    LengthMismatch,
    NegativeEntry,
    ValueOutOfRange,
)
from .sampling import RandomStream
from .simulator import DURATION_HI, SimulatedLog, replay_conditions

DEFAULT_SMOOTHING = 1e-6


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


@dataclass(frozen=True)
class BinningConfig:
    """Histogram ranges of the fidelity estimates; they do not change what
    the simulator draws."""

    duration_lo: float = MIN_DURATION_S
    duration_hi: float = DURATION_HI
    duration_bins: int = 20
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self):
        if not self.duration_hi > self.duration_lo:
            raise InvalidConfig("duration_hi must exceed duration_lo")
        if self.duration_bins < 2:
            raise InvalidConfig("need at least 2 duration bins")
        if self.smoothing < 0:
            raise InvalidConfig("smoothing must be >= 0")


def kl_divergence(p, q, smoothing: float = 0.0) -> float:
    """Base-2 KL divergence D(P || Q); with smoothing 0, mass of P on a
    zero of Q yields inf, and 0 * log(0/q) contributes 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatch(f"shape mismatch: {p.shape} vs {q.shape}")
    if (p < 0).any() or (q < 0).any():
        raise NegativeEntry("probability vectors must be non-negative")
    if smoothing > 0:
        p = p + smoothing
        q = q + smoothing
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
    return float(np.mean((sim - ref) ** 2))


def estimate_distribution(values, measure: Measure,
                          binning: BinningConfig = BinningConfig()) -> np.ndarray:
    """Empirical histogram on the measure's support, smoothed and
    renormalized. Score samples snap to the nearest attainable option
    score, ties to the lower one; durations clip into the configured
    range."""
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise EmptySequence(f"no samples for {measure.value}")
    if measure is Measure.GAME_SCORE:
        # argmin keeps the first of equal distances
        idx = np.argmin(np.abs(_SCORE_GRID - x[:, None]), axis=1)
        n_bins = len(SCORE_SUPPORT)
    elif measure is Measure.DURATION:
        lo, hi, n_bins = binning.duration_lo, binning.duration_hi, binning.duration_bins
        width = (hi - lo) / n_bins
        idx = np.minimum(((np.clip(x, lo, hi) - lo) / width).astype(int), n_bins - 1)
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
    probs = counts / counts.sum()
    if binning.smoothing > 0:
        probs = probs + binning.smoothing
        probs = probs / probs.sum()
    return probs


# The field each measure reads: an Exchange attribute and a SimulatedLog column.
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

    def _agg(self, values) -> tuple:
        arr = np.asarray(values, dtype=float)
        return float(arr.mean()), float(arr.std(ddof=0))

    def kl_mean_sd(self, measure: Measure) -> tuple:
        return self._agg(self.per_step_kl[measure])

    def mse_mean_sd(self, measure: Measure) -> tuple:
        return self._agg(self.per_step_mse[measure])

    def overall_kl_mean_sd(self) -> tuple:
        pooled = [v for m in MEASURES for v in self.per_step_kl[m]]
        return self._agg(pooled)

    def overall_mse_mean_sd(self) -> tuple:
        pooled = [v for m in MEASURES for v in self.per_step_mse[m]]
        return self._agg(pooled)

    def to_json_dict(self) -> dict:
        rows = {}
        for m in MEASURES:
            km, ks = self.kl_mean_sd(m)
            mm, ms = self.mse_mean_sd(m)
            rows[m.value] = {
                "kl_mean": km, "kl_sd": ks, "mse_mean": mm, "mse_sd": ms,
                "kl_per_step": list(self.per_step_kl[m]),
                "mse_per_step": list(self.per_step_mse[m]),
            }
        km, ks = self.overall_kl_mean_sd()
        mm, ms = self.overall_mse_mean_sd()
        rows["Overall"] = {"kl_mean": km, "kl_sd": ks, "mse_mean": mm, "mse_sd": ms}
        return {"mode": self.mode_tag, "fallback_rate": self.fallback_rate,
                "rows": rows}


def evaluate_simulator(reference: Corpus, simulated: SimulatedLog, mode_tag: str,
                       binning: BinningConfig = BinningConfig()) -> FidelityReport:
    """Distances between the reference corpus and an aligned replay log."""
    pairs = list(reference.iter_exchanges())
    if len(pairs) != len(simulated):
        raise AlignmentError(
            f"{len(pairs)} exchanges vs {len(simulated)} simulated records"
        )
    for (user, ex), user_id, step, act in zip(pairs, simulated.user_id,
                                              simulated.step.tolist(),
                                              simulated.proactive_act):
        if (user.user_id, ex.step, ex.proactive_act) != (user_id, step, act):
            raise AlignmentError(f"record for {user_id}/step {step} out of order")

    # aligned, so the log's steps group the real exchanges too
    at_step = [simulated.step == step for step in range(1, STEPS_PER_DIALOG + 1)]
    per_step_kl = {}
    per_step_mse = {}
    for measure in MEASURES:
        name = _MEASURE_FIELDS[measure]
        real = np.array([getattr(ex, name) for _, ex in pairs], dtype=float)
        sim = np.asarray(getattr(simulated, name), dtype=float)
        kls, mses = [], []
        for rows in at_step:
            real_vals, sim_vals = real[rows], sim[rows]
            p = estimate_distribution(real_vals, measure, binning)
            q = estimate_distribution(sim_vals, measure, binning)
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
                  fallback_threshold: int = DEFAULT_FALLBACK_THRESHOLD,
                  binning: BinningConfig = BinningConfig()) -> ModeComparison:
    """Fit both conditioning modes on a train split, replay the test
    split's conditions with each, and report both fidelity tables."""
    train, test = split_corpus(corpus, train_fraction, seed)
    reports = {}
    for mode in (TableMode.COMPLEXITY_BASED, TableMode.TASK_STEP_BASED):
        table = build_table(train, mode, fallback_threshold)
        log = replay_conditions(test, table,
                                RandomStream(seed, "replay", mode.value))
        reports[mode] = evaluate_simulator(test, log, mode.value, binning)
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

    def fmt(mean_sd):
        return f"{mean_sd[0]:.3f} ({mean_sd[1]:.3f})"

    for m in MEASURES:
        row = f"{m.value:<{name_w}}"
        for r in items:
            row += f"{fmt(r.kl_mean_sd(m)):>{col_w}}{fmt(r.mse_mean_sd(m)):>{col_w}}"
        lines.append(row)
    row = f"{'Overall':<{name_w}}"
    for r in items:
        row += f"{fmt(r.overall_kl_mean_sd()):>{col_w}}{fmt(r.overall_mse_mean_sd()):>{col_w}}"
    lines.append(row)
    lines.append("")
    lines.append("fallback rates: " + ", ".join(
        f"{r.mode_tag}={r.fallback_rate:.3f}" for r in items
    ))
    return "\n".join(lines) + "\n"


def report_csv_rows(reports) -> list:
    """Flat CSV rows: mode, measure, kl_mean, kl_sd, mse_mean, mse_sd."""
    items = _report_items(reports)
    rows = [("mode", "measure", "kl_mean", "kl_sd", "mse_mean", "mse_sd")]
    for r in items:
        for m in MEASURES:
            km, ks = r.kl_mean_sd(m)
            mm, ms = r.mse_mean_sd(m)
            rows.append((r.mode_tag, m.value, repr(km), repr(ks), repr(mm), repr(ms)))
        km, ks = r.overall_kl_mean_sd()
        mm, ms = r.overall_mse_mean_sd()
        rows.append((r.mode_tag, "Overall", repr(km), repr(ks), repr(mm), repr(ms)))
    return rows
