"""Distance primitives, histogram estimation, and report assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest

from trustsim.behavior_tables import TableMode, build_table
from trustsim.errors import (
    AlignmentError,
    EmptySequence,
    InvalidConfig,
    LengthMismatch,
    NegativeEntry,
    ValueOutOfRange,
)
from trustsim.fidelity import (
    BinningConfig,
    FidelityReport,
    MEASURES,
    Measure,
    SCORE_SUPPORT,
    compare_modes,
    estimate_distribution,
    evaluate_simulator,
    kl_divergence,
    mse,
    render_report_text,
    report_csv_rows,
)
from trustsim.sampling import RandomStream
from trustsim.simulator import LOG_COLUMNS, SimulatedLog, replay_conditions
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus


class TestKLDivergence:
    def test_identity_is_exactly_zero(self):
        for p in ([0.5, 0.5], [0.2, 0.3, 0.5], [1.0]):
            assert kl_divergence(p, p) == 0.0

    def test_certain_vs_fair_coin(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_swapped_biased_coin(self):
        expected = 0.3 * math.log2(3 / 7) + 0.7 * math.log2(7 / 3)
        got = kl_divergence([0.3, 0.7], [0.7, 0.3])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.4892, abs=1e-3)

    def test_not_symmetric(self):
        forward = kl_divergence([0.2, 0.8], [0.5, 0.5])
        backward = kl_divergence([0.5, 0.5], [0.2, 0.8])
        assert forward != pytest.approx(backward, abs=1e-6)

    def test_zero_in_q_diverges(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_zero_in_p_contributes_nothing(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_smoothing_keeps_disjoint_support_finite(self):
        val = kl_divergence([1.0, 0.0], [0.0, 1.0], smoothing=1e-6)
        assert math.isfinite(val)
        assert val > 10.0

    def test_unnormalized_inputs_are_rescaled(self):
        assert kl_divergence([2.0, 2.0], [1.0, 1.0]) == 0.0
        assert kl_divergence([4, 0], [1, 1]) == pytest.approx(1.0)

    def test_nonnegative_on_random_distributions(self):
        gen = np.random.default_rng(17)
        for _ in range(200):
            p = gen.dirichlet(np.ones(6))
            q = gen.dirichlet(np.ones(6))
            assert kl_divergence(p, q) >= 0.0

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            kl_divergence([0.5, 0.5], [1.0])
        with pytest.raises(NegativeEntry):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(EmptySequence):
            kl_divergence([0.0, 0.0], [0.5, 0.5])


class TestMse:
    def test_hand_oracle(self):
        assert mse([1, 2, 3], [1, 1, 5]) == pytest.approx(5 / 3)

    def test_booleans_count_binary(self):
        assert mse([True, False], [False, False]) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            mse([1, 2], [1])
        with pytest.raises(EmptySequence):
            mse([], [])


RAW = BinningConfig(smoothing=0.0)


def loop_estimate(values, measure, binning):
    """The per-sample loops estimate_distribution replaced, kept as the
    reference its vectorized form must match bit for bit."""
    if measure is Measure.GAME_SCORE:
        counts = np.zeros(len(SCORE_SUPPORT))
        for v in values:
            nearest = min(range(len(SCORE_SUPPORT)),
                          key=lambda i: (abs(SCORE_SUPPORT[i] - float(v)), i))
            counts[nearest] += 1
    elif measure is Measure.DURATION:
        counts = np.zeros(binning.duration_bins)
        width = (binning.duration_hi - binning.duration_lo) / binning.duration_bins
        for v in values:
            x = min(max(float(v), binning.duration_lo), binning.duration_hi)
            idx = min(int((x - binning.duration_lo) / width), binning.duration_bins - 1)
            counts[idx] += 1
    elif measure is Measure.DIFFICULTY:
        counts = np.zeros(5)
        for v in values:
            counts[int(v) - 1] += 1
    else:
        counts = np.zeros(2)
        for v in values:
            counts[1 if v else 0] += 1
    probs = counts / counts.sum()
    if binning.smoothing > 0:
        probs = probs + binning.smoothing
        probs = probs / probs.sum()
    return probs


class TestEstimateDistribution:
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.value)
    @pytest.mark.parametrize("binning", [RAW, BinningConfig(),
                                         BinningConfig(40.0, 200.0, 7)])
    def test_matches_the_per_sample_loop(self, measure, binning):
        gen = np.random.default_rng(23)
        lo, hi, bins = binning.duration_lo, binning.duration_hi, binning.duration_bins
        edges = lo + (hi - lo) / bins * np.arange(bins + 1)
        samples = {
            # option scores, the midpoints between them, and everything around
            Measure.GAME_SCORE: np.concatenate([
                gen.uniform(-10.0, 70.0, 400), SCORE_SUPPORT,
                np.array(SCORE_SUPPORT[:-1]) + 5.0]),
            # bin edges, their float neighbours, and values beyond the clip range
            Measure.DURATION: np.concatenate([
                gen.uniform(0.0, 1.5 * hi, 400), edges,
                np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                [lo - 1.0, hi + 1.0, 1e9]]),
            Measure.DIFFICULTY: gen.integers(1, 6, 400),
            Measure.HELP_REQUEST: gen.random(400) < 0.3,
            Measure.SUGGESTION_REQUEST: gen.random(400) < 0.7,
        }
        values = samples[measure].tolist()
        got = estimate_distribution(values, measure, binning)
        assert np.array_equal(got, loop_estimate(values, measure, binning))

    @pytest.mark.parametrize("difficulty", [0, 6])
    def test_difficulty_outside_likert_range_rejected(self, difficulty):
        with pytest.raises(ValueOutOfRange):
            estimate_distribution([3, difficulty], Measure.DIFFICULTY)

    def test_scores_snap_to_nearest_option(self):
        probs = estimate_distribution([10, 14, 16, 30, 50],
                                      Measure.GAME_SCORE, RAW)
        assert SCORE_SUPPORT == (10.0, 20.0, 30.0, 40.0, 50.0)
        assert probs.tolist() == [0.4, 0.2, 0.2, 0.0, 0.2]

    def test_score_ties_snap_downward(self):
        probs = estimate_distribution([15.0], Measure.GAME_SCORE, RAW)
        assert probs[0] == 1.0

    def test_duration_binning_edges(self):
        # width (300-20)/20 = 14; clipping pulls outliers into end bins
        probs = estimate_distribution([21, 33.9, 34, 299, 500, 5],
                                      Measure.DURATION, RAW)
        assert probs[0] == pytest.approx(3 / 6)
        assert probs[1] == pytest.approx(1 / 6)
        assert probs[19] == pytest.approx(2 / 6)

    def test_difficulty_counts(self):
        probs = estimate_distribution([1, 1, 3, 5], Measure.DIFFICULTY, RAW)
        assert probs.tolist() == [0.5, 0.0, 0.25, 0.0, 0.25]

    def test_boolean_measures(self):
        probs = estimate_distribution([True, False, True],
                                      Measure.HELP_REQUEST, RAW)
        assert probs.tolist() == pytest.approx([1 / 3, 2 / 3])

    def test_smoothing_renormalizes(self):
        probs = estimate_distribution([1, 1, 1, 1], Measure.DIFFICULTY,
                                      BinningConfig(smoothing=1e-6))
        assert probs.sum() == pytest.approx(1.0)
        assert probs.min() > 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            estimate_distribution([], Measure.DIFFICULTY)

    def test_binning_validation(self):
        with pytest.raises(InvalidConfig):
            BinningConfig(duration_hi=20.0)
        with pytest.raises(InvalidConfig):
            BinningConfig(duration_bins=1)
        with pytest.raises(InvalidConfig):
            BinningConfig(smoothing=-1e-9)


def log_from_corpus(corpus, score_delta=0.0, duration_delta=0.0,
                    fallback_every=0):
    """Replay log copying each real exchange, optionally offset."""
    pairs = list(corpus.iter_exchanges())
    exchanges = [ex for _, ex in pairs]
    return SimulatedLog(
        user_id=[user.user_id for user, _ in pairs],
        dialog_id=[ex.dialog_id for ex in exchanges],
        step=[ex.step for ex in exchanges],
        complexity=[ex.complexity for ex in exchanges],
        proactive_act=[ex.proactive_act for ex in exchanges],
        game_score=[ex.game_score + score_delta for ex in exchanges],
        help_request=[ex.help_request for ex in exchanges],
        suggestion_request=[ex.suggestion_request for ex in exchanges],
        duration=[ex.duration + duration_delta for ex in exchanges],
        difficulty=[ex.difficulty for ex in exchanges],
        used_fallback=[bool(fallback_every and i % fallback_every == 0)
                       for i in range(len(exchanges))],
    )


def take_rows(log, rows):
    """The log made of the given rows of `log`, in that order."""
    return SimulatedLog(**{name: [getattr(log, name)[i] for i in rows]
                           for name in LOG_COLUMNS})


class TestEvaluateSimulator:
    def test_identity_log_scores_zero_everywhere(self, small_corpus):
        report = evaluate_simulator(small_corpus, log_from_corpus(small_corpus),
                                    "identity")
        for measure in MEASURES:
            assert report.per_step_kl[measure] == (0.0,) * 12
            assert report.per_step_mse[measure] == (0.0,) * 12
        assert report.overall_kl_mean_sd() == (0.0, 0.0)
        assert report.overall_mse_mean_sd() == (0.0, 0.0)

    def test_constant_offsets_show_up_in_mse(self, small_corpus):
        log = log_from_corpus(small_corpus, score_delta=10.0, duration_delta=7.0)
        report = evaluate_simulator(small_corpus, log, "offset")
        assert report.per_step_mse[Measure.GAME_SCORE] == (100.0,) * 12
        # (x + 7) - x rounds off the lattice for arbitrary float durations
        assert report.per_step_mse[Measure.DURATION] == pytest.approx(
            (49.0,) * 12, rel=1e-12)
        assert report.per_step_mse[Measure.DIFFICULTY] == (0.0,) * 12
        # shifting every score by one option slot moves the histogram too
        assert min(report.per_step_kl[Measure.GAME_SCORE]) > 0.0

    def test_fallback_rate_passthrough(self, small_corpus):
        log = log_from_corpus(small_corpus, fallback_every=4)
        report = evaluate_simulator(small_corpus, log, "x")
        assert report.fallback_rate == pytest.approx(0.25)

    def test_length_mismatch_rejected(self, small_corpus):
        log = log_from_corpus(small_corpus)
        truncated = take_rows(log, range(len(log) - 1))
        with pytest.raises(AlignmentError):
            evaluate_simulator(small_corpus, truncated, "x")

    def test_reordered_records_rejected(self, small_corpus):
        log = log_from_corpus(small_corpus)
        rows = list(range(len(log)))
        rows[0], rows[1] = rows[1], rows[0]
        with pytest.raises(AlignmentError):
            evaluate_simulator(small_corpus, take_rows(log, rows), "x")

    def test_aggregates_match_numpy(self, small_corpus):
        log = log_from_corpus(small_corpus, score_delta=10.0)
        report = evaluate_simulator(small_corpus, log, "x")
        for measure in (Measure.GAME_SCORE, Measure.DURATION):
            values = np.asarray(report.per_step_kl[measure])
            assert report.kl_mean_sd(measure) == pytest.approx(
                (values.mean(), values.std(ddof=0)))
        pooled = np.asarray([v for m in MEASURES for v in report.per_step_kl[m]])
        assert len(pooled) == 60
        assert report.overall_kl_mean_sd() == pytest.approx(
            (pooled.mean(), pooled.std(ddof=0)))

    def test_json_dict_rows(self, small_corpus):
        report = evaluate_simulator(small_corpus, log_from_corpus(small_corpus),
                                    "identity")
        payload = report.to_json_dict()
        assert set(payload["rows"]) == {m.value for m in MEASURES} | {"Overall"}
        assert len(payload["rows"]["GameScore"]["kl_per_step"]) == 12
        assert payload["mode"] == "identity"


class TestCompareModes:
    def test_produces_both_reports(self, small_corpus):
        comparison = compare_modes(small_corpus, seed=3)
        assert set(comparison.reports) == {TableMode.COMPLEXITY_BASED,
                                           TableMode.TASK_STEP_BASED}
        tags = {r.mode_tag for r in comparison.reports.values()}
        assert tags == {"complexity", "task-step"}

    def test_deterministic(self, small_corpus):
        a = compare_modes(small_corpus, seed=3).to_json_dict()
        b = compare_modes(small_corpus, seed=3).to_json_dict()
        assert a == b


class TestRendering:
    @pytest.fixture()
    def identity_report(self, small_corpus) -> FidelityReport:
        return evaluate_simulator(small_corpus, log_from_corpus(small_corpus),
                                  "identity")

    def test_text_table_layout(self, identity_report):
        text = render_report_text(identity_report)
        lines = text.splitlines()
        assert "identity" in lines[0]
        for m in MEASURES:
            assert any(line.startswith(m.value) for line in lines)
        assert any(line.startswith("Overall") for line in lines)
        assert "0.000 (0.000)" in text
        assert text.rstrip().endswith("identity=0.000")

    def test_text_handles_comparisons(self, small_corpus):
        text = render_report_text(compare_modes(small_corpus, seed=3))
        assert "complexity" in text and "task-step" in text

    def test_csv_rows(self, identity_report):
        rows = report_csv_rows(identity_report)
        assert rows[0] == ("mode", "measure", "kl_mean", "kl_sd",
                           "mse_mean", "mse_sd")
        assert len(rows) == 1 + len(MEASURES) + 1
        assert rows[-1][1] == "Overall"
        assert float(rows[1][2]) == 0.0


class TestDriftFreeModeEquivalence:
    """Without step drift both conditionings estimate the same underlying
    distributions, so their replay fidelity agrees once the corpus is large
    enough to quiet cell-level sampling noise."""

    def test_overall_kl_gap_small(self):
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=2400), seed=12)
        overall = {}
        for mode in (TableMode.COMPLEXITY_BASED, TableMode.TASK_STEP_BASED):
            table = build_table(corpus, mode)
            log = replay_conditions(corpus, table,
                                    RandomStream(12, "modes", mode.value))
            report = evaluate_simulator(corpus, log, mode.value)
            overall[mode] = report.overall_kl_mean_sd()[0]
        gap = abs(overall[TableMode.TASK_STEP_BASED]
                  - overall[TableMode.COMPLEXITY_BASED])
        assert gap <= 0.02
