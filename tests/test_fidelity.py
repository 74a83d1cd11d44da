"""Distance kernels, histogram estimation, and report assembly."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (any_outcome, corpus_from_rows, exchanges_of, loop_estimate,
                      reference_evaluate_simulator, summary_of)
from trustsim import fidelity
from trustsim.behavior_tables import TableMode, build_table
from trustsim.corpus import DURATION_HI, MIN_DURATION_S
from trustsim.errors import EmptySequence, ValueOutOfRange
from trustsim.fidelity import (
    DEFAULT_SMOOTHING,
    DURATION_BINS,
    FidelityReport,
    MEASURES,
    Measure,
    SCORE_SUPPORT,
    compare_modes,
    evaluate_simulator,
    render_report_text,
    report_csv_rows,
)
from trustsim.sampling import RandomStream
from trustsim.simulator import SimulatedLog, replay_conditions
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus


def kl(p, q) -> float:
    """_kl_divergences on one row pair."""
    return fidelity._kl_divergences(np.array([p], dtype=float), np.array([q], dtype=float))[0]


def histogram(values, measure) -> np.ndarray:
    """_histograms of one row of samples."""
    return fidelity._histograms(np.array([values], dtype=float), measure)[0]


class TestKLDivergence:
    def test_identity_is_exactly_zero(self):
        for p in ([0.5, 0.5], [0.2, 0.3, 0.5], [1.0]):
            assert kl(p, p) == 0.0

    def test_certain_vs_fair_coin(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_swapped_biased_coin(self):
        expected = 0.3 * math.log2(3 / 7) + 0.7 * math.log2(7 / 3)
        got = kl([0.3, 0.7], [0.7, 0.3])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.4892, abs=1e-3)

    def test_not_symmetric(self):
        forward = kl([0.2, 0.8], [0.5, 0.5])
        backward = kl([0.5, 0.5], [0.2, 0.8])
        assert forward != pytest.approx(backward, abs=1e-6)

    def test_zero_in_q_diverges(self):
        assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_zero_in_p_contributes_nothing(self):
        assert kl([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_smoothing_keeps_disjoint_support_finite(self):
        # the histograms are smoothed, so histograms with disjoint support
        # still give a finite, large divergence
        p = histogram([1, 1, 1], Measure.DIFFICULTY)
        q = histogram([5, 5, 5], Measure.DIFFICULTY)
        val = kl(p, q)
        assert math.isfinite(val)
        assert val > 10.0

    def test_unnormalized_inputs_are_rescaled(self):
        assert kl([2.0, 2.0], [1.0, 1.0]) == 0.0
        assert kl([4, 0], [1, 1]) == pytest.approx(1.0)

    def test_nonnegative_on_random_distributions(self):
        gen = np.random.default_rng(17)
        p = gen.dirichlet(np.ones(6), 200)
        q = gen.dirichlet(np.ones(6), 200)
        assert min(fidelity._kl_divergences(p, q)) >= 0.0


class TestMse:
    def test_hand_oracle(self):
        got = fidelity._mean_squared_errors(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
                                            np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 1.0]]))
        assert got.tolist() == pytest.approx([5 / 3, 1.0])

    def test_booleans_count_binary(self, small_corpus):
        log = replace(log_from_corpus(small_corpus), help_request=~small_corpus.help_request)
        report = evaluate_simulator(log, "x")
        assert report.per_step_mse[Measure.HELP_REQUEST] == (1.0,) * 12
        assert report.per_step_mse[Measure.SUGGESTION_REQUEST] == (0.0,) * 12

    def test_overflowing_squared_error_is_rejected(self, small_corpus):
        assert fidelity._mean_squared_errors(np.array([[1e200]]),
                                             np.array([[-1e200]])).tolist() == [math.inf]
        score = small_corpus.game_score.copy()
        score[3] = 1e200
        log = replace(log_from_corpus(small_corpus), game_score=score)
        with pytest.raises(ValueOutOfRange, match="^mean squared error=inf .* overflows"):
            evaluate_simulator(log, "x")


def smoothed(probs) -> np.ndarray:
    """A raw histogram smoothed and renormalized as evaluate_simulator
    smooths its own."""
    probs = np.asarray(probs, dtype=float) + DEFAULT_SMOOTHING
    return probs / probs.sum()


EXCHANGE_FIELDS = {
    Measure.GAME_SCORE: "game_score",
    Measure.DURATION: "duration",
    Measure.DIFFICULTY: "difficulty",
    Measure.HELP_REQUEST: "help_request",
    Measure.SUGGESTION_REQUEST: "suggestion_request",
}


def mixed_samples(measure):
    """Random draws plus every value where a bin or snap boundary sits."""
    gen = np.random.default_rng(23)
    lo, hi, bins = MIN_DURATION_S, DURATION_HI, DURATION_BINS
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
    return samples[measure].tolist()


def single_samples(measure):
    """One sample: all mass in one bin before smoothing."""
    return mixed_samples(measure)[:1]


def corpus_samples(measure):
    """A synthetic corpus's column as the float array evaluate_simulator
    passes, booleans included."""
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=40), seed=5)
    name = EXCHANGE_FIELDS[measure]
    return np.array([getattr(ex, name) for _, ex in exchanges_of(corpus)],
                    dtype=float)


def refused_sample(corpus, measure, value) -> ValueOutOfRange:
    """The error building a log of the corpus's own turns, value at exchange
    7 of the measure's column, raises."""
    name = EXCHANGE_FIELDS[measure]
    column = getattr(corpus, name).tolist()
    column[7] = value
    with pytest.raises(ValueOutOfRange, match=f"^{name}=") as refused:
        replace(log_from_corpus(corpus), **{name: column})
    return refused.value


class TestEstimateDistribution:
    """The per-step histograms (`_histograms`), and the samples they have no
    bin for, which a SimulatedLog refuses when it is built."""

    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.value)
    @pytest.mark.parametrize("samples", [mixed_samples, single_samples,
                                         corpus_samples],
                             ids=["mixed", "single", "corpus"])
    def test_matches_the_per_sample_loop(self, measure, samples):
        values = samples(measure)
        assert np.array_equal(histogram(values, measure), loop_estimate(values, measure))

    @pytest.mark.parametrize("difficulty", [0, 6])
    def test_difficulty_outside_likert_range_rejected(self, small_corpus, difficulty):
        error = refused_sample(small_corpus, Measure.DIFFICULTY, difficulty)
        assert str(error) == f"difficulty={difficulty} out of range"

    @pytest.mark.parametrize("difficulty", [2.5, 3.9, 5.5, 1.0 + 2 ** -40])
    def test_difficulty_that_is_not_whole_rejected(self, small_corpus, difficulty):
        # a float column is not cast, so 2.5 is not binned as 2
        error = refused_sample(small_corpus, Measure.DIFFICULTY, difficulty)
        assert str(error).endswith("out of range: a column of float64")

    @pytest.mark.parametrize("measure", [Measure.HELP_REQUEST, Measure.SUGGESTION_REQUEST],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("value", [0.5, 2, -1, 1e-300])
    def test_request_that_is_not_0_or_1_rejected(self, small_corpus, measure, value):
        refused_sample(small_corpus, measure, value)

    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.value)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, small_corpus, measure, bad):
        error = refused_sample(small_corpus, measure, bad)
        if measure in (Measure.GAME_SCORE, Measure.DURATION):
            assert repr(error.value) == repr(bad)

    def test_scores_snap_to_nearest_option(self):
        probs = histogram([10, 14, 16, 30, 50], Measure.GAME_SCORE)
        assert SCORE_SUPPORT == (10.0, 20.0, 30.0, 40.0, 50.0)
        assert probs.tolist() == smoothed([0.4, 0.2, 0.2, 0.0, 0.2]).tolist()

    def test_score_ties_snap_downward(self):
        probs = histogram([15.0], Measure.GAME_SCORE)
        assert probs.tolist() == smoothed([1.0, 0.0, 0.0, 0.0, 0.0]).tolist()

    def test_duration_binning_edges(self):
        # width (300-20)/20 = 14; clipping pulls outliers into end bins
        probs = histogram([21, 33.9, 34, 299, 500, 5], Measure.DURATION)
        raw = np.zeros(DURATION_BINS)
        raw[[0, 1, 19]] = [3 / 6, 1 / 6, 2 / 6]
        assert probs.tolist() == pytest.approx(smoothed(raw).tolist())

    def test_difficulty_counts(self):
        probs = histogram([1, 1, 3, 5], Measure.DIFFICULTY)
        assert probs.tolist() == smoothed([0.5, 0.0, 0.25, 0.0, 0.25]).tolist()

    def test_boolean_measures(self):
        probs = histogram([True, False, True], Measure.HELP_REQUEST)
        assert probs.tolist() == pytest.approx(smoothed([1 / 3, 2 / 3]).tolist())

    def test_smoothing_renormalizes(self):
        probs = histogram([1, 1, 1, 1], Measure.DIFFICULTY)
        assert probs.sum() == pytest.approx(1.0)
        assert probs.min() > 0.0


def log_from_corpus(corpus, score_delta=0.0, duration_delta=0.0,
                    fallback_every=0):
    """Replay log copying each real exchange, optionally offset."""
    return SimulatedLog(
        corpus=corpus,
        game_score=corpus.game_score + score_delta,
        help_request=corpus.help_request,
        suggestion_request=corpus.suggestion_request,
        duration=corpus.duration + duration_delta,
        difficulty=corpus.difficulty,
        used_fallback=[bool(fallback_every and i % fallback_every == 0)
                       for i in range(corpus.exchange_count)],
    )


class TestEvaluateSimulator:
    def test_identity_log_scores_zero_everywhere(self, small_corpus):
        report = evaluate_simulator(log_from_corpus(small_corpus), "identity")
        for measure in MEASURES:
            assert report.per_step_kl[measure] == (0.0,) * 12
            assert report.per_step_mse[measure] == (0.0,) * 12
        assert summary_of(report)["Overall"] == (0.0, 0.0, 0.0, 0.0)

    def test_constant_offsets_show_up_in_mse(self, small_corpus):
        log = log_from_corpus(small_corpus, score_delta=10.0, duration_delta=7.0)
        report = evaluate_simulator(log, "offset")
        assert report.per_step_mse[Measure.GAME_SCORE] == (100.0,) * 12
        # (x + 7) - x rounds off the lattice for arbitrary float durations
        assert report.per_step_mse[Measure.DURATION] == pytest.approx(
            (49.0,) * 12, rel=1e-12)
        assert report.per_step_mse[Measure.DIFFICULTY] == (0.0,) * 12
        # shifting every score by one option slot moves the histogram too
        assert min(report.per_step_kl[Measure.GAME_SCORE]) > 0.0

    def test_fallback_rate_passthrough(self, small_corpus):
        log = log_from_corpus(small_corpus, fallback_every=4)
        report = evaluate_simulator(log, "x")
        assert report.fallback_rate == pytest.approx(0.25)

    def test_aggregates_match_numpy(self, small_corpus):
        log = log_from_corpus(small_corpus, score_delta=10.0)
        report = evaluate_simulator(log, "x")
        summary = summary_of(report)
        assert list(summary) == [m.value for m in MEASURES] + ["Overall"]
        for measure in (Measure.GAME_SCORE, Measure.DURATION):
            kl = np.asarray(report.per_step_kl[measure])
            se = np.asarray(report.per_step_mse[measure])
            assert summary[measure.value] == pytest.approx(
                (kl.mean(), kl.std(ddof=0), se.mean(), se.std(ddof=0)))
        pooled = np.asarray([v for m in MEASURES for v in report.per_step_kl[m]])
        assert len(pooled) == 60
        assert summary["Overall"][:2] == pytest.approx((pooled.mean(), pooled.std(ddof=0)))

    def test_json_dict_rows(self, small_corpus):
        report = evaluate_simulator(log_from_corpus(small_corpus), "identity")
        payload = report.to_json_dict()
        assert set(payload["rows"]) == {m.value for m in MEASURES} | {"Overall"}
        assert len(payload["rows"]["GameScore"]["kl_per_step"]) == 12
        assert payload["mode"] == "identity"


class TestArrayPass:
    """evaluate_simulator's array pass against the per-step loop it
    replaced (reference_evaluate_simulator), report for report with ==."""

    @pytest.mark.parametrize("step_drift", [0.0, 0.8])
    @pytest.mark.parametrize("n_dialogs", [1, 2, 61, 308])
    @pytest.mark.parametrize("seed", [5, 19])
    def test_reports_equal_the_per_step_loop(self, monkeypatch, seed, n_dialogs, step_drift):
        corpus = generate_synthetic_corpus(
            GeneratorConfig(n_dialogs=n_dialogs, step_drift=step_drift), seed=seed)
        for mode in TableMode:
            log = replay_conditions(corpus, build_table(corpus, mode),
                                    RandomStream(seed, "oracle", mode.value))
            report = evaluate_simulator(log, mode.value)
            assert report == reference_evaluate_simulator(log, mode.value)
        # compare_modes reports through evaluate_simulator
        compared = any_outcome(lambda c: compare_modes(c, seed), corpus)
        monkeypatch.setattr(fidelity, "evaluate_simulator", reference_evaluate_simulator)
        assert compared == any_outcome(lambda c: compare_modes(c, seed), corpus)

    def test_an_empty_corpus_has_no_samples(self):
        log = log_from_corpus(corpus_from_rows([], {}))
        with pytest.raises(EmptySequence, match="^no samples for GameScore$"):
            evaluate_simulator(log, "x")
        assert (any_outcome(lambda log: evaluate_simulator(log, "x"), log)
                == any_outcome(lambda log: reference_evaluate_simulator(log, "x"), log))

    @pytest.mark.parametrize("plants, built", [
        # (column, exchange, value): step is exchange % 12 + 1
        ([("game_score", 30, math.nan)], False),
        ([("duration", 5, math.inf), ("difficulty", 2, 6)], False),
        ([("difficulty", 14, 0), ("difficulty", 24, 6)], False),
        ([("game_score", 15, 1e200), ("game_score", 4, math.nan)], False),
        ([("game_score", 15, 1e200), ("game_score", 3, math.nan)], False),
        ([("duration", 27, -1e300)], False),
        # in range, but a step's squared errors overflow
        ([("game_score", 15, 1e200)], True),
        ([("duration", 27, 1e300)], True),
        ([("duration", 3, 1e300), ("game_score", 40, 1e200)], True),
    ], ids=["nan", "duration-before-difficulty", "difficulty-at-the-first-step",
            "overflow-first", "nan-at-the-overflow-step", "overflow-only",
            "score-overflow", "duration-overflow", "both-overflow"])
    def test_a_rejected_log_raises_as_the_loop_did(self, small_corpus, plants, built):
        """A value out of its column's range is refused when the log is
        built, as a corpus refuses it; a log of values in range whose
        squared errors overflow is refused by evaluate_simulator as by the
        loop."""
        columns = {name: np.array(getattr(small_corpus, name))
                   for name in ("game_score", "duration", "difficulty")}
        for name, exchange, value in plants:
            columns[name][exchange] = value
        log = any_outcome(lambda columns: replace(log_from_corpus(small_corpus), **columns),
                          columns)
        if not built:
            assert log[0] is ValueOutOfRange
            assert log == any_outcome(lambda columns: replace(small_corpus, **columns), columns)
            return
        got = any_outcome(lambda log: evaluate_simulator(log, "x"), log)
        assert got[0] is ValueOutOfRange
        assert got == any_outcome(lambda log: reference_evaluate_simulator(log, "x"), log)


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
        return evaluate_simulator(log_from_corpus(small_corpus), "identity")

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

    def test_renderings_read_one_summary(self, small_corpus):
        """The JSON values, the CSV cells (by repr) and the text cells (at
        .3f) of a comparison are the same summary rows."""
        comparison = compare_modes(small_corpus, seed=3)
        payload = comparison.to_json_dict()
        csv_rows = iter(report_csv_rows(comparison)[1:])
        lines = render_report_text(comparison).splitlines()[2:2 + len(MEASURES) + 1]
        text_cells = {line.split()[0]: re.findall(r"\S+ \(\S+\)", line) for line in lines}
        shown = {name: [] for name in text_cells}
        for report in comparison.reports.values():
            for name, values in summary_of(report).items():
                json_row = payload[report.mode_tag]["rows"][name]
                assert values == tuple(json_row[key] for key in
                                       ("kl_mean", "kl_sd", "mse_mean", "mse_sd"))
                assert next(csv_rows) == (report.mode_tag, name, *map(repr, values))
                km, ks, mm, ms = values
                shown[name] += [f"{km:.3f} ({ks:.3f})", f"{mm:.3f} ({ms:.3f})"]
        assert next(csv_rows, None) is None
        assert text_cells == shown

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
            report = evaluate_simulator(log, mode.value)
            overall[mode] = summary_of(report)["Overall"][0]
        gap = abs(overall[TableMode.TASK_STEP_BASED]
                  - overall[TableMode.COMPLEXITY_BASED])
        assert gap <= 0.02
