"""Synthetic generator: process math oracles and corpus-level calibration."""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import fmean, pstdev

import numpy as np
import pytest

from conftest import exchanges_of, reference_generate, users_of
from trustsim.corpus import (
    GENDER_ORDER,
    Gender,
    ProactiveAct,
    complexity_of_step,
    option_scores,
    save_corpus,
)
from trustsim.errors import InvalidBounds, InvalidConfig, ValueOutOfRange
from trustsim.synth import (
    BehaviorProcess,
    GeneratorConfig,
    drift_center,
    generate_synthetic_corpus,
)
from trustsim.user_model import trait_codes, trait_flags


class TestDriftCenter:
    def test_phase_values(self):
        # four 3-step phases spread evenly over [-1, 1]
        expected = [-1.0] * 3 + [-1 / 3] * 3 + [1 / 3] * 3 + [1.0] * 3
        got = [drift_center(s) for s in range(1, 13)]
        assert got == pytest.approx(expected)

    def test_antisymmetric(self):
        assert drift_center(1) == -drift_center(12)
        assert drift_center(4) == -drift_center(9)


class TestProcessFormulas:
    def test_help_prob_low_traits_none_act(self):
        # 0.25 + 0.05, complexity term zero at k=3
        p = BehaviorProcess().help_prob(0b000, ProactiveAct.NONE, step=1)
        assert p == pytest.approx(0.30)

    def test_help_prob_all_terms(self):
        # 0.25 - 0.12 + 0.06 + 0.08*2 - 0.08 at k=5 under intervention
        p = BehaviorProcess().help_prob(0b110, ProactiveAct.INTERVENTION, step=3)
        assert p == pytest.approx(0.27)

    def test_help_prob_floor(self):
        proc = replace(BehaviorProcess(), help_base=0.05)
        p = proc.help_prob(0b100, ProactiveAct.INTERVENTION, step=1)
        assert p == 0.02

    def test_sugg_prob_oracle(self):
        # 0.30 - 0.10 + 0.10 + 0.05*1 + 0.05 at k=4 under notification
        p = BehaviorProcess().sugg_prob(0b110, ProactiveAct.NOTIFICATION, step=2)
        assert p == pytest.approx(0.40)

    def test_best_prob_without_drift(self):
        p = BehaviorProcess().best_prob(0b000, ProactiveAct.NONE, False, step=1)
        assert p == pytest.approx(0.40)

    def test_best_prob_with_drift_endpoints(self):
        proc = BehaviorProcess()
        early = proc.best_prob(0b000, ProactiveAct.NONE, False, 1, step_drift=1.0)
        late = proc.best_prob(0b000, ProactiveAct.NONE, False, 12, step_drift=1.0)
        assert early == pytest.approx(0.40 - 0.30)
        assert late == pytest.approx(0.40 + 0.30)

    def test_score_pmf_is_distribution(self):
        proc = BehaviorProcess()
        for step in (1, 2, 3):
            pmf = proc.score_pmf(0b101, ProactiveAct.SUGGESTION, step)
            scores = option_scores(3 + step - 1)
            assert tuple(pmf) == scores
            assert sum(pmf.values()) == pytest.approx(1.0)
            # non-top options share the remainder uniformly
            rest = [pmf[s] for s in scores[:-1]]
            assert all(r == pytest.approx(rest[0]) for r in rest)

    def test_score_pmf_top_mass_marginalizes_suggestion(self):
        proc = BehaviorProcess()
        traits, act, step = 0b010, ProactiveAct.NONE, 5
        p_sugg = proc.sugg_prob(traits, act, step)
        expected_top = (1 - p_sugg) * proc.best_prob(traits, act, False, step) \
            + p_sugg * proc.best_prob(traits, act, True, step)
        pmf = proc.score_pmf(traits, act, step)
        assert pmf[max(pmf)] == pytest.approx(expected_top)

    def test_duration_mean_oracle(self):
        proc = BehaviorProcess()
        assert proc.duration_mean(0b000, False, False, 1) == pytest.approx(35.0)
        # + 9*2 complexity - 5 expertise + 7 help + 4 sugg
        assert proc.duration_mean(0b100, True, True, 3) == pytest.approx(59.0)

    def test_duration_drift_scales_multiplicatively(self):
        proc = BehaviorProcess()
        base = proc.duration_mean(0b000, False, False, 12)
        drifted = proc.duration_mean(0b000, False, False, 12, step_drift=0.8)
        assert drifted == pytest.approx(base * (1 + 0.5 * 0.8 * 1.0))

    def test_difficulty_pmf_valid_and_shifts_with_complexity(self):
        proc = BehaviorProcess()
        low = proc.difficulty_pmf(0b111, step=1)
        high = proc.difficulty_pmf(0b111, step=3)
        for pmf in (low, high):
            assert len(pmf) == 5
            assert sum(pmf) == pytest.approx(1.0)
            assert all(p >= 0 for p in pmf)
        # harder tasks put more mass on high difficulty classes
        assert sum(high[3:]) > sum(low[3:])

    def test_difficulty_harder_for_novices(self):
        proc = BehaviorProcess()
        novice = proc.difficulty_pmf(0b000, step=2)
        expert = proc.difficulty_pmf(0b111, step=2)
        assert sum(novice[3:]) > sum(expert[3:])

    def test_trust_delta_rule(self):
        proc = BehaviorProcess()
        cases = [
            (ProactiveAct.NONE, True, False, -0.05),
            (ProactiveAct.NOTIFICATION, True, False, 0.08),
            (ProactiveAct.SUGGESTION, False, False, 0.18),
            (ProactiveAct.INTERVENTION, True, False, 0.25),
            (ProactiveAct.INTERVENTION, False, False, -0.30),
            (ProactiveAct.NONE, False, True, -0.05 + 0.08),
        ]
        for act, prop_high, best, expected in cases:
            assert proc.trust_delta(act, prop_high, best) == pytest.approx(expected)

    def test_json_round_trip_preserves_tuples(self):
        proc = replace(BehaviorProcess(), help_base=0.33)
        restored = BehaviorProcess.from_json_dict(proc.to_json_dict())
        assert restored == proc
        assert isinstance(restored.help_act, tuple)


class TestProcessValidation:
    @pytest.mark.parametrize("field, value", [
        ("help_base", "0.3"), ("help_base", True), ("sugg_base", None),
        ("duration_sd", math.inf), ("trust_noise_sd", math.nan),
        ("help_act", (0.05, 0.02, "-0.05", -0.08)), ("sugg_act", (0.1, False, 0.0, 0.0)),
        ("best_act", (0.0, 0.05, math.nan, 0.22)), ("trust_act_delta", (0.1, 0.2)),
        ("help_act", [0.05, 0.02, -0.05, -0.08]), ("best_act", 0.1), ("help_base", (0.3,)),
    ])
    def test_rejects_non_numbers(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            replace(BehaviorProcess(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("difficulty_sd", 0.0), ("difficulty_sd", -0.0), ("difficulty_sd", -1.0),
        ("difficulty_sd", 0), ("duration_sd", -1.0), ("duration_sd", -1e-300),
    ])
    def test_rejects_sds_out_of_domain(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            replace(BehaviorProcess(), **{field: value})

    def test_zero_duration_sd_is_a_point_mass(self):
        proc = replace(BehaviorProcess(), duration_sd=0.0, duration_drift_gain=0.0)
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=3, process=proc), 1)
        for user, ex in exchanges_of(corpus):
            assert ex.duration == proc.duration_mean(
                trait_codes(user), ex.help_request, ex.suggestion_request, ex.step)

    def test_ints_are_numbers(self):
        proc = replace(BehaviorProcess(), help_base=0, help_act=(0, 0, 0, 1))
        assert BehaviorProcess.from_json_dict(proc.to_json_dict()) == proc


class TestGeneratorConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(n_dialogs=0)
        with pytest.raises(InvalidConfig):
            GeneratorConfig(step_drift=-0.1)
        with pytest.raises(InvalidConfig):
            GeneratorConfig(step_drift=1.5)
        with pytest.raises(InvalidConfig):
            GeneratorConfig(duration_hi=20.0)

    @pytest.mark.parametrize("field, value", [
        ("n_dialogs", True), ("n_dialogs", 3.0), ("n_dialogs", "3"),
        ("step_drift", True), ("step_drift", "0.5"), ("step_drift", math.nan),
        ("duration_hi", math.inf), ("duration_hi", "300"), ("duration_hi", None),
    ])
    def test_rejects_non_numbers(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            GeneratorConfig(**{field: value})

    def test_json_round_trip(self):
        config = GeneratorConfig(n_dialogs=17, step_drift=0.4)
        assert GeneratorConfig.from_json_dict(config.to_json_dict()) == config


class TestGenerateCorpus:
    def test_shape_and_validity(self, small_corpus):
        assert len(small_corpus.user_id) == 40
        assert len(small_corpus.dialog_id) == 40
        assert small_corpus.exchange_count == len(exchanges_of(small_corpus)) == 480

    def test_deterministic(self):
        config = GeneratorConfig(n_dialogs=12)
        assert generate_synthetic_corpus(config, seed=3) == \
            generate_synthetic_corpus(config, seed=3)

    def test_seed_changes_output(self):
        config = GeneratorConfig(n_dialogs=12)
        assert generate_synthetic_corpus(config, seed=3) != \
            generate_synthetic_corpus(config, seed=4)

    @pytest.mark.parametrize("seed", ["42", 1.0, True, False])
    def test_rejects_non_int_seed(self, seed):
        with pytest.raises(InvalidConfig, match="seed"):
            generate_synthetic_corpus(GeneratorConfig(n_dialogs=1), seed=seed)

    def test_a_numpy_integer_seed_draws_the_corpus_of_its_int(self):
        config = GeneratorConfig(n_dialogs=3)
        assert generate_synthetic_corpus(config, seed=np.int64(4)) \
            == generate_synthetic_corpus(config, seed=4)

    def test_acts_roughly_uniform(self, default_corpus):
        counts = {act: 0 for act in ProactiveAct}
        total = 0
        for _, ex in exchanges_of(default_corpus):
            counts[ex.proactive_act] += 1
            total += 1
        for act in ProactiveAct:
            assert abs(counts[act] / total - 0.25) < 0.02

    def test_help_rate_matches_flat_process(self):
        # zero out every help coefficient so the rate is exactly the base
        proc = replace(BehaviorProcess(), help_base=0.5, help_expertise=0.0,
                       help_propensity=0.0, help_complexity=0.0,
                       help_act=(0.0, 0.0, 0.0, 0.0))
        config = GeneratorConfig(n_dialogs=600, process=proc)
        corpus = generate_synthetic_corpus(config, seed=11)
        rate = sum(ex.help_request for _, ex in exchanges_of(corpus)) / 7200
        assert abs(rate - 0.5) < 0.02

    def test_drift_raises_late_durations(self, drifting_corpus):
        early, late = [], []
        for _, ex in exchanges_of(drifting_corpus):
            if ex.step <= 3:
                early.append(ex.duration)
            elif ex.step >= 10:
                late.append(ex.duration)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(late) > mean(early) * 1.3

    def test_durations_exceed_floor_under_drift(self, drifting_corpus):
        assert all(ex.duration > 20.0
                   for _, ex in exchanges_of(drifting_corpus))

    def test_gender_marginal_sampled(self, default_corpus):
        seen = {GENDER_ORDER[g] for g in default_corpus.gender.tolist()}
        assert Gender.MALE in seen and Gender.FEMALE in seen

    @pytest.mark.parametrize("fields", [("duration_base", "duration_complexity"),
                                        ("help_base", "help_complexity"),
                                        ("difficulty_base", "difficulty_complexity"),
                                        ("trust_act_delta", "trust_best_bonus")])
    @pytest.mark.parametrize("step_drift", [0.0, 1.0])
    def test_process_sums_beyond_float_range_are_config_errors(self, fields, step_drift):
        # each coefficient is a finite number; their sum is not, which shows
        # once it becomes a float
        proc = replace(BehaviorProcess(), **{
            name: (10 ** 308,) * 4 if name == "trust_act_delta" else 10 ** 308
            for name in fields})
        config = GeneratorConfig(n_dialogs=20, process=proc, step_drift=step_drift)
        with pytest.raises(InvalidConfig, match="overflow"):
            generate_synthetic_corpus(config, 1)

    def test_large_integer_coefficients_within_float_range_generate(self):
        proc = replace(BehaviorProcess(), duration_base=10 ** 307, help_base=10 ** 300)
        corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=3, process=proc), 1)
        assert corpus.exchange_count == 36


def assert_equals_reference(corpus, config, seed, tmp_path):
    """The corpus equals the per-dialog loop's, and both save to the same
    bytes in each file format."""
    reference = reference_generate(config, seed)
    assert corpus == reference
    # plain Python values, as the loop built them, never numpy scalars
    rows = lambda c: [*users_of(c), *(ex for _, ex in exchanges_of(c))]
    assert [list(map(type, vars(row).values())) for row in rows(corpus)] == \
        [list(map(type, vars(row).values())) for row in rows(reference)]
    for fmt in ("csv", "jsonl"):
        save_corpus(corpus, tmp_path / f"batched.{fmt}")
        save_corpus(reference, tmp_path / f"reference.{fmt}")
        assert (tmp_path / f"batched.{fmt}").read_bytes() == \
            (tmp_path / f"reference.{fmt}").read_bytes()


class TestAgainstReference:
    """The batched generator against the per-dialog loop it replaced."""

    def test_default_config(self, default_corpus, tmp_path):
        assert_equals_reference(default_corpus, GeneratorConfig(), 42, tmp_path)

    def test_step_drift(self, drifting_corpus, tmp_path):
        assert_equals_reference(drifting_corpus, GeneratorConfig(step_drift=0.8), 42,
                                tmp_path)

    @pytest.mark.parametrize("seed", [-5, 0, 2**70])
    def test_one_dialog(self, seed, tmp_path):
        config = GeneratorConfig(n_dialogs=1)
        assert_equals_reference(generate_synthetic_corpus(config, seed), config, seed,
                                tmp_path)

    def test_custom_config(self, tmp_path):
        payload = GeneratorConfig(n_dialogs=30, step_drift=0.35).to_json_dict()
        payload["process"].update(help_act=[0.4, -0.3, 0.1, 0], duration_sd=0,
                                  trust_noise_sd=2.5, best_base=-1, difficulty_sd=3.0)
        payload["traits"]["gender_probs"] = [0.0, 0.25, 0.75]
        payload["traits"]["domain_expertise"]["sd"] = 0.0
        config = GeneratorConfig.from_json_dict(payload)
        assert_equals_reference(generate_synthetic_corpus(config, 9), config, 9, tmp_path)

    def test_huge_trust_noise_clamps_annotations(self, tmp_path):
        # draws of 1e308 * z overflow to +-inf: each annotation is a 1 or a 5
        config = GeneratorConfig(n_dialogs=4,
                                 process=replace(BehaviorProcess(), trust_noise_sd=1e308))
        corpus = generate_synthetic_corpus(config, 3)
        assert {ex.trust for _, ex in exchanges_of(corpus)} == {1, 5}
        assert_equals_reference(corpus, config, 3, tmp_path)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bad_pmf_raises_at_every_seed(self, seed):
        # the novice pmf overflows to nan; the expert pmf stays a categorical.
        # The one user is an expert at seed 0 and a novice at seed 1, but
        # every trait code is checked, drawn or not.
        user = users_of(generate_synthetic_corpus(GeneratorConfig(n_dialogs=1), seed))[0]
        assert trait_flags(trait_codes(user))[0] == (seed == 0)
        proc = replace(BehaviorProcess(), difficulty_base=1e308,
                       difficulty_low_expertise=1e308)
        for generate in (generate_synthetic_corpus, reference_generate):
            with pytest.raises(InvalidBounds):
                generate(GeneratorConfig(n_dialogs=1, process=proc), seed)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bad, error", [
        # experts' duration means are nan at step 1 (an infinite mean times
        # a drift factor of 0)
        (dict(duration_expertise=1e308), ValueOutOfRange),
        # novices' pmf is nan too, and novice code 0 comes first
        (dict(duration_expertise=1e308, difficulty_low_expertise=1e308), InvalidBounds),
        # every code has a nan duration mean with help; in code 0 the
        # novice pmf is checked first
        (dict(duration_help=1e308, difficulty_low_expertise=1e308), InvalidBounds),
        # every pmf is nan from step 2, after the experts' step-1 durations
        (dict(duration_expertise=1e308, difficulty_complexity=1e308), ValueOutOfRange),
    ], ids=["expert-durations", "novice-pmf", "pmf-before-duration", "step-order"])
    def test_first_bad_step_and_trait_code_raises(self, seed, bad, error):
        proc = replace(BehaviorProcess(), duration_base=1e308, duration_drift_gain=1.0,
                       difficulty_base=1e308, **bad)
        config = GeneratorConfig(n_dialogs=1, process=proc, step_drift=1.0)
        for generate in (generate_synthetic_corpus, reference_generate):
            with pytest.raises(error):
                generate(config, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name, prefix", [("help", "help"), ("suggestion", "sugg")])
    def test_nan_request_probability_raises(self, seed, name, prefix):
        # experts' sums are inf at every step; at complexity 5 (first at
        # step 3) the complexity term is -inf, so expert code 4 comes first
        proc = replace(BehaviorProcess(), **{f"{prefix}_base": 1e308,
                                             f"{prefix}_expertise": 1e308,
                                             f"{prefix}_complexity": -1e308})
        config = GeneratorConfig(n_dialogs=1, process=proc)
        for generate in (generate_synthetic_corpus, reference_generate):
            with pytest.raises(InvalidConfig, match=f"the {name} probability is nan "
                                                    f"at step 3 for trait code 4$"):
                generate(config, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nan_best_option_probability_raises(self, seed):
        # every term of the best-option sum is finite for finite
        # coefficients, so only a process that overrides best_prob gives nan
        class NanBest(BehaviorProcess):
            def best_prob(self, trait, act, sugg_request, step, step_drift=0.0):
                if (trait, step, sugg_request) == (6, 2, True):
                    return math.nan
                return super().best_prob(trait, act, sugg_request, step, step_drift)

        config = GeneratorConfig(n_dialogs=1, process=NanBest())
        for generate in (generate_synthetic_corpus, reference_generate):
            with pytest.raises(InvalidConfig, match="the best-option probability is nan "
                                                    "at step 2 for trait code 6$"):
                generate(config, seed)


@pytest.fixture(scope="module")
def by_step(default_corpus):
    rows = {s: {"duration": [], "score": [], "help": []} for s in range(1, 13)}
    for _, ex in exchanges_of(default_corpus):
        rows[ex.step]["duration"].append(ex.duration)
        rows[ex.step]["score"].append(ex.game_score)
        rows[ex.step]["help"].append(1.0 if ex.help_request else 0.0)
    return rows


class TestDriftDisabledStepInvariance:
    """With drift off, the generator treats steps of equal complexity
    identically, so per-step statistics stay inside sampling noise of the
    per-complexity pool."""

    @pytest.mark.parametrize("field", ["duration", "score"])
    def test_step_means_sit_in_complexity_pool(self, by_step, field):
        for k in (3, 4, 5):
            steps = [s for s in range(1, 13) if complexity_of_step(s) == k]
            pool = [v for s in steps for v in by_step[s][field]]
            pool_mean = fmean(pool)
            bound = 5 * pstdev(pool) / math.sqrt(len(by_step[steps[0]][field]))
            for s in steps:
                assert abs(fmean(by_step[s][field]) - pool_mean) < bound

    def test_step_help_rates_sit_in_complexity_pool(self, by_step):
        for k in (3, 4, 5):
            steps = [s for s in range(1, 13) if complexity_of_step(s) == k]
            pool = [v for s in steps for v in by_step[s]["help"]]
            p = fmean(pool)
            bound = 5 * math.sqrt(p * (1 - p) / len(by_step[steps[0]]["help"]))
            for s in steps:
                assert abs(fmean(by_step[s]["help"]) - p) < bound
