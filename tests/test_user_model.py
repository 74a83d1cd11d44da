"""Trait distribution fitting, profile sampling, and binarization."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (child_streams, corpus_from_rows, make_corpus, make_dialog, make_user,
                      reference_sample_user, users_of)
from trustsim.corpus import SCALE_TRAITS, Gender
from trustsim.errors import InsufficientUsers, InvalidBounds, InvalidConfig
from trustsim.sampling import RandomStream, child_keys, label_bits
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.user_model import (
    LIKERT_BINARY_THRESHOLD,
    TraitDistributions,
    TruncGauss,
    default_trait_distributions,
    fit_trait_distributions,
    load_trait_distributions,
    sample_users,
    trait_codes,
    trait_flags,
)


def sampled_records(dists, keys, user_ids) -> list:
    """sample_users' columns as one UserRecord per user, named by user_ids."""
    columns = sample_users(dists, keys)
    return list(users_of(SimpleNamespace(user_id=tuple(user_ids), **vars(columns))))


def users_on(dists, streams) -> list:
    """sample_users on the key of each stream."""
    keys = np.array([stream.key for stream in streams], dtype=np.uint64)
    return sampled_records(dists, keys, ["sim"] * len(streams))


class TestTruncGauss:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidBounds):
            TruncGauss(3, 1, 5, 1)

    def test_rejects_negative_sd(self):
        with pytest.raises(InvalidBounds):
            TruncGauss(3, -0.1, 1, 5)

    # each value keeps lo < hi and sd >= 0 true or undecidable, so only
    # the type and finiteness checks can reject it
    @pytest.mark.parametrize("field,value", [
        ("mean", "3"), ("mean", None), ("mean", True), ("mean", math.nan),
        ("mean", math.inf), ("sd", "1"), ("sd", True), ("sd", math.nan),
        ("sd", math.inf), ("lo", "0"), ("lo", True), ("lo", -math.inf),
        ("hi", None), ("hi", True), ("hi", math.inf),
        # a float32 cannot hold the float range's bound
        ("mean", np.float32(math.inf)), ("sd", np.float32(math.nan)),
        ("hi", np.float16(math.inf)), ("mean", np.True_),
    ])
    def test_rejects_non_finite_or_non_numeric_fields(self, field, value):
        kwargs = {"mean": 2.0, "sd": 1.0, "lo": 0, "hi": 5, field: value}
        with pytest.raises(InvalidBounds):
            TruncGauss(**kwargs)

    def test_accepts_numpy_scalars(self):
        # no overflow warning on the float32 compare
        assert TruncGauss(np.float32(2.5), np.float16(1.0), np.int64(0), np.uint8(5)) \
            == TruncGauss(2.5, 1.0, 0, 5)


class TestTraitDistributions:
    def test_age_bounds_pinned(self):
        dists = default_trait_distributions()
        with pytest.raises(InvalidBounds):
            TraitDistributions.from_json_dict(
                {**dists.to_json_dict(),
                 "age": {"mean": 30, "sd": 5, "lo": 10, "hi": 60}}
            )

    def test_gender_probs_must_sum_to_one(self):
        dists = default_trait_distributions()
        payload = dists.to_json_dict()
        payload["gender_probs"] = [0.5, 0.4, 0.2]
        with pytest.raises(InvalidConfig):
            TraitDistributions.from_json_dict(payload)

    def test_json_round_trip(self):
        dists = default_trait_distributions()
        assert TraitDistributions.from_json_dict(dists.to_json_dict()) == dists

    @pytest.mark.parametrize("malform", [
        "empty", "trait-number", "trait-list", "extra-field", "missing-field",
        "probs-number", "probs-text", "probs-bool", "probs-nan",
    ])
    def test_malformed_json_is_invalid_config(self, malform):
        payload = default_trait_distributions().to_json_dict()
        if malform == "empty":
            payload = {}
        elif malform == "trait-number":
            payload["age"] = 3
        elif malform == "trait-list":
            payload["openness"] = list(payload["openness"].values())
        elif malform == "extra-field":
            payload["openness"]["median"] = 3.0
        elif malform == "missing-field":
            del payload["openness"]["hi"]
        elif malform == "probs-number":
            payload["gender_probs"] = 1.0
        elif malform == "probs-text":
            payload["gender_probs"] = ["0.5", "0.5", "0.0"]
        elif malform == "probs-bool":
            payload["gender_probs"] = [True, False, False]
        else:
            payload["gender_probs"] = [math.nan, 0.5, 0.5]
        with pytest.raises(InvalidConfig):
            TraitDistributions.from_json_dict(payload)

    def test_file_round_trip(self, tmp_path):
        dists = fit_trait_distributions(make_corpus(n_users=3))
        path = tmp_path / "trait_dists.json"
        path.write_text(json.dumps(dists.to_json_dict()))
        assert load_trait_distributions(path) == dists

    @pytest.mark.parametrize("content", [b"{not json", b'{"age": "\xe9"}'])
    def test_file_not_json_or_not_utf8_is_invalid_config(self, tmp_path, content):
        path = tmp_path / "trait_dists.json"
        path.write_bytes(content)
        with pytest.raises(InvalidConfig, match="trait distributions file"):
            load_trait_distributions(path)


class TestFitTraitDistributions:
    def test_constant_ages_give_sd_zero(self):
        corpus = make_corpus(n_users=3, user_overrides={"age": 30})
        fitted = fit_trait_distributions(corpus)
        assert fitted.age.mean == 30.0
        assert fitted.age.sd == 0.0

    def test_gender_frequencies_are_empirical(self):
        users = [make_user(user_id=f"u{i}",
                           gender=Gender.FEMALE if i < 3 else Gender.MALE)
                 for i in range(5)]
        corpus = corpus_from_rows(users, {u.user_id: make_dialog(u.user_id) for u in users})
        fitted = fit_trait_distributions(corpus)
        assert fitted.gender_probs == (0.4, 0.6, 0.0)

    def test_needs_two_users(self):
        with pytest.raises(InsufficientUsers):
            fit_trait_distributions(make_corpus(n_users=1))

    def test_recovers_generator_means_within_3_se(self):
        config = GeneratorConfig(n_dialogs=400)
        corpus = generate_synthetic_corpus(config, seed=5)
        fitted = fit_trait_distributions(corpus)
        n = corpus.n_dialogs
        for trait in ("trust_propensity", "domain_expertise", "technical_affinity"):
            true = getattr(config.traits, trait)
            got = getattr(fitted, trait)
            # sampled values are truncated, so compare against the sample's
            # own dispersion, not the untruncated sd
            se = got.sd / math.sqrt(n)
            # truncation pulls the realized mean off the nominal one; allow
            # the analytic shift plus sampling error
            assert abs(got.mean - true.mean) < 0.25 + 3 * se


class TestSampledProfiles:
    """Statistics of the profiles sample_users draws, one stream per user."""

    @pytest.mark.parametrize("seed", range(6))
    def test_profiles_respect_all_bounds(self, seed):
        dists = default_trait_distributions()
        for profile in users_on(dists, child_streams(RandomStream(seed, "u"), range(200))):
            assert 18 <= profile.age <= 60
            assert isinstance(profile.age, int)
            for trait in ("technical_affinity", "trust_propensity",
                          "domain_expertise", "openness", "conscientiousness",
                          "extraversion", "agreeableness", "neuroticism"):
                assert 1.0 <= getattr(profile, trait) <= 5.0

    def test_degenerate_gender(self):
        dists = TraitDistributions.from_json_dict(
            {**default_trait_distributions().to_json_dict(),
             "gender_probs": [1.0, 0.0, 0.0]}
        )
        for profile in users_on(dists, child_streams(RandomStream(2), range(50))):
            assert profile.gender is Gender.MALE

    def test_gender_frequencies_converge(self):
        dists = default_trait_distributions()
        counts = {g: 0 for g in Gender}
        n = 10_000
        for profile in users_on(dists, child_streams(RandomStream(3), range(n))):
            counts[profile.gender] += 1
        assert abs(counts[Gender.MALE] / n - 0.48) < 0.02
        assert abs(counts[Gender.FEMALE] / n - 0.48) < 0.02
        assert abs(counts[Gender.OTHER] / n - 0.04) < 0.02

    def test_deterministic_per_stream(self):
        dists = default_trait_distributions()
        a = users_on(dists, [RandomStream(9, "x")])
        b = users_on(dists, [RandomStream(9, "x")])
        assert a == b


class TestSampleUsers:
    """The batched draw against one `reference_sample_user` call per stream."""

    def assert_matches_scalar(self, dists, seed, n):
        root = RandomStream(seed, "batch")
        ids = [f"u{i}" for i in range(n)]
        keys = child_keys(root.key, label_bits(ids))
        assert sampled_records(dists, keys, ids) == [
            reference_sample_user(dists, root.child(uid), user_id=uid) for uid in ids]
        columns = vars(sample_users(dists, keys))
        assert {name: column.dtype for name, column in columns.items()} == {
            "age": np.int64, "gender": np.int64, **dict.fromkeys(SCALE_TRAITS, np.float64)}

    @pytest.mark.parametrize("seed", [0, 1, -7])
    def test_default_population(self, seed):
        self.assert_matches_scalar(default_trait_distributions(), seed, 200)

    def test_degenerate_and_far_tail_traits(self):
        payload = default_trait_distributions().to_json_dict()
        payload["gender_probs"] = [0.0, 0.0, 1.0]
        payload["age"] = {"mean": 2**60, "sd": 0.0, "lo": 18, "hi": 60}
        payload["openness"] = {"mean": -1e300, "sd": 1e-300, "lo": 1, "hi": 5}
        payload["neuroticism"] = {"mean": 3, "sd": 1e300, "lo": 1, "hi": 5}
        self.assert_matches_scalar(TraitDistributions.from_json_dict(payload), 3, 40)


class TestBinarizeTraits:
    def test_mixed_profile(self):
        profile = make_user(domain_expertise=2.4, trust_propensity=4.0,
                            technical_affinity=4.2)
        assert trait_codes(profile) == 0b011

    def test_all_low(self):
        profile = make_user(domain_expertise=1.0, trust_propensity=1.0,
                            technical_affinity=1.0)
        assert trait_codes(profile) == 0

    def test_threshold_value_maps_low(self):
        profile = make_user(domain_expertise=3.0, trust_propensity=3.0,
                            technical_affinity=3.0)
        assert trait_codes(profile) == 0
        assert LIKERT_BINARY_THRESHOLD == 3.0

    def test_monotone_in_each_trait(self):
        base = dict(domain_expertise=2.0, trust_propensity=2.0,
                    technical_affinity=2.0)
        for trait in base:
            lows = trait_flags(trait_codes(make_user(**base)))
            highs = trait_flags(trait_codes(make_user(**{**base, trait: 4.5})))
            # raising one trait never flips any bit from 1 to 0
            assert all(h >= l for h, l in zip(highs, lows))


class TestTraitCodes:
    MIDPOINT, ABOVE = 3.0, math.nextafter(3.0, math.inf)

    def users(self):
        """A user for each high/low combination of the three traits, each
        at the midpoint (low) or the next float above it (high)."""
        return [make_user(user_id=f"u{code}",
                          domain_expertise=self.ABOVE if code & 4 else self.MIDPOINT,
                          trust_propensity=self.ABOVE if code & 2 else self.MIDPOINT,
                          technical_affinity=self.ABOVE if code & 1 else self.MIDPOINT)
                for code in range(8)]

    def test_scalars_give_the_index_of_the_record(self):
        for code, user in enumerate(self.users()):
            assert trait_codes(user) == code
            as_numpy = SimpleNamespace(**{name: np.float64(getattr(user, name))
                                          for name in SCALE_TRAITS})
            assert trait_codes(as_numpy) == code

    def test_arrays_give_the_index_of_each_record(self):
        users = self.users()
        corpus = corpus_from_rows(users, {u.user_id: make_dialog(u.user_id) for u in users})
        codes = trait_codes(corpus)
        assert codes.dtype == np.int64
        assert codes.tolist() == list(range(8))


class TestTraitFlags:
    def test_bit_order_is_expertise_propensity_affinity(self):
        assert trait_flags(0b101) == (1, 0, 1)
        assert [trait_flags(code) for code in range(8)] == [
            tuple(int(bit) for bit in f"{code:03b}") for code in range(8)]

    def test_arrays_decode_element_by_element(self):
        flags = trait_flags(np.arange(8))
        assert list(zip(*(f.tolist() for f in flags))) == [trait_flags(c) for c in range(8)]
