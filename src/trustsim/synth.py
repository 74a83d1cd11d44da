"""Synthetic corpus generation with an exportable ground-truth process.

Real interaction data for this domain is not publicly released, so the
pipeline is verified against corpora drawn from a fully documented
generating process: every conditional distribution the generator uses
(request probabilities, score mixture, duration and difficulty models,
trust response rule) is computable from the exported config, giving
evaluation a known ground truth. Durations are drawn from
`duration_truncation` records, which hold the duration bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from statistics import NormalDist

import numpy as np

from .behavior_tables import N_DIFFICULTY_CLASSES
from .corpus import (
    ACT_INDEX,
    ACT_ORDER,
    Corpus,
    DURATION_HI,
    LIKERT_MAX,
    LIKERT_MIN,
    MIN_DURATION_S,
    ProactiveAct,
    STEPS_PER_DIALOG,
    STORED_COLUMNS,
    complexity_of_step,
    duration_truncation,
    option_scores,
)
from .errors import InvalidConfig, ValueOutOfRange, object_entry
from .sampling import (
    RandomStream,
    categoricals,
    child_keys,
    cumulative_weights,
    first_uniforms,
    integers,
    label_bits,
    nth_draws,
    standard_normals,
    truncated_gaussians,
)
from .user_model import (
    N_TRAIT_CODES,
    TraitDistributions,
    _finite_number,
    default_trait_distributions,
    sample_users,
    trait_codes,
    trait_flags,
)

PROB_FLOOR, PROB_CEIL = 0.02, 0.98

TRUST_FIELDS = ("trust", "competence", "reliability", "predictability")


def _clip_prob(p: float) -> float:
    # p first, so a nan p stays nan: max(x, nan) keeps x
    return min(max(p, PROB_FLOOR), PROB_CEIL)


def drift_center(step: int) -> float:
    """Phase position of a step in [-1, 1]: phases are blocks of 3 steps."""
    phase = (step - 1) // 3
    return (phase - 1.5) / 1.5


@dataclass(frozen=True)
class BehaviorProcess:
    """Ground-truth conditional behavior model for the synthetic game.

    Linear-in-traits probability and location models; all coefficients
    documented here and serialized with the corpus. Drift terms shift
    score and duration by step phase when step_drift > 0.
    """

    help_base: float = 0.25
    help_expertise: float = -0.12
    help_propensity: float = 0.06
    help_complexity: float = 0.08          # per option above 3
    help_act: tuple = (0.05, 0.02, -0.05, -0.08)

    sugg_base: float = 0.30
    sugg_expertise: float = -0.10
    sugg_propensity: float = 0.10
    sugg_complexity: float = 0.05
    sugg_act: tuple = (0.10, 0.05, -0.15, -0.18)

    best_base: float = 0.40                # chance of picking the top option
    best_expertise: float = 0.18
    best_sugg_request: float = 0.08
    best_act: tuple = (0.0, 0.05, 0.15, 0.22)
    best_drift_gain: float = 0.3

    duration_base: float = 35.0
    duration_complexity: float = 9.0
    duration_expertise: float = -5.0
    duration_help: float = 7.0
    duration_sugg: float = 4.0
    duration_sd: float = 6.0
    duration_drift_gain: float = 0.5

    difficulty_base: float = 1.8
    difficulty_complexity: float = 0.7
    difficulty_low_expertise: float = 0.9
    difficulty_low_affinity: float = 0.4
    difficulty_sd: float = 0.9

    trust_act_delta: tuple = (-0.05, 0.08, 0.18, 0.25)
    trust_intervention_low_propensity: float = -0.30
    trust_best_bonus: float = 0.08
    trust_noise_sd: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            entries = (value,)
            if isinstance(f.default, tuple):  # one coefficient per act
                if not isinstance(value, tuple) or len(value) != len(ACT_ORDER):
                    raise InvalidConfig(f"{f.name} must list {len(ACT_ORDER)} numbers, "
                                        f"got {value!r}")
                entries = value
            if not all(_finite_number(v) for v in entries):
                raise InvalidConfig(f"{f.name} must hold finite numbers, got {value!r}")
        if not self.difficulty_sd > 0:
            raise InvalidConfig(f"difficulty_sd must be positive, got {self.difficulty_sd}")
        if not self.duration_sd >= 0:
            raise InvalidConfig(f"duration_sd must be >= 0, got {self.duration_sd}")

    def help_prob(self, trait: int, act: ProactiveAct, step: int) -> float:
        k = complexity_of_step(step)
        expertise, propensity, _ = trait_flags(trait)
        return _clip_prob(
            self.help_base
            + self.help_expertise * expertise
            + self.help_propensity * propensity
            + self.help_complexity * (k - 3)
            + self.help_act[ACT_INDEX[act]]
        )

    def sugg_prob(self, trait: int, act: ProactiveAct, step: int) -> float:
        k = complexity_of_step(step)
        expertise, propensity, _ = trait_flags(trait)
        return _clip_prob(
            self.sugg_base
            + self.sugg_expertise * expertise
            + self.sugg_propensity * propensity
            + self.sugg_complexity * (k - 3)
            + self.sugg_act[ACT_INDEX[act]]
        )

    def best_prob(self, trait: int, act: ProactiveAct, sugg_request: bool,
                  step: int, step_drift: float = 0.0) -> float:
        return _clip_prob(
            self.best_base
            + self.best_expertise * trait_flags(trait)[0]
            + self.best_sugg_request * sugg_request
            + self.best_act[ACT_INDEX[act]]
            + self.best_drift_gain * step_drift * drift_center(step)
        )

    def score_pmf(self, trait: int, act: ProactiveAct, step: int,
                  step_drift: float = 0.0) -> dict:
        """Marginal pmf over the step's option scores (suggestion request
        integrated out)."""
        scores = option_scores(complexity_of_step(step))
        top = scores[-1]
        p_sugg = self.sugg_prob(trait, act, step)
        pmf = {s: 0.0 for s in scores}
        for sugg, w in ((False, 1.0 - p_sugg), (True, p_sugg)):
            p_best = self.best_prob(trait, act, sugg, step, step_drift)
            pmf[top] += w * p_best
            for s in scores[:-1]:
                pmf[s] += w * (1.0 - p_best) / (len(scores) - 1)
        return pmf

    def duration_mean(self, trait: int, help_request: bool,
                      sugg_request: bool, step: int, step_drift: float = 0.0) -> float:
        k = complexity_of_step(step)
        base = (
            self.duration_base
            + self.duration_complexity * (k - 3)
            + self.duration_expertise * trait_flags(trait)[0]
            + self.duration_help * help_request
            + self.duration_sugg * sugg_request
        )
        return base * (1.0 + self.duration_drift_gain * step_drift * drift_center(step))

    def difficulty_pmf(self, trait: int, step: int) -> tuple:
        """Discretized-Gaussian pmf over difficulty classes 1..5."""
        k = complexity_of_step(step)
        expertise, _, affinity = trait_flags(trait)
        mu = (
            self.difficulty_base
            + self.difficulty_complexity * (k - 3)
            + self.difficulty_low_expertise * (1 - expertise)
            + self.difficulty_low_affinity * (1 - affinity)
        )
        dist = NormalDist(mu, self.difficulty_sd)
        edges = [-math.inf, 1.5, 2.5, 3.5, 4.5, math.inf]
        probs = tuple(dist.cdf(edges[i + 1]) - dist.cdf(edges[i]) for i in range(5))
        total = sum(probs)
        return tuple(p / total for p in probs)

    def trust_delta(self, act: ProactiveAct, propensity_high: bool,
                    best_chosen: bool) -> float:
        delta = self.trust_act_delta[ACT_INDEX[act]]
        if act is ProactiveAct.INTERVENTION and not propensity_high:
            delta = self.trust_intervention_low_propensity
        return delta + self.trust_best_bonus * best_chosen

    def to_json_dict(self) -> dict:
        out = {}
        for name, value in vars(self).items():
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json_dict(cls, payload: dict) -> "BehaviorProcess":
        kwargs = {
            k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()
        }
        return cls(**kwargs)


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything needed to regenerate a synthetic corpus bit-exactly
    (together with one seed)."""

    n_dialogs: int = 308
    traits: TraitDistributions = field(default_factory=default_trait_distributions)
    process: BehaviorProcess = field(default_factory=BehaviorProcess)
    step_drift: float = 0.0
    duration_hi: float = DURATION_HI

    def __post_init__(self):
        if type(self.n_dialogs) is not int or self.n_dialogs < 1:  # bool is no count
            raise InvalidConfig(f"n_dialogs must be a positive integer, "
                                f"got {self.n_dialogs!r}")
        for name in ("step_drift", "duration_hi"):
            if not _finite_number(getattr(self, name)):
                raise InvalidConfig(f"{name} must be a finite number, "
                                    f"got {getattr(self, name)!r}")
        if not 0.0 <= self.step_drift <= 1.0:
            raise InvalidConfig(f"step_drift must be in [0, 1], got {self.step_drift}")
        if not self.duration_hi > MIN_DURATION_S:
            raise InvalidConfig(f"duration_hi must exceed {MIN_DURATION_S}")

    def to_json_dict(self) -> dict:
        return {
            "n_dialogs": self.n_dialogs,
            "traits": self.traits.to_json_dict(),
            "process": self.process.to_json_dict(),
            "step_drift": self.step_drift,
            "duration_hi": self.duration_hi,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GeneratorConfig":
        payload = object_entry(payload, frozenset(f.name for f in fields(cls)),
                               "generator config")
        try:
            return cls(**{**payload,
                          "traits": TraitDistributions.from_json_dict(payload["traits"]),
                          "process": BehaviorProcess.from_json_dict(payload["process"])})
        # TypeError: an unknown process key or a value of the wrong JSON type;
        # AttributeError: a list where an object belongs; ValueError: a
        # value that does not convert to a number
        except (TypeError, AttributeError, ValueError) as exc:
            raise InvalidConfig(f"malformed generator config: {exc}") from exc


_STEP_BITS = label_bits(range(STEPS_PER_DIALOG + 1))
_FIELD_BITS = {name: label_bits([name]) for name in (
    "traits", "step", "act", "help", "sugg", "score", "duration", "difficulty",
    *TRUST_FIELDS)}


@dataclass(frozen=True)
class _StepTables:
    """The process's draw parameters at one step for every trait code,
    gathered per user by code."""

    help: np.ndarray            # [code, act]
    sugg: np.ndarray            # [code, act]
    best: np.ndarray            # [code, act, sugg_request]
    duration: np.ndarray        # [code, help_request, sugg_request] -> truncation record
    difficulty: np.ndarray      # [code] -> cumulative weights


def _step_tables(config: GeneratorConfig, step: int) -> _StepTables:
    """The step's tables. The first trait code, in order, that a user could
    not be drawn for raises: on a nan help, suggestion or best-option
    probability (InvalidConfig; an infinite sum plus an infinite product of
    the other sign), then on a difficulty pmf that is no categorical
    (InvalidBounds), then on a nan duration mean (ValueOutOfRange; an
    infinite base times a drift factor of 0). Every code is checked, held by
    a user or not, so whether a config is valid does not depend on the
    seed."""
    proc, drift = config.process, config.step_drift
    help_p, sugg_p = np.zeros((2, N_TRAIT_CODES, len(ACT_ORDER)))
    best_p = np.zeros((N_TRAIT_CODES, len(ACT_ORDER), 2))
    duration_mean = np.zeros((N_TRAIT_CODES, 2, 2))
    difficulty = np.zeros((N_TRAIT_CODES, N_DIFFICULTY_CLASSES))
    for code in range(N_TRAIT_CODES):
        for a, act in enumerate(ACT_ORDER):
            help_p[code, a] = proc.help_prob(code, act, step)
            sugg_p[code, a] = proc.sugg_prob(code, act, step)
            for s in (0, 1):
                best_p[code, a, s] = proc.best_prob(code, act, bool(s), step, drift)
        for name, p in (("help", help_p), ("suggestion", sugg_p), ("best-option", best_p)):
            if np.isnan(p[code]).any():
                raise InvalidConfig(f"the {name} probability is nan at step {step} "
                                    f"for trait code {code}")
        for h in (0, 1):
            for s in (0, 1):
                duration_mean[code, h, s] = proc.duration_mean(code, bool(h), bool(s),
                                                               step, drift)
        difficulty[code] = cumulative_weights(proc.difficulty_pmf(code, step))
        if np.isnan(duration_mean[code]).any():
            raise ValueOutOfRange("duration", math.nan, detail="must exceed 20 s")
    # one record maker call for the step's 32 means, after every code's checks
    duration = duration_truncation(duration_mean.ravel(), proc.duration_sd,
                                   config.duration_hi)
    return _StepTables(help_p, sugg_p, best_p, duration.reshape(N_TRAIT_CODES, 2, 2, 6),
                       difficulty)


def generate_synthetic_corpus(config: GeneratorConfig, seed: int) -> Corpus:
    """Draw a corpus from the documented process, one dialog per user.

    Deterministic for (config, seed): every random field reads its own
    named substream, `child(user_id)`, then `child("step", step)`, then
    `child(field)`, so outputs are stable under field reordering. The
    streams are counter-based, so the twelve steps are drawn in turn, each
    for every user at once: the stream keys and draws as uint64 arrays, the
    process's per-step parameters as tables gathered by trait code, and
    the normal quantiles from `standard_normals`, per element below its
    cut of `_VECTOR_MIN` dialogs. The per-step arrays become the corpus's
    columns. A config that some trait profile cannot be drawn from raises
    before any draw, at every seed (see `_step_tables`).
    """
    proc = config.process
    uids = [f"u{i:04d}" for i in range(config.n_dialogs)]
    user_keys = child_keys(RandomStream(seed, "synth").key, label_bits(uids))
    users = sample_users(config.traits, child_keys(user_keys, _FIELD_BITS["traits"]))
    code = trait_codes(users)
    # an int bit, as an index: numpy reads a bool array index as a mask
    propensity_high = trait_flags(code)[1]
    latent = np.minimum(np.maximum(users.trust_propensity, LIKERT_MIN), LIKERT_MAX)
    step_keys = child_keys(user_keys, _FIELD_BITS["step"])
    try:
        trust_delta = np.array([[[proc.trust_delta(act, high, best) for best in (False, True)]
                                 for high in (False, True)] for act in ACT_ORDER],
                               dtype=np.float64)
        tables = [_step_tables(config, step)
                  for step in range(1, STEPS_PER_DIALOG + 1)]
    # each coefficient is a finite number, but a sum of integer ones can
    # leave the float range, which shows once the sum becomes a float here
    except OverflowError as exc:
        raise InvalidConfig(f"process coefficients overflow a float: {exc}") from exc

    steps = []  # per step, each field's values for every user
    for step in range(1, STEPS_PER_DIALOG + 1):
        keys = child_keys(step_keys, _STEP_BITS[step])

        def field(name: str) -> np.ndarray:
            return child_keys(keys, _FIELD_BITS[name])

        t = tables[step - 1]
        act = integers(nth_draws(field("act"), 1), len(ACT_ORDER))
        help_req = first_uniforms(field("help")) < t.help[code, act]
        sugg_req = first_uniforms(field("sugg")) < t.sugg[code, act]
        h, s = help_req.astype(np.intp), sugg_req.astype(np.intp)

        score_keys = field("score")
        best = first_uniforms(score_keys) < t.best[code, act, s]
        k = complexity_of_step(step)
        scores = np.array(option_scores(k))
        game_score = np.where(best, scores[-1],
                              scores[integers(nth_draws(score_keys, 2), k - 1)])

        duration = truncated_gaussians(t.duration[code, h, s],
                                       first_uniforms(field("duration")))
        difficulty = LIKERT_MIN + categoricals(t.difficulty[code],
                                               first_uniforms(field("difficulty")))

        latent = np.minimum(np.maximum(
            latent + trust_delta[act, propensity_high, best.astype(np.intp)],
            LIKERT_MIN), LIKERT_MAX)
        # clamped before the cast to int, so a noise draw that overflows to
        # +-inf gives a 1 or a 5
        with np.errstate(over="ignore"):
            annotations = {
                name: np.floor(np.minimum(np.maximum(
                    latent + proc.trust_noise_sd * standard_normals(first_uniforms(field(name)))
                    + 0.5, LIKERT_MIN), LIKERT_MAX)).astype(np.int64)
                for name in TRUST_FIELDS}
        steps.append(dict(proactive_act=act, game_score=game_score, help_request=help_req,
                          suggestion_request=sugg_req, duration=duration,
                          difficulty=difficulty, **annotations))

    return Corpus(user_id=uids, dialog_id=[f"d{i:04d}" for i in range(len(uids))],
                  **vars(users),
                  **{name: np.stack([values[name] for values in steps], axis=1).ravel()
                     for name in STORED_COLUMNS})
