"""User trait distributions, profile sampling, and trait binarization.

Numeric traits are modeled as truncated Gaussians (age bounded 18..60,
scale traits 1..5); gender is categorical with empirical frequencies.
`sample_users` is the one user draw, for the synthetic generator and the
RL environment alike: a block of users at once, from their stream keys.
The three behavior-relevant traits (domain expertise, trust propensity,
technical affinity) are binarized at the Likert midpoint into the 3-bit
trait code that conditions simulated behavior.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .corpus import (
    AGE_MAX,
    AGE_MIN,
    GENDER_ORDER,
    Corpus,
    LIKERT_MAX,
    LIKERT_MIN,
    SCALE_TRAITS,
)
from .errors import (InsufficientUsers, InvalidBounds, InvalidConfig, finite_number,
                     object_entry, read_json)
from .sampling import (
    categoricals,
    child_keys,
    cumulative_weights,
    first_uniforms,
    gaussian_truncations,
    label_bits,
    truncated_gaussians,
)

# A trait counts as "high" strictly above the Likert midpoint (3.0 -> low).
LIKERT_BINARY_THRESHOLD = 3.0

# The three behavior-relevant traits as a 3-bit trait code, expertise the
# high bit: a context key's trait index, 0..7.
N_TRAIT_CODES = 8


@dataclass(frozen=True)
class TruncGauss:
    """Parameters of a truncated Gaussian: N(mean, sd) restricted to [lo, hi],
    each an `errors.finite_number`."""

    mean: float
    sd: float
    lo: float
    hi: float

    def __post_init__(self):
        for name, value in vars(self).items():
            finite_number(name, value, InvalidBounds)
        if not self.lo < self.hi:
            raise InvalidBounds(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.sd < 0:
            raise InvalidBounds(f"sd must be >= 0, got {self.sd}")


_GAUSS_FIELDS = frozenset({"mean", "sd", "lo", "hi"})
_GAUSS_TRAITS = ("age",) + SCALE_TRAITS
# The substreams a user draws on, one per trait, then gender.
USER_FIELDS = _GAUSS_TRAITS + ("gender",)
_USER_BITS = label_bits(USER_FIELDS)


@dataclass(frozen=True)
class TraitDistributions:
    """Fitted (or configured) population distributions for all user traits:
    each trait a TruncGauss, and gender_probs a sequence of
    `errors.finite_number`s, stored as a tuple of floats."""

    age: TruncGauss
    technical_affinity: TruncGauss
    trust_propensity: TruncGauss
    domain_expertise: TruncGauss
    openness: TruncGauss
    conscientiousness: TruncGauss
    extraversion: TruncGauss
    agreeableness: TruncGauss
    neuroticism: TruncGauss
    gender_probs: tuple[float, float, float]  # (male, female, other)

    def __post_init__(self):
        for name in _GAUSS_TRAITS:
            dist = getattr(self, name)
            if not isinstance(dist, TruncGauss):
                raise InvalidConfig(f"{name} must be a TruncGauss, got {type(dist).__name__}")
            lo, hi = (AGE_MIN, AGE_MAX) if name == "age" else (LIKERT_MIN, LIKERT_MAX)
            if (dist.lo, dist.hi) != (lo, hi):
                raise InvalidBounds(f"{name} bounds must be [{lo}, {hi}]")
        if not isinstance(self.gender_probs, Sequence):
            raise InvalidConfig(f"gender_probs must be a sequence, "
                                f"got {type(self.gender_probs).__name__}")
        for p in self.gender_probs:
            finite_number("gender probability", p)
        object.__setattr__(self, "gender_probs", tuple(float(p) for p in self.gender_probs))
        if len(self.gender_probs) != len(GENDER_ORDER):
            raise InvalidConfig("gender_probs needs (male, female, other)")
        if any(p < 0 for p in self.gender_probs):
            raise InvalidConfig("gender probabilities must be non-negative")
        if abs(sum(self.gender_probs) - 1.0) > 1e-9:
            raise InvalidConfig("gender probabilities must sum to 1")

    def to_json_dict(self) -> dict:
        payload = {name: vars(getattr(self, name)) for name in _GAUSS_TRAITS}
        payload["gender_probs"] = list(self.gender_probs)
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TraitDistributions":
        payload = object_entry(payload, frozenset({*_GAUSS_TRAITS, "gender_probs"}),
                               "traits")
        probs = payload["gender_probs"]
        if not isinstance(probs, list):
            raise InvalidConfig(f"gender_probs must be a list, got {probs!r}")
        return cls(gender_probs=tuple(probs), **{
            name: TruncGauss(**object_entry(payload[name], _GAUSS_FIELDS, f"trait {name!r}"))
            for name in _GAUSS_TRAITS})


def load_trait_distributions(path) -> TraitDistributions:
    return TraitDistributions.from_json_dict(read_json(path, "trait distributions"))


def fit_trait_distributions(corpus: Corpus) -> TraitDistributions:
    """Sample mean/SD per numeric trait (bounds fixed), empirical gender freqs."""
    n = corpus.n_dialogs
    if n < 2:
        raise InsufficientUsers(f"need >= 2 users, got {n}")
    kwargs = {}
    for name in _GAUSS_TRAITS:
        values = getattr(corpus, name).astype(float)
        lo, hi = (AGE_MIN, AGE_MAX) if name == "age" else (LIKERT_MIN, LIKERT_MAX)
        kwargs[name] = TruncGauss(float(values.mean()), float(values.std(ddof=1)), lo, hi)
    probs = np.bincount(corpus.gender, minlength=len(GENDER_ORDER)) / n
    return TraitDistributions(gender_probs=tuple(probs.tolist()), **kwargs)


def sample_users(dists: TraitDistributions, keys) -> SimpleNamespace:
    """Sample the user columns of a Corpus but user_id, as attributes: user
    i draws from the stream with key keys[i] of a uint64 array, the one user
    draw. Each trait takes the first uniform of its own USER_FIELDS child
    stream, so no trait shifts another's. The numeric traits are drawn from
    their `gaussian_truncations` records, all users' draws in one call; age
    is drawn continuously, then rounded, and gender is its GENDER_ORDER
    index. The one-user oracle is `reference_sample_user` in
    `tests/conftest.py`.
    """
    keys = np.asarray(keys, dtype=np.uint64)[:, None]
    u = first_uniforms(child_keys(keys, _USER_BITS))
    params = np.array([(d.mean, d.sd, d.lo, d.hi)
                       for d in (getattr(dists, name) for name in _GAUSS_TRAITS)], dtype=float)
    n = len(u)
    # trait-major, so that each trait's column is one contiguous row
    values = truncated_gaussians(np.repeat(gaussian_truncations(*params.T), n, axis=0),
                                 u[:, :-1].T.ravel()).reshape(-1, n)
    columns = dict(zip(_GAUSS_TRAITS, values))
    columns["age"] = np.floor(columns["age"] + 0.5).astype(np.int64)
    columns["gender"] = categoricals(np.array([cumulative_weights(dists.gender_probs)]),
                                     u[:, -1])
    return SimpleNamespace(**columns)


def trait_codes(x):
    """The trait code of the three behavior-relevant traits of x, a user or
    a Corpus, whose traits are scalars or arrays alike: a trait is high iff
    its value > 3.0, the Likert midpoint."""
    return (4 * (x.domain_expertise > LIKERT_BINARY_THRESHOLD)
            + 2 * (x.trust_propensity > LIKERT_BINARY_THRESHOLD)
            + (x.technical_affinity > LIKERT_BINARY_THRESHOLD))


def trait_flags(code) -> tuple:
    """The (domain expertise, trust propensity, technical affinity) bits of
    a trait code as 0 or 1, for an int or an int array alike."""
    return (code >> 2) & 1, (code >> 1) & 1, code & 1


def default_trait_distributions() -> TraitDistributions:
    """Stand-in population used by the synthetic generator.

    The source study population is not published; these moments give a
    spread of user types across all eight trait codes.
    """
    return TraitDistributions(
        age=TruncGauss(38.0, 12.0, AGE_MIN, AGE_MAX),
        technical_affinity=TruncGauss(3.4, 0.9, LIKERT_MIN, LIKERT_MAX),
        trust_propensity=TruncGauss(3.1, 1.0, LIKERT_MIN, LIKERT_MAX),
        domain_expertise=TruncGauss(2.9, 1.1, LIKERT_MIN, LIKERT_MAX),
        openness=TruncGauss(3.5, 0.8, LIKERT_MIN, LIKERT_MAX),
        conscientiousness=TruncGauss(3.6, 0.7, LIKERT_MIN, LIKERT_MAX),
        extraversion=TruncGauss(3.0, 0.9, LIKERT_MIN, LIKERT_MAX),
        agreeableness=TruncGauss(3.4, 0.7, LIKERT_MIN, LIKERT_MAX),
        neuroticism=TruncGauss(2.8, 0.9, LIKERT_MIN, LIKERT_MAX),
        gender_probs=(0.48, 0.48, 0.04),
    )
