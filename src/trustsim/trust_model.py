"""Trust target construction, feature extraction, and a linear
one-vs-rest max-margin trust classifier.

The target folds the four self-reported measures (trust, competence,
reliability, predictability) into one 1..5 label. Features combine the
static profile, the current turn, and a 2-step lag window. For one turn
they come from `extract_features`; for a whole corpus `corpus_to_dataset`
builds them column-wise, equal to that per-turn path row for row.
Training is full-batch subgradient descent on the hinge loss with L2
regularization and the Pegasos step 1/(lambda t), deterministic by
construction. All classes train together: the bias rides as a last
weight over a column of ones, and each epoch is two matrix products, the
margins of every class and row, then the hinge gradients of every class.
Evaluation scores the whole corpus in one product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .corpus import (
    ACT_ORDER,
    Corpus,
    LIKERT_MAX,
    LIKERT_MIN,
    SCALE_TRAITS,
    STEPS_PER_DIALOG,
    ProactiveAct,
    complexity_of_step,
)
from .errors import (
    DegenerateLabels,
    EmptyTestSet,
    InsufficientData,
    InvalidConfig,
    LengthMismatch,
    SchemaMismatch,
    ValueOutOfRange,
    read_json,
)
from .user_model import GENDER_ORDER, UserProfile

SCHEMA_VERSION = "turn-features/v1"
LAG_WINDOW = 2
TRUST_CLASSES = tuple(range(LIKERT_MIN, LIKERT_MAX + 1))

# Neutral stand-ins for missing lag slots at dialog start.
NEUTRAL_LIKERT = 3
_LAG_FILL = [0.0] * len(ACT_ORDER) + [float(NEUTRAL_LIKERT), 0.0, 0.0, 0.0, 0.0,
                                      float(NEUTRAL_LIKERT)]
TrustLabel = int


def combine_trust_target(trust: int, competence: int, reliability: int,
                         predictability: int) -> TrustLabel:
    """Fold the four rating scales into one label: mean, rounded half-up."""
    values = (trust, competence, reliability, predictability)
    names = ("trust", "competence", "reliability", "predictability")
    for name, v in zip(names, values):
        if isinstance(v, bool) or not isinstance(v, int) \
                or not LIKERT_MIN <= v <= LIKERT_MAX:
            raise ValueOutOfRange(name, v, detail="Likert value in 1..5")
    return int(math.floor(sum(values) / 4.0 + 0.5))


@dataclass(frozen=True)
class TurnContext:
    """The observable slice of one exchange, plus the combined trust
    label once known (used only as a lag feature for later steps)."""

    proactive_act: ProactiveAct
    complexity: int
    step: int
    difficulty: int
    duration: float
    game_score: float
    help_request: bool
    suggestion_request: bool
    trust_label: int | None = None

    @classmethod
    def from_turn(cls, step: int, act: ProactiveAct, turn,
                  trust_label: int | None = None) -> "TurnContext":
        return cls(
            proactive_act=act, complexity=complexity_of_step(step), step=step,
            difficulty=turn.difficulty, duration=turn.duration,
            game_score=turn.game_score, help_request=turn.help_request,
            suggestion_request=turn.suggestion_request, trust_label=trust_label,
        )


def _build_feature_names() -> tuple:
    names = ["age"]
    names += [f"gender={g.value}" for g in GENDER_ORDER]
    names += ["technical_affinity", "trust_propensity", "domain_expertise",
              "openness", "conscientiousness", "extraversion", "agreeableness",
              "neuroticism"]
    current = [f"act={a.value}" for a in ACT_ORDER]
    current += ["complexity", "step", "difficulty", "duration", "game_score",
                "help_request", "suggestion_request"]
    names += current
    for lag in range(1, LAG_WINDOW + 1):
        names += [f"lag{lag}:act={a.value}" for a in ACT_ORDER]
        names += [f"lag{lag}:{f}" for f in ("difficulty", "duration", "game_score",
                                            "help_request", "suggestion_request",
                                            "trust")]
    return tuple(names)


FEATURE_NAMES = _build_feature_names()
N_FEATURES = len(FEATURE_NAMES)


def _act_onehot(act: ProactiveAct) -> list:
    return [1.0 if a is act else 0.0 for a in ACT_ORDER]


def extract_features(profile: UserProfile, history, current: TurnContext) -> np.ndarray:
    """Feature vector for predicting trust at `current`.

    `history` holds this dialog's earlier turns in step order; only the
    last LAG_WINDOW entries are read. Causal by construction: nothing
    after `current.step` is touched.
    """
    history = list(history)
    if current.step < 1:
        raise SchemaMismatch(f"current step must be >= 1, got {current.step}")
    steps = [h.step for h in history] + [current.step]
    if any(a >= b for a, b in zip(steps, steps[1:])):
        raise SchemaMismatch("history must be strictly step-ordered and precede current")

    vec = [float(profile.age)]
    vec += [1.0 if g is profile.gender else 0.0 for g in GENDER_ORDER]
    vec += [profile.technical_affinity, profile.trust_propensity,
            profile.domain_expertise, profile.openness, profile.conscientiousness,
            profile.extraversion, profile.agreeableness, profile.neuroticism]

    vec += _act_onehot(current.proactive_act)
    vec += [float(current.complexity), float(current.step), float(current.difficulty),
            current.duration, current.game_score, float(current.help_request),
            float(current.suggestion_request)]

    for lag in range(1, LAG_WINDOW + 1):
        if lag <= len(history):
            h = history[-lag]
            trust = h.trust_label if h.trust_label is not None else NEUTRAL_LIKERT
            vec += _act_onehot(h.proactive_act)
            vec += [float(h.difficulty), h.duration, h.game_score,
                    float(h.help_request), float(h.suggestion_request), float(trust)]
        else:
            vec += _LAG_FILL

    out = np.asarray(vec, dtype=float)
    if out.shape != (N_FEATURES,):
        raise SchemaMismatch(f"expected {N_FEATURES} features, built {out.shape}")
    return out


# Column layout of corpus_to_dataset, in FEATURE_NAMES order.
_PROFILE_TRAITS = attrgetter(*SCALE_TRAITS)
_TURN_FIELDS = attrgetter("complexity", "step", "difficulty", "duration",
                          "game_score", "help_request", "suggestion_request")
_RATINGS = attrgetter("trust", "competence", "reliability", "predictability")
_PROFILE_END = FEATURE_NAMES.index(f"act={ACT_ORDER[0].value}")
_TURN_END = FEATURE_NAMES.index(f"lag1:act={ACT_ORDER[0].value}")
_LAG_WIDTH = (N_FEATURES - _TURN_END) // LAG_WINDOW
# turn-block column of each lag column but the last (the trust label)
_LAG_FROM_TURN = [FEATURE_NAMES.index(name.removeprefix("lag1:")) - _PROFILE_END
                  for name in FEATURE_NAMES[_TURN_END:_TURN_END + _LAG_WIDTH - 1]]


def _float_rows(getter, items, width: int) -> np.ndarray:
    return np.array([getter(item) for item in items], dtype=float).reshape(len(items), width)


def corpus_to_dataset(corpus: Corpus) -> tuple:
    """(X, y, user_ids) over every exchange, lag labels teacher-forced.

    Built column-wise: the corpus holds steps 1..12 in order for every
    user, so X is 12 rows per user, and lag k is the current-turn block
    shifted down k rows within each dialog, with the neutral fill of
    `extract_features` before step k + 1. Row for row equal to calling
    `extract_features` on every exchange.
    """
    users = corpus.users
    exchanges = [ex for user in users for ex in corpus.dialogs[user.user_id]]
    n = len(exchanges)
    ratings = _float_rows(_RATINGS, exchanges, 4)
    # combine_trust_target's arithmetic; Exchange has checked the 1..5 range
    labels = np.floor(ratings.sum(axis=1) / 4.0 + 0.5)

    profile = np.zeros((len(users), _PROFILE_END))
    profile[:, 0] = [u.age for u in users]
    profile[np.arange(len(users)), [1 + GENDER_ORDER.index(u.gender) for u in users]] = 1.0
    profile[:, 1 + len(GENDER_ORDER):] = _float_rows(_PROFILE_TRAITS, users,
                                                     len(SCALE_TRAITS))

    turn = np.zeros((n, _TURN_END - _PROFILE_END))
    turn[np.arange(n), [ACT_ORDER.index(ex.proactive_act) for ex in exchanges]] = 1.0
    turn[:, len(ACT_ORDER):] = _float_rows(_TURN_FIELDS, exchanges,
                                           turn.shape[1] - len(ACT_ORDER))
    lag = np.concatenate([turn[:, _LAG_FROM_TURN], labels[:, None]], axis=1)
    lag = lag.reshape(len(users), STEPS_PER_DIALOG, _LAG_WIDTH)

    X = np.empty((n, N_FEATURES))
    X[:, :_PROFILE_END] = np.repeat(profile, STEPS_PER_DIALOG, axis=0)
    X[:, _PROFILE_END:_TURN_END] = turn
    dialog_steps = X.reshape(len(users), STEPS_PER_DIALOG, N_FEATURES)
    for k in range(1, LAG_WINDOW + 1):
        start = _TURN_END + (k - 1) * _LAG_WIDTH
        block = dialog_steps[:, :, start:start + _LAG_WIDTH]
        block[:, :k] = _LAG_FILL
        block[:, k:] = lag[:, :-k]
    owners = tuple(u.user_id for u in users for _ in range(STEPS_PER_DIALOG))
    return X, labels.astype(int), owners


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    l2: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if not self.l2 > 0:
            raise InvalidConfig(f"l2 must be > 0, got {self.l2}")


@dataclass(frozen=True, eq=False)
class TrustClassifier:
    """One-vs-rest linear max-margin model over standardized features."""

    schema_version: str
    classes: tuple  # labels with training support, ascending
    weights: np.ndarray  # (n_classes, n_features)
    biases: np.ndarray  # (n_classes,)
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def scores(self, features: np.ndarray) -> np.ndarray:
        if features.shape != self.feature_mean.shape:
            raise SchemaMismatch(
                f"expected {self.feature_mean.shape[0]} features, got {features.shape}"
            )
        z = (features - self.feature_mean) / self.feature_scale
        return self.weights @ z + self.biases


def train_classifier(corpus: Corpus, config: TrainConfig = TrainConfig()) -> TrustClassifier:
    X, y, _ = corpus_to_dataset(corpus)
    if len(y) < 2:
        raise InsufficientData(f"need >= 2 labeled exchanges, got {len(y)}")
    present = tuple(sorted(set(int(v) for v in y)))
    if len(present) < 2:
        raise DegenerateLabels(f"all labels equal {present[0]}; nothing to separate")

    mean = X.mean(axis=0)
    scale = X.std(axis=0, ddof=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    n, n_features = X.shape
    # Standardized features plus a column of ones, so the bias is the last
    # weight; X is dropped before the transpose so that at most two n x F
    # copies are live.
    Z1 = np.empty((n, n_features + 1))
    np.subtract(X, mean, out=Z1[:, :n_features])
    Z1[:, :n_features] /= scale
    Z1[:, n_features] = 1.0
    del X
    Z1T = np.ascontiguousarray(Z1.T)

    lam = config.l2
    TT = np.where(y == np.array(present)[:, None], 1.0, -1.0)  # classes x rows
    V = np.zeros((len(present), n_features + 1))  # weights, then the bias
    reg = np.ones(n_features + 1)
    reg[n_features] = 0.0  # the bias is not regularized
    M = np.empty_like(TT)
    for t in range(1, config.epochs + 1):
        eta = 1.0 / (lam * t)
        np.matmul(V, Z1T, out=M)
        M *= TT
        # a class whose every margin holds gets a zero row: the plain decay step
        A = TT * (M < 1.0)
        V = V - eta * (lam * V * reg - (A @ Z1) / n)

    return TrustClassifier(
        schema_version=SCHEMA_VERSION, classes=present,
        weights=np.ascontiguousarray(V[:, :n_features]),
        biases=V[:, n_features].copy(), feature_mean=mean, feature_scale=scale,
    )


def predict_trust(model: TrustClassifier, features: np.ndarray) -> tuple:
    """(label, per-class score map); ties break toward the lower label."""
    scores = model.scores(np.asarray(features, dtype=float))
    label = model.classes[int(np.argmax(scores))]
    return label, {cls: float(s) for cls, s in zip(model.classes, scores)}


@dataclass(frozen=True)
class ClassifierReport:
    n: int
    accuracy: float
    macro_f1: float
    majority_baseline: float
    confusion: tuple  # 5x5, rows = true label 1..5, cols = predicted

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "accuracy": self.accuracy, "macro_f1": self.macro_f1,
            "majority_baseline": self.majority_baseline,
            "confusion": [list(row) for row in self.confusion],
            "classes": list(TRUST_CLASSES),
        }


def classification_metrics(y_true, y_pred) -> ClassifierReport:
    """Metrics from aligned label/prediction pairs. Macro-F1 averages the
    classes with test support; others carry no vote."""
    y = np.asarray(y_true, dtype=int)
    predicted = np.asarray(y_pred, dtype=int)
    if y.shape != predicted.shape:
        raise LengthMismatch(f"{y.shape} labels vs {predicted.shape} predictions")
    if len(y) == 0:
        raise EmptyTestSet("no labeled exchanges to evaluate on")

    confusion = [[0] * len(TRUST_CLASSES) for _ in TRUST_CLASSES]
    for truth, pred in zip(y, predicted):
        confusion[truth - LIKERT_MIN][pred - LIKERT_MIN] += 1

    accuracy = float((predicted == y).mean())
    counts = np.bincount(y, minlength=LIKERT_MAX + 1)
    majority = float(counts.max() / len(y))

    f1s = []
    for cls in TRUST_CLASSES:
        support = int((y == cls).sum())
        if support == 0:
            continue
        tp = int(((predicted == cls) & (y == cls)).sum())
        fp = int(((predicted == cls) & (y != cls)).sum())
        fn = support - tp
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    macro_f1 = float(sum(f1s) / len(f1s)) if f1s else 0.0

    return ClassifierReport(
        n=len(y), accuracy=accuracy, macro_f1=macro_f1,
        majority_baseline=majority,
        confusion=tuple(tuple(row) for row in confusion),
    )


def evaluate_classifier(model: TrustClassifier, corpus: Corpus) -> ClassifierReport:
    """Scores every exchange in one product; ties go to the lower label,
    as in predict_trust."""
    X, y, _ = corpus_to_dataset(corpus)
    if len(y) == 0:
        raise EmptyTestSet("no labeled exchanges to evaluate on")
    if model.feature_mean.shape != (N_FEATURES,):
        raise SchemaMismatch(
            f"model expects {model.feature_mean.shape[0]} features, data has {N_FEATURES}"
        )
    Z = (X - model.feature_mean) / model.feature_scale
    scores = Z @ model.weights.T + model.biases
    predicted = np.asarray(model.classes)[np.argmax(scores, axis=1)]
    return classification_metrics(y, predicted)


# v2: all classes trained jointly, bias folded into the weights; the
# weights' last bits differ from v1, so a v1 model must be refit.
MODEL_FORMAT = "trust-model/v2"


def classifier_to_json_dict(model: TrustClassifier) -> dict:
    return {
        "format": MODEL_FORMAT,
        "schema_version": model.schema_version,
        "feature_names": list(FEATURE_NAMES),
        "classes": list(model.classes),
        "weights": [list(map(float, row)) for row in model.weights],
        "biases": [float(v) for v in model.biases],
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_scale": [float(v) for v in model.feature_scale],
    }


def classifier_from_json_dict(payload) -> TrustClassifier:
    if not isinstance(payload, dict):
        raise InvalidConfig(f"model JSON must be an object, got {type(payload).__name__}")
    if payload.get("format") != MODEL_FORMAT:
        raise InvalidConfig(f"unsupported model format {payload.get('format')!r}, "
                            f"expected {MODEL_FORMAT!r}: refit the model")
    try:
        schema = payload["schema_version"]
        classes = tuple(payload["classes"])
        weights = np.array(payload["weights"], dtype=float)
        biases = np.array(payload["biases"], dtype=float)
        mean = np.array(payload["feature_mean"], dtype=float)
        scale = np.array(payload["feature_scale"], dtype=float)
    except KeyError as exc:
        raise SchemaMismatch(f"model is missing key {exc}") from exc
    # a non-list classes entry, or arrays of non-numbers or ragged rows
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed model: {exc}") from exc
    if schema != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"model built for schema {schema}, runtime is {SCHEMA_VERSION}"
        )
    if any(type(c) is not int or c not in TRUST_CLASSES for c in classes):
        raise SchemaMismatch(f"model classes {list(classes)} are not trust levels "
                             f"{list(TRUST_CLASSES)}")
    if (weights.shape != (len(classes), N_FEATURES) or biases.shape != (len(classes),)
            or mean.shape != (N_FEATURES,) or scale.shape != (N_FEATURES,)):
        raise SchemaMismatch(
            f"weights {weights.shape}, biases {biases.shape}, feature_mean "
            f"{mean.shape} and feature_scale {scale.shape} do not fit "
            f"{len(classes)} classes x {N_FEATURES} features"
        )
    # scores() divides by feature_scale; a NaN or a zero there would give
    # every turn the same predicted class
    for name, values, ok, detail in (
            ("weights", weights, np.isfinite(weights), "must be finite"),
            ("biases", biases, np.isfinite(biases), "must be finite"),
            ("feature_mean", mean, np.isfinite(mean), "must be finite"),
            ("feature_scale", scale, np.isfinite(scale) & (scale > 0),
             "must be finite and > 0")):
        if not ok.all():
            raise ValueOutOfRange(name, float(values[~ok][0]), detail=detail)
    return TrustClassifier(
        schema_version=schema, classes=classes,
        weights=weights, biases=biases, feature_mean=mean, feature_scale=scale,
    )


def save_classifier(model: TrustClassifier, path) -> None:
    Path(path).write_text(
        json.dumps(classifier_to_json_dict(model), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_classifier(path) -> TrustClassifier:
    return classifier_from_json_dict(read_json(path, "model"))
