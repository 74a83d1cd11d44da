"""Trust target construction, feature extraction, and a linear
one-vs-rest max-margin trust classifier.

The target folds the four self-reported measures (trust, competence,
reliability, predictability) into one 1..5 label. Features combine the
static profile, the current turn, and a 2-step lag window; training is
full-batch subgradient descent on the hinge loss with L2 regularization,
which is deterministic by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    ACT_ORDER,
    Corpus,
    Exchange,
    LIKERT_MAX,
    LIKERT_MIN,
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
)
from .user_model import GENDER_ORDER, UserProfile

SCHEMA_VERSION = "turn-features/v1"
LAG_WINDOW = 2
TRUST_CLASSES = tuple(range(LIKERT_MIN, LIKERT_MAX + 1))

# Neutral stand-ins for missing lag slots at dialog start.
NEUTRAL_LIKERT = 3
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
    def from_exchange(cls, ex: Exchange, with_label: bool = False) -> "TurnContext":
        label = combine_trust_target(ex.trust, ex.competence, ex.reliability,
                                     ex.predictability) if with_label else None
        return cls(
            proactive_act=ex.proactive_act, complexity=ex.complexity, step=ex.step,
            difficulty=ex.difficulty, duration=ex.duration, game_score=ex.game_score,
            help_request=ex.help_request, suggestion_request=ex.suggestion_request,
            trust_label=label,
        )

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
            vec += [0.0] * len(ACT_ORDER)
            vec += [float(NEUTRAL_LIKERT), 0.0, 0.0, 0.0, 0.0, float(NEUTRAL_LIKERT)]

    out = np.asarray(vec, dtype=float)
    if out.shape != (N_FEATURES,):
        raise SchemaMismatch(f"expected {N_FEATURES} features, built {out.shape}")
    return out


def corpus_to_dataset(corpus: Corpus) -> tuple:
    """(X, y, user_ids) over every exchange, lag labels teacher-forced."""
    rows, labels, owners = [], [], []
    for user in corpus.users:
        history = []
        for ex in corpus.dialogs[user.user_id]:
            current = TurnContext.from_exchange(ex)
            label = combine_trust_target(ex.trust, ex.competence, ex.reliability,
                                         ex.predictability)
            rows.append(extract_features(user, history, current))
            labels.append(label)
            owners.append(user.user_id)
            history.append(TurnContext.from_exchange(ex, with_label=True))
    if rows:
        X = np.vstack(rows)
    else:
        X = np.empty((0, N_FEATURES))
    return X, np.asarray(labels, dtype=int), tuple(owners)


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
    Z = (X - mean) / scale
    n = Z.shape[0]

    lam = config.l2
    W = np.zeros((len(present), Z.shape[1]))
    b = np.zeros(len(present))
    for ci, cls in enumerate(present):
        target = np.where(y == cls, 1.0, -1.0)
        w = np.zeros(Z.shape[1])
        bias = 0.0
        for t in range(1, config.epochs + 1):
            eta = 1.0 / (lam * t)
            margins = target * (Z @ w + bias)
            active = margins < 1.0
            if active.any():
                grad_w = lam * w - (target[active, None] * Z[active]).sum(axis=0) / n
                grad_b = -target[active].sum() / n
            else:
                grad_w = lam * w
                grad_b = 0.0
            w = w - eta * grad_w
            bias = bias - eta * grad_b
        W[ci] = w
        b[ci] = bias

    return TrustClassifier(
        schema_version=SCHEMA_VERSION, classes=present, weights=W, biases=b,
        feature_mean=mean, feature_scale=scale,
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
    X, y, _ = corpus_to_dataset(corpus)
    if len(y) == 0:
        raise EmptyTestSet("no labeled exchanges to evaluate on")
    predicted = [predict_trust(model, x)[0] for x in X]
    return classification_metrics(y, predicted)


MODEL_FORMAT = "trust-model/v1"


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
        raise InvalidConfig(f"unsupported model format {payload.get('format')!r}")
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
    return classifier_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
