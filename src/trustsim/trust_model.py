"""Trust target construction, feature extraction, and a linear
one-vs-rest max-margin trust classifier.

The target folds the four self-reported measures (trust, competence,
reliability, predictability) into one 1..5 label. Features combine the
static profile, the current turn, and a 2-step lag window, in one column
layout. `start_rows` writes the row each dialog starts from, the profile
block and the neutral lag fill, and `turn_blocks` the current-turn block
of each turn; both builders use them: `corpus_to_dataset` column-wise for
a whole corpus, `DialogFeatures` turn by turn for one dialog, copying in
each turn's prepared block. Both equal, row for row, the per-turn oracle
`reference_features` in `tests/conftest.py`.
Training is full-batch subgradient descent on the hinge loss with L2
regularization and the Pegasos step 1/(lambda t), deterministic by
construction. All classes train together on standardized features: the
bias rides as a last weight over a column of ones, and each epoch is two
matrix products, the margins of every class and row, then the hinge
gradients of every class. The standardization is then folded into the
stored weights and biases, so a score is one affine map of the raw
features, for one turn or for a whole corpus at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .corpus import (
    ACT_ORDER,
    AGE_MAX,
    COMPLEXITY_LEVELS,
    Corpus,
    DURATION_HI,
    GENDER_ORDER,
    LIKERT_MAX,
    LIKERT_MIN,
    SCALE_TRAITS,
    STEPS_PER_DIALOG,
    max_option_score,
)
from .errors import (
    DegenerateLabels,
    EmptyTestSet,
    InsufficientData,
    InvalidConfig,
    LengthMismatch,
    SchemaMismatch,
    ValueOutOfRange,
    integer,
    read_json,
    write_json,
)

SCHEMA_VERSION = "turn-features/v1"
LAG_WINDOW = 2
TRUST_CLASSES = tuple(range(LIKERT_MIN, LIKERT_MAX + 1))

# Neutral stand-ins for missing lag slots at dialog start.
NEUTRAL_LIKERT = 3
_LAG_FILL = [0.0] * len(ACT_ORDER) + [float(NEUTRAL_LIKERT), 0.0, 0.0, 0.0, 0.0,
                                      float(NEUTRAL_LIKERT)]
TrustLabel = int


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

# The top of each feature's range (every feature is >= 0). A one-hot
# entry's is 1, a lagged feature's that of its current-turn twin.
_BOUNDS = {"age": AGE_MAX, "complexity": max(COMPLEXITY_LEVELS),
           "step": STEPS_PER_DIALOG, "duration": DURATION_HI,
           "game_score": max_option_score(max(COMPLEXITY_LEVELS)),
           "help_request": 1, "suggestion_request": 1,
           **dict.fromkeys(SCALE_TRAITS + ("difficulty", "trust"), LIKERT_MAX)}
_FEATURE_BOUNDS = np.array([1.0 if "=" in name else _BOUNDS[name.rpartition(":")[2]]
                           for name in FEATURE_NAMES])


# Column layout of a feature row, in FEATURE_NAMES order: the profile
# block, the current-turn block, then LAG_WINDOW lag blocks of _LAG_WIDTH
# columns, lag 1 first.
_PROFILE_TRAITS = attrgetter(*SCALE_TRAITS)
# the current-turn block after its act one-hot
_TURN_FIELDS = ("complexity", "step", "difficulty", "duration", "game_score",
                "help_request", "suggestion_request")
_PROFILE_END = FEATURE_NAMES.index(f"act={ACT_ORDER[0].value}")
_TURN_END = FEATURE_NAMES.index(f"lag1:act={ACT_ORDER[0].value}")
_LAG_WIDTH = (N_FEATURES - _TURN_END) // LAG_WINDOW
# current-turn column of each lag column but the last (the trust label)
_LAG_FROM_TURN = np.array([FEATURE_NAMES.index(name.removeprefix("lag1:")) for name
                           in FEATURE_NAMES[_TURN_END:_TURN_END + _LAG_WIDTH - 1]])


# a row's columns after the profile block at dialog start
_ROW_START_TAIL = [0.0] * (_TURN_END - _PROFILE_END) + _LAG_FILL * LAG_WINDOW


def start_rows(users) -> np.ndarray:
    """The feature row each user's dialog starts from, one per user of
    Corpus-shaped columns (or one row for a one-user namespace), the one
    place such a row is written: the profile block (age, the gender index
    one-hot, the scale traits), then a zero current-turn block and the
    neutral lag fill."""
    profile = np.column_stack([users.age,
                               *(users.gender == g for g in range(len(GENDER_ORDER))),
                               *_PROFILE_TRAITS(users)])
    rows = np.empty((len(profile), N_FEATURES))
    rows[:, :_PROFILE_END] = profile
    rows[:, _PROFILE_END:] = _ROW_START_TAIL
    return rows


def turn_blocks(turns, blocks: np.ndarray | None = None) -> np.ndarray:
    """The current-turn block of each turn of Corpus-shaped exchange columns
    (the act index `proactive_act`, then complexity, step and the turn's
    five observed fields), the one place that block is written: the act
    one-hot, then those columns in FEATURE_NAMES order.

    Given `blocks`, an (n, 11) array of blocks, it writes into them the
    columns that `turns` has and leaves the others, so that columns shared
    by many blocks are written once; without, a column `turns` lacks is
    zero."""
    if blocks is None:
        blocks = np.zeros((len(turns.proactive_act), _TURN_END - _PROFILE_END))
    acts = getattr(turns, "proactive_act", None)
    if acts is not None:
        blocks[np.arange(len(blocks)), acts] = 1.0
    for j, name in enumerate(_TURN_FIELDS, start=len(ACT_ORDER)):
        column = getattr(turns, name, None)
        if column is not None:
            blocks[:, j] = column
    return blocks


class DialogFeatures:
    """The feature rows of one dialog, built turn by turn in a copy of its
    `start_rows` row, in the `corpus_to_dataset` layout. `write` writes the
    current turn's block in place, and `push` labels that turn with its
    trust and rolls it into the lag blocks, so no history is kept. The rows
    equal those `corpus_to_dataset` builds for a dialog whose trust labels
    are the pushed ones."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray):
        self._row = row.copy()

    def write(self, block: np.ndarray) -> np.ndarray:
        """Writes the current turn's block, a row of `turn_blocks`, and
        returns the row itself, which the next `write` overwrites."""
        self._row[_PROFILE_END:_TURN_END] = block
        return self._row

    def push(self, trust: int) -> None:
        """Lag 1 becomes lag 2, and the turn of the last `write`, labelled
        with this trust, becomes lag 1."""
        row = self._row
        row[_TURN_END + _LAG_WIDTH:] = row[_TURN_END:N_FEATURES - _LAG_WIDTH]
        row[_TURN_END:_TURN_END + _LAG_WIDTH - 1] = row[_LAG_FROM_TURN]
        row[_TURN_END + _LAG_WIDTH - 1] = trust


def corpus_to_dataset(corpus: Corpus) -> tuple:
    """(X, y) over every exchange, lag labels teacher-forced.

    Built column-wise: the corpus holds steps 1..12 in order for every
    user, so X is 12 rows per user, each first its dialog's `start_rows`
    row. The current-turn block is written over it, and lag k at steps
    k + 1..12 is that block shifted down k rows within each dialog, so
    the neutral fill stays before step k + 1. Row for row equal to the
    per-turn oracle `reference_features` in `tests/conftest.py` on every
    exchange.
    """
    n, n_users = corpus.exchange_count, corpus.n_dialogs
    # the label: the four ratings' mean, rounded half-up (Corpus checked 1..5)
    labels = np.floor((corpus.trust + corpus.competence + corpus.reliability
                       + corpus.predictability) / 4.0 + 0.5)

    turn = turn_blocks(corpus)
    lag = np.concatenate([turn[:, _LAG_FROM_TURN - _PROFILE_END], labels[:, None]], axis=1)
    lag = lag.reshape(n_users, STEPS_PER_DIALOG, _LAG_WIDTH)

    X = np.repeat(start_rows(corpus), STEPS_PER_DIALOG, axis=0)
    X[:, _PROFILE_END:_TURN_END] = turn
    dialog_steps = X.reshape(n_users, STEPS_PER_DIALOG, N_FEATURES)
    for k in range(1, LAG_WINDOW + 1):
        start = _TURN_END + (k - 1) * _LAG_WIDTH
        dialog_steps[:, k:, start:start + _LAG_WIDTH] = lag[:, :-k]
    return X, labels.astype(int)


# The weight of the L2 penalty on the weights (not the bias) in training
L2 = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    """The trainer's settings: epochs is an `errors.integer` >= 1."""

    epochs: int = 300

    def __post_init__(self):
        object.__setattr__(self, "epochs", integer("epochs", self.epochs, lo=1))


@dataclass(frozen=True, eq=False)
class TrustClassifier:
    """One-vs-rest linear max-margin model over raw features: the training
    standardization is folded into its weights and biases."""

    classes: tuple  # labels with training support, strictly ascending
    weights: np.ndarray  # (n_classes, n_features)
    biases: np.ndarray  # (n_classes,)

    def scores(self, features: np.ndarray) -> np.ndarray:
        """The class scores of one feature row, or one row of class scores
        per row of a feature matrix."""
        if features.ndim not in (1, 2) or features.shape[-1] != self.weights.shape[1]:
            raise SchemaMismatch(
                f"expected {self.weights.shape[1]} features, got {features.shape}"
            )
        return features @ self.weights.T + self.biases


def train_classifier(corpus: Corpus, config: TrainConfig = TrainConfig()) -> TrustClassifier:
    X, y = corpus_to_dataset(corpus)
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

    lam = L2
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

    # w . (x - mean) / scale + b == (w / scale) . x + (b - (w / scale) . mean)
    weights = V[:, :n_features] / scale
    return TrustClassifier(classes=present, weights=weights,
                           biases=V[:, n_features] - weights @ mean)


def predict_trust(model: TrustClassifier, features: np.ndarray) -> TrustLabel:
    """The label of the highest score; ties break toward the lower label."""
    return model.classes[model.scores(np.asarray(features, dtype=float)).argmax()]


@dataclass(frozen=True)
class ClassifierReport:
    n: int
    accuracy: float
    macro_f1: float
    majority_baseline: float
    confusion: tuple  # 5x5, rows = true label 1..5, cols = predicted


def _trust_labels(field: str, values) -> np.ndarray:
    """The labels as an integer array, checked to be integers in 1..5."""
    labels = np.asarray(values)
    if labels.dtype.kind in "iu":
        bad = (labels < LIKERT_MIN) | (labels > LIKERT_MAX)
        if not isinstance(values, np.ndarray):
            # numpy reads true and false among ints as ints
            bad |= [isinstance(v, (bool, np.bool_)) for v in values]
    else:
        bad = np.ones(labels.shape, dtype=bool)
    if bad.any():
        raise ValueOutOfRange(field, np.asarray(values, dtype=object)[bad][0],
                              detail="Likert value in 1..5")
    return labels.astype(np.intp)


def classification_metrics(y_true, y_pred) -> ClassifierReport:
    """Metrics from aligned label/prediction pairs. Macro-F1 averages the
    classes with test support; others carry no vote."""
    y = _trust_labels("y_true", y_true)
    predicted = _trust_labels("y_pred", y_pred)
    if y.shape != predicted.shape:
        raise LengthMismatch(f"{y.shape} labels vs {predicted.shape} predictions")
    if len(y) == 0:
        raise EmptyTestSet("no labeled exchanges to evaluate on")

    k = len(TRUST_CLASSES)
    confusion = np.bincount((y - LIKERT_MIN) * k + (predicted - LIKERT_MIN),
                            minlength=k * k).reshape(k, k)
    tp = np.diagonal(confusion)
    support = confusion.sum(axis=1)
    supported = support > 0
    # 2 tp + fp + fn = (tp + fp) + (tp + fn), positive where there is support
    f1 = (2 * tp[supported] / (confusion.sum(axis=0) + support)[supported]).tolist()
    return ClassifierReport(
        n=len(y), accuracy=float(tp.sum() / len(y)), macro_f1=sum(f1) / len(f1),
        majority_baseline=float(support.max() / len(y)),
        confusion=tuple(map(tuple, confusion.tolist())),
    )


def evaluate_classifier(model: TrustClassifier, corpus: Corpus) -> ClassifierReport:
    """Scores every exchange in one product; ties go to the lower label,
    as in predict_trust."""
    X, y = corpus_to_dataset(corpus)
    if len(y) == 0:
        raise EmptyTestSet("no labeled exchanges to evaluate on")
    predicted = np.asarray(model.classes)[model.scores(X).argmax(axis=1)]
    return classification_metrics(y, predicted)


# v3: the training standardization is folded into the stored weights and
# biases, which score raw features; v2 stored the standardized-space
# weights with feature_mean and feature_scale, so a v2 model must be refit.
MODEL_FORMAT = "trust-model/v3"

_MODEL_KEYS = frozenset({"format", "schema_version", "feature_names", "classes",
                         "weights", "biases"})


def classifier_to_json_dict(model: TrustClassifier) -> dict:
    return {
        "format": MODEL_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "classes": list(model.classes),
        "weights": [list(map(float, row)) for row in model.weights],
        "biases": [float(v) for v in model.biases],
    }


def classifier_from_json_dict(payload) -> TrustClassifier:
    if not isinstance(payload, dict):
        raise InvalidConfig(f"model JSON must be an object, got {type(payload).__name__}")
    if payload.get("format") != MODEL_FORMAT:
        raise InvalidConfig(f"unsupported model format {payload.get('format')!r}, "
                            f"expected {MODEL_FORMAT!r}: refit the model")
    if payload.keys() != _MODEL_KEYS:
        raise SchemaMismatch(f"model keys: unknown {sorted(payload.keys() - _MODEL_KEYS)}, "
                             f"missing {sorted(_MODEL_KEYS - payload.keys())}")
    try:
        classes = tuple(payload["classes"])
        weights = np.array(payload["weights"], dtype=float)
        biases = np.array(payload["biases"], dtype=float)
    # a non-list classes entry, arrays of non-numbers, ragged rows or huge ints
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"malformed model: {exc}") from exc
    if payload["schema_version"] != SCHEMA_VERSION:
        raise SchemaMismatch(f"model built for schema {payload['schema_version']}, "
                             f"runtime is {SCHEMA_VERSION}")
    if payload["feature_names"] != list(FEATURE_NAMES):
        raise SchemaMismatch(f"model feature_names {payload['feature_names']!r} are "
                             f"not the schema's {N_FEATURES} features")
    # predict_trust's ties go to the lower label only over ascending classes
    if any(type(c) is not int or c not in TRUST_CLASSES for c in classes) \
            or any(a >= b for a, b in zip(classes, classes[1:])):
        raise SchemaMismatch(f"model classes {list(classes)} are not distinct trust "
                             f"levels of {list(TRUST_CLASSES)} in ascending order")
    if weights.shape != (len(classes), N_FEATURES) or biases.shape != (len(classes),):
        raise SchemaMismatch(f"weights {weights.shape} and biases {biases.shape} do not "
                             f"fit {len(classes)} classes x {N_FEATURES} features")
    # |score| <= |w| . bound + |b| for every turn whose features lie in
    # their ranges [0, bound]. A NaN or inf weight or bias, or an overflow,
    # leaves this bound not finite.
    with np.errstate(all="ignore"):
        largest = np.abs(weights) @ _FEATURE_BOUNDS + np.abs(biases)
    if not np.isfinite(largest).all():
        raise ValueOutOfRange("largest score", float(np.max(largest)),
                              detail="weights and biases must be finite, "
                                     "and no score may overflow")
    return TrustClassifier(classes=classes, weights=weights, biases=biases)


def save_classifier(model: TrustClassifier, path) -> None:
    write_json(path, classifier_to_json_dict(model))


def load_classifier(path) -> TrustClassifier:
    return classifier_from_json_dict(read_json(path, "model"))
