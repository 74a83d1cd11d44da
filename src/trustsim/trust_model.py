"""Trust target construction, feature extraction, and a linear
one-vs-rest max-margin trust classifier.

The target folds the four self-reported measures (trust, competence,
reliability, predictability) into one 1..5 label. Features combine the
static profile, the current turn, and a 2-step lag window, in one column
layout. `start_rows` writes the row each dialog starts from, the profile
block and the neutral lag fill, `turn_blocks` the current-turn block of
each turn, and `dialog_rows`, from those two, the rows of whole dialogs
with their lag blocks. `corpus_to_dataset` is `dialog_rows` over a corpus,
or a run of its dialogs, and the RL env's fallback step over the turns it
has taken; both equal, row for row, the per-turn oracle
`reference_features` in `tests/conftest.py`.
Training is full-batch subgradient descent on the hinge loss with L2
regularization and the Pegasos step 1/(lambda t), deterministic by
construction. All classes train together on one transposed standardized
copy of the features, features by rows, whose last row of ones carries
the bias as a last weight. It is written a block of dialogs at a time, so
no whole feature matrix is held beside it, and standardized with the mean
and scale that numpy's reductions of the whole matrix give, bit for bit.
Each epoch takes its two matrix products, the margins of every class and
exchange, then the hinge gradients of every
class, block by block: a block of exchanges stays in L2 from the first
product to the second, and the blocks' gradients are summed in order.
The standardization is then folded into the stored weights and biases,
so a score is one affine map of the raw features, for one turn or for a
whole corpus at once. `ScoreParts` splits that map by the row's blocks,
so that a dialog is scored a turn at a time by adding the parts its turns
contribute, with a bound on the rounding of any order of that sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace

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
    USER_COLUMNS,
    complexity_of_step,
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
    json_numbers,
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


def dialog_rows(starts: np.ndarray, blocks: np.ndarray, labels) -> np.ndarray:
    """The (n, T, N_FEATURES) feature rows of n dialogs of T turns, the one
    place lag blocks are written: each dialog's `starts` row, with the
    (n, T, 11) current-turn `blocks` (rows of `turn_blocks`) written over
    it, and lag k at turns k + 1..T the block of the turn k back, labelled
    with its (n, T) trust `labels`, so the neutral fill stays before turn
    k + 1. The label of a dialog's last turn is never read."""
    rows = np.repeat(starts[:, None], blocks.shape[1], axis=1)
    rows[:, :, _PROFILE_END:_TURN_END] = blocks
    lag = np.concatenate([blocks[..., _LAG_FROM_TURN - _PROFILE_END],
                          np.asarray(labels, dtype=float)[..., None]], axis=-1)
    for k in range(1, LAG_WINDOW + 1):
        start = _TURN_END + (k - 1) * _LAG_WIDTH
        rows[:, k:, start:start + _LAG_WIDTH] = lag[:, :-k]
    return rows


# The current-turn blocks of a dialog's 12 turns with their step and
# complexity columns, the same in every dialog, written and the rest zero,
# and the Corpus exchange columns that fill the rest.
_STEPS = range(1, STEPS_PER_DIALOG + 1)
_DIALOG_BLOCKS = turn_blocks(
    SimpleNamespace(step=_STEPS, complexity=list(map(complexity_of_step, _STEPS))),
    np.zeros((STEPS_PER_DIALOG, _TURN_END - _PROFILE_END)))
_OBSERVED = ("proactive_act",) + _TURN_FIELDS[2:]


def corpus_to_dataset(corpus: Corpus, start: int = 0, stop: int | None = None) -> tuple:
    """(X, y) over every exchange of the dialogs start..stop - 1 (by
    default all of them), lag labels teacher-forced: the corpus holds steps
    1..12 in order for every user, so X is the `dialog_rows` of those
    dialogs, 12 rows per user, and y their labels, the one place the label
    rule is written. The rows of a run of dialogs are those of the whole
    corpus's X, so `train_classifier` and `evaluate_classifier` read X a
    block of dialogs at a time.
    Row for row equal to the per-turn oracle `reference_features` in
    `tests/conftest.py` on every exchange.
    """
    users = range(corpus.n_dialogs)[start:stop]
    turns = slice(users.start * STEPS_PER_DIALOG, users.stop * STEPS_PER_DIALOG)
    # the label: the four ratings' mean, rounded half-up (Corpus checked 1..5)
    labels = np.floor((corpus.trust[turns] + corpus.competence[turns]
                       + corpus.reliability[turns] + corpus.predictability[turns]) / 4.0 + 0.5)
    blocks = turn_blocks(SimpleNamespace(**{name: getattr(corpus, name)[turns]
                                            for name in _OBSERVED}),
                         np.tile(_DIALOG_BLOCKS, (len(users), 1)))
    starts = start_rows(SimpleNamespace(**{name: getattr(corpus, name)[users.start:users.stop]
                                           for name in USER_COLUMNS[1:]}))
    shape = (len(users), STEPS_PER_DIALOG)
    X = dialog_rows(starts, blocks.reshape(*shape, _TURN_END - _PROFILE_END),
                    labels.reshape(shape))
    return X.reshape(-1, N_FEATURES), labels.astype(int)


# The weight of the L2 penalty on the weights (not the bias) in training
L2 = 1e-3
# Exchanges per block of an epoch: a block of the standardized copy,
# 48 x 2048 floats (0.79 MB), stays in a 2 MB L2 from the margins product
# to the gradient product that reads it again. Blocks of 1024 to 4096 tie;
# one of 8192 (3.1 MB) loses the gain.
_BLOCK = 2048
# Dialogs per block of the feature rows that train_classifier standardizes
# and evaluate_classifier scores: a block's _ROWS rows, 516 x 43 floats
# (0.18 MB), are all of them either holds at a time.
_DIALOG_BLOCK = 43
_ROWS = _DIALOG_BLOCK * STEPS_PER_DIALOG


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

    def __post_init__(self):
        # predict_trust's ties go to the lower label only over ascending
        # classes, and ScoreParts places each class at its trust level
        try:
            classes = tuple(integer("classes entry", label, LIKERT_MIN, LIKERT_MAX,
                                    SchemaMismatch) for label in self.classes)
        except TypeError:
            raise SchemaMismatch(f"classes must be a sequence, got {self.classes!r}") from None
        if not classes or any(a >= b for a, b in zip(classes, classes[1:])):
            raise SchemaMismatch(f"classes {list(classes)} are not distinct trust levels "
                                 f"of {list(TRUST_CLASSES)} in ascending order")
        object.__setattr__(self, "classes", classes)
        # any finite or non-finite values and any feature count: predict_trust
        # and the file reader check those where they need them
        weights, biases = np.shape(self.weights), np.shape(self.biases)
        if len(weights) != 2 or len(biases) != 1 \
                or not len(self.classes) == weights[0] == biases[0]:
            raise SchemaMismatch(f"weights {weights} and biases {biases} do not fit "
                                 f"{len(self.classes)} classes")

    def scores(self, features: np.ndarray) -> np.ndarray:
        """The class scores of one feature row, or one row of class scores
        per row of a feature matrix."""
        if features.ndim not in (1, 2) or features.shape[-1] != self.weights.shape[1]:
            raise SchemaMismatch(
                f"expected {self.weights.shape[1]} features, got {features.shape}"
            )
        return features @ self.weights.T + self.biases


def _running_sum(rows: np.ndarray, total) -> np.ndarray:
    """rows.sum(axis=0) carried on from `total`, the sum of the rows before
    them (None where there are none), bit for bit the sum of all of them
    in one reduction: numpy sums a C-order array down axis 0 a row at a
    time, in row order, and rows[0] + total == total + rows[0]. Writes the
    carried sum over rows[0]."""
    if total is not None:
        rows[0] += total
    return rows.sum(axis=0)


def _standardized(rows, n: int) -> tuple:
    """(Z1T, mean, scale) of n feature rows, `rows(start, stop)` being rows
    start..stop - 1 as a C-order array: the one standardized copy, features
    by rows plus a last row of ones, and the mean and scale (the standard
    deviation, 1 where it is 0) it was taken with. Bit for bit X.mean(axis=0),
    X.std(axis=0) and (X - mean) / scale of the rows held as one matrix X:
    each sum runs over the rows in their order (`_running_sum`). The rows
    are read _ROWS at a time, and beside Z1T one such block is held at a
    time: a block of `rows`, then the scratch block in which the squared
    deviations are summed."""
    Z1T = np.empty((N_FEATURES + 1, n))
    Z = Z1T[:N_FEATURES]
    total = None
    for start in range(0, n, _ROWS):
        X = rows(start, start + _ROWS)
        Z[:, start:start + len(X)] = X.T
        total = _running_sum(X, total)
        del X  # the next block is built without this one
    mean = total / n
    np.subtract(Z, mean[:, None], out=Z)
    total, scratch = None, np.empty((min(_ROWS, n), N_FEATURES))
    for start in range(0, n, _ROWS):
        squares = np.square(Z[:, start:start + _ROWS].T, out=scratch[:n - start])
        total = _running_sum(squares, total)
    scale = np.sqrt(total / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    Z /= scale[:, None]
    Z1T[N_FEATURES] = 1.0
    return Z1T, mean, scale


def train_classifier(corpus: Corpus, config: TrainConfig = TrainConfig()) -> TrustClassifier:
    """The one-vs-rest model of the corpus's exchanges (`corpus_to_dataset`),
    trained on their one standardized copy (`_standardized`), into which
    their feature rows are written a block of _DIALOG_BLOCK dialogs at a
    time: no whole feature matrix is held beside it."""
    n = corpus.exchange_count
    if n < 2:
        raise InsufficientData(f"need >= 2 labeled exchanges, got {n}")
    y = np.empty(n, dtype=int)

    def rows(start: int, stop: int) -> np.ndarray:
        X, labels = corpus_to_dataset(corpus, start // STEPS_PER_DIALOG,
                                      stop // STEPS_PER_DIALOG)
        y[start:stop] = labels
        return X

    Z1T, mean, scale = _standardized(rows, n)
    present = tuple(np.flatnonzero(np.bincount(y)).tolist())  # labels are 1..5
    if len(present) < 2:
        raise DegenerateLabels(f"all labels equal {present[0]}; nothing to separate")

    lam = L2
    TT = np.where(y == np.array(present)[:, None], 1.0, -1.0)  # classes x rows
    blocks = [(Z1T[:, s:s + _BLOCK], TT[:, s:s + _BLOCK]) for s in range(0, n, _BLOCK)]
    V = np.zeros((len(present), N_FEATURES + 1))  # weights, then the bias
    reg = np.ones(N_FEATURES + 1)
    reg[N_FEATURES] = 0.0  # the bias is not regularized
    for t in range(1, config.epochs + 1):
        eta = 1.0 / (lam * t)
        G = np.zeros_like(V)
        for Zc, Tc in blocks:
            M = V @ Zc
            M *= Tc
            # a class whose every margin holds gets a zero row: the plain decay step
            A = Tc * (M < 1.0)
            G += A @ Zc.T
        V = V - eta * (lam * V * reg - G / n)

    # w . (x - mean) / scale + b == (w / scale) . x + (b - (w / scale) . mean)
    weights = V[:, :N_FEATURES] / scale
    return TrustClassifier(classes=present, weights=weights,
                           biases=V[:, N_FEATURES] - weights @ mean)


def predict_trust(model: TrustClassifier, features: np.ndarray) -> TrustLabel:
    """The label of the highest score; ties break toward the lower label."""
    return model.classes[model.scores(np.asarray(features, dtype=float)).argmax()]


def _largest_scores(weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """|w_c| . bounds + |b_c| of each class c: no score of a row whose
    features lie in their ranges [0, bounds] is larger in size. Not finite
    for a NaN or inf weight or bias, or on an overflow."""
    with np.errstate(all="ignore"):
        return np.abs(weights) @ _FEATURE_BOUNDS + np.abs(biases)


_UNIT_ROUNDOFF = 2.0 ** -53


class ScoreParts:
    """A model's class scores of a dialog's rows split into the parts that
    its turns add, so that a dialog is scored a turn at a time without its
    rows. Every part holds one score per trust level of TRUST_CLASSES, not
    per model class: a level that is no class of the model scores as a
    class with zero weights and a bias of -inf, so that its own part is
    -inf and its lag, label and fill parts 0, and it never tops a class.
    The scores of the row of a turn are the sum of
    - its own part, `candidates(...)[..., 0, :]` of its current-turn block,
      which holds the profile part of the dialog's start row and the bias;
    - for each lag k = 1..LAG_WINDOW, the part of the turn k steps back,
      `candidates(...)[..., k, :]` of its block plus `labels[j][k - 1]` of
      its trust label `TRUST_CLASSES[j]`, or, where the dialog has no such
      turn, `fill[k - 1]`, the part of the neutral lag fill.

    Each part sums some of a score's N_FEATURES + 1 terms (a weight times
    a feature, and the bias), so their sum is one more order of summing
    them. `error` bounds how far any such sum, `TrustClassifier.scores`
    included, can fall from the exact score of a row whose features lie in
    their ranges, its labels trust levels:
    gamma_m * max_c(|w_c| . bounds + |b_c|) with gamma_m = m u / (1 - m u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1) and m = 2 (N_FEATURES + 1), which leaves room for the
    bound's own rounding, plus one smallest subnormal per term for products
    that underflow. It is taken over the model's own weights and biases,
    and a model with a NaN or inf weight or bias has an `error` that is not
    finite."""

    __slots__ = ("fill", "labels", "error", "_profile", "_turn", "_biases")

    def __init__(self, model: TrustClassifier):
        if model.weights.shape[1] != N_FEATURES:
            raise SchemaMismatch(f"expected {N_FEATURES} features, got {model.weights.shape}")
        # the model's rows at their levels (its classes are trust levels)
        levels = [TRUST_CLASSES.index(label) for label in model.classes]
        weights = np.zeros((len(TRUST_CLASSES), N_FEATURES))
        weights[levels] = model.weights
        biases = np.full(len(TRUST_CLASSES), -np.inf)
        biases[levels] = model.biases
        lags = [_TURN_END + k * _LAG_WIDTH for k in range(LAG_WINDOW)]
        # the current-turn block's weights, then for each lag those of the
        # lag columns each of its columns is copied into (zero for the rest)
        turn = np.zeros((_TURN_END - _PROFILE_END, 1 + LAG_WINDOW, len(weights)))
        turn[:, 0] = weights[:, _PROFILE_END:_TURN_END].T
        for k, start in enumerate(lags, start=1):
            turn[_LAG_FROM_TURN - _PROFILE_END, k] = weights[:, start:start + _LAG_WIDTH - 1].T
        self._profile, self._turn = weights[:, :_PROFILE_END].T, turn.reshape(len(turn), -1)
        self._biases = biases
        trust = weights[:, [start + _LAG_WIDTH - 1 for start in lags]].T  # lag trust labels
        self.labels = [(trust * float(label)).tolist() for label in TRUST_CLASSES]
        self.fill = [(np.array(_LAG_FILL) @ weights[:, start:start + _LAG_WIDTH].T).tolist()
                     for start in lags]
        m = 2 * (N_FEATURES + 1)
        gamma = m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)
        self.error = (gamma * float(np.max(_largest_scores(model.weights, model.biases)))
                      + (N_FEATURES + 1) * 2.0 ** -1074)

    def candidates(self, rows: np.ndarray, blocks: np.ndarray, turns) -> np.ndarray:
        """The parts of m candidate turns in each of n dialogs, an (n, m,
        (1 + LAG_WINDOW) L) array of the scores of the L trust levels per
        part: those of the blocks `turn_blocks(turns, blocks)` writes into n
        copies of the (m, 11) `blocks`, which hold the candidates' columns
        that every dialog shares and zeros in those that `turns` has, with
        `turns` the n m turns' Corpus-shaped columns, dialog by dialog, of
        the current-turn fields after the act. `rows` are the dialogs' start
        rows. No block is written per turn: the parts are the shared blocks'
        product plus that of the turns' own columns."""
        n, m = len(rows), len(blocks)
        names = [name for name in _TURN_FIELDS if hasattr(turns, name)]
        own = [len(ACT_ORDER) + _TURN_FIELDS.index(name) for name in names]
        columns = np.empty((n * m, len(names)))
        for j, name in enumerate(names):
            columns[:, j] = getattr(turns, name)
        parts = (columns @ self._turn[own]).reshape(n, m, 1 + LAG_WINDOW, -1)
        del columns
        parts += (blocks @ self._turn).reshape(m, 1 + LAG_WINDOW, -1)
        profile = rows[:, :_PROFILE_END] @ self._profile + self._biases
        # a level at a time: a strided add whose inner loop is L long is slow
        for k, column in enumerate(profile.T):
            parts[:, :, 0, k] += column[:, None]
        return parts.reshape(n, m, -1)


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
    """Scores the exchanges a block of _DIALOG_BLOCK dialogs at a time
    (`corpus_to_dataset`), one product per block, so that no whole feature
    matrix is held; ties go to the lower label, as in predict_trust."""
    if corpus.n_dialogs == 0:
        raise EmptyTestSet("no labeled exchanges to evaluate on")
    classes, y, predicted = np.asarray(model.classes), [], []
    for start in range(0, corpus.n_dialogs, _DIALOG_BLOCK):
        X, labels = corpus_to_dataset(corpus, start, start + _DIALOG_BLOCK)
        y.append(labels)
        predicted.append(classes[model.scores(X).argmax(axis=1)])
    return classification_metrics(np.concatenate(y), np.concatenate(predicted))


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
    weights = json_numbers("model weights", payload["weights"], 2, error=SchemaMismatch)
    biases = json_numbers("model biases", payload["biases"], 1, error=SchemaMismatch)
    if payload["schema_version"] != SCHEMA_VERSION:
        raise SchemaMismatch(f"model built for schema {payload['schema_version']}, "
                             f"runtime is {SCHEMA_VERSION}")
    if payload["feature_names"] != list(FEATURE_NAMES):
        raise SchemaMismatch(f"model feature_names {payload['feature_names']!r} are "
                             f"not the schema's {N_FEATURES} features")
    model = TrustClassifier(classes=payload["classes"], weights=weights, biases=biases)
    if weights.shape[1] != N_FEATURES:
        raise SchemaMismatch(f"weights {weights.shape} do not fit {N_FEATURES} features")
    largest = _largest_scores(weights, biases)
    if not np.isfinite(largest).all():
        raise ValueOutOfRange("largest score", float(np.max(largest)),
                              detail="weights and biases must be finite, "
                                     "and no score may overflow")
    return model


def save_classifier(model: TrustClassifier, path) -> None:
    write_json(path, classifier_to_json_dict(model))


def load_classifier(path) -> TrustClassifier:
    return classifier_from_json_dict(read_json(path, "model"))
