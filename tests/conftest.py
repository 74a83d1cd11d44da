"""Shared fixtures and hand-construction helpers for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from trustsim.corpus import (
    CORPUS_COLUMNS,
    Corpus,
    EXCHANGE_COLUMNS,
    Exchange,
    Gender,
    ProactiveAct,
    USER_COLUMNS,
    UserRecord,
    _infer_format,
    _parse_field,
    complexity_of_step,
    option_scores,
)
from trustsim.errors import (
    InvalidConfig,
    MissingColumn,
    NoDataForCondition,
    ValueOutOfRange,
)
from trustsim.rl_env import EnvState
from trustsim.simulator import SimulatedLog, SimulatedTurn, simulate_turn
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import (
    N_FEATURES,
    SCHEMA_VERSION,
    TrainConfig,
    TrustClassifier,
    TurnContext,
    combine_trust_target,
    extract_features,
    predict_trust,
)
from trustsim.user_model import ALL_TRAIT_TUPLES


def analytic_truncated_mean(mean, sd, lo, hi):
    # standard closed form: mean + sd * (phi(a) - phi(b)) / (Phi(b) - Phi(a)).
    # Phi = erfc(-x / sqrt 2) / 2 keeps its relative precision in the lower
    # tail only, so an interval above the mean is mirrored below it.
    a, b = (lo - mean) / sd, (hi - mean) / sd
    sign = 1.0
    if a + b > 0:
        a, b, sign = -b, -a, -1.0
    phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2))
    return mean + sign * sd * (phi(a) - phi(b)) / (cdf(b) - cdf(a))


def reference_ladder(table, key) -> list:
    """The fallback ladder walked per call, kept as the oracle of the
    resolution a table makes once: usable cells for the key, most specific
    first. The trait cell qualifies only at or above the threshold."""
    if key.condition not in table.mode.conditions():
        raise InvalidConfig(f"condition {key.condition} not in {table.mode.value}")
    rungs = []
    cell = table.cells.get(key)
    if cell is not None and cell.n >= table.fallback_threshold:
        rungs.append(cell)
    for rung in (table.fallback_cells.get((key.proactive_act, key.condition)),
                 table.condition_cells.get(key.condition)):
        if rung is not None and rung.n > 0:
            rungs.append(rung)
    if not rungs:
        raise NoDataForCondition(f"no observations for condition {key.condition}")
    return rungs


def reference_lookup(table, key) -> tuple:
    rungs = reference_ladder(table, key)
    cell = table.cells.get(key)
    return rungs[0], not (cell is not None and cell.n >= table.fallback_threshold)


def reference_combo_stats(table, key, combo_idx):
    rungs = reference_ladder(table, key)
    for cell in rungs:
        if cell.combos[combo_idx].n > 0:
            return cell.combos[combo_idx]
    return rungs[-1].pooled()


def reference_replay(corpus, table, rng) -> list:
    """The per-turn loop replay_conditions replaced, kept as its oracle:
    one simulate_turn per exchange on rng.child(user_id, step), as
    (user, exchange, SimulatedTurn) triples in corpus order."""
    return [(user, ex, simulate_turn(table, user, ex.step, ex.proactive_act,
                                     rng.child(user.user_id, ex.step)))
            for user, ex in corpus.iter_exchanges()]


_TURN_FIELDS = tuple(f.name for f in fields(SimulatedTurn))


def reference_log(records) -> SimulatedLog:
    """The columnar log of reference_replay's triples."""
    columns = {
        "user_id": [user.user_id for user, _, _ in records],
        "dialog_id": [ex.dialog_id for _, ex, _ in records],
        "step": [ex.step for _, ex, _ in records],
        "complexity": [ex.complexity for _, ex, _ in records],
        "proactive_act": [ex.proactive_act for _, ex, _ in records],
    }
    for name in _TURN_FIELDS:
        columns[name] = [getattr(turn, name) for _, _, turn in records]
    return SimulatedLog(**columns)


def reference_log_bytes(records, file_format) -> bytes:
    """The per-record writer save_simulated_log replaced, kept as its
    oracle: one dict per turn, booleans as true/false and floats by repr,
    written through csv.DictWriter or as sorted-key JSON lines."""
    columns = ("user_id", "dialog_id", "step", "complexity", "proactive_act",
               "game_score", "help_request", "suggestion_request", "duration",
               "difficulty", "used_fallback")
    rows = []
    for user, ex, turn in records:
        row = {"user_id": user.user_id, "dialog_id": ex.dialog_id, "step": ex.step,
               "complexity": ex.complexity, "proactive_act": ex.proactive_act.value}
        for name in _TURN_FIELDS:
            value = getattr(turn, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            row[name] = value
        rows.append(row)
    out = io.StringIO()
    if file_format == "csv":
        writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    return out.getvalue().encode("utf-8")


def turn_context(ex, with_label=False) -> TurnContext:
    """The observable slice of a corpus exchange, labelled for use as a lag."""
    label = combine_trust_target(ex.trust, ex.competence, ex.reliability,
                                 ex.predictability) if with_label else None
    return TurnContext(
        proactive_act=ex.proactive_act, complexity=ex.complexity, step=ex.step,
        difficulty=ex.difficulty, duration=ex.duration, game_score=ex.game_score,
        help_request=ex.help_request, suggestion_request=ex.suggestion_request,
        trust_label=label,
    )


def reference_dataset(corpus) -> tuple:
    """The per-row loop corpus_to_dataset replaced, kept as its oracle:
    one extract_features call per exchange, lag labels teacher-forced."""
    rows, labels, owners = [], [], []
    for user in corpus.users:
        history = []
        for ex in corpus.dialogs[user.user_id]:
            rows.append(extract_features(user, history, turn_context(ex)))
            labels.append(combine_trust_target(ex.trust, ex.competence,
                                               ex.reliability, ex.predictability))
            owners.append(user.user_id)
            history.append(turn_context(ex, with_label=True))
    X = np.vstack(rows) if rows else np.empty((0, N_FEATURES))
    return X, np.asarray(labels, dtype=int), tuple(owners)


def reference_train(corpus, config=TrainConfig()) -> tuple:
    """The per-class hinge trainer that train_classifier's joint loop
    replaced, kept as its oracle to within rounding: (weights, biases,
    whether some epoch had no margin violator)."""
    X, y, _ = reference_dataset(corpus)
    present = tuple(sorted(set(int(v) for v in y)))
    mean = X.mean(axis=0)
    scale = X.std(axis=0, ddof=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    Z = (X - mean) / scale
    n = Z.shape[0]
    lam = config.l2
    W = np.zeros((len(present), Z.shape[1]))
    b = np.zeros(len(present))
    saw_no_violator = False
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
                saw_no_violator = True
                grad_w = lam * w
                grad_b = 0.0
            w = w - eta * grad_w
            bias = bias - eta * grad_b
        W[ci] = w
        b[ci] = bias
    return W, b, saw_no_violator


def reference_predictions(model, corpus) -> list:
    """One predict_trust call per dataset row: the per-row evaluation that
    evaluate_classifier's single product replaced."""
    X, _, _ = reference_dataset(corpus)
    return [predict_trust(model, x)[0] for x in X]


def reference_load_corpus(path, file_format=None) -> Corpus:
    """The per-row loader load_corpus replaced, kept as its oracle: every
    row read into memory through DictReader, every field parsed by name and
    a UserRecord built for every row, then compared with the user's first."""
    path = Path(path)
    file_format = _infer_format(path, file_format)
    if file_format == "csv":
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            for col in CORPUS_COLUMNS:
                if col not in header:
                    raise MissingColumn(f"column {col!r} missing from {path}")
            raw_rows = list(reader)
    else:
        with path.open(encoding="utf-8") as handle:
            raw_rows = [json.loads(line) for line in handle if line.strip()]
        for i, row in enumerate(raw_rows, start=1):
            for col in CORPUS_COLUMNS:
                if col not in row:
                    raise MissingColumn(f"column {col!r} missing from {path} (row {i})")

    users = []
    seen = {}
    dialog_rows = {}
    for i, raw in enumerate(raw_rows, start=1):
        parsed = {name: _parse_field(name, raw[name], i) for name in CORPUS_COLUMNS}
        try:
            user = UserRecord(**{name: parsed[name] for name in USER_COLUMNS})
            exchange = Exchange(**{name: parsed[name] for name in EXCHANGE_COLUMNS})
        except ValueOutOfRange as exc:
            raise ValueOutOfRange(exc.field, exc.value, row=i) from exc
        uid = user.user_id
        if uid not in seen:
            seen[uid] = user
            users.append(user)
            dialog_rows[uid] = []
        elif seen[uid] != user:
            raise ValueOutOfRange("user_id", uid, row=i,
                                  detail="user columns differ between rows")
        elif dialog_rows[uid][0].dialog_id != exchange.dialog_id:
            raise ValueOutOfRange("dialog_id", exchange.dialog_id, row=i,
                                  detail=f"user {uid!r} already has dialog "
                                         f"{dialog_rows[uid][0].dialog_id!r}")
        dialog_rows[uid].append(exchange)
    for uid, exchanges in dialog_rows.items():
        dialog_rows[uid] = sorted(exchanges, key=lambda ex: ex.step)
    return Corpus(users=tuple(users), dialogs=dialog_rows)


class RiggedSweepEnv:
    """Action-independent state cycle that touches every discrete state;
    only SUGGESTION pays. The optimal policy is the same everywhere."""

    def __init__(self):
        self.episode = -1

    def _state(self, t):
        tt = ALL_TRAIT_TUPLES[(self.episode + t) % 8]
        trust = 1 + ((self.episode // 8) + t) % 5
        return EnvState(step=t, complexity=complexity_of_step(t),
                        trait_tuple=tt, last_turn=None, estimated_trust=trust)

    def reset(self, rng):
        self.episode += 1
        self.t = 1
        return self._state(1)

    def step(self, action):
        reward = 1.0 if action is ProactiveAct.SUGGESTION else 0.0
        done = self.t == 12
        if not done:
            self.t += 1
        return self._state(self.t), reward, done


def stub_trust_model(biases) -> TrustClassifier:
    """Zero-weight classifier whose prediction is fixed by the bias argmax."""
    biases = np.asarray(biases, dtype=float)
    return TrustClassifier(
        schema_version=SCHEMA_VERSION,
        classes=tuple(range(1, len(biases) + 1)),
        weights=np.zeros((len(biases), N_FEATURES)),
        biases=biases,
        feature_mean=np.zeros(N_FEATURES),
        feature_scale=np.ones(N_FEATURES),
    )


def make_user(user_id="u0", age=30, gender=Gender.FEMALE, technical_affinity=3.5,
              trust_propensity=2.5, domain_expertise=4.0, openness=3.0,
              conscientiousness=3.0, extraversion=3.0, agreeableness=3.0,
              neuroticism=3.0) -> UserRecord:
    return UserRecord(
        user_id=user_id, age=age, gender=gender,
        technical_affinity=technical_affinity, trust_propensity=trust_propensity,
        domain_expertise=domain_expertise, openness=openness,
        conscientiousness=conscientiousness, extraversion=extraversion,
        agreeableness=agreeableness, neuroticism=neuroticism,
    )


def make_exchange(step, dialog_id="d0", act=ProactiveAct.NONE, game_score=None,
                  help_request=False, suggestion_request=False, duration=42.0,
                  difficulty=3, trust=3, competence=3, reliability=3,
                  predictability=3) -> Exchange:
    k = complexity_of_step(step)
    if game_score is None:
        game_score = option_scores(k)[-1]
    return Exchange(
        dialog_id=dialog_id, step=step, complexity=k, proactive_act=act,
        game_score=float(game_score), help_request=help_request,
        suggestion_request=suggestion_request, duration=duration,
        difficulty=difficulty, trust=trust, competence=competence,
        reliability=reliability, predictability=predictability,
    )


def make_dialog(user_id, acts=None, **exchange_overrides) -> tuple:
    """Build a full 12-step dialog; acts may be one act or a list of 12."""
    if acts is None:
        acts = [ProactiveAct.NONE] * 12
    elif isinstance(acts, ProactiveAct):
        acts = [acts] * 12
    return tuple(
        make_exchange(step, dialog_id=f"d-{user_id}", act=acts[step - 1],
                      **exchange_overrides)
        for step in range(1, 13)
    )


def make_corpus(n_users=2, acts=None, user_overrides=None,
                **exchange_overrides) -> Corpus:
    """Uniform hand-built corpus: same traits and behavior for every user
    unless overridden."""
    users = []
    dialogs = {}
    for i in range(n_users):
        overrides = dict(user_overrides or {})
        uid = f"u{i}"
        users.append(make_user(user_id=uid, **overrides))
        dialogs[uid] = make_dialog(uid, acts=acts, **exchange_overrides)
    return Corpus(users=tuple(users), dialogs=dialogs)


@pytest.fixture(scope="session")
def default_corpus() -> Corpus:
    """The standard 308-dialog synthetic corpus used across suites."""
    return generate_synthetic_corpus(GeneratorConfig(), seed=42)


@pytest.fixture(scope="session")
def drifting_corpus() -> Corpus:
    return generate_synthetic_corpus(GeneratorConfig(step_drift=0.8), seed=42)


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return generate_synthetic_corpus(GeneratorConfig(n_dialogs=40), seed=7)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo release-gate verdicts after the run, outside output capture."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.line(line)
