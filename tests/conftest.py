"""Shared fixtures and hand-construction helpers for the test suite."""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from trustsim import behavior_tables
from trustsim import corpus as corpus_io
from trustsim.behavior_tables import (
    ACT_SLICE,
    COLUMNS,
    CONDITION_SLICE,
    REQUEST_COMBOS,
    TRAIT_CELL,
    TableMode,
    lookup,
)
from trustsim.corpus import (
    ACT_INDEX,
    ACT_ORDER,
    AGE_MAX,
    AGE_MIN,
    CORPUS_COLUMNS,
    SCALE_TRAITS,
    Corpus,
    DURATION_FLOOR_S,
    EXCHANGE_COLUMNS,
    GENDER_ORDER,
    Gender,
    LIKERT_MAX,
    LIKERT_MIN,
    MIN_DURATION_S,
    OPTION_SCORE_UNIT,
    ProactiveAct,
    STEPS_PER_DIALOG,
    STORED_COLUMNS,
    USER_COLUMNS,
    _parse_field,
    complexity_of_step,
    infer_format,
    max_option_score,
    option_scores,
)
from trustsim.errors import (
    IncompleteDialog,
    InsufficientUsers,
    InvalidBounds,
    InvalidConfig,
    MissingColumn,
    NoDataForCondition,
    ValueOutOfRange,
)
from trustsim.rl_env import (
    N_ACTIONS,
    N_STATES,
    EnvState,
    RewardConfig,
    TabularPolicyResult,
    TrustSimEnv,
    state_index,
)
from trustsim.sampling import (
    _MASK,
    _P_MAX,
    _P_MIN,
    _PHI,
    _ROOT_KEY,
    RandomStream,
    _label_bits,
    child_keys,
    cumulative_weights,
    first_uniforms,
    label_bits,
)
from trustsim.simulator import (TURN_FIELDS, SimulatedLog, SimulatedTurn, draw_turns,
                                simulate_turn)
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import (
    L2,
    N_FEATURES,
    NEUTRAL_LIKERT,
    TrainConfig,
    TrustClassifier,
    predict_trust,
)
from trustsim.user_model import (N_TRAIT_CODES, TraitDistributions, TruncGauss, trait_codes,
                                  trait_flags)


def combo_index(help_request: bool, suggestion_request: bool) -> int:
    """The index in REQUEST_COMBOS of a request combination."""
    return REQUEST_COMBOS.index((bool(help_request), bool(suggestion_request)))


def _check_likert(field_name: str, value) -> None:
    # bool passes isinstance(int) but is never a valid rating
    if isinstance(value, bool) or not isinstance(value, int) \
            or not LIKERT_MIN <= value <= LIKERT_MAX:
        raise ValueOutOfRange(field_name, value, detail="Likert value in 1..5")


@dataclass(frozen=True)
class Exchange:
    """One user-agent turn in row form, checked as a record: the form the
    columnar Corpus replaced, kept for the row-wise oracles below."""

    dialog_id: str
    step: int
    complexity: int
    proactive_act: ProactiveAct
    game_score: float
    help_request: bool
    suggestion_request: bool
    duration: float
    difficulty: int
    trust: int
    competence: int
    reliability: int
    predictability: int

    def __post_init__(self):
        if not 1 <= self.step <= STEPS_PER_DIALOG:
            raise ValueOutOfRange("step", self.step)
        if self.complexity != complexity_of_step(self.step):
            raise ValueOutOfRange(
                "complexity", self.complexity,
                detail=f"step {self.step} has complexity {complexity_of_step(self.step)}",
            )
        if self.game_score < 0:
            raise ValueOutOfRange("game_score", self.game_score)
        if not self.duration > MIN_DURATION_S:
            raise ValueOutOfRange("duration", self.duration, detail="must exceed 20 s")
        _check_likert("difficulty", self.difficulty)
        _check_likert("trust", self.trust)
        _check_likert("competence", self.competence)
        _check_likert("reliability", self.reliability)
        _check_likert("predictability", self.predictability)


@dataclass(frozen=True)
class UserRecord:
    """One user's static traits in row form, checked as a record, gender a
    Gender: the form a Corpus's user columns replaced, kept for the
    row-wise oracles below."""

    user_id: str
    age: int
    gender: Gender
    technical_affinity: float
    trust_propensity: float
    domain_expertise: float
    openness: float
    conscientiousness: float
    extraversion: float
    agreeableness: float
    neuroticism: float

    def __post_init__(self):
        if not isinstance(self.user_id, str):
            raise ValueOutOfRange("user_id", self.user_id, detail="a string")
        if not isinstance(self.age, int) or not AGE_MIN <= self.age <= AGE_MAX:
            raise ValueOutOfRange("age", self.age, detail="integer in 18..60")
        if not isinstance(self.gender, Gender):
            raise ValueOutOfRange("gender", self.gender, detail="a Gender")
        for name in SCALE_TRAITS:
            value = getattr(self, name)
            # True reads as 1, in range, but a bool is never a trait value
            if isinstance(value, bool) or not LIKERT_MIN <= value <= LIKERT_MAX:
                raise ValueOutOfRange(name, value, detail="scale value in 1..5")


def corpus_user(user) -> SimpleNamespace:
    """The Corpus-shaped form of a UserRecord, as the RL environment draws
    a user: one value per Corpus user column but user_id, gender as its
    GENDER_ORDER index."""
    values = {name: getattr(user, name) for name in USER_COLUMNS[1:]}
    values["gender"] = GENDER_ORDER.index(user.gender)
    return SimpleNamespace(**values)


def user_columns(users) -> dict:
    """The Corpus user columns of UserRecord rows, gender as its index."""
    columns = {name: [getattr(u, name) for u in users] for name in USER_COLUMNS}
    columns["gender"] = [GENDER_ORDER.index(g) for g in columns["gender"]]
    return columns


def users_of(corpus) -> tuple:
    """The corpus's users as UserRecord rows, in user order."""
    columns = [getattr(corpus, name) for name in USER_COLUMNS]
    columns[1:] = [column.tolist() for column in columns[1:]]
    columns[2] = [GENDER_ORDER[g] for g in columns[2]]
    return tuple(map(UserRecord, *columns))


def corpus_from_rows(users, dialogs) -> Corpus:
    """The Corpus of users and a dict of their dialogs as Exchange rows,
    checked as the row-form Corpus checked them: users and dialogs 1:1,
    each dialog the steps 1..12 in order. A user's dialog_id is that of
    the first exchange."""
    users = tuple(users)
    ids = [u.user_id for u in users]
    if len(set(ids)) != len(ids):
        raise ValueOutOfRange("user_id", "duplicate", detail="user ids must be unique")
    if set(dialogs) != set(ids):
        missing = set(ids).symmetric_difference(dialogs)
        raise IncompleteDialog(sorted(missing)[0], "users and dialogs must match 1:1")
    for uid, exchanges in dialogs.items():
        if len(exchanges) != STEPS_PER_DIALOG:
            raise IncompleteDialog(uid, f"{len(exchanges)} exchanges, need 12")
        for i, ex in enumerate(exchanges, start=1):
            if ex.step != i:
                raise IncompleteDialog(uid, f"steps out of order at position {i}")
    rows = [ex for uid in ids for ex in dialogs[uid]]
    columns = {name: [getattr(ex, name) for ex in rows] for name in STORED_COLUMNS}
    columns["proactive_act"] = [ACT_INDEX[act] for act in columns["proactive_act"]]
    return Corpus(**user_columns(users),
                  dialog_id=[dialogs[uid][0].dialog_id for uid in ids], **columns)


def exchanges_of(corpus) -> list:
    """(user, Exchange) pairs in the corpus's canonical order: user order,
    steps ascending."""
    columns = {name: getattr(corpus, name).tolist()
               for name in ("step", "complexity") + STORED_COLUMNS}
    columns["proactive_act"] = [ACT_ORDER[a] for a in columns["proactive_act"]]
    names = EXCHANGE_COLUMNS[1:]
    users = users_of(corpus)
    return [(users[i // STEPS_PER_DIALOG],
             Exchange(corpus.dialog_id[i // STEPS_PER_DIALOG],
                      *(columns[name][i] for name in names)))
            for i in range(corpus.exchange_count)]


def dialogs_of(corpus) -> dict:
    """Each user's dialog as a tuple of Exchange rows, by user_id."""
    pairs = exchanges_of(corpus)
    return {user.user_id: tuple(ex for _, ex in pairs[i * STEPS_PER_DIALOG:
                                                       (i + 1) * STEPS_PER_DIALOG])
            for i, user in enumerate(users_of(corpus))}


def scalar_mix64(z: int) -> int:
    """SplitMix64 finaliser on one Python int: a bijection on 64-bit integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def scalar_chain(key: int, labels) -> int:
    """The key below `key` at the path `labels`, one label at a time."""
    for label in labels:
        key = scalar_mix64(key ^ _label_bits(label))
    return key


class ScalarStream:
    """The one-stream-at-a-time RandomStream that the array primitives
    replaced, kept as their oracle: a key plus a draw counter, where draw k
    is SplitMix64 of key + k * PHI. ScalarStream(seed, *path).key equals
    RandomStream(seed, *path).key."""

    __slots__ = ("key", "_drawn")

    def __init__(self, seed: int, *path):
        self.key = scalar_chain(_ROOT_KEY, (operator.index(seed), *path))
        self._drawn = 0

    @classmethod
    def _from_key(cls, key: int) -> "ScalarStream":
        stream = object.__new__(cls)
        stream.key = key
        stream._drawn = 0
        return stream

    @classmethod
    def of(cls, stream) -> "ScalarStream":
        """A fresh scalar stream with the key of any stream."""
        return cls._from_key(int(stream.key))

    def child(self, *labels) -> "ScalarStream":
        return ScalarStream._from_key(scalar_chain(self.key, labels))

    def _next64(self) -> int:
        self._drawn = k = self._drawn + 1
        return scalar_mix64((self.key + k * _PHI) & _MASK)

    def random(self) -> float:
        """Uniform on the 2**52 odd multiples of 2**-53: strictly inside (0, 1)."""
        return ((self._next64() >> 12) + 0.5) * 2.0 ** -52

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n), by multiply-shift on the 64-bit draw."""
        if n < 1:
            raise InvalidBounds(f"integers needs n >= 1, got {n}")
        return (self._next64() * n) >> 64

    def permutation(self, n: int) -> list:
        """Uniform permutation of range(n) by Fisher-Yates."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integers(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def child_streams(parent, labels) -> list:
    """parent.child(label) for each label, the keys derived as one array."""
    return [RandomStream._from_key(key)
            for key in child_keys(parent.key, label_bits(labels)).tolist()]


_STD = NormalDist()
_SQRT2 = math.sqrt(2.0)


def gaussian_truncation(mean, sd, lo, hi) -> tuple:
    """The scalar record maker `gaussian_truncations` replaced, kept as its
    oracle: the record (mean, c_lo, span, scale, lo, hi) that a draw from
    N(mean, sd) truncated to [lo, hi] reads, for a finite mean, a finite
    sd >= 0 and lo < hi. sd == 0 gives scale 0 and p = 0.5."""
    if sd == 0:
        return mean, 0.5, 0.0, 0.0, lo, hi
    a, b = (lo - mean) / sd, (hi - mean) / sd
    # Computed with erfc, the standard normal cdf keeps its relative
    # precision in the lower tail but rounds to 1 in the upper tail, so an
    # interval that sits above the mean is mirrored below it.
    sign = 1.0
    if a + b > 0:
        a, b, sign = -b, -a, -1.0
    c_lo = 0.5 * math.erfc(-a / _SQRT2)
    return mean, c_lo, 0.5 * math.erfc(-b / _SQRT2) - c_lo, sign * sd, lo, hi


def duration_record(mean, sd, hi) -> tuple:
    """The scalar `duration_truncation`, kept as its oracle: the record of
    N(mean, sd) truncated to [MIN_DURATION_S, hi], its draws clamped to
    [DURATION_FLOOR_S, hi]."""
    return (*gaussian_truncation(mean, sd, MIN_DURATION_S, hi)[:4], DURATION_FLOOR_S, hi)


def truncated_gaussian_from(truncation, u: float) -> float:
    """One draw on a uniform u from a truncated Gaussian, given its
    `gaussian_truncations` record: the scalar sampler `truncated_gaussians`
    replaced, kept as its oracle.

    A single inverse-CDF step on one uniform, so every draw costs the same
    however far into a tail [lo, hi] lies. sd == 0 degenerates to
    clamp(mean, lo, hi).
    """
    mean, c_lo, span, scale, lo, hi = truncation
    if scale == 0:
        return float(min(max(mean, lo), hi))
    p = min(max(c_lo + u * span, _P_MIN), _P_MAX)
    return float(min(max(mean + scale * _STD.inv_cdf(p), lo), hi))


def categorical_from(cumulative, u: float) -> int:
    """Index sampled from a `cumulative_weights` vector on the uniform u:
    the scalar sampler `categoricals` replaced, kept as its oracle.

    The index is the first whose cumulative weight exceeds the target, so
    it never has zero weight. The second bisection catches a target that
    rounds up to the total, which only a sum near the subnormal range does.
    """
    total = cumulative[-1]
    target = u * total
    return min(bisect.bisect_right(cumulative, target),
               bisect.bisect_left(cumulative, total))


def truncated_gaussian(mean, sd, lo, hi, rng) -> float:
    """One draw from a Gaussian truncated to [lo, hi] on the stream's next
    uniform: the scalar sampler `truncated_gaussians` replaced, kept as its
    oracle. sd == 0 degenerates to clamp(mean, lo, hi)."""
    return truncated_gaussian_from(gaussian_truncation(mean, sd, lo, hi), rng.random())


def categorical(probs, rng) -> int:
    """Index sampled from an unnormalized non-negative weight vector on the
    stream's next uniform: the scalar sampler `categoricals` replaced, kept
    as its oracle."""
    return categorical_from(cumulative_weights(probs), rng.random())


def normal(rng, mean, sd) -> float:
    """Gaussian draw by the inverse CDF of the stream's next uniform."""
    return mean + sd * _STD.inv_cdf(rng.random())


def reference_sample_user(dists, stream, user_id="sim") -> UserRecord:
    """The one-user sampler `sample_users` replaced, kept as its oracle:
    each trait drawn from its own named substream, age drawn continuously
    then rounded half up. `stream` is any stream; its draws are scalar."""
    stream = ScalarStream.of(stream)
    age = dists.age
    kwargs = {"age": int(math.floor(
        truncated_gaussian(age.mean, age.sd, age.lo, age.hi, stream.child("age")) + 0.5))}
    for name in SCALE_TRAITS:
        dist = getattr(dists, name)
        kwargs[name] = truncated_gaussian(dist.mean, dist.sd, dist.lo, dist.hi,
                                          stream.child(name))
    gender = GENDER_ORDER[categorical(dists.gender_probs, stream.child("gender"))]
    return UserRecord(user_id=user_id, gender=gender, **kwargs)


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


# -- the dataclass table, kept as the oracle of the array table ----------------

@dataclass(frozen=True)
class ComboStats:
    """Continuous/ordinal statistics for one request combination."""

    n: int
    score_mean: float
    score_sd: float
    duration_mean: float
    duration_sd: float
    difficulty_counts: tuple  # classes 1..5


_EMPTY_COMBO = ComboStats(0, 0.0, 0.0, 0.0, 0.0, (0,) * 5)


def _merge_combos(combos) -> ComboStats:
    """The statistics of the union of the combinations' samples, by the
    exact merge of Chan, Golub and LeVeque (Am. Stat. 37, 1983): counts add,
    the mean is count-weighted and M2 = sum n*sd^2 + sum n*(mean_i - mean)^2,
    with population sds. The sums are plain loops in part order, as `sum`
    added floats before Python 3.12 compensated it."""
    parts = [c for c in combos if c.n > 0]
    if not parts:
        return _EMPTY_COMBO
    n = sum(p.n for p in parts)
    s_total = d_total = 0.0
    for p in parts:
        s_total += p.n * p.score_mean
        d_total += p.n * p.duration_mean
    s_mean, d_mean = s_total / n, d_total / n
    s_m2 = d_m2 = 0.0
    for p in parts:
        s_dev, d_dev = p.score_mean - s_mean, p.duration_mean - d_mean
        s_m2 += p.n * (p.score_sd * p.score_sd + s_dev * s_dev)
        d_m2 += p.n * (p.duration_sd * p.duration_sd + d_dev * d_dev)
    diff = tuple(map(sum, zip(*(p.difficulty_counts for p in parts))))
    return ComboStats(n, s_mean, math.sqrt(s_m2 / n), d_mean, math.sqrt(d_m2 / n), diff)


@dataclass(frozen=True)
class CellStats:
    n: int
    request_counts: tuple  # per REQUEST_COMBOS index
    combos: tuple  # ComboStats per REQUEST_COMBOS index

    @property
    def request_probs(self) -> tuple:
        return tuple(c / self.n for c in self.request_counts)

    def pooled(self) -> ComboStats:
        """All-combination aggregate of this cell."""
        return _merge_combos(self.combos)


def _merge_cells(cells) -> CellStats:
    """The cell of the union of the cells' samples, merged per combination."""
    return CellStats(
        n=sum(c.n for c in cells),
        request_counts=tuple(map(sum, zip(*(c.request_counts for c in cells)))),
        combos=tuple(_merge_combos(c.combos[i] for c in cells)
                     for i in range(len(REQUEST_COMBOS))),
    )


@dataclass(frozen=True)
class OracleTable:
    """The table as one CellStats per observed key, with its slices merged
    by dicts in the order the keys come, as BehaviorTable was before it
    became arrays; reference_ladder walks its fallback ladder per call."""

    mode: TableMode
    fallback_threshold: int
    cells: dict  # (trait code, ProactiveAct, condition) -> CellStats
    # (ProactiveAct, condition) -> CellStats and condition -> CellStats
    fallback_cells: dict = field(init=False)
    condition_cells: dict = field(init=False)

    def __post_init__(self):
        by_slice, by_condition = {}, {}
        for key in mode_keys(self.mode):
            cell = self.cells.get(key)
            if cell is not None:
                by_slice.setdefault(key[1:], []).append(cell)
        fallback = {k: _merge_cells(cells) for k, cells in by_slice.items()}
        for (_, cond), cell in fallback.items():
            by_condition.setdefault(cond, []).append(cell)
        condition = {k: _merge_cells(cells) for k, cells in by_condition.items()}
        object.__setattr__(self, "fallback_cells", fallback)
        object.__setattr__(self, "condition_cells", condition)


def mode_keys(mode) -> list:
    """Every context key of the mode as (trait code, ProactiveAct,
    condition), in key code order."""
    return list(itertools.product(range(N_TRAIT_CODES), ACT_ORDER, mode.conditions()))


def oracle_table(table) -> OracleTable:
    """The OracleTable of a BehaviorTable's columns: a CellStats for every
    key that holds a count."""
    cells = {}
    for code, key in enumerate(mode_keys(table.mode)):
        columns = [getattr(table, name)[code].tolist() for name in COLUMNS]
        combos = tuple(ComboStats(*values[:-1], tuple(values[-1]))
                       for values in zip(*columns))
        if any(c.n for c in combos):
            cells[key] = CellStats(sum(c.n for c in combos), tuple(c.n for c in combos),
                                   combos)
    return OracleTable(table.mode, table.fallback_threshold, cells)


def reference_ladder(oracle, key) -> list:
    """The fallback ladder walked per call: usable cells for the key, most
    specific first. The trait cell qualifies only at or above the
    threshold."""
    _, act, condition = key
    if condition not in oracle.mode.conditions():
        raise InvalidConfig(f"condition {condition} not in {oracle.mode.value}")
    rungs = []
    cell = oracle.cells.get(key)
    if cell is not None and cell.n >= oracle.fallback_threshold:
        rungs.append(cell)
    for rung in (oracle.fallback_cells.get((act, condition)),
                 oracle.condition_cells.get(condition)):
        if rung is not None and rung.n > 0:
            rungs.append(rung)
    if not rungs:
        raise NoDataForCondition(f"no observations for condition {condition}")
    return rungs


def reference_lookup(oracle, key) -> tuple:
    rungs = reference_ladder(oracle, key)
    cell = oracle.cells.get(key)
    return rungs[0], not (cell is not None and cell.n >= oracle.fallback_threshold)


def reference_combo_stats(oracle, key, combo_idx):
    rungs = reference_ladder(oracle, key)
    for cell in rungs:
        if cell.combos[combo_idx].n > 0:
            return cell.combos[combo_idx]
    return rungs[-1].pooled()


def combo_at(stats, index) -> ComboStats:
    """Element `index` of a Stats of arrays, as a ComboStats."""
    values = [getattr(stats, name)[index].tolist() for name in COLUMNS]
    return ComboStats(*values[:-1], tuple(values[-1]))


def served_row(table, code, combo) -> tuple:
    """The row of table.rows that serves (key code, combination), as a tuple."""
    return tuple(table.rows[table.row_index[code, combo]].tolist())


def draw_parameters(stats, complexity: int) -> tuple:
    """The scalar row maker the table's one-pass `_draw_rows` replaced, kept
    as its oracle: the row a turn's draws read from one combination's
    statistics (any object with the `Stats` fields as scalars), its score
    truncated to the option range of a step of this complexity. The
    duration ceiling is read from the behavior_tables module, so a test that
    lowers it there lowers it here too."""
    counts = stats.difficulty_counts
    total = sum(counts)
    return (*cumulative_weights(tuple(c / total for c in counts)),
            *duration_record(stats.duration_mean, stats.duration_sd,
                             behavior_tables.DURATION_HI),
            *gaussian_truncation(stats.score_mean, stats.score_sd, OPTION_SCORE_UNIT,
                                 max_option_score(complexity)))


def assert_table_equals_oracle(table) -> None:
    """Every value a BehaviorTable keeps equals what the OracleTable of its
    columns gives: each key's rung, flag and request cumulatives, and the
    draw row of each (key, combination), made from the statistics of the
    rung that serves it."""
    oracle, mode = oracle_table(table), table.mode
    for code, key in enumerate(mode_keys(mode)):
        cell, fell_back = reference_lookup(oracle, key)
        rung = (TRAIT_CELL if cell is oracle.cells.get(key) else ACT_SLICE
                if cell is oracle.fallback_cells.get(key[1:]) else CONDITION_SLICE)
        assert lookup(table, *key) == code
        assert (table.rung[code], table.used_fallback[code]) == (rung, fell_back)
        assert table.request_cum[code].tolist() == cumulative_weights(cell.request_probs)
        condition = key[2]
        complexity = (complexity_of_step(condition)
                      if mode is TableMode.TASK_STEP_BASED else condition)
        for i in range(len(REQUEST_COMBOS)):
            assert served_row(table, code, i) == draw_parameters(
                reference_combo_stats(oracle, key, i), complexity)


def reference_build_table(corpus, mode) -> tuple:
    """The per-level builder build_table replaced, kept as its oracle:
    every exchange appended to its trait cell, its act slice and its
    condition slice, then each (cell, combination) group reduced with
    np.mean and np.std. Returns the (cells, fallback_cells,
    condition_cells) maps."""
    maps = ({}, {}, {})
    for user, ex in exchanges_of(corpus):
        cond = ex.complexity if mode is TableMode.COMPLEXITY_BASED else ex.step
        idx = combo_index(ex.help_request, ex.suggestion_request)
        for groups, key in zip(maps, ((trait_codes(user), ex.proactive_act, cond),
                                      (ex.proactive_act, cond), cond)):
            rows = groups.setdefault(key, [[] for _ in REQUEST_COMBOS])
            rows[idx].append((ex.game_score, ex.duration, ex.difficulty))
    return tuple({key: _reference_cell(rows) for key, rows in groups.items()}
                 for groups in maps)


def _reference_cell(rows_per_combo) -> CellStats:
    combos = []
    for rows in rows_per_combo:
        if not rows:
            combos.append(_EMPTY_COMBO)
            continue
        s = np.array([r[0] for r in rows], dtype=float)
        d = np.array([r[1] for r in rows], dtype=float)
        diff = [0] * 5
        for r in rows:
            diff[r[2] - 1] += 1
        combos.append(ComboStats(len(rows), float(s.mean()), float(s.std(ddof=0)),
                                 float(d.mean()), float(d.std(ddof=0)), tuple(diff)))
    counts = tuple(len(rows) for rows in rows_per_combo)
    return CellStats(n=sum(counts), request_counts=counts, combos=tuple(combos))


def lower_duration_ceiling(monkeypatch, hi) -> None:
    """Lower DURATION_HI where the table makes its rows' duration records; a
    table built afterwards draws under it."""
    monkeypatch.setattr(behavior_tables, "DURATION_HI", hi)


# -- table.json edits ---------------------------------------------------------

def _first_observed(payload) -> tuple:
    """(key code, combination) of the first combination that holds data."""
    return next((k, c) for k, row in enumerate(payload["n"])
                for c, n in enumerate(row) if n > 0)


def _set_observed(name, value):
    def edit(payload):
        k, c = _first_observed(payload)
        payload[name][k][c] = value
    return edit


def _first_condition_keys(payload) -> list:
    """The key codes at the first condition of the payload's mode."""
    n_conditions = len(TableMode(payload["mode"]).conditions())
    return range(0, len(payload["n"]), n_conditions)


def _empty_first_condition(payload):
    for k in _first_condition_keys(payload):
        for name in COLUMNS:
            payload[name][k] = [[0] * 5 if name == "difficulty_counts" else 0
                                for _ in REQUEST_COMBOS]


def _huge_score_sd(payload):
    """score_sd 1e200 everywhere: merging the cells into their slices
    squares the sds."""
    payload["score_sd"] = [[1e200] * len(row) for row in payload["score_sd"]]


def _negative_condition_sd(payload):
    for k in _first_condition_keys(payload):
        payload["duration_sd"][k] = [-1.0] * len(REQUEST_COMBOS)


def _difficulty_row_off(payload):
    k, c = _first_observed(payload)
    payload["difficulty_counts"][k][c][0] += 1


# Edits of a table JSON payload that keep it well-formed but give values a
# build never writes, each with the name of the error a load raises. The
# "condition" cases edit the trait cells the condition slices merge.
TABLE_CORRUPTIONS = {
    "nan-score-mean": (_set_observed("score_mean", math.nan), "InvalidConfig"),
    "inf-duration-mean": (_set_observed("duration_mean", math.inf), "InvalidConfig"),
    "negative-score-sd": (_set_observed("score_sd", -1.0), "InvalidConfig"),
    "negative-condition-sd": (_negative_condition_sd, "InvalidConfig"),
    "huge-score-sd": (_huge_score_sd, "InvalidConfig"),
    "negative-count": (_set_observed("n", -1), "InvalidConfig"),
    "difficulty-sum": (_difficulty_row_off, "InvalidConfig"),
    "empty-condition": (_empty_first_condition, "NoDataForCondition"),
}


# Edits that break the shape or the types of a table JSON payload, each
# returning the edited payload; a load rejects each with InvalidConfig.
TABLE_MALFORMATIONS = {
    "not-object": lambda p: [p],
    "only-format": lambda p: {"format": p["format"]},
    "format-v2": lambda p: {**p, "format": "behavior-table/v2"},
    "format-v1": lambda p: {**p, "format": "behavior-table/v1"},
    "v2-cells": lambda p: {**p, "cells": []},
    "unknown-key": lambda p: {**p, "bogus": 1},
    "missing-key": lambda p: {k: v for k, v in p.items() if k != "score_sd"},
    "mode": lambda p: {**p, "mode": "per-minute"},
    "threshold": lambda p: {**p, "fallback_threshold": 0.5},
    "column-not-list": lambda p: {**p, "n": 5},
    "column-short": lambda p: {**p, "duration_mean": p["duration_mean"][:-1]},
    "column-long": lambda p: {**p, "n": p["n"] + p["n"][:1]},
    "row-short": lambda p: {**p, "score_mean": [p["score_mean"][0][:3],
                                                *p["score_mean"][1:]]},
    "difficulty-row-short": lambda p: {**p, "difficulty_counts": [
        [row[:4] for row in p["difficulty_counts"][0]], *p["difficulty_counts"][1:]]},
    "n-bool": lambda p: {**p, "n": [[True, *p["n"][0][1:]], *p["n"][1:]]},
    "n-float": lambda p: {**p, "n": [[float(p["n"][0][0]), *p["n"][0][1:]], *p["n"][1:]]},
    "n-text": lambda p: {**p, "n": [["1", *p["n"][0][1:]], *p["n"][1:]]},
    "n-beyond-int64": lambda p: {**p, "n": [[2 ** 63, *p["n"][0][1:]], *p["n"][1:]]},
    "n-beyond-float-exact": lambda p: {**p, "n": [[2 ** 53 + 1, *p["n"][0][1:]],
                                                  *p["n"][1:]]},
    "mean-text": lambda p: {**p, "score_mean": [["high", *p["score_mean"][0][1:]],
                                                *p["score_mean"][1:]]},
    "mean-bool": lambda p: {**p, "duration_mean": [[True, *p["duration_mean"][0][1:]],
                                                   *p["duration_mean"][1:]]},
    "mean-beyond-float": lambda p: {**p, "score_mean": [[10 ** 400,
                                                         *p["score_mean"][0][1:]],
                                                        *p["score_mean"][1:]]},
}


def reference_simulate_turn(oracle, profile, step, act, rng) -> SimulatedTurn:
    """simulate_turn as it was before both draw paths shared
    `draw_parameters`, kept as their oracle: an OracleTable's ladder walked
    per call, its statistics turned into draws inline, through `categorical`
    and `truncated_gaussian`. The ceiling is read from the behavior_tables
    module, so a test that lowers it there lowers it here too. `rng` is any stream;
    its draws are scalar."""
    rng = ScalarStream.of(rng)
    complexity = complexity_of_step(step)
    condition = step if oracle.mode is TableMode.TASK_STEP_BASED else complexity
    key = (trait_codes(profile), act, condition)
    cell, used_fallback = reference_lookup(oracle, key)

    combo_idx = categorical(cell.request_probs, rng.child("requests"))
    help_request, suggestion_request = REQUEST_COMBOS[combo_idx]
    stats = reference_combo_stats(oracle, key, combo_idx)

    counts = stats.difficulty_counts
    total = sum(counts)
    probs = tuple(c / total for c in counts)
    difficulty = LIKERT_MIN + categorical(probs, rng.child("difficulty"))

    duration = truncated_gaussian(stats.duration_mean, stats.duration_sd,
                                  MIN_DURATION_S, behavior_tables.DURATION_HI,
                                  rng.child("duration"))
    duration = max(duration, DURATION_FLOOR_S)

    game_score = truncated_gaussian(stats.score_mean, stats.score_sd,
                                    OPTION_SCORE_UNIT, max_option_score(complexity),
                                    rng.child("score"))

    return SimulatedTurn(
        help_request=help_request,
        suggestion_request=suggestion_request,
        duration=duration,
        difficulty=difficulty,
        game_score=game_score,
        used_fallback=used_fallback,
    )


_REQUESTS_BITS = label_bits(["requests"])
_CANDIDATE_BITS = label_bits(range(1024))


def _forcing_streams(base, cumulative) -> dict:
    """For each request combination these cumulative weights can draw, the
    first of the streams base.child(0, 0), base.child(0, 1), ...,
    base.child(1, 0), ... whose "requests" uniform draws it."""
    edges = [0.0, *cumulative]
    wanted = {combo for combo in range(len(cumulative)) if edges[combo + 1] > edges[combo]}
    found = {}
    for block in itertools.count():
        keys = child_keys(base.child(block).key, _CANDIDATE_BITS)
        target = first_uniforms(child_keys(keys, _REQUESTS_BITS)) * cumulative[-1]
        for combo in wanted - found.keys():
            hits = np.flatnonzero((edges[combo] <= target) & (target < edges[combo + 1]))
            if hits.size:
                found[combo] = RandomStream._from_key(int(keys[hits[0]]))
        if found.keys() == wanted:
            return found


def assert_drawn_turn(turn) -> None:
    """The bounds of a drawn turn, which SimulatedTurn does not check:
    a duration above MIN_DURATION_S, an int difficulty in 1..5 and a game
    score of at least OPTION_SCORE_UNIT."""
    assert turn.duration > MIN_DURATION_S
    assert type(turn.difficulty) is int and LIKERT_MIN <= turn.difficulty <= LIKERT_MAX
    assert turn.game_score >= OPTION_SCORE_UNIT


def assert_drawn_log(log) -> None:
    """The bounds of assert_drawn_turn on every row of a replay log (its
    difficulty column is int64)."""
    assert (log.duration > MIN_DURATION_S).all()
    assert ((LIKERT_MIN <= log.difficulty) & (log.difficulty <= LIKERT_MAX)).all()
    assert (log.game_score >= OPTION_SCORE_UNIT).all()


def env_turns(table, traits, seed, episodes=4) -> list:
    """The turns of `episodes` episodes of a TrustSimEnv over the table,
    episode e on RandomStream(seed, "env", e) taking act (e + s) % 4 at
    step s."""
    env = TrustSimEnv(table, traits, stub_trust_model([0.0] * 5))
    turns = []
    for e in range(episodes):
        env.reset(RandomStream(seed, "env", e))
        turns += [env.step(ACT_ORDER[(e + s) % len(ACT_ORDER)])[0].last_turn
                  for s in range(1, STEPS_PER_DIALOG + 1)]
    return turns


def assert_every_turn_matches_oracle(table, seed) -> None:
    """simulate_turn equals reference_simulate_turn, field for field, in
    every context key of the table's mode and every combination that key
    can draw, each on a stream that draws that combination."""
    oracle = oracle_table(table)
    for key in mode_keys(table.mode):
        trait, act, condition = key
        profile = make_user(**{name: 4.0 if bit else 2.0 for name, bit in zip(
            ("domain_expertise", "trust_propensity", "technical_affinity"),
            trait_flags(trait))})
        assert trait_codes(profile) == trait
        step = next(s for s in range(1, 13) if condition == (
            s if table.mode is TableMode.TASK_STEP_BASED else complexity_of_step(s)))
        cumulative = cumulative_weights(reference_lookup(oracle, key)[0].request_probs)
        base = RandomStream(seed, f"{trait:03b}", act.value, condition)
        for combo, rng in _forcing_streams(base, cumulative).items():
            turn = simulate_turn(table, profile, step, act, rng)
            assert_drawn_turn(turn)
            assert combo_index(turn.help_request, turn.suggestion_request) == combo
            assert turn == reference_simulate_turn(oracle, profile, step, act, rng)


_TURN_FIELDS = tuple(f.name for f in fields(SimulatedTurn))


def simulated_turns(table, profile, step, act, parent, labels) -> list:
    """simulate_turn on parent.child(label) for each label, drawn as one
    `draw_turns` call on the context's key code and the first uniforms of
    those streams' TURN_FIELDS children; the first 100 turns are checked
    against simulate_turn, call by call."""
    condition = step if table.mode is TableMode.TASK_STEP_BASED else complexity_of_step(step)
    code = lookup(table, trait_codes(profile), act, condition)
    keys = child_keys(parent.key, label_bits(labels))
    columns = draw_turns(table, np.full(len(keys), code),
                         first_uniforms(child_keys(keys[:, None], label_bits(TURN_FIELDS))))
    turns = [SimulatedTurn(*values)
             for values in zip(*(columns[name].tolist() for name in _TURN_FIELDS))]
    for turn, key in zip(turns[:100], keys.tolist()):
        assert turn == simulate_turn(table, profile, step, act, RandomStream._from_key(key))
    return turns


def reference_replay(corpus, table, rng) -> list:
    """The per-turn loop replay_conditions replaced, kept as its oracle:
    one reference_simulate_turn per exchange on rng.child(user_id, step),
    as (user, exchange, SimulatedTurn) triples in corpus order."""
    rng, oracle = ScalarStream.of(rng), oracle_table(table)
    return [(user, ex, reference_simulate_turn(oracle, user, ex.step, ex.proactive_act,
                                               rng.child(user.user_id, ex.step)))
            for user, ex in exchanges_of(corpus)]



def summary_of(report) -> dict:
    """A FidelityReport's summary rows by name: (KL mean, KL SD, MSE mean,
    MSE SD)."""
    return {name: tuple(values) for name, *values in report.summary_rows()}


def reference_log(corpus, records) -> SimulatedLog:
    """The log of reference_replay's triples for the corpus it replayed."""
    columns = {name: [getattr(turn, name) for _, _, turn in records] for name in _TURN_FIELDS}
    return SimulatedLog(corpus=corpus, **columns)


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


# a lag slot before the dialog has that many earlier turns
_LAG_FILL = ([0.0] * len(ACT_ORDER) + [float(NEUTRAL_LIKERT)] + [0.0] * 4
             + [float(NEUTRAL_LIKERT)])


def _act_onehot(act) -> list:
    return [1.0 if a is act else 0.0 for a in ACT_ORDER]


def _observed(turn) -> list:
    return [float(turn.difficulty), turn.duration, turn.game_score,
            float(turn.help_request), float(turn.suggestion_request)]


def reference_features(profile, history, current) -> np.ndarray:
    """The per-turn feature vector that `corpus_to_dataset` and
    `DialogFeatures` replaced, kept as their oracle: the profile block,
    the block of `current` (a TurnContext), then for lags 1 and 2 the
    block of that earlier turn with its trust label, or the neutral fill
    where the dialog has no such turn. `history` holds the dialog's
    earlier turns, labelled, in step order."""
    vec = [float(profile.age),
           *(1.0 if g is profile.gender else 0.0 for g in GENDER_ORDER),
           profile.technical_affinity, profile.trust_propensity,
           profile.domain_expertise, profile.openness, profile.conscientiousness,
           profile.extraversion, profile.agreeableness, profile.neuroticism]
    vec += (_act_onehot(current.proactive_act)
            + [float(current.complexity), float(current.step)] + _observed(current))
    for lag in (1, 2):
        if lag <= len(history):
            h = history[-lag]
            vec += _act_onehot(h.proactive_act) + _observed(h) + [float(h.trust_label)]
        else:
            vec += _LAG_FILL
    return np.asarray(vec, dtype=float)


def combine_trust_target(trust, competence, reliability, predictability) -> int:
    """The label of an exchange's four 1..5 ratings, as corpus_to_dataset
    computes it for every exchange at once: their mean, rounded half-up."""
    return int(math.floor((trust + competence + reliability + predictability) / 4.0 + 0.5))


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


def simulated_turn_context(step, act, turn, trust_label=None) -> TurnContext:
    """The observable slice of a simulated turn at a step, labelled with
    the trust estimated for it when it serves as a lag."""
    return TurnContext(
        proactive_act=act, complexity=complexity_of_step(step), step=step,
        difficulty=turn.difficulty, duration=turn.duration, game_score=turn.game_score,
        help_request=turn.help_request, suggestion_request=turn.suggestion_request,
        trust_label=trust_label,
    )


def reference_dataset(corpus) -> tuple:
    """The per-row loop corpus_to_dataset replaced, kept as its oracle:
    one reference_features call per exchange, lag labels teacher-forced."""
    rows, labels = [], []
    dialogs = dialogs_of(corpus)
    for user in users_of(corpus):
        history = []
        for ex in dialogs[user.user_id]:
            rows.append(reference_features(user, history, turn_context(ex)))
            labels.append(combine_trust_target(ex.trust, ex.competence,
                                               ex.reliability, ex.predictability))
            history.append(turn_context(ex, with_label=True))
    X = np.vstack(rows) if rows else np.empty((0, N_FEATURES))
    return X, np.asarray(labels, dtype=int)


def reference_train(corpus, config=TrainConfig()) -> tuple:
    """The per-class hinge trainer that train_classifier's joint loop
    replaced, kept as its oracle to within rounding: (classes, weights,
    biases, feature mean, feature scale, whether some epoch had no margin
    violator). The weights and biases score standardized features,
    (x - mean) / scale, as trust-model/v2 stored them."""
    X, y = reference_dataset(corpus)
    present = tuple(sorted(set(int(v) for v in y)))
    mean = X.mean(axis=0)
    scale = X.std(axis=0, ddof=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    Z = (X - mean) / scale
    n = Z.shape[0]
    lam = L2
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
    return present, W, b, mean, scale, saw_no_violator


def fold_standardization(weights, biases, mean, scale) -> tuple:
    """Standardized-space weights and biases as weights and biases over
    raw features, folded as train_classifier folds them."""
    folded = weights / scale
    return folded, biases - folded @ mean


def standardized_labels(classes, weights, biases, mean, scale, X) -> list:
    """The predicted label of each row of X scored as before
    trust-model/v3: the row standardized, then the standardized-space
    weights; ties go to the lower label."""
    return [classes[int(np.argmax(weights @ ((x - mean) / scale) + biases))] for x in X]


def reference_predictions(model, corpus) -> list:
    """One predict_trust call per dataset row: the per-row evaluation that
    evaluate_classifier's single product replaced."""
    X, _ = reference_dataset(corpus)
    return [predict_trust(model, x) for x in X]


def _reference_annotation(latent, noise_sd, rng) -> int:
    value = latent + normal(rng, 0.0, noise_sd) + 0.5
    return int(math.floor(min(LIKERT_MAX, max(LIKERT_MIN, value))))


def reference_generate(config, seed) -> Corpus:
    """The per-dialog loop the batched generator replaced, kept as its
    oracle: one user at a time, one step at a time, every field drawn from
    its own `ScalarStream` through the process's scalar methods. First, every
    (step, trait code) in order is checked for a nan help, suggestion or
    best-option probability, then for a difficulty pmf that is no
    categorical, then for a nan duration mean, drawn or not."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidConfig(f"seed must be an integer, got {seed!r}")
    clip = lambda x: min(LIKERT_MAX, max(LIKERT_MIN, x))
    proc = config.process
    for step, trait in itertools.product(range(1, 13), range(N_TRAIT_CODES)):
        probs = {
            "help": [proc.help_prob(trait, act, step) for act in ACT_ORDER],
            "suggestion": [proc.sugg_prob(trait, act, step) for act in ACT_ORDER],
            "best-option": [proc.best_prob(trait, act, sugg, step, config.step_drift)
                            for act in ACT_ORDER for sugg in (False, True)]}
        for name, values in probs.items():
            if any(math.isnan(p) for p in values):
                raise InvalidConfig(f"the {name} probability is nan at step {step} "
                                    f"for trait code {trait}")
        cumulative_weights(proc.difficulty_pmf(trait, step))
        if any(math.isnan(proc.duration_mean(trait, h, s, step, config.step_drift))
               for h, s in itertools.product((False, True), repeat=2)):
            raise ValueOutOfRange("duration", math.nan, detail="must exceed 20 s")
    root = ScalarStream(seed, "synth")
    users, dialogs = [], {}
    for i in range(config.n_dialogs):
        uid = f"u{i:04d}"
        ustream = root.child(uid)
        profile = reference_sample_user(config.traits, ustream.child("traits"), user_id=uid)
        trait = trait_codes(profile)
        users.append(profile)
        latent_trust = clip(profile.trust_propensity)
        exchanges = []
        for step in range(1, 13):
            sstream = ustream.child("step", step)
            k = complexity_of_step(step)
            scores = option_scores(k)
            act = ACT_ORDER[sstream.child("act").integers(len(ACT_ORDER))]
            help_req = sstream.child("help").random() < proc.help_prob(trait, act, step)
            sugg_req = sstream.child("sugg").random() < proc.sugg_prob(trait, act, step)
            p_best = proc.best_prob(trait, act, sugg_req, step, config.step_drift)
            score_stream = sstream.child("score")
            if score_stream.random() < p_best:
                game_score = scores[-1]
            else:
                game_score = scores[score_stream.integers(k - 1)]
            mean = proc.duration_mean(trait, help_req, sugg_req, step, config.step_drift)
            duration = max(truncated_gaussian(mean, proc.duration_sd, MIN_DURATION_S,
                                              config.duration_hi,
                                              sstream.child("duration")),
                           DURATION_FLOOR_S)
            difficulty = 1 + categorical(proc.difficulty_pmf(trait, step),
                                         sstream.child("difficulty"))
            best_chosen = game_score == max_option_score(k)
            latent_trust = clip(latent_trust + proc.trust_delta(
                act, profile.trust_propensity > 3.0, best_chosen))
            annotations = {
                name: _reference_annotation(latent_trust, proc.trust_noise_sd,
                                            sstream.child(name))
                for name in ("trust", "competence", "reliability", "predictability")
            }
            exchanges.append(Exchange(
                dialog_id=f"d{i:04d}", step=step, complexity=k, proactive_act=act,
                game_score=float(game_score), help_request=help_req,
                suggestion_request=sugg_req, duration=duration, difficulty=difficulty,
                **annotations,
            ))
        dialogs[uid] = tuple(exchanges)
    return corpus_from_rows(users, dialogs)


def reference_load_corpus(path) -> Corpus:
    """The per-row loader load_corpus replaced, kept as its oracle: every
    row read into memory through DictReader, its cell count checked against
    the header's, every field parsed by name and a UserRecord built for
    every row, then compared with the user's first."""
    path = Path(path)
    file_format = infer_format(path)
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
        if file_format == "csv":
            # DictReader gives a short row's missing cells the value None
            # and keeps a long row's extra cells in a list under the key None
            fields = len(header) + len(raw.pop(None, ())) - list(raw.values()).count(None)
            if fields != len(header):
                raise ValueOutOfRange("fields", fields, row=i,
                                      detail=f"the header has {len(header)} columns")
        parsed = {name: _parse_field(name, raw[name], i) for name in CORPUS_COLUMNS}
        parsed["gender"] = GENDER_ORDER[parsed["gender"]]  # parsed as indexes
        parsed["proactive_act"] = ACT_ORDER[parsed["proactive_act"]]
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
    return corpus_from_rows(users, dialog_rows)


def _reference_field(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip
    return str(value)


def reference_write_csv_rows(handle, rows) -> None:
    """The csv-module writer write_csv_rows replaced, kept as its oracle:
    "\n"-terminated rows with minimal quoting, and every cell quoted in a
    row holding a "\r", which that terminator would leave bare."""
    plain = csv.writer(handle, lineterminator="\n")
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for cells in rows:
        (quoted if "\r" in "".join(cells) else plain).writerow(cells)


def reference_save_corpus(corpus, path) -> None:
    """The per-row writer save_corpus replaced, kept as its oracle: one dict
    per exchange, each CSV cell formatted by its own call, each JSON line
    dumped from its dict with enums by value."""
    path = Path(path)
    file_format = infer_format(path)
    rows = []
    for user, ex in exchanges_of(corpus):
        row = {name: getattr(user, name) for name in USER_COLUMNS}
        row.update({name: getattr(ex, name) for name in EXCHANGE_COLUMNS})
        rows.append(row)
    if file_format == "csv":
        with path.open("w", newline="", encoding="utf-8") as handle:
            reference_write_csv_rows(handle, [CORPUS_COLUMNS] + [
                [_reference_field(row[c]) for c in CORPUS_COLUMNS] for row in rows])
    else:
        with path.open("w", encoding="utf-8") as handle:
            for row in rows:
                payload = {c: (row[c].value if isinstance(row[c], Enum) else row[c])
                           for c in CORPUS_COLUMNS}
                handle.write(json.dumps(payload) + "\n")


def reference_fit_trait_distributions(corpus) -> TraitDistributions:
    """The per-user loop fit_trait_distributions replaced, kept as its
    oracle: each trait's values gathered user by user from the records,
    gender shares counted per Gender."""
    users = users_of(corpus)
    if len(users) < 2:
        raise InsufficientUsers(f"need >= 2 users, got {len(users)}")
    ages = np.array([u.age for u in users], dtype=float)
    kwargs = {"age": TruncGauss(float(ages.mean()), float(ages.std(ddof=1)), AGE_MIN, AGE_MAX)}
    for name in SCALE_TRAITS:
        values = np.array([getattr(u, name) for u in users], dtype=float)
        kwargs[name] = TruncGauss(float(values.mean()), float(values.std(ddof=1)),
                                  LIKERT_MIN, LIKERT_MAX)
    counts = {g: 0 for g in GENDER_ORDER}
    for user in users:
        counts[user.gender] += 1
    probs = tuple(counts[g] / len(users) for g in GENDER_ORDER)
    return TraitDistributions(gender_probs=probs, **kwargs)


def reference_split_corpus(corpus, train_fraction, seed) -> tuple:
    """The record-based split split_corpus replaced, kept as its oracle:
    the users picked by the scalar permutation, each partition rebuilt from
    its users' records and Exchange rows in the original user order."""
    n_train = math.floor(train_fraction * corpus.n_dialogs)
    train = set(ScalarStream(seed, "split").permutation(corpus.n_dialogs)[:n_train])
    users, dialogs = users_of(corpus), dialogs_of(corpus)
    parts = ([u for i, u in enumerate(users) if i in train],
             [u for i, u in enumerate(users) if i not in train])
    return tuple(corpus_from_rows(part, {u.user_id: dialogs[u.user_id] for u in part})
                 for part in parts)


class ReferenceTrustSimEnv:
    """TrustSimEnv as it was before episodes drew from precomputed uniforms
    and the table's looked-up rows, kept as its oracle: each step draws one
    reference_simulate_turn on rng.child("step", s), builds its features
    with reference_features over the episode's TurnContext history, and
    labels that history with each step's predicted trust. The user is
    reference_sample_user on rng.child("user"). Its draws are scalar."""

    def __init__(self, table, traits, trust_model, reward=RewardConfig()):
        self.oracle, self.traits, self.trust_model = oracle_table(table), traits, trust_model
        self.reward = reward

    def reset(self, rng):
        self._stream = ScalarStream.of(rng)
        self._profile = reference_sample_user(self.traits, self._stream.child("user"))
        self._trait = trait_codes(self._profile)
        self._history = []
        self._step_no = 1
        return EnvState(step=1, trait=self._trait, last_turn=None,
                        estimated_trust=NEUTRAL_LIKERT)

    def step(self, action):
        s = self._step_no
        turn = reference_simulate_turn(self.oracle, self._profile, s, action,
                                       self._stream.child("step", s))
        current = simulated_turn_context(s, action, turn)
        features = reference_features(self._profile, self._history, current)
        trust = predict_trust(self.trust_model, features)
        self._history.append(replace(current, trust_label=trust))
        reward = (
            self.reward.score_weight
            * (turn.game_score / max_option_score(complexity_of_step(s)))
            + self.reward.trust_weight * ((trust - LIKERT_MIN) / (LIKERT_MAX - LIKERT_MIN))
        )
        done = s == 12
        next_step = s if done else s + 1
        self._step_no = next_step
        state = EnvState(step=next_step, trait=self._trait, last_turn=turn,
                         estimated_trust=trust)
        return state, float(reward), done


def reference_train_tabular_policy(env, episodes, hp) -> TabularPolicyResult:
    """train_tabular_policy as it was before the exploration draws were
    derived a block of episodes at a time, kept as its oracle: one
    root.child("explore", ep, t) stream per step."""
    q = np.zeros((N_STATES, N_ACTIONS))
    root = ScalarStream(hp.seed, "qlearn")
    returns = []
    for ep in range(episodes):
        state = env.reset(root.child("env", ep))
        si = state_index(state)
        total = 0.0
        done = False
        t = 0
        while not done:
            t += 1
            explore = root.child("explore", ep, t)
            if explore.random() < hp.epsilon:
                ai = explore.integers(N_ACTIONS)
            else:
                ai = int(np.argmax(q[si]))
            state, reward, done = env.step(ACT_ORDER[ai])
            ni = state_index(state)
            target = reward if done else reward + hp.gamma * float(np.max(q[ni]))
            q[si, ai] += hp.alpha * (target - q[si, ai])
            si = ni
            total += reward
        returns.append(total)
    return TabularPolicyResult(q=q, policy=np.argmax(q, axis=1), returns=tuple(returns))


class PassThroughProbe:
    """Env wrapper that passes every call through and records each action
    and each step's (state, reward, done)."""

    def __init__(self, env):
        self.env = env
        self.actions = []
        self.steps = []

    def reset(self, rng):
        return self.env.reset(rng)

    def step(self, action):
        result = self.env.step(action)
        self.actions.append(action)
        self.steps.append(result)
        return result


class RiggedSweepEnv:
    """Action-independent state cycle that touches every discrete state;
    only SUGGESTION pays. The optimal policy is the same everywhere."""

    def __init__(self):
        self.episode = -1

    def _state(self, t):
        trust = 1 + ((self.episode // 8) + t) % 5
        return EnvState(step=t, trait=(self.episode + t) % 8, last_turn=None,
                        estimated_trust=trust)

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
        classes=tuple(range(1, len(biases) + 1)),
        weights=np.zeros((len(biases), N_FEATURES)),
        biases=biases,
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
    return corpus_from_rows(users, dialogs)


def csv_reader_load(path) -> Corpus:
    """load_corpus on its csv.reader path only, the split path refused."""
    def refuse(_):
        raise corpus_io._Unsplittable
    with mock.patch.object(corpus_io, "_split_blocks", refuse):
        return corpus_io.load_corpus(path)


def any_outcome(load, path):
    """What load gives for the file: the corpus, or the type and message of
    any error, typed or not."""
    try:
        return load(path)
    except Exception as exc:  # noqa: BLE001 - two loaders must fail alike
        return type(exc), str(exc)


def line_cells(line: bytes) -> list:
    """The cells of a CSV line with no quotes, as bytes."""
    return line.rstrip(b"\n").split(b",")


def cells_line(cells) -> bytes:
    return b",".join(cells) + b"\n"


def corpus_csv_lines(n_dialogs: int, seed: int) -> tuple:
    """The lines of a synthetic corpus's CSV as save_corpus writes it,
    header first, each as bytes ending in b"\n"."""
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs), seed)
    buffer = io.StringIO()
    corpus_io.write_csv_rows(buffer, zip(*([name, *corpus_io.corpus_cells(corpus, name, True)]
                                           for name in CORPUS_COLUMNS)))
    return tuple(buffer.getvalue().encode().splitlines(keepends=True))


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
