"""Sequential decision environment over the simulated user.

Episodes are one 12-step dialog; actions are the four proactive acts.
After each action the simulator produces the user's turn, the trust
classifier estimates the user's trust from observable features only, and
the reward blends normalized game score with normalized estimated trust.
The Corpus-shaped users of a block of episodes are drawn at once by the
one user draw, `user_model.sample_users`, and so is every turn each
episode can take, one per (step, act), by the one turn draw
`simulator.draw_turns` on its streams' `simulator.turn_uniforms`, so a
step draws nothing. The same block draw scores every candidate turn in
parts (`trust_model.ScoreParts`), one score per trust level 1..5 (-inf for
a level that is no class of the model), so a step sums five scores of
four Python floats each where it would multiply a feature row by the
weights, and its label is `predict_trust`'s on that row, certified by a
rounding-error bound or, on a step too close to call, computed on the row
itself: the last of the `trust_model.dialog_rows` of the turns taken.
Ships a tabular Q-learning reference agent over the discretized (step,
trait code, trust estimate) state, an `EnvState` tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .behavior_tables import BehaviorTable, TableMode, key_code
from .corpus import (
    ACT_ORDER,
    LIKERT_MAX,
    LIKERT_MIN,
    ProactiveAct,
    STEPS_PER_DIALOG,
    complexity_of_step,
    max_option_score,
)
from .errors import EpisodeFinished, InvalidConfig, InvalidHyperparams, finite_number, integer
from .sampling import RandomStream, child_keys, first_uniforms, integers, label_bits, nth_draws
from .simulator import SimulatedTurn, draw_turns, turn_uniforms
from .simulator import simulate_turn  # unused here; perfbench's tracer tests read it
from .trust_model import (
    NEUTRAL_LIKERT,
    TRUST_CLASSES,
    ScoreParts,
    TrustClassifier,
    dialog_rows,
    predict_trust,
    start_rows,
    turn_blocks,
)
from .user_model import N_TRAIT_CODES, TraitDistributions, sample_users, trait_codes

N_ACTIONS = len(ACT_ORDER)
N_TRUST_LEVELS = LIKERT_MAX - LIKERT_MIN + 1
N_STATES = STEPS_PER_DIALOG * N_TRAIT_CODES * N_TRUST_LEVELS


@dataclass(frozen=True)
class RewardConfig:
    """The reward's weights, each an `errors.finite_number`."""

    score_weight: float = 0.5
    trust_weight: float = 0.5

    def __post_init__(self):
        for name in ("score_weight", "trust_weight"):
            finite_number(name, getattr(self, name))
        # |reward| <= W = |score_weight| + |trust_weight|, as both normalized
        # terms lie in [0, 1]: a return or Q value within 12 W, a TD step 24 W
        bound = 2 * STEPS_PER_DIALOG * (abs(self.score_weight) + abs(self.trust_weight))
        if not math.isfinite(bound):
            raise InvalidConfig(f"reward weights must keep 24 x (|score_weight| + "
                                f"|trust_weight|) finite, got {bound}")


_tuple_new = tuple.__new__  # looked up once, not per step


class _StateFields(NamedTuple):
    step: int
    trait: int  # the user's trait code
    last_turn: SimulatedTurn | None
    estimated_trust: int


class EnvState(_StateFields):
    """An episode's state, a tuple; each int field is an `errors.integer` in
    its range. Every public way to make one runs the checks of `__new__`:
    the call, by position or keyword, `_make` and so `_replace`, copy and
    pickle."""

    __slots__ = ()

    def __new__(cls, step, trait, last_turn, estimated_trust):
        # state_index reads each field as a digit: a non-integer would make
        # a float index, and one out of its range would alias another
        # state's Q row or fall outside the table. Python ints in range, the
        # common case, are checked inline.
        if not (type(step) is type(trait) is type(estimated_trust) is int
                and 1 <= step <= STEPS_PER_DIALOG and 0 <= trait < N_TRAIT_CODES
                and LIKERT_MIN <= estimated_trust <= LIKERT_MAX):
            step, trait, estimated_trust = (integer(*check) for check in (
                ("step", step, 1, STEPS_PER_DIALOG), ("trait", trait, 0, N_TRAIT_CODES - 1),
                ("estimated_trust", estimated_trust, LIKERT_MIN, LIKERT_MAX)))
        return _tuple_new(cls, (step, trait, last_turn, estimated_trust))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple one, which _replace calls, makes the tuple directly
        return cls(*iterable)

    def __reduce__(self):  # copy and pickle, at every protocol
        return type(self), tuple(self)

    @property
    def complexity(self) -> int:
        return complexity_of_step(self.step)


def state_index(state: EnvState) -> int:
    """Discretize to 0..479: step x trait code x trust estimate."""
    return ((state.step - 1) * N_TRAIT_CODES + state.trait) \
        * N_TRUST_LEVELS + (state.estimated_trust - LIKERT_MIN)


_STEPS = range(1, STEPS_PER_DIALOG + 1)
# complexity_of_step and max_option_score of each step, at index step - 1
_COMPLEXITY = tuple(map(complexity_of_step, _STEPS))
_MAX_SCORE = tuple(map(max_option_score, _COMPLEXITY))
_EXPLORE_LABEL = label_bits(["explore"])
# the trust-label index of a lag slot with no turn yet; a label's index is
# its level's in TRUST_CLASSES
_NO_LABEL = N_TRUST_LEVELS
# An episode's user draws below child("user") of its reset key, and its
# turn at step s below child("step", s).
_USER_LABEL, _STEP_LABEL = label_bits(["user", "step"])
_STEP_BITS = label_bits(_STEPS)
# The current-turn blocks (`turn_blocks`) of an episode's candidate turns,
# one per (step, act), act fastest, with the act, complexity and step
# columns, the same in every episode, written and the drawn ones zero.
_CANDIDATE_BLOCKS = turn_blocks(SimpleNamespace(
    proactive_act=np.tile(np.arange(N_ACTIONS), STEPS_PER_DIALOG),
    step=np.repeat(_STEPS, N_ACTIONS), complexity=np.repeat(_COMPLEXITY, N_ACTIONS)))
# The drawn columns of `draw_turns` in SimulatedTurn field order.
_TURN_COLUMNS = SimulatedTurn._fields


class _BlockStream(RandomStream):
    """The reset stream of episode `index` of a block whose reset keys are
    the uint64 array `block`: the RandomStream with key block[index] that
    also carries the block, so that `TrustSimEnv.reset` draws all of the
    block's episodes the first time it sees one of them."""

    __slots__ = ("block", "index")

    def __init__(self, block: np.ndarray, index: int):
        self.key, self.block, self.index = int(block[index]), block, index


class TrustSimEnv:
    """12-step episodic environment; deterministic given the reset stream.

    Ground-truth trust annotations do not exist here at all: the state
    and reward see only the classifier's estimate.

    Every stream an episode reads depends only on the reset stream's key,
    the step and the field, never on the actions, so an episode's draws
    are made before its first step. The user is `sample_users` on the
    stream child("user"), and its trait code and feature row at dialog
    start (`start_rows`) follow. The `turn_uniforms` of each step's stream
    child("step", s) draw the turn of every act (`draw_turns`, on key codes
    from a (trait code, step, act) table made once per env), so the action
    only picks a drawn candidate, whose drawn columns make the step's
    SimulatedTurn. All of it is drawn for a block of episodes at once: a
    reset stream that carries a block (as `train_tabular_policy` passes)
    has every episode of its block drawn the first time the env sees it,
    and a plain stream is a block of one. `reset` always returns the
    episode of the stream's key: it draws afresh when the key it drew at
    the stream's index is another, as after the block's array was
    rewritten in place.

    The trust estimate of a step is the label of the top class score of
    its feature row, the dialog's start row with the candidate's
    current-turn block (`turn_blocks`) and the two turns before it as
    lags. The block draw computes each candidate's `ScoreParts` in one
    product: its own part, with the profile part and the bias, and the
    parts it adds as lag 1 and lag 2, each with one score per trust level.
    A step adds, for each of the five levels in one literal list, its
    candidate's own part, the carried lag parts and the trust-label parts
    of the two turns before (a table made once per env, indexed by level),
    and takes the top level; a level that is no class of the model has an
    own part of -inf, so it is never the top one. It keeps
    that label only if the top two sums differ by more than four times
    `ScoreParts.error`, the bound on how far both these sums and the
    scores `predict_trust` computes lie from the exact ones; so the label
    is `predict_trust`'s, with its ties to the lower label. Otherwise, as
    for any model with a NaN or inf weight, whose bound is not finite,
    the step builds its whole row, the last of the `dialog_rows` of the
    start row and the turns taken, and calls `predict_trust` on it through
    this module's binding. The env makes its EnvState and SimulatedTurn
    tuples with `tuple.__new__`, skipping EnvState's checks, as each field
    is a Python value of its range by construction (a model's classes are
    trust levels, which `TrustClassifier` checks); a caller's is checked.

    The oracle `ReferenceTrustSimEnv` in `tests/conftest.py` draws the
    same episode turn by turn on a scalar stream with the reset key: the
    profile with `reference_sample_user` on `rng.child("user")`, each turn
    with `reference_simulate_turn` on `rng.child("step", s)`, its features
    with `reference_features` over the episode's earlier turns, then
    `predict_trust`.
    """

    def __init__(self, table: BehaviorTable, traits: TraitDistributions,
                 trust_model: TrustClassifier,
                 reward: RewardConfig = RewardConfig()):
        for name, value, kind in (("table", table, BehaviorTable),
                                  ("traits", traits, TraitDistributions),
                                  ("trust model", trust_model, TrustClassifier),
                                  ("reward", reward, RewardConfig)):
            if not isinstance(value, kind):
                raise InvalidConfig(f"{name} must be a {kind.__name__}, "
                                    f"got {type(value).__name__}")
        self.table = table
        self.traits = traits
        self.trust_model = trust_model
        self.reward = reward
        conditions = np.array(_STEPS if table.mode is TableMode.TASK_STEP_BASED
                              else _COMPLEXITY)
        # [trait code, step - 1, act index] -> the code of the key a turn draws from
        self._codes = key_code(table.mode, np.arange(N_TRAIT_CODES)[:, None, None],
                               np.arange(N_ACTIONS), conditions[:, None])
        # each estimated trust is a trust level, a Python int of TRUST_CLASSES
        # (as the model's classes are), so the states built unchecked are in range
        self._parts = ScoreParts(trust_model)
        # A label the parts give is predict_trust's when the top two of them
        # differ by more than this: each of the two scores is off the exact
        # one by at most the error, both as parts and in predict_trust.
        self._margin = 4 * self._parts.error
        # the reward's terms
        self._score_weight = reward.score_weight
        self._trust_rewards = [reward.trust_weight * ((trust - LIKERT_MIN)
                                                      / (LIKERT_MAX - LIKERT_MIN))
                               for trust in TRUST_CLASSES]
        # [j1][j2]: the trust-label parts of lag 1 labelled TRUST_CLASSES[j1]
        # and of lag 2 labelled TRUST_CLASSES[j2], or with _NO_LABEL none
        none = [[0.0] * N_TRUST_LEVELS] * 2
        labels = self._parts.labels + [none]
        self._label_parts = [[[a + b for a, b in zip(label1, label2)]
                              for _, label2 in labels] for label1, _ in labels]
        self._keys, self._drawn = [], None  # the reset keys last drawn, and their draws
        self._done = True  # until the first reset

    def _draw(self, keys: np.ndarray) -> tuple:
        """The draws of the episodes with these reset keys: each one's trait
        code, feature row at dialog start, and for each (step, act), at
        index 4 (step - 1) + act, the candidate turn's `ScoreParts`, a float
        array indexed [episode, candidate], and its drawn columns in
        _TURN_COLUMNS order, each an array indexed the same."""
        users = sample_users(self.traits, child_keys(keys, _USER_LABEL))
        codes = trait_codes(users)
        u = turn_uniforms(child_keys(child_keys(keys, _STEP_LABEL)[:, None], _STEP_BITS))
        # each step's uniforms, once per act
        drawn = draw_turns(self.table, self._codes[codes].ravel(),
                           np.repeat(u, N_ACTIONS, axis=1).reshape(-1, u.shape[-1]))
        rows = start_rows(users)
        n = len(keys)
        return (codes.tolist(), rows,
                self._parts.candidates(rows, _CANDIDATE_BLOCKS, SimpleNamespace(**drawn)),
                [drawn[name].reshape(n, -1) for name in _TURN_COLUMNS])

    def reset(self, rng: RandomStream) -> EnvState:
        if not isinstance(rng, RandomStream):
            raise InvalidConfig(f"reset needs a RandomStream, got {rng!r}")
        block = getattr(rng, "block", None)
        if block is None or int(block[rng.index]) != rng.key:
            # a plain stream, or one whose block was rewritten since: a block of one
            block, i = np.array([rng.key], dtype=np.uint64), 0
        else:
            i = rng.index
        if self._keys[i:i + 1] != [rng.key]:  # drawn afresh unless drawn for this key
            # the last block's arrays are freed before the next is drawn
            self._keys, self._drawn, self._candidates, self._done = [], None, None, True
            self._drawn, self._keys = self._draw(block), block.tolist()
        codes, _, candidates, columns = self._drawn
        self._index, self._trait, self._candidates = i, codes[i], candidates[i]
        # each candidate's SimulatedTurn fields, as Python scalars
        self._turns = list(zip(*(c[i].tolist() for c in columns)))
        # the parts of lag 1 and lag 2 at the next step, and of lag 2 at the
        # step after, each with no trust label yet: that of the neutral fill
        fill1, fill2 = self._parts.fill
        self._lag1, self._lag2, self._next_lag2 = fill1, fill2, fill2
        self._label1 = self._label2 = _NO_LABEL
        self._taken = []  # (candidate, trust) of each step so far
        self._step_no = 1
        self._done = False
        return _tuple_new(EnvState, (1, self._trait, None, NEUTRAL_LIKERT))

    def _predicted(self, k: int) -> int:
        """The trust `predict_trust` gives candidate k: the last of the
        `dialog_rows` of the candidates taken so far, then k."""
        taken = [candidate for candidate, _ in self._taken] + [k]
        i, (_, starts, _, columns) = self._index, self._drawn
        blocks = turn_blocks(SimpleNamespace(**{name: column[i, taken] for name, column
                                                in zip(_TURN_COLUMNS, columns)}),
                             _CANDIDATE_BLOCKS[taken])
        # k's label is never read
        labels = [trust for _, trust in self._taken] + [NEUTRAL_LIKERT]
        rows = dialog_rows(starts[i:i + 1], blocks[None], [labels])
        return predict_trust(self.trust_model, rows[0, -1])

    def step(self, action: ProactiveAct):
        """Returns (next_state, reward, done)."""
        if self._done:
            raise EpisodeFinished("reset the environment before stepping")
        if not isinstance(action, ProactiveAct):
            raise InvalidConfig(f"action must be a ProactiveAct, got {action!r}")
        s = self._step_no
        # an identity match in ACT_ORDER is faster than hashing the member
        k = N_ACTIONS * (s - 1) + ACT_ORDER.index(action)
        parts = self._candidates[k].tolist()
        a, b, t = self._lag1, self._lag2, self._label_parts[self._label1][self._label2]
        # each of the five levels' own, lag 1, lag 2 and label parts, summed
        # in that order
        scores = [parts[0] + a[0] + b[0] + t[0], parts[1] + a[1] + b[1] + t[1],
                  parts[2] + a[2] + b[2] + t[2], parts[3] + a[3] + b[3] + t[3],
                  parts[4] + a[4] + b[4] + t[4]]
        second, top = sorted(scores)[-2:]
        if top - second > self._margin:
            j = scores.index(top)
            trust = TRUST_CLASSES[j]
        else:  # too close to call from the parts: score the whole row
            trust = self._predicted(k)
            j = trust - LIKERT_MIN
        self._taken.append((k, trust))
        self._lag1, self._lag2, self._next_lag2 = parts[5:10], self._next_lag2, parts[10:]
        self._label1, self._label2 = j, self._label1

        turn = _tuple_new(SimulatedTurn, self._turns[k])
        reward = (self._score_weight * (turn.game_score / _MAX_SCORE[s - 1])
                  + self._trust_rewards[j])
        done = s == STEPS_PER_DIALOG
        self._done = done
        next_step = s if done else s + 1
        self._step_no = next_step
        return _tuple_new(EnvState, (next_step, self._trait, turn, trust)), float(reward), done


@dataclass(frozen=True)
class Hyperparams:
    """The learner's rates, each an `errors.finite_number`, and its seed."""

    alpha: float = 0.2
    gamma: float = 0.95
    epsilon: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "gamma", "epsilon"):
            finite_number(name, getattr(self, name), InvalidHyperparams)
        object.__setattr__(self, "seed", integer("seed", self.seed))
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidHyperparams(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidHyperparams(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidHyperparams(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass(frozen=True, eq=False)
class TabularPolicyResult:
    q: np.ndarray  # (N_STATES, N_ACTIONS)
    policy: np.ndarray  # greedy action index per state, ties -> lowest index
    returns: tuple  # undiscounted episode returns, one per episode


# Episodes whose reset keys and exploration draws are derived at once.
_EXPLORE_BLOCK = 256
_ENV_LABEL = label_bits(["env"])


def _explore_actions(root: RandomStream, episodes, steps, epsilon: float) -> list:
    """For each episode ep of `episodes` and step t of `steps`, the action
    index that `root.child("explore", ep, t)` explores with: its second
    draw's `integers(N_ACTIONS)` when its first uniform is below epsilon,
    else -1 for the greedy action."""
    keys = child_keys(child_keys(child_keys(root.key, _EXPLORE_LABEL),
                                 label_bits(episodes))[:, None], label_bits(steps))
    explore = first_uniforms(keys) < epsilon
    return np.where(explore, integers(nth_draws(keys, 2), N_ACTIONS).astype(np.intp),
                    -1).tolist()


def train_tabular_policy(env, episodes: int,
                         hyperparams: Hyperparams = Hyperparams()) -> TabularPolicyResult:
    """Epsilon-greedy tabular Q-learning; any env with reset(rng)/step(act)
    returning the same shapes works (rigged test doubles included).

    Episode ep resets on the stream `root.child("env", ep)`, and its step t
    explores on `root.child("explore", ep, t)`. The reset keys and the
    exploration draws of steps 1..12 are derived a block of episodes at a
    time, and those of a longer episode's later steps one step at a time.
    The reset stream of an episode carries its block's reset keys and its
    index in them, so `TrustSimEnv` draws the block's episodes at once;
    it is a `RandomStream` with the episode's key all the same, which any
    other env (or a wrapper that passes it on) reads as usual."""
    episodes = integer("episodes", episodes, lo=1, error=InvalidHyperparams)
    if not isinstance(hyperparams, Hyperparams):
        raise InvalidHyperparams(f"hyperparams must be a Hyperparams, "
                                 f"got {type(hyperparams).__name__}")
    hp = hyperparams
    # Python float rows: a numpy scalar per read and update costs more than
    # the arithmetic. On a row without NaN, row.index(max(row)) is
    # np.argmax's first maximum.
    q = [[0.0] * N_ACTIONS for _ in range(N_STATES)]
    root = RandomStream(hp.seed, "qlearn")
    returns = []
    for ep in range(episodes):
        i = ep % _EXPLORE_BLOCK
        if i == 0:
            block_eps = range(ep, min(ep + _EXPLORE_BLOCK, episodes))
            block_explore = _explore_actions(root, block_eps, _STEPS, hp.epsilon)
            reset_keys = child_keys(child_keys(root.key, _ENV_LABEL), label_bits(block_eps))
        explore = block_explore[i]
        state = env.reset(_BlockStream(reset_keys, i))
        si = state_index(state)
        total = 0.0
        done = False
        t = 0
        while not done:
            t += 1
            if t <= STEPS_PER_DIALOG:
                ai = explore[t - 1]
            else:
                ai = _explore_actions(root, (ep,), (t,), hp.epsilon)[0][0]
            row = q[si]
            if ai < 0:
                ai = row.index(max(row))
            state, reward, done = env.step(ACT_ORDER[ai])
            ni = state_index(state)
            target = reward if done else reward + hp.gamma * max(q[ni])
            row[ai] += hp.alpha * (target - row[ai])
            si = ni
            total += reward
        returns.append(total)
    q = np.array(q)
    return TabularPolicyResult(q=q, policy=np.argmax(q, axis=1), returns=tuple(returns))
