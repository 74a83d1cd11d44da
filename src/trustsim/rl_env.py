"""Sequential decision environment over the simulated user.

Episodes are one 12-step dialog; actions are the four proactive acts.
After each action the simulator produces the user's turn, the trust
classifier estimates the user's trust from observable features only, and
the reward blends normalized game score with normalized estimated trust.
The Corpus-shaped users of a block of episodes are drawn at once by the
one user draw, `user_model.sample_users`, and so is every turn each
episode can take, one per (step, act), by the one turn draw
`simulator.draw_turns` on its streams' `simulator.turn_uniforms`, so a
step draws nothing.
Ships a tabular Q-learning reference agent over the discretized (step,
trait code, trust estimate) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .behavior_tables import BehaviorTable, TableMode, key_code
from .corpus import (
    ACT_INDEX,
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
    DialogFeatures,
    TrustClassifier,
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


@dataclass(frozen=True)
class EnvState:
    """An episode's state; each int field is an `errors.integer` in its range."""

    step: int
    trait: int  # the user's trait code
    last_turn: SimulatedTurn | None
    estimated_trust: int

    def __post_init__(self):
        # state_index reads each field as a digit: a non-integer would make
        # a float index, and one out of its range would alias another
        # state's Q row or fall outside the table. Python ints in range, the
        # common case, are checked inline.
        step, trait, trust = self.step, self.trait, self.estimated_trust
        if not (type(step) is type(trait) is type(trust) is int
                and 1 <= step <= STEPS_PER_DIALOG and 0 <= trait < N_TRAIT_CODES
                and LIKERT_MIN <= trust <= LIKERT_MAX):
            for name, lo, hi in (("step", 1, STEPS_PER_DIALOG), ("trait", 0, N_TRAIT_CODES - 1),
                                 ("estimated_trust", LIKERT_MIN, LIKERT_MAX)):
                object.__setattr__(self, name, integer(name, getattr(self, name), lo, hi))

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
_TURN_COLUMNS = tuple(field.name for field in fields(SimulatedTurn))


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
    from a (trait code, step, act) table made once per env), and
    `turn_blocks` writes each candidate's current-turn block, so the action
    only picks a drawn candidate: its block feeds the trust estimate, and
    its drawn columns make the step's SimulatedTurn. All of it is drawn
    for a block of episodes at once: a reset stream that
    carries a block (as `train_tabular_policy` passes) has every episode of
    its block drawn the first time the env sees it, and a plain stream is
    a block of one. `reset` always returns the episode of the stream's
    key: it draws afresh when the key it drew at the stream's index is
    another, as after the block's array was rewritten in place. The oracle
    `ReferenceTrustSimEnv` in `tests/conftest.py` draws the same episode
    turn by turn on a scalar stream with the reset key: the profile with
    `reference_sample_user` on `rng.child("user")`, each turn with
    `reference_simulate_turn` on `rng.child("step", s)`, its features with
    `reference_features` over the episode's earlier turns, then
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
        self._keys, self._drawn = [], None  # the reset keys last drawn, and their draws
        self._done = True  # until the first reset

    def _draw(self, keys: np.ndarray) -> tuple:
        """The draws of the episodes with these reset keys: each one's trait
        code, feature row at dialog start, and for each (step, act), at
        index 4 (step - 1) + act, the candidate turn's current-turn block
        (`turn_blocks`), a float array indexed [episode, candidate], and its
        drawn columns in _TURN_COLUMNS order, each an array indexed the same."""
        users = sample_users(self.traits, child_keys(keys, _USER_LABEL))
        codes = trait_codes(users)
        u = turn_uniforms(child_keys(child_keys(keys, _STEP_LABEL)[:, None], _STEP_BITS))
        # each step's uniforms, once per act
        drawn = draw_turns(self.table, self._codes[codes].ravel(),
                           np.repeat(u, N_ACTIONS, axis=1).reshape(-1, u.shape[-1]))
        n = len(keys)
        blocks = np.empty((n, *_CANDIDATE_BLOCKS.shape))
        blocks[:] = _CANDIDATE_BLOCKS
        turn_blocks(SimpleNamespace(**drawn), blocks.reshape(-1, blocks.shape[-1]))
        return (codes.tolist(), start_rows(users), blocks,
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
            self._keys, self._drawn, self._blocks, self._done = [], None, None, True
            self._drawn, self._keys = self._draw(block), block.tolist()
        codes, rows, blocks, columns = self._drawn
        self._trait = codes[i]
        # each candidate's SimulatedTurn fields, as Python scalars
        self._blocks, self._turns = blocks[i], list(zip(*(c[i].tolist() for c in columns)))
        self._features = DialogFeatures(rows[i])
        self._step_no = 1
        self._done = False
        return EnvState(step=1, trait=self._trait, last_turn=None,
                        estimated_trust=NEUTRAL_LIKERT)

    def step(self, action: ProactiveAct):
        """Returns (next_state, reward, done)."""
        if self._done:
            raise EpisodeFinished("reset the environment before stepping")
        if not isinstance(action, ProactiveAct):
            raise InvalidConfig(f"action must be a ProactiveAct, got {action!r}")
        s = self._step_no
        k = N_ACTIONS * (s - 1) + ACT_INDEX[action]
        turn = SimulatedTurn(*self._turns[k])
        trust = predict_trust(self.trust_model, self._features.write(self._blocks[k]))
        self._features.push(trust)

        reward = (
            self.reward.score_weight * (turn.game_score / _MAX_SCORE[s - 1])
            + self.reward.trust_weight * ((trust - LIKERT_MIN) / (LIKERT_MAX - LIKERT_MIN))
        )
        done = s == STEPS_PER_DIALOG
        self._done = done
        next_step = s if done else s + 1
        self._step_no = next_step
        state = EnvState(step=next_step, trait=self._trait, last_turn=turn,
                         estimated_trust=trust)
        return state, float(reward), done


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
