"""Sequential decision environment over the simulated user.

Episodes are one 12-step dialog; actions are the four proactive acts.
After each action the simulator produces the user's turn, the trust
classifier estimates the user's trust from observable features only, and
the reward blends normalized game score with normalized estimated trust.
The Corpus-shaped users of a block of episodes are drawn at once from
their traits' truncated-Gaussian records (`user_model.trait_records`), a
turn from its key's draw context, both made once per env.
Ships a tabular Q-learning reference agent over the discretized (step,
trait code, trust estimate) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .errors import EpisodeFinished, InvalidConfig, InvalidHyperparams
from .sampling import RandomStream, child_keys, first_uniforms, integers, label_bits, nth_draws
from .simulator import TURN_FIELDS, SimulatedTurn, draw_turn
from .simulator import simulate_turn  # unused here; perfbench's tracer tests read it
from .trust_model import (
    NEUTRAL_LIKERT,
    TURN_HEADS,
    DialogFeatures,
    TrustClassifier,
    predict_trust,
    start_rows,
)
from .user_model import (N_TRAIT_CODES, USER_FIELDS, TraitDistributions, draw_users,
                         trait_codes, trait_records)

N_ACTIONS = len(ACT_ORDER)
N_TRUST_LEVELS = LIKERT_MAX - LIKERT_MIN + 1
N_STATES = STEPS_PER_DIALOG * N_TRAIT_CODES * N_TRUST_LEVELS


@dataclass(frozen=True)
class RewardConfig:
    score_weight: float = 0.5
    trust_weight: float = 0.5

    def __post_init__(self):
        # |reward| <= W = |score_weight| + |trust_weight|, as both normalized
        # terms lie in [0, 1]: a return or Q value within 12 W, a TD step 24 W
        bound = 2 * STEPS_PER_DIALOG * (abs(self.score_weight) + abs(self.trust_weight))
        if not math.isfinite(bound):
            raise InvalidConfig(f"reward weights must keep 24 x (|score_weight| + "
                                f"|trust_weight|) finite, got {bound}")


@dataclass(frozen=True)
class EnvState:
    step: int
    trait: int  # the user's trait code
    last_turn: SimulatedTurn | None
    estimated_trust: int

    def __post_init__(self):
        # state_index reads each field as a digit: one out of its range
        # would alias another state's Q row or fall outside the table
        if not 1 <= self.step <= STEPS_PER_DIALOG:
            raise InvalidConfig(f"step must be in 1..{STEPS_PER_DIALOG}, got {self.step!r}")
        if not 0 <= self.trait < N_TRAIT_CODES:
            raise InvalidConfig(f"trait code must be in 0..{N_TRAIT_CODES - 1}, "
                                f"got {self.trait!r}")
        if not LIKERT_MIN <= self.estimated_trust <= LIKERT_MAX:
            raise InvalidConfig("estimated trust must be in 1..5")

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
_N_USER = len(USER_FIELDS)
# The labels of the streams an episode reads below its reset key, one
# array per level of the key chain: child("user").child(name) for each name
# of USER_FIELDS, then child("step", s).child(field) for every step s and
# field of TURN_FIELDS.
_LEVEL1_BITS = np.repeat(label_bits(["user", "step"]),
                         [_N_USER, STEPS_PER_DIALOG * len(TURN_FIELDS)])
_LEVEL2_BITS = np.concatenate([label_bits(USER_FIELDS),
                               np.repeat(label_bits(_STEPS), len(TURN_FIELDS))])
_LEVEL3_BITS = np.tile(label_bits(TURN_FIELDS), STEPS_PER_DIALOG)


def _episode_uniforms(keys) -> np.ndarray:
    """The first uniform of every stream each episode reads, for a uint64
    array of n reset keys: row i holds the 58 of the episode with key
    keys[i], the user's 10 in USER_FIELDS order, then 12 x 4 turn uniforms."""
    keys = child_keys(child_keys(keys[:, None], _LEVEL1_BITS), _LEVEL2_BITS)
    keys[:, _N_USER:] = child_keys(keys[:, _N_USER:], _LEVEL3_BITS)
    return first_uniforms(keys)


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
    are made before its first step: ten uniforms for the user, then four
    per turn, 58 first draws of one chain of uint64 key arrays. The user
    is `draw_users` on the first ten, with the `trait_records` of the traits
    made once per env, and its trait code and feature row at dialog start
    (`start_rows`) follow. They are drawn for a block of episodes at once: a
    reset stream that carries a block (as `train_tabular_policy` passes)
    has every episode of its block drawn the first time the env sees it,
    and a plain stream is a block of one. The action only picks the key
    whose `lookup` context a turn draws from. The oracle
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
        self.table = table
        self.traits = traits
        self.trust_model = trust_model
        self.reward = reward
        self._records = trait_records(traits)
        conditions = _STEPS if table.mode is TableMode.TASK_STEP_BASED else _COMPLEXITY
        # each key's `lookup` context, by key code; a row is made a tuple
        # once, and the keys one rung statistic serves share it
        rows = list(map(tuple, table.rows.tolist()))
        contexts = [(tuple(cum), fell_back, tuple(map(rows.__getitem__, index)))
                    for cum, fell_back, index in zip(table.request_cum.tolist(),
                                                     table.used_fallback.tolist(),
                                                     table.row_index.tolist())]
        # [trait code][act index][step - 1] -> the key's draw_turn context
        self._contexts = [[[contexts[key_code(table.mode, trait, act, c)] for c in conditions]
                           for act in range(N_ACTIONS)]
                          for trait in range(N_TRAIT_CODES)]
        self._block = self._drawn = None  # the last block drawn, and its draws
        self._done = True  # until the first reset

    def _draw(self, keys: np.ndarray) -> tuple:
        """The draws of the episodes with these reset keys: each one's trait
        code, feature row at dialog start and 12 x 4 turn uniforms."""
        u = _episode_uniforms(keys)
        users = draw_users(self._records, u[:, :_N_USER])
        return (trait_codes(users).tolist(), start_rows(users),
                u[:, _N_USER:].reshape(len(u), STEPS_PER_DIALOG, -1).tolist())

    def reset(self, rng: RandomStream) -> EnvState:
        block = getattr(rng, "block", None)
        if block is None:  # a plain stream: a block of one
            drawn, i = self._draw(np.array([rng.key], dtype=np.uint64)), 0
        else:
            if block is not self._block:
                self._block, self._drawn = block, self._draw(block)
            drawn, i = self._drawn, rng.index
        codes, rows, uniforms = drawn
        self._trait = codes[i]
        self._uniforms = uniforms[i]
        self._features = DialogFeatures(rows[i])
        self._episode_contexts = self._contexts[self._trait]
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
        a = ACT_INDEX[action]
        turn = draw_turn(*self._episode_contexts[a][s - 1], self._uniforms[s - 1])
        trust = predict_trust(self.trust_model, self._features.write(TURN_HEADS[a][s - 1], turn))
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
    alpha: float = 0.2
    gamma: float = 0.95
    epsilon: float = 0.2
    seed: int = 0

    def __post_init__(self):
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
    if isinstance(episodes, bool) or not isinstance(episodes, int) or episodes < 1:
        raise InvalidHyperparams(f"episodes must be an int >= 1, got {episodes!r}")
    hp = hyperparams
    q = np.zeros((N_STATES, N_ACTIONS))
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
                ai = int(row.argmax())
            state, reward, done = env.step(ACT_ORDER[ai])
            ni = state_index(state)
            target = reward if done else reward + hp.gamma * float(q[ni].max())
            row[ai] += hp.alpha * (target - row[ai])
            si = ni
            total += reward
        returns.append(total)
    policy = np.argmax(q, axis=1)
    return TabularPolicyResult(q=q, policy=policy, returns=tuple(returns))
