"""Sequential decision environment over the simulated user.

Episodes are one 12-step dialog; actions are the four proactive acts.
After each action the simulator produces the user's turn, the trust
classifier estimates the user's trust from observable features only,
and the reward blends normalized game score with normalized estimated
trust. Ships a tabular Q-learning reference agent over the discretized
(step, trait tuple, trust estimate) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .behavior_tables import BehaviorTable
from .corpus import (
    ACT_ORDER,
    LIKERT_MAX,
    LIKERT_MIN,
    ProactiveAct,
    STEPS_PER_DIALOG,
    complexity_of_step,
    max_option_score,
)
from .errors import EpisodeFinished, InvalidConfig, InvalidHyperparams
from .sampling import RandomStream
from .simulator import SimulatedTurn, simulate_turn
from .trust_model import (
    NEUTRAL_LIKERT,
    TrustClassifier,
    TurnContext,
    extract_features,
    predict_trust,
)
from .user_model import TraitDistributions, TraitTuple, binarize_traits, sample_user

N_ACTIONS = len(ACT_ORDER)
N_TRUST_LEVELS = LIKERT_MAX - LIKERT_MIN + 1
N_TRAIT_TUPLES = 8
N_STATES = STEPS_PER_DIALOG * N_TRAIT_TUPLES * N_TRUST_LEVELS


@dataclass(frozen=True)
class RewardConfig:
    score_weight: float = 0.5
    trust_weight: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.score_weight) and math.isfinite(self.trust_weight)):
            raise InvalidConfig("reward weights must be finite")


@dataclass(frozen=True)
class EnvState:
    step: int
    complexity: int
    trait_tuple: TraitTuple
    last_turn: SimulatedTurn | None
    estimated_trust: int

    def __post_init__(self):
        if self.complexity != complexity_of_step(self.step):
            raise InvalidConfig("state complexity must match its step")
        if not LIKERT_MIN <= self.estimated_trust <= LIKERT_MAX:
            raise InvalidConfig("estimated trust must be in 1..5")


def state_index(state: EnvState) -> int:
    """Discretize to 0..479: step x trait tuple x trust estimate."""
    return ((state.step - 1) * N_TRAIT_TUPLES + state.trait_tuple.index) \
        * N_TRUST_LEVELS + (state.estimated_trust - LIKERT_MIN)


class TrustSimEnv:
    """12-step episodic environment; deterministic given the reset stream.

    Ground-truth trust annotations do not exist here at all: the state
    and reward see only the classifier's estimate.
    """

    def __init__(self, table: BehaviorTable, traits: TraitDistributions,
                 trust_model: TrustClassifier,
                 reward: RewardConfig = RewardConfig()):
        self.table = table
        self.traits = traits
        self.trust_model = trust_model
        self.reward = reward
        self._stream = None
        self._done = True

    def reset(self, rng: RandomStream) -> EnvState:
        self._stream = rng
        self._profile = sample_user(self.traits, rng.child("user"))
        self._trait_tuple = binarize_traits(self._profile)
        self._history = []
        self._step_no = 1
        self._done = False
        return EnvState(
            step=1, complexity=complexity_of_step(1),
            trait_tuple=self._trait_tuple, last_turn=None,
            estimated_trust=NEUTRAL_LIKERT,
        )

    def step(self, action: ProactiveAct):
        """Returns (next_state, reward, done)."""
        if self._done or self._stream is None:
            raise EpisodeFinished("reset the environment before stepping")
        if not isinstance(action, ProactiveAct):
            raise InvalidConfig(f"action must be a ProactiveAct, got {action!r}")
        s = self._step_no
        turn = simulate_turn(self.table, self._profile, s, action,
                             self._stream.child("step", s))
        current = TurnContext.from_turn(s, action, turn)
        features = extract_features(self._profile, self._history, current)
        trust, _ = predict_trust(self.trust_model, features)
        self._history.append(replace(current, trust_label=trust))

        reward = (
            self.reward.score_weight
            * (turn.game_score / max_option_score(complexity_of_step(s)))
            + self.reward.trust_weight * ((trust - LIKERT_MIN) / (LIKERT_MAX - LIKERT_MIN))
        )
        done = s == STEPS_PER_DIALOG
        self._done = done
        next_step = s if done else s + 1
        self._step_no = next_step
        state = EnvState(
            step=next_step, complexity=complexity_of_step(next_step),
            trait_tuple=self._trait_tuple, last_turn=turn, estimated_trust=trust,
        )
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


def train_tabular_policy(env, episodes: int,
                         hyperparams: Hyperparams = Hyperparams()) -> TabularPolicyResult:
    """Epsilon-greedy tabular Q-learning; any env with reset(rng)/step(act)
    returning the same shapes works (rigged test doubles included)."""
    if not isinstance(episodes, int) or episodes < 1:
        raise InvalidHyperparams(f"episodes must be >= 1, got {episodes}")
    hp = hyperparams
    q = np.zeros((N_STATES, N_ACTIONS))
    root = RandomStream(hp.seed, "qlearn")
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
    policy = np.argmax(q, axis=1)
    return TabularPolicyResult(q=q, policy=policy, returns=tuple(returns))
