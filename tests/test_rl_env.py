"""State indexing, episode mechanics, reward math, and tabular learning."""

from __future__ import annotations

import copy
import pickle
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    PassThroughProbe,
    ReferenceTrustSimEnv,
    RiggedSweepEnv,
    ScalarStream,
    corpus_user,
    make_corpus,
    model_keeping,
    oracle_table,
    reference_features,
    reference_sample_user,
    reference_simulate_turn,
    reference_train_tabular_policy,
    simulated_turn_context,
    stub_trust_model,
)
from trustsim import rl_env
from trustsim.behavior_tables import TableMode, build_table
from trustsim.corpus import (ACT_ORDER, AGE_MAX, AGE_MIN, GENDER_ORDER, SCALE_TRAITS,
                            ProactiveAct, complexity_of_step)
from trustsim.errors import EpisodeFinished, InvalidConfig, InvalidHyperparams, SchemaMismatch
from trustsim.rl_env import (
    EnvState,
    Hyperparams,
    N_ACTIONS,
    N_STATES,
    RewardConfig,
    TrustSimEnv,
    state_index,
    train_tabular_policy,
)
from trustsim.sampling import RandomStream, child_keys, label_bits
from trustsim.simulator import SimulatedTurn
from trustsim.trust_model import (FEATURE_NAMES, TRUST_CLASSES, ScoreParts, TrustClassifier,
                                  predict_trust, train_classifier)
from trustsim.user_model import (
    N_TRAIT_CODES,
    TruncGauss,
    default_trait_distributions,
    fit_trait_distributions,
    trait_codes,
)

PROFILE_END = FEATURE_NAMES.index("act=" + ACT_ORDER[0].value)

SUGGESTION_INDEX = ACT_ORDER.index(ProactiveAct.SUGGESTION)


def env_state(step=1, trait=0b000, trust=3):
    return EnvState(step=step, trait=trait, last_turn=None, estimated_trust=trust)


class TestStateIndex:
    def test_corner_values(self):
        assert state_index(env_state(1, 0b000, 1)) == 0
        assert state_index(env_state(1, 0b000, 5)) == 4
        assert state_index(env_state(1, 0b001, 1)) == 5
        assert state_index(env_state(2, 0b000, 1)) == 40
        assert state_index(env_state(12, 0b111, 5)) == N_STATES - 1

    def test_bijection_over_grid(self):
        seen = {
            state_index(env_state(step, trait, trust))
            for step in range(1, 13)
            for trait in range(N_TRAIT_CODES)
            for trust in range(1, 6)
        }
        assert seen == set(range(N_STATES))
        assert N_STATES == 480

    def test_complexity_follows_the_step(self):
        assert [env_state(step).complexity for step in range(1, 13)] == [
            complexity_of_step(step) for step in range(1, 13)]

    @pytest.mark.parametrize("step,trait,trust", [
        (1, 0, 0), (1, 0, 6),
        # trait 9 at step 1 would alias step 2, trait 1; step 0 a row
        # counted from the end; step 13 a row past N_STATES
        (1, 9, 3), (1, 8, 3), (1, -1, 3), (0, 0, 3), (13, 0, 3), (-1, 7, 5)])
    def test_state_validation(self, step, trait, trust):
        with pytest.raises(InvalidConfig):
            env_state(step, trait, trust)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.bool_(True), "3", None])
    @pytest.mark.parametrize("field", ["step", "trait", "trust"])
    def test_a_field_that_is_no_integer_is_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            env_state(**{field: value})

    def test_numpy_integers_are_accepted(self):
        state = env_state(np.int64(2), np.uint8(5), np.int32(4))
        assert state_index(state) == state_index(env_state(2, 5, 4))

    @pytest.mark.parametrize("field,value", [("step", 1.5), ("trait", True),
                                             ("trust", 2.5)])
    def test_a_rigged_env_with_a_non_integer_state_is_rejected(self, field, value):
        class RiggedEnv:
            def reset(self, rng):
                return env_state(**{field: value})

            def step(self, action):
                return env_state(), 0.0, True

        with pytest.raises(InvalidConfig):
            train_tabular_policy(RiggedEnv(), 1)


def _unchecked(fields) -> EnvState:
    """An EnvState of these fields made past its checks, as reset and step
    make theirs: what copy and pickle start from."""
    return tuple.__new__(EnvState, fields)


# Every public way to make an EnvState of the fields (step, trait,
# last_turn, estimated_trust).
STATE_MAKERS = {
    "position": lambda fields: EnvState(*fields),
    "keyword": lambda fields: EnvState(**dict(zip(EnvState._fields, fields))),
    "_make": EnvState._make,
    "_make of an iterator": lambda fields: EnvState._make(iter(fields)),
    "_replace": lambda fields: env_state()._replace(**dict(zip(EnvState._fields, fields))),
    "copy": lambda fields: copy.copy(_unchecked(fields)),
    "deepcopy": lambda fields: copy.deepcopy(_unchecked(fields)),
    **{f"pickle protocol {protocol}": lambda fields, protocol=protocol: pickle.loads(
        pickle.dumps(_unchecked(fields), protocol))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


class TestStateConstruction:
    """EnvState is a tuple whose every public maker runs the `integer`
    checks and stores Python ints."""

    @pytest.mark.parametrize("maker", STATE_MAKERS)
    def test_every_maker_stores_python_ints(self, maker):
        state = STATE_MAKERS[maker]((np.int64(2), np.uint8(5), None, np.int32(4)))
        assert type(state) is EnvState
        assert state == EnvState(2, 5, None, 4)
        assert [type(value) for value in state] == [int, int, type(None), int]

    @pytest.mark.parametrize("fields", [
        (0, 5, None, 4), (2, 8, None, 4), (2, 5, None, 6), (True, 5, None, 4),
        (2, np.bool_(True), None, 4), (2, 5, None, 2.5), (2, 5, None, "3")], ids=repr)
    @pytest.mark.parametrize("maker", STATE_MAKERS)
    def test_every_maker_rejects_alike(self, maker, fields):
        with pytest.raises(InvalidConfig) as direct:
            EnvState(*fields)
        with pytest.raises(InvalidConfig, match="must be an integer") as made:
            STATE_MAKERS[maker](fields)
        assert str(made.value) == str(direct.value)

    def test_a_state_is_the_tuple_of_its_fields(self):
        turn = SimulatedTurn(True, False, 42.0, 3, 10.0, False)
        state = EnvState(2, 5, turn, 4)
        assert state == (2, 5, (True, False, 42.0, 3, 10.0, False), 4)
        assert hash(state) == hash(tuple(state))
        assert repr(state) == ("EnvState(step=2, trait=5, last_turn=SimulatedTurn("
                               "help_request=True, suggestion_request=False, duration=42.0, "
                               "difficulty=3, game_score=10.0, used_fallback=False), "
                               "estimated_trust=4)")
        assert state._asdict() == {"step": 2, "trait": 5, "last_turn": turn,
                                   "estimated_trust": 4}
        with pytest.raises(AttributeError):
            state.step = 3

    def test_the_envs_states_equal_checked_ones(self):
        env = deterministic_env()
        states = [env.reset(RandomStream(0, "ep"))]
        states += [env.step(ProactiveAct.NONE)[0] for _ in range(12)]
        for state in states:
            assert type(state) is EnvState
            assert state == EnvState(*state) == pickle.loads(pickle.dumps(state))
        assert all(type(state.last_turn) is SimulatedTurn for state in states[1:])


class TestRewardConfig:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidConfig):
            RewardConfig(score_weight=float("inf"))
        with pytest.raises(InvalidConfig):
            RewardConfig(trust_weight=float("nan"))
        # each is finite, but a return could reach 12 x 2e308
        with pytest.raises(InvalidConfig):
            RewardConfig(score_weight=1e308, trust_weight=1e308)

    @pytest.mark.parametrize("name", ["score_weight", "trust_weight"])
    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 10 ** 400, 1j],
                             ids=["true", "np-true", "str", "none", "huge-int", "complex"])
    def test_rejects_a_non_number(self, name, value):
        # True would run as the weight 1.0; the others cannot enter the
        # float reward bound
        with pytest.raises(InvalidConfig, match=f"{name} must be a finite number"):
            RewardConfig(**{name: value})

    def test_accepts_integer_and_numpy_weights(self):
        assert RewardConfig(1, np.float32(0.5)) == RewardConfig(1.0, 0.5)

    def test_largest_accepted_weights_train_finitely(self):
        # 2 x 12 x (3.7e306 + 3.7e306) is finite: at the top reward every
        # step, no return, Q value or TD difference overflows
        env = deterministic_env(RewardConfig(score_weight=3.7e306, trust_weight=3.7e306),
                                trust_bias_class=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = train_tabular_policy(env, 200, Hyperparams(seed=3))
        assert np.isfinite(result.q).all()
        assert np.isfinite(result.returns).all()


def deterministic_env(reward=RewardConfig(), trust_bias_class=4):
    """Env whose table is fully degenerate (top score, duration 42, class-3
    difficulty) and whose trust model always answers `trust_bias_class`."""
    corpus = make_corpus(n_users=2)
    table = build_table(corpus, TableMode.COMPLEXITY_BASED)
    biases = [1.0 if c == trust_bias_class else 0.0 for c in range(1, 6)]
    return TrustSimEnv(table, default_trait_distributions(),
                       stub_trust_model(biases), reward=reward)


def tied_env(table=None, traits=None, classes=5):
    """An env whose trust model gives each of its classes the same score,
    so every step falls back to scoring its whole feature row with
    predict_trust through rl_env's binding of it."""
    return TrustSimEnv(table or deterministic_env().table, traits or default_trait_distributions(),
                       stub_trust_model([0.0] * classes))


class TestEnvMechanics:
    def test_reset_state(self):
        env = deterministic_env()
        state = env.reset(RandomStream(0, "ep"))
        assert state.step == 1
        assert state.complexity == 3
        assert state.last_turn is None
        assert state.estimated_trust == 3  # neutral before any evidence

    def test_twelve_step_horizon(self):
        env = deterministic_env()
        env.reset(RandomStream(0, "ep"))
        steps_seen = []
        done = False
        while not done:
            state, reward, done = env.step(ProactiveAct.NONE)
            steps_seen.append(state.step)
        assert len(steps_seen) == 12
        assert steps_seen == list(range(2, 13)) + [12]  # terminal keeps step 12
        with pytest.raises(EpisodeFinished):
            env.step(ProactiveAct.NONE)

    def test_step_before_reset_rejected(self):
        env = deterministic_env()
        with pytest.raises(EpisodeFinished):
            env.step(ProactiveAct.NONE)

    @pytest.mark.parametrize("argument,bad", [
        ("table", None), ("table", "task-step"), ("traits", None), ("traits", {}),
        ("trust_model", None), ("trust_model", [0.0] * 5),
        ("reward", None), ("reward", (1.0, 0.0))])
    def test_constructor_rejects_an_argument_of_another_type(self, argument, bad):
        """A typed error at construction, not an AttributeError at the first
        reset or step."""
        env = deterministic_env()
        good = dict(table=env.table, traits=env.traits, trust_model=env.trust_model,
                    reward=env.reward)
        name = argument.replace("_", " ")
        with pytest.raises(InvalidConfig, match=f"^{name} must be a "):
            TrustSimEnv(**{**good, argument: bad})

    def test_a_model_of_another_feature_count_is_a_schema_mismatch(self):
        env = deterministic_env()
        model = TrustClassifier(TRUST_CLASSES, np.zeros((len(TRUST_CLASSES), 10)),
                                np.zeros(len(TRUST_CLASSES)))
        with pytest.raises(SchemaMismatch, match=rf"^expected {len(FEATURE_NAMES)} features, "
                                                 r"got \(5, 10\)$"):
            TrustSimEnv(env.table, env.traits, model)

    def test_non_act_action_rejected(self):
        env = deterministic_env()
        env.reset(RandomStream(0, "ep"))
        with pytest.raises(InvalidConfig):
            env.step("Suggestion")

    @pytest.mark.parametrize("rng", [5, None, np.uint64(5)], ids=["int", "none", "uint64"])
    def test_non_stream_reset_rejected(self, rng):
        # a typed error, not an AttributeError on a missing key
        env = deterministic_env()
        with pytest.raises(InvalidConfig, match="reset needs a RandomStream"):
            env.reset(rng)
        with pytest.raises(EpisodeFinished):  # nothing was reset
            env.step(ProactiveAct.NONE)

    def test_reward_is_exact_for_degenerate_table(self):
        env = deterministic_env()
        env.reset(RandomStream(3, "ep"))
        total = 0.0
        done = False
        while not done:
            state, reward, done = env.step(ProactiveAct.NOTIFICATION)
            # top score normalizes to 1; trust 4 maps to 0.75
            assert reward == 0.875
            assert state.estimated_trust == 4
            assert state.last_turn.duration == 42.0
            total += reward
        assert total == 10.5

    def test_reward_weights_blend(self):
        score_only = deterministic_env(RewardConfig(1.0, 0.0))
        score_only.reset(RandomStream(1, "ep"))
        _, reward, _ = score_only.step(ProactiveAct.NONE)
        assert reward == 1.0
        trust_only = deterministic_env(RewardConfig(0.0, 1.0), trust_bias_class=5)
        trust_only.reset(RandomStream(1, "ep"))
        _, reward, _ = trust_only.step(ProactiveAct.NONE)
        assert reward == 1.0

    def test_trajectory_deterministic_given_stream(self):
        acts = [ACT_ORDER[i % 4] for i in range(12)]
        results = []
        for _ in range(2):
            env = deterministic_env()
            env.reset(RandomStream(11, "ep", 7))
            results.append([env.step(a) for a in acts])
        assert results[0] == results[1]

    def test_trait_code_fixed_within_episode(self):
        env = deterministic_env()
        first = env.reset(RandomStream(2, "ep"))
        done = False
        while not done:
            state, _, done = env.step(ProactiveAct.NONE)
            assert state.trait == first.trait

    def test_reset_profile_equals_sample_user_on_edge_distributions(self, monkeypatch):
        # a clamped sd-0 age, traits in the far upper and lower tails, an
        # sd-0 trait and a gender class of weight 0
        traits = replace(default_trait_distributions(),
                         age=TruncGauss(75.0, 0.0, AGE_MIN, AGE_MAX),
                         trust_propensity=TruncGauss(9.0, 0.5, 1, 5),
                         domain_expertise=TruncGauss(-20.0, 0.3, 1, 5),
                         openness=TruncGauss(2.5, 0.0, 1, 5),
                         gender_probs=(0.0, 0.25, 0.75))
        env = TrustSimEnv(deterministic_env().table, traits, stub_trust_model([0.0] * 5))
        rows = []
        real = rl_env.predict_trust
        monkeypatch.setattr(rl_env, "predict_trust",
                            lambda model, features: rows.append(features.copy())
                            or real(model, features))
        streams = [RandomStream(seed, "ep", ep) for seed in (0, 2**70) for ep in range(100)]
        codes = []
        for rng in streams:
            codes.append(env.reset(rng).trait)
            env.step(ProactiveAct.NONE)
        users = [corpus_user(reference_sample_user(traits, rng.child("user")))
                 for rng in streams]
        assert codes == [trait_codes(user) for user in users]
        # the profile block of the first scored row: an int age, the one-hot
        # of an int gender index, then every scale trait, bit for bit
        assert [row[:PROFILE_END].tolist() for row in rows] == [
            [user.age, *(float(user.gender == g) for g in range(len(GENDER_ORDER))),
             *(getattr(user, name) for name in SCALE_TRAITS)] for user in users]
        assert all(type(user.age) is int and type(user.gender) is int for user in users)
        assert PROFILE_END == 1 + len(GENDER_ORDER) + len(SCALE_TRAITS)

    def test_reset_rearms_after_done(self):
        env = deterministic_env()
        env.reset(RandomStream(0, "ep"))
        done = False
        while not done:
            _, _, done = env.step(ProactiveAct.NONE)
        state = env.reset(RandomStream(1, "ep"))
        assert state.step == 1
        env.step(ProactiveAct.NONE)  # must not raise


class TestHyperparams:
    def test_bounds(self):
        with pytest.raises(InvalidHyperparams):
            Hyperparams(alpha=0.0)
        with pytest.raises(InvalidHyperparams):
            Hyperparams(alpha=1.5)
        with pytest.raises(InvalidHyperparams):
            Hyperparams(gamma=-0.1)
        with pytest.raises(InvalidHyperparams):
            Hyperparams(epsilon=1.0001)

    @pytest.mark.parametrize("field, value", [
        ("alpha", 1.0), ("gamma", 0.0), ("gamma", 1.0), ("epsilon", 0.0), ("epsilon", 1.0)])
    def test_closed_ends_are_accepted(self, field, value):
        # alpha in (0, 1], gamma and epsilon in [0, 1], as the messages say
        assert getattr(Hyperparams(**{field: value}), field) == value

    def test_episode_count_validated(self):
        with pytest.raises(InvalidHyperparams):
            train_tabular_policy(deterministic_env(), 0)
        with pytest.raises(InvalidHyperparams):
            train_tabular_policy(deterministic_env(), 2.5)
        # a bool is an int, and True would run one episode
        for flag in (True, np.True_):
            with pytest.raises(InvalidHyperparams):
                train_tabular_policy(deterministic_env(), flag)

    @pytest.mark.parametrize("name", ["alpha", "gamma", "epsilon"])
    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rates_reject_bools(self, name, flag):
        # True would run as the rate 1.0
        with pytest.raises(InvalidHyperparams):
            Hyperparams(**{name: flag})

    @pytest.mark.parametrize("name", ["alpha", "gamma", "epsilon"])
    @pytest.mark.parametrize("value", ["0.2", None, [0.2], 10 ** 400, float("nan")],
                             ids=["str", "none", "list", "huge-int", "nan"])
    def test_rates_reject_non_numbers(self, name, value):
        # each is a typed error, not a TypeError or OverflowError
        with pytest.raises(InvalidHyperparams, match=f"{name} must be a finite number"):
            Hyperparams(**{name: value})

    @pytest.mark.parametrize("hyperparams", [(0.2, 0.9, 0.1, 0), None, {"seed": 0}],
                             ids=["tuple", "none", "dict"])
    def test_hyperparams_of_another_type_rejected(self, hyperparams):
        # a typed error, not an AttributeError on the missing seed
        kind = type(hyperparams).__name__
        with pytest.raises(InvalidHyperparams,
                           match=f"hyperparams must be a Hyperparams, got {kind}"):
            train_tabular_policy(RiggedSweepEnv(), 2, hyperparams)

    def test_numpy_integer_episode_count_runs(self):
        hp = Hyperparams(seed=1)
        result = train_tabular_policy(deterministic_env(), np.int64(3), hp)
        expected = train_tabular_policy(deterministic_env(), 3, hp)
        assert result.q.tobytes() == expected.q.tobytes()
        assert result.returns == expected.returns


class OneStepEnv:
    """Scripted env: single transition with a fixed reward, for update math."""

    START = env_state(1, 0b000, 3)  # index 2
    END = env_state(12, 0b000, 3)

    def __init__(self, reward):
        self.reward = reward

    def reset(self, rng):
        return self.START

    def step(self, action):
        return self.END, self.reward, True


class TestQLearningUpdateMath:
    def test_single_episode_update(self):
        hp = Hyperparams(alpha=0.2, gamma=0.9, epsilon=0.0, seed=0)
        result = train_tabular_policy(OneStepEnv(reward=1.0), 1, hp)
        si = state_index(OneStepEnv.START)
        # greedy over an all-zero row picks action 0; terminal target is r
        assert result.q[si, 0] == pytest.approx(0.2)
        assert np.count_nonzero(result.q) == 1
        assert result.returns == (1.0,)

    def test_two_episodes_compound(self):
        hp = Hyperparams(alpha=0.2, gamma=0.9, epsilon=0.0, seed=0)
        result = train_tabular_policy(OneStepEnv(reward=1.0), 2, hp)
        si = state_index(OneStepEnv.START)
        # q <- q + a(r - q) applied twice from zero: r(2a - a^2)
        assert result.q[si, 0] == pytest.approx(1.0 * (0.4 - 0.04))
        assert result.returns == (1.0, 1.0)

    def test_policy_is_greedy_argmax(self):
        hp = Hyperparams(alpha=0.5, gamma=0.0, epsilon=0.0, seed=0)
        result = train_tabular_policy(OneStepEnv(reward=2.0), 3, hp)
        si = state_index(OneStepEnv.START)
        assert result.policy[si] == 0
        assert result.q.shape == (N_STATES, N_ACTIONS)
        assert result.q.dtype == np.float64


class TestRiggedDominance:
    def test_policy_learns_dominant_action_everywhere(self):
        env = RiggedSweepEnv()
        hp = Hyperparams(alpha=0.3, gamma=0.9, epsilon=0.5, seed=0)
        start = time.monotonic()
        result = train_tabular_policy(env, 5000, hp)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        visited = result.q.any(axis=1)
        assert visited.all()  # the sweep covers all 480 states
        assert np.all(result.policy == SUGGESTION_INDEX)
        # late-episode returns approach the 12-step optimum under eps-greedy
        tail = np.mean(result.returns[-500:])
        assert tail > 12 * (1 - hp.epsilon * 0.75) - 1.0


@pytest.fixture(scope="module")
def fitted(default_corpus):
    """Trait distributions and a trained trust model of the default corpus."""
    return fit_trait_distributions(default_corpus), train_classifier(default_corpus)


# Hyperparams at three seeds, then those of the acceptance gate.
ORACLE_HYPERPARAMS = (Hyperparams(seed=0), Hyperparams(seed=1), Hyperparams(seed=42),
                      Hyperparams(alpha=0.3, gamma=0.9, epsilon=0.5, seed=0))


def assert_same_training(got, expected):
    assert got.q.tobytes() == expected.q.tobytes()
    assert np.array_equal(got.policy, expected.policy)
    assert got.returns == expected.returns


class TestEpisodeOracle:
    """Training on TrustSimEnv equals the per-turn loop it replaced, bit
    for bit, with the env bare and wrapped in a pass-through probe."""

    @pytest.mark.parametrize("hp", ORACLE_HYPERPARAMS,
                             ids=["seed0", "seed1", "seed42", "gate"])
    @pytest.mark.parametrize("mode", list(TableMode))
    @pytest.mark.parametrize("threshold", [9, 10])
    def test_training_equals_the_per_turn_loop(self, default_corpus, fitted, mode,
                                               threshold, hp):
        table = build_table(default_corpus, mode, threshold)
        traits, model = fitted
        oracle = PassThroughProbe(ReferenceTrustSimEnv(table, traits, model))
        expected = reference_train_tabular_policy(oracle, 60, hp)
        assert_same_training(train_tabular_policy(TrustSimEnv(table, traits, model), 60, hp),
                             expected)
        probe = PassThroughProbe(TrustSimEnv(table, traits, model))
        assert_same_training(train_tabular_policy(probe, 60, hp), expected)
        assert probe.actions == oracle.actions
        assert ([state.last_turn for state, _, _ in probe.steps]
                == [state.last_turn for state, _, _ in oracle.steps])
        assert probe.steps == oracle.steps


class TestEpisodeBlocks:
    """The learner hands each reset a stream that carries its block of
    reset keys; the env draws all of a block's episodes the first time it
    sees it, and a plain stream is a block of one."""

    # past one 256-episode block, so a block seam is compared
    EPISODES = 300

    @pytest.mark.parametrize("mode", list(TableMode))
    def test_training_across_a_block_seam_equals_the_per_turn_loop(self, default_corpus,
                                                                    fitted, mode):
        hp = ORACLE_HYPERPARAMS[-1]
        table = build_table(default_corpus, mode, 10)
        traits, model = fitted
        oracle = PassThroughProbe(ReferenceTrustSimEnv(table, traits, model))
        expected = reference_train_tabular_policy(oracle, self.EPISODES, hp)
        assert_same_training(
            train_tabular_policy(TrustSimEnv(table, traits, model), self.EPISODES, hp),
            expected)
        probe = PassThroughProbe(TrustSimEnv(table, traits, model))
        assert_same_training(train_tabular_policy(probe, self.EPISODES, hp), expected)
        assert probe.steps == oracle.steps

    @pytest.mark.parametrize("index", [0, 4])
    def test_a_key_draws_the_same_episode_plain_or_in_a_block(self, default_corpus, fitted,
                                                              index):
        traits, model = fitted
        env = TrustSimEnv(build_table(default_corpus, TableMode.TASK_STEP_BASED),
                          traits, model)
        root = RandomStream(8, "blocks")
        keys = child_keys(root.key, label_bits(range(5)))  # a short block
        acts = [ACT_ORDER[(3 * s) % N_ACTIONS] for s in range(12)]

        def episode(rng):
            return [env.reset(rng)] + [env.step(act) for act in acts]

        plain = episode(root.child(index))
        assert episode(rl_env._BlockStream(keys, index)) == plain
        # drawn from the block the env holds, and again from a fresh one
        assert episode(rl_env._BlockStream(keys, index)) == plain
        assert episode(rl_env._BlockStream(keys.copy(), index)) == plain
        assert plain[0].trait == trait_codes(
            reference_sample_user(traits, root.child(index, "user")))

    def test_a_block_rewritten_in_place_draws_its_new_keys(self, default_corpus, fitted):
        traits, model = fitted
        env = TrustSimEnv(build_table(default_corpus, TableMode.TASK_STEP_BASED),
                          traits, model)
        root = RandomStream(9, "rewritten")
        keys = child_keys(root.key, label_bits(range(3)))
        acts = [ACT_ORDER[s % N_ACTIONS] for s in range(12)]

        def episode(rng):
            return [env.reset(rng)] + [env.step(act) for act in acts]

        train_tabular_policy(PassThroughProbe(env), 2, Hyperparams(seed=1))
        old = episode(rl_env._BlockStream(keys, 0))
        made_before = rl_env._BlockStream(keys, 1)
        keys[:] = child_keys(root.key, label_bits(range(3, 6)))
        rewritten = episode(rl_env._BlockStream(keys, 0))
        assert rewritten == episode(root.child(3)) != old
        # a stream made before the rewrite still draws the episode of its key
        assert episode(made_before) == episode(root.child(1))
        assert episode(rl_env._BlockStream(keys, 1)) == episode(root.child(4))

    @pytest.mark.parametrize("wrap", [lambda env: env, PassThroughProbe],
                             ids=["bare", "probe"])
    def test_a_block_is_drawn_once(self, monkeypatch, wrap):
        drawn = []
        real = rl_env.sample_users
        monkeypatch.setattr(rl_env, "sample_users",
                            lambda traits, keys: drawn.append(len(keys)) or real(traits, keys))
        train_tabular_policy(wrap(deterministic_env()), self.EPISODES, Hyperparams(seed=2))
        assert drawn == [256, self.EPISODES - 256]


    def test_a_block_draw_holds_no_block_per_turn(self, default_corpus, fitted):
        # the draw keeps each candidate's score parts and drawn columns; on
        # the way it holds less than 8 floats a candidate more, so never a
        # current-turn block (11 floats) per candidate
        traits, model = fitted
        env = TrustSimEnv(build_table(default_corpus, TableMode.TASK_STEP_BASED), traits,
                          model)
        keys = child_keys(RandomStream(10, "peak").key, label_bits(range(256)))
        env._draw(keys)
        tracemalloc.start()
        try:
            drawn = env._draw(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [a for a in drawn if isinstance(a, np.ndarray)] + drawn[-1]
        candidates = 256 * 12 * N_ACTIONS
        # three parts of one score per trust level
        assert drawn[2].shape == (256, 12 * N_ACTIONS, 3 * len(TRUST_CLASSES))
        assert peak - sum(a.nbytes for a in arrays) < 8 * 8 * candidates


# Models fitted to corpora without some labels: each keeps the weight rows
# and biases of these classes of the default corpus's fit. The last misses
# one level only, whose score, were it not -inf, could tie no other's.
CLASS_SUBSETS = [(1, 2), (2, 4), (1, 3, 5), (3, 4, 5), (2, 3, 4, 5)]


class TestFewerClasses:
    """A model with fewer than five classes estimates only its own classes,
    and training on it equals the per-turn loop bit for bit, across a block
    seam and without a floating-point warning."""

    EPISODES = 300

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("classes", CLASS_SUBSETS, ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("mode", list(TableMode))
    def test_training_equals_the_per_turn_loop(self, default_corpus, fitted, mode, classes,
                                               seed):
        traits, model = fitted
        model = model_keeping(model, classes)
        table = build_table(default_corpus, mode)
        hp = Hyperparams(seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = PassThroughProbe(ReferenceTrustSimEnv(table, traits, model))
            expected = reference_train_tabular_policy(oracle, self.EPISODES, hp)
            probe = PassThroughProbe(TrustSimEnv(table, traits, model))
            assert_same_training(train_tabular_policy(probe, self.EPISODES, hp), expected)
        assert probe.steps == oracle.steps
        assert {state.estimated_trust for state, _, _ in probe.steps} <= set(classes)

    def test_a_level_without_a_class_has_no_score(self, default_corpus, fitted):
        # its own part is -inf, and its lag, trust-label and fill parts 0
        traits, model = fitted
        model = model_keeping(model, (2, 4))
        env = TrustSimEnv(build_table(default_corpus, TableMode.TASK_STEP_BASED), traits,
                          model)
        parts = env._draw(child_keys(RandomStream(13, "levels").key, label_bits(range(3))))[2]
        assert parts.shape == (3, 12 * N_ACTIONS, 3 * 5)
        own, lags = parts[..., :5], parts[..., 5:].reshape(3, -1, 2, 5)
        absent, present = [0, 2, 4], [1, 3]
        assert np.all(own[..., absent] == -np.inf)
        assert np.isfinite(own[..., present]).all()
        assert np.all(lags[..., absent] == 0.0)
        score_parts = ScoreParts(model)
        # each label's parts and the fill's, as lag 1 and lag 2
        for lag_parts in score_parts.labels + [score_parts.fill]:
            assert np.array(lag_parts)[:, absent].tolist() == [[0.0] * 3] * 2


class TestCandidateTurns:
    """A drawn block holds the turn of every (step, act) of its episodes,
    the acts the learner never takes included: each equals the oracle's
    turn on rng.child("step", s), with its field types, and its feature row
    equals reference_features over the episode's earlier turns. A tied
    model makes every step score its whole row, which the hook captures."""

    @pytest.mark.parametrize("mode", list(TableMode))
    @pytest.mark.parametrize("index", [0, 255, None], ids=["first", "last", "plain"])
    def test_every_candidate_equals_the_oracle(self, monkeypatch, default_corpus, fitted,
                                               mode, index):
        traits, _ = fitted
        table = build_table(default_corpus, mode)
        oracle = oracle_table(table)
        env = tied_env(table, traits)
        root = RandomStream(11, "candidates")
        if index is None:  # a plain stream, a block of one
            index, rng = 7, root.child(7)
        else:  # a block as large as the learner's
            rng = rl_env._BlockStream(child_keys(root.key, label_bits(range(256))), index)
        rows = []
        real = rl_env.predict_trust
        monkeypatch.setattr(rl_env, "predict_trust",
                            lambda model, features: rows.append(features.copy())
                            or real(model, features))
        profile = reference_sample_user(traits, root.child(index, "user"))
        for act in ACT_ORDER:
            assert env.reset(rng).trait == trait_codes(profile)
            history = []
            for s in range(1, 13):
                state = env.step(act)[0]
                turn = state.last_turn
                assert turn == reference_simulate_turn(oracle, profile, s, act,
                                                       root.child(index, "step", s))
                assert [type(getattr(turn, name)) for name in (
                    "help_request", "suggestion_request", "duration", "difficulty",
                    "game_score", "used_fallback")] == [bool, bool, float, int, float, bool]
                current = simulated_turn_context(s, act, turn)
                assert rows[-1].tobytes() == reference_features(profile, history,
                                                                current).tobytes()
                history.append(replace(current, trust_label=state.estimated_trust))


class TestScoringCalls:
    """predict_trust calls made through rl_env's binding of it: one for each
    step that falls back from the score parts, so every step of a tied
    model and, on a model fitted to a corpus, only steps whose top two
    scores lie within the margin."""

    @pytest.mark.parametrize("classes", [5, 2], ids=["five-tied", "two-tied"])
    def test_twelve_scored_turns_per_episode(self, monkeypatch, classes):
        calls = []
        real = rl_env.predict_trust
        monkeypatch.setattr(rl_env, "predict_trust",
                            lambda model, features: calls.append(1) or real(model, features))
        env = tied_env(classes=classes)
        at_reset = []
        reset = env.reset
        env.reset = lambda rng: at_reset.append(len(calls)) or reset(rng)
        episodes = 300  # past a block seam
        train_tabular_policy(env, episodes, Hyperparams(seed=4))
        bounds = at_reset + [len(calls)]
        assert [b - a for a, b in zip(bounds, bounds[1:])] == [12] * episodes

    @pytest.mark.parametrize("tie", [False, True], ids=["fitted", "labels-2-3-tied"])
    def test_a_step_falls_back_only_within_the_margin(self, monkeypatch, default_corpus,
                                                      fitted, tie):
        traits, model = fitted
        if tie:  # label 2 takes label 3's weight row and bias
            weights, biases = model.weights.copy(), model.biases.copy()
            weights[1], biases[1] = weights[2], biases[2]
            model = TrustClassifier(model.classes, weights, biases)
        assert model.classes == (1, 2, 3, 4, 5)
        env = TrustSimEnv(build_table(default_corpus, TableMode.TASK_STEP_BASED), traits,
                          model)
        margin = 4 * ScoreParts(model).error
        assert 0 < margin < 1e-9
        calls = []
        real = rl_env.predict_trust
        monkeypatch.setattr(rl_env, "predict_trust",
                            lambda model, features: calls.append(1) or real(model, features))
        root = RandomStream(12, "margin")
        fell_back, gaps, ties = [], [], 0
        for ep in range(40):
            env.reset(root.child(ep))
            profile = reference_sample_user(traits, root.child(ep, "user"))
            history = []
            for s in range(1, 13):
                act = ACT_ORDER[(ep + s) % N_ACTIONS]
                before = len(calls)
                state = env.step(act)[0]
                current = simulated_turn_context(s, act, state.last_turn)
                row = reference_features(profile, history, current)
                assert state.estimated_trust == predict_trust(model, row)
                second, top = np.sort(model.scores(row))[-2:]
                fell_back.append(len(calls) - before)
                gaps.append(top - second)
                ties += top == second
                history.append(replace(current, trust_label=state.estimated_trust))
        # a fall-back step's parts were within the margin, so its scores
        # within twice that; a tie in the scores always falls back
        assert set(fell_back) <= {0, 1}
        assert all(gap <= 2 * margin for gap, back in zip(gaps, fell_back) if back)
        assert all(back for gap, back in zip(gaps, fell_back) if gap == 0.0)
        if tie:
            assert 0 < ties <= sum(fell_back) < len(fell_back)


class LongEpisodeEnv:
    """Rigged double whose episodes run 20 steps; the state holds at step 12
    past step 12, and the paying act changes with the step. Records the
    (episode, step, act) of every action it takes."""

    STEPS = 20

    def __init__(self):
        self.episode = -1
        self.taken = []

    def _state(self):
        step = min(self.t, 12)
        return EnvState(step=step, trait=self.episode % 8,
                        last_turn=None, estimated_trust=1 + self.t % 5)

    def reset(self, rng):
        self.episode += 1
        self.t = 1
        return self._state()

    def step(self, action):
        self.taken.append((self.episode, self.t, action))
        reward = 1.0 if action is ACT_ORDER[self.t % N_ACTIONS] else 0.0
        done = self.t == self.STEPS
        self.t += not done
        return self._state(), reward, done


class TestLongEpisodes:
    def test_steps_past_twelve_explore_on_their_own_streams(self):
        hp = Hyperparams(alpha=0.3, gamma=0.9, epsilon=0.5, seed=3)
        # more episodes than one block of derived exploration draws
        env, oracle = LongEpisodeEnv(), LongEpisodeEnv()
        assert_same_training(train_tabular_policy(env, 600, hp),
                             reference_train_tabular_policy(oracle, 600, hp))
        assert env.taken == oracle.taken
        root = ScalarStream(hp.seed, "qlearn")
        explored = 0
        for ep, t, action in env.taken:
            if t > 12:
                stream = root.child("explore", ep, t)
                if stream.random() < hp.epsilon:
                    assert action is ACT_ORDER[stream.integers(N_ACTIONS)]
                    explored += 1
        assert explored > 1000
