"""The two rules of a scalar config or context value, `errors.integer` and
`errors.finite_number`, at every value they check: each rejected value
raises the site's typed error, and a numpy integer gives the same object,
draws and JSON as the equal Python int."""

from __future__ import annotations

import dataclasses
import json
from functools import cache

import numpy as np
import pytest

from conftest import RiggedSweepEnv
from trustsim.behavior_tables import TableMode, build_table, lookup, table_to_json_dict
from trustsim.corpus import ProactiveAct, complexity_of_step, split_corpus
from trustsim.errors import InvalidBounds, InvalidConfig, InvalidHyperparams, StepOutOfRange
from trustsim.rl_env import EnvState, Hyperparams, RewardConfig, train_tabular_policy
from trustsim.sampling import RandomStream
from trustsim.synth import BehaviorProcess, GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import TrainConfig, train_classifier
from trustsim.user_model import TruncGauss, default_trait_distributions


@cache
def corpus():
    return generate_synthetic_corpus(GeneratorConfig(n_dialogs=40), seed=7)


@cache
def table():
    return build_table(corpus(), TableMode.TASK_STEP_BASED)


def shown(value) -> tuple:
    """A value with its repr, so a numpy int that prints as np.int64(5) differs."""
    return value, repr(value)


def state(**fields):
    return shown(EnvState(**{"step": 2, "trait": 5, "last_turn": None,
                             "estimated_trust": 4, **fields}))


def learned(episodes, seed=1) -> tuple:
    hp = Hyperparams(seed=seed)
    result = train_tabular_policy(RiggedSweepEnv(), episodes, hp)
    return shown(hp), result.q.tobytes(), result.policy.tobytes(), result.returns


def fitted(threshold) -> tuple:
    fitted_table = build_table(corpus(), TableMode.TASK_STEP_BASED, threshold)
    return (*shown(fitted_table), json.dumps(table_to_json_dict(fitted_table)))


def generated(n_dialogs) -> tuple:
    config = GeneratorConfig(n_dialogs=n_dialogs)
    return (*shown(config), json.dumps(config.to_json_dict()),
            generate_synthetic_corpus(config, 3))


def trained(epochs) -> tuple:
    config = TrainConfig(epochs=epochs)
    model = train_classifier(corpus(), config)
    return (*shown(config), model.weights.tobytes(), model.biases.tobytes())


# Each integer value: its error type, a call on the value and a valid value.
INTEGER_SITES = {
    "RandomStream seed": (InvalidConfig, lambda v: RandomStream(v, "x").key, 7),
    "complexity_of_step step": (StepOutOfRange, complexity_of_step, 5),
    "BehaviorTable fallback_threshold": (InvalidConfig, fitted, 10),
    "lookup trait code": (InvalidConfig,
                          lambda v: lookup(table(), v, ProactiveAct.NONE, 2), 5),
    "lookup condition": (InvalidConfig,
                         lambda v: lookup(table(), 5, ProactiveAct.NONE, v), 2),
    "EnvState step": (InvalidConfig, lambda v: state(step=v), 2),
    "EnvState trait": (InvalidConfig, lambda v: state(trait=v), 5),
    "EnvState estimated_trust": (InvalidConfig, lambda v: state(estimated_trust=v), 4),
    "train_tabular_policy episodes": (InvalidHyperparams, learned, 3),
    "Hyperparams seed": (InvalidConfig, lambda v: learned(2, seed=v), 1),
    "GeneratorConfig n_dialogs": (InvalidConfig, generated, 5),
    "TrainConfig epochs": (InvalidConfig, trained, 5),
}

_GAUSS = dict(mean=3.0, sd=1.0, lo=1.0, hi=5.0)

# Each number value: its error type and a call on the value.
NUMBER_SITES = {
    **{f"RewardConfig {name}": (InvalidConfig, lambda v, name=name: RewardConfig(**{name: v}))
       for name in ("score_weight", "trust_weight")},
    **{f"Hyperparams {name}": (InvalidHyperparams,
                               lambda v, name=name: Hyperparams(**{name: v}))
       for name in ("alpha", "gamma", "epsilon")},
    **{f"GeneratorConfig {name}": (InvalidConfig,
                                   lambda v, name=name: GeneratorConfig(**{name: v}))
       for name in ("step_drift", "duration_hi")},
    "BehaviorProcess help_base": (InvalidConfig, lambda v: BehaviorProcess(help_base=v)),
    "BehaviorProcess help_act entry": (
        InvalidConfig, lambda v: BehaviorProcess(help_act=(0.05, v, -0.05, -0.08))),
    **{f"TruncGauss {name}": (InvalidBounds, lambda v, name=name: TruncGauss(**{**_GAUSS,
                                                                               name: v}))
       for name in _GAUSS},
    "gender probability": (InvalidConfig, lambda v: dataclasses.replace(
        default_trait_distributions(), gender_probs=(v, 0.5, 0.0))),
    "split_corpus train_fraction": (InvalidConfig, lambda v: split_corpus(corpus(), v, 1)),
}

NOT_INTEGERS = [True, np.True_, "3", None, 2.0]
NOT_NUMBERS = [True, np.True_, "0.5", None, float("nan"), float("inf"), -float("inf"),
               10 ** 400]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_a_value_that_is_no_integer_raises_the_sites_error(site, value):
    error, call, _ = INTEGER_SITES[site]
    with pytest.raises(error, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("as_int", [np.int64, np.uint8], ids=lambda t: t.__name__)
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_a_numpy_integer_acts_as_the_equal_int(site, as_int):
    _, call, good = INTEGER_SITES[site]
    assert call(as_int(good)) == call(good)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=["true", "np-true", "str", "none", "nan",
                                                    "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_a_value_that_is_no_finite_number_raises_the_sites_error(site, value):
    error, call = NUMBER_SITES[site]
    with pytest.raises(error, match="must be a finite number"):
        call(value)
