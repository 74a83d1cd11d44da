"""Corpus-based, trust-aware user simulation for proactive dialog agents."""

from .behavior_tables import (
    BehaviorTable,
    TableMode,
    build_table,
    load_table,
    save_table,
    table_summary,
)
from .corpus import (
    Corpus,
    Gender,
    ProactiveAct,
    complexity_of_step,
    load_corpus,
    save_corpus,
    split_corpus,
)
from .errors import TrustSimError
from .fidelity import (
    FidelityReport,
    Measure,
    compare_modes,
    evaluate_simulator,
)
from .rl_env import (
    EnvState,
    Hyperparams,
    RewardConfig,
    TrustSimEnv,
    train_tabular_policy,
)
from .sampling import RandomStream
from .simulator import (
    SimulatedLog,
    SimulatedTurn,
    replay_conditions,
)
from .synth import BehaviorProcess, GeneratorConfig, generate_synthetic_corpus
from .trust_model import (
    TrainConfig,
    TrustClassifier,
    evaluate_classifier,
    predict_trust,
    train_classifier,
)
from .user_model import (
    TraitDistributions,
    default_trait_distributions,
    fit_trait_distributions,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorProcess",
    "BehaviorTable",
    "Corpus",
    "EnvState",
    "FidelityReport",
    "Gender",
    "GeneratorConfig",
    "Hyperparams",
    "Measure",
    "ProactiveAct",
    "RandomStream",
    "RewardConfig",
    "SimulatedLog",
    "SimulatedTurn",
    "TableMode",
    "TrainConfig",
    "TraitDistributions",
    "TrustClassifier",
    "TrustSimEnv",
    "TrustSimError",
    "default_trait_distributions",
    "build_table",
    "compare_modes",
    "complexity_of_step",
    "evaluate_classifier",
    "evaluate_simulator",
    "fit_trait_distributions",
    "generate_synthetic_corpus",
    "load_corpus",
    "load_table",
    "predict_trust",
    "replay_conditions",
    "save_corpus",
    "save_table",
    "split_corpus",
    "table_summary",
    "train_classifier",
    "train_tabular_policy",
]
