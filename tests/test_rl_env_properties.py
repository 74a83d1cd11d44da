"""Hypothesis property tests of the RL environment's incremental feature
rows against the per-turn oracle `reference_features` over the episode's
history.

Kept apart from test_rl_env.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (reference_features, reference_sample_user, simulated_turn_context,
                      stub_trust_model)
from trustsim import rl_env
from trustsim.behavior_tables import TableMode, build_table
from trustsim.corpus import ACT_ORDER
from trustsim.rl_env import TrustSimEnv
from trustsim.sampling import RandomStream
from trustsim.user_model import fit_trait_distributions, trait_codes


@pytest.fixture(scope="module", params=list(TableMode), ids=lambda mode: mode.value)
def env(request, default_corpus):
    # a tied model: every step falls back to scoring its whole row with
    # predict_trust, which the test's hook captures
    return TrustSimEnv(build_table(default_corpus, request.param),
                       fit_trait_distributions(default_corpus),
                       stub_trust_model([0.0] * 5))


class TestFeatureRows:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(-2**70, 2**70),
           st.lists(st.sampled_from(ACT_ORDER), min_size=12, max_size=12))
    def test_rows_equal_reference_features_over_the_history(self, env, seed, acts):
        rows = []

        def scored(model, features):
            rows.append(features.copy())
            return real(model, features)

        real = rl_env.predict_trust
        rng = RandomStream(seed, "episode")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rl_env, "predict_trust", scored)
            first = env.reset(rng)
            states = [env.step(act)[0] for act in acts]
        profile = reference_sample_user(env.traits, rng.child("user"))
        assert first.trait == trait_codes(profile)
        history = []
        for step, (act, state, row) in enumerate(zip(acts, states, rows), start=1):
            current = simulated_turn_context(step, act, state.last_turn)
            # steps 1 and 2 read the neutral fill for the lags they lack
            assert np.array_equal(row, reference_features(profile, history, current))
            history.append(simulated_turn_context(step, act, state.last_turn,
                                                  trust_label=state.estimated_trust))
        assert len(rows) == 12
