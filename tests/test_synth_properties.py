"""Hypothesis property tests of the generator-config JSON and of the
batched generator against the per-dialog loop it replaced.

Kept apart from test_synth.py so that the example-based tests there
still run where hypothesis is not installed.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import reference_generate
from trustsim.corpus import (
    ACT_ORDER,
    AGE_MAX,
    AGE_MIN,
    LIKERT_MAX,
    LIKERT_MIN,
    MIN_DURATION_S,
    SCALE_TRAITS,
    save_corpus,
)
from trustsim.errors import TrustSimError
from trustsim.synth import BehaviorProcess, GeneratorConfig, generate_synthetic_corpus
from trustsim.user_model import TraitDistributions, TruncGauss

finite = st.floats(allow_nan=False, allow_infinity=False)
number = st.one_of(finite, st.integers(-2**60, 2**60))


def trunc_gauss(lo, hi):
    return st.builds(TruncGauss, mean=number, sd=st.floats(0.0, 1e300), lo=st.just(lo),
                     hi=st.just(hi))


@st.composite
def gender_probs(draw):
    male, female = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
    return (male, female, 1.0 - male - female)


traits = st.builds(
    TraitDistributions,
    age=trunc_gauss(AGE_MIN, AGE_MAX),
    **{name: trunc_gauss(LIKERT_MIN, LIKERT_MAX) for name in SCALE_TRAITS},
    gender_probs=gender_probs(),
)

process = st.builds(BehaviorProcess, **{
    f.name: (st.tuples(*[number] * len(ACT_ORDER)) if isinstance(f.default, tuple)
             else number)
    for f in fields(BehaviorProcess)
} | {  # the two sds, in the domains the process accepts
    "difficulty_sd": st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
                               st.integers(1, 2**60)),
    "duration_sd": st.one_of(st.floats(0.0, allow_infinity=False), st.integers(0, 2**60)),
})

configs = st.builds(
    GeneratorConfig, n_dialogs=st.integers(1, 10**6), traits=traits, process=process,
    step_drift=st.floats(0.0, 1.0),
    duration_hi=st.floats(MIN_DURATION_S, 1e300, exclude_min=True),
)


class TestGeneratorConfigJson:
    @settings(deadline=None)
    @given(configs)
    def test_round_trip_through_json_text(self, config):
        text = json.dumps(config.to_json_dict())
        assert GeneratorConfig.from_json_dict(json.loads(text)) == config


def outcome(generate, config, seed, out: Path):
    """The file bytes of the corpus in both formats, or the type of the
    error that generating it raised."""
    try:
        corpus = generate(config, seed)
    except TrustSimError as exc:
        return type(exc)
    files = []
    for fmt in ("csv", "jsonl"):
        save_corpus(corpus, out / f"corpus.{fmt}")
        files.append((out / f"corpus.{fmt}").read_bytes())
    return corpus, files


class TestBatchedGenerator:
    @settings(deadline=None, max_examples=60)
    @given(st.builds(replace, configs, n_dialogs=st.integers(1, 8)),
           st.integers(-2**70, 2**70))
    def test_equals_reference(self, config, seed):
        # any other exception type escapes and fails the test
        with tempfile.TemporaryDirectory() as tmp:
            batched = outcome(generate_synthetic_corpus, config, seed, Path(tmp))
            assert batched == outcome(reference_generate, config, seed, Path(tmp))
