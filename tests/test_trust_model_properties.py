"""Hypothesis properties: round trips of the model and corpus serializers,
and the trainer's streamed standardization.

Kept apart from test_trust_model.py and test_corpus.py so that the
example-based tests there still run where hypothesis is not installed.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trustsim.corpus import DURATION_HI, load_corpus, save_corpus
from trustsim.errors import ValueOutOfRange
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import (
    FEATURE_NAMES,
    N_FEATURES,
    TRUST_CLASSES,
    TrustClassifier,
    _ROWS,
    _standardized,
    classifier_from_json_dict,
    classifier_to_json_dict,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
# values whose scores cannot overflow, which the loader requires
moderate = st.floats(-1e100, 1e100)
# the upper end of every feature's range, written out by hand
_TOPS = {"age": 60, "complexity": 5, "step": 12, "duration": DURATION_HI,
         "game_score": 50, "help_request": 1, "suggestion_request": 1}
FEATURE_TOPS = np.array([1.0 if "=" in name else _TOPS.get(name.split(":")[-1], 5.0)
                         for name in FEATURE_NAMES])
class_sets = st.sets(st.sampled_from(TRUST_CLASSES), min_size=1).map(sorted).map(tuple)
# a wall-clock deadline only adds flakiness on a loaded machine
property_test = settings(deadline=None)


@st.composite
def classifiers(draw, values=moderate) -> TrustClassifier:
    classes = draw(class_sets)
    return TrustClassifier(
        classes=classes,
        weights=draw(arrays(float, (len(classes), N_FEATURES), elements=values)),
        biases=draw(arrays(float, (len(classes),), elements=values)),
    )


class TestClassifierRoundTrip:
    @property_test
    @given(classifiers())
    def test_json_round_trip_keeps_array_bytes_and_classes(self, model):
        # through JSON text, as save_classifier and load_classifier do
        text = json.dumps(classifier_to_json_dict(model), sort_keys=True)
        loaded = classifier_from_json_dict(json.loads(text))
        assert loaded.classes == model.classes
        for name in ("weights", "biases"):
            original, restored = getattr(model, name), getattr(loaded, name)
            assert restored.dtype == np.float64
            assert restored.shape == original.shape
            assert restored.tobytes() == original.tobytes()

    @property_test
    @given(classifiers(finite))
    def test_a_loaded_model_scores_finitely(self, model):
        # finite values of any size: a model the loader takes scores the
        # bottom and the top of every feature range finitely
        try:
            loaded = classifier_from_json_dict(classifier_to_json_dict(model))
        except ValueOutOfRange as exc:
            assert "largest score" in str(exc)
            return
        for probe in (np.zeros(N_FEATURES), FEATURE_TOPS):
            assert np.isfinite(loaded.scores(probe)).all()


class TestCorpusRoundTrip:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 4), st.integers(0, 2**32), st.sampled_from([0.0, 0.5, 1.0]))
    def test_csv_and_jsonl_round_trips_equal_the_corpus(self, n_dialogs, seed, drift):
        corpus = generate_synthetic_corpus(
            GeneratorConfig(n_dialogs=n_dialogs, step_drift=drift), seed)
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("corpus.csv", "corpus.jsonl"):
                path = Path(tmp) / name
                save_corpus(corpus, path)
                assert load_corpus(path) == corpus


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


@st.composite
def feature_matrices(draw) -> np.ndarray:
    """A C-order float64 (n, N_FEATURES) matrix of 1 to 3 blocks + 5 rows,
    so that one short block and the seams between blocks both occur. Each
    column is constant (of any sign, -0.0 included), of small integers (as
    the one-hot and Likert columns are) or normal around a drawn mean."""
    n = draw(st.integers(1, 3 * _ROWS + 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, N_FEATURES))
    for j in range(N_FEATURES):
        kind = draw(st.sampled_from(["constant", "integers", "normal"]))
        if kind == "constant":
            X[:, j] = draw(st.floats(-1e6, 1e6))
        elif kind == "integers":
            X[:, j] = gen.integers(0, draw(st.integers(1, 60)), n, endpoint=True)
        else:
            X[:, j] = gen.normal(draw(st.floats(-1e6, 1e6)),
                                 10.0 ** draw(st.integers(-8, 6)), n)
    return X


class TestStreamedStandardization:
    @settings(deadline=None, max_examples=40)
    @given(feature_matrices())
    def test_block_sums_equal_whole_matrix_reductions_bit_for_bit(self, X):
        Z1T, mean, scale = _standardized(lambda start, stop: X[start:stop].copy(), len(X))
        std = X.std(axis=0)
        assert bits(mean) == bits(X.mean(axis=0))
        # a zero-variance column takes scale 1
        assert bits(scale) == bits(np.where(std == 0.0, 1.0, std))
        assert bits(Z1T[:N_FEATURES]) == bits(((X - mean) / scale).T)
        assert (Z1T[N_FEATURES] == 1.0).all()
