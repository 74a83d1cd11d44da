"""Hypothesis round-trip properties of the model and corpus serializers.

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

from trustsim.corpus import load_corpus, save_corpus
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import (
    N_FEATURES,
    SCHEMA_VERSION,
    TRUST_CLASSES,
    TrustClassifier,
    classifier_from_json_dict,
    classifier_to_json_dict,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
# the loader rejects a feature scale that is not finite and > 0
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
class_sets = st.sets(st.sampled_from(TRUST_CLASSES), min_size=1).map(sorted).map(tuple)
# a wall-clock deadline only adds flakiness on a loaded machine
property_test = settings(deadline=None)


@st.composite
def classifiers(draw) -> TrustClassifier:
    classes = draw(class_sets)
    return TrustClassifier(
        schema_version=SCHEMA_VERSION, classes=classes,
        weights=draw(arrays(float, (len(classes), N_FEATURES), elements=finite)),
        biases=draw(arrays(float, (len(classes),), elements=finite)),
        feature_mean=draw(arrays(float, (N_FEATURES,), elements=finite)),
        feature_scale=draw(arrays(float, (N_FEATURES,), elements=positive)),
    )


class TestClassifierRoundTrip:
    @property_test
    @given(classifiers())
    def test_json_round_trip_keeps_array_bytes_and_classes(self, model):
        # through JSON text, as save_classifier and load_classifier do
        text = json.dumps(classifier_to_json_dict(model), sort_keys=True)
        loaded = classifier_from_json_dict(json.loads(text))
        assert loaded.classes == model.classes
        assert loaded.schema_version == model.schema_version
        for name in ("weights", "biases", "feature_mean", "feature_scale"):
            original, restored = getattr(model, name), getattr(loaded, name)
            assert restored.dtype == np.float64
            assert restored.shape == original.shape
            assert restored.tobytes() == original.tobytes()


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
