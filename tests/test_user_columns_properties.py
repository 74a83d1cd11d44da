"""Property tests: the consumers of a Corpus's user columns against the
record-based code they replaced.

Over random corpora, fit_trait_distributions, corpus_to_dataset,
split_corpus and save_corpus must agree bit for bit with oracles that read
the users as one UserRecord each, and trait_flags must decode the trait
codes of the users and of the columns alike; DialogFeatures from the
`start_rows` row of a one-user namespace of the columns must write the
dataset's profile block. Kept apart from the example-based tests so that
those still run where hypothesis is not installed.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    reference_dataset,
    reference_fit_trait_distributions,
    reference_save_corpus,
    reference_split_corpus,
    users_of,
)
from trustsim.corpus import (AGE_MAX, AGE_MIN, GENDER_ORDER, LIKERT_MAX, LIKERT_MIN,
                             SCALE_TRAITS, STEPS_PER_DIALOG, USER_COLUMNS, ProactiveAct,
                             save_corpus, split_corpus)
from trustsim.errors import TrustSimError
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.trust_model import (FEATURE_NAMES, DialogFeatures, corpus_to_dataset,
                                  start_rows, turn_blocks)
from trustsim.user_model import (default_trait_distributions, fit_trait_distributions,
                                 trait_codes, trait_flags)

# The width of the profile block of a feature row
PROFILE_END = FEATURE_NAMES.index(f"act={ProactiveAct.NONE.value}")
# The behavior-relevant traits in trait_flags order
FLAG_TRAITS = ("domain_expertise", "trust_propensity", "technical_affinity")


def fitted(fit, corpus):
    """The fitted distributions as JSON text, which tells every float bit
    but the sign of a nan apart, or the type and message of the error."""
    try:
        return json.dumps(fit(corpus).to_json_dict())
    except TrustSimError as exc:
        return type(exc), str(exc)


def assert_matches_record_oracles(corpus, fraction, seed, root):
    assert fitted(fit_trait_distributions, corpus) == \
        fitted(reference_fit_trait_distributions, corpus)

    X, y = corpus_to_dataset(corpus)
    X_ref, y_ref = reference_dataset(corpus)
    assert X.tobytes() == X_ref.tobytes()
    assert (y.dtype, y.tolist()) == (y_ref.dtype, y_ref.tolist())

    assert split_corpus(corpus, fraction, seed) == \
        reference_split_corpus(corpus, fraction, seed)

    for fmt in ("csv", "jsonl"):
        save_corpus(corpus, root / f"columns.{fmt}")
        reference_save_corpus(corpus, root / f"records.{fmt}")
        assert (root / f"columns.{fmt}").read_bytes() == (root / f"records.{fmt}").read_bytes()


@st.composite
def corpora(draw):
    """A generated corpus of 1 to 12 dialogs, its user columns replaced
    by drawn values half the time: ages and genders over their whole
    range, traits on and between the Likert points, 3.0 among them."""
    n = draw(st.integers(1, 12), label="dialogs")
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n),
                                       draw(st.integers(0, 2 ** 32), label="seed"))
    if draw(st.booleans(), label="drawn users"):
        def column(values):
            return draw(st.lists(values, min_size=n, max_size=n))
        traits = st.one_of(st.sampled_from([1.0, 3.0, 5.0]),
                           st.floats(LIKERT_MIN, LIKERT_MAX))
        corpus = dataclasses.replace(
            corpus, age=column(st.integers(AGE_MIN, AGE_MAX)),
            gender=column(st.integers(0, len(GENDER_ORDER) - 1)),
            **{name: column(traits) for name in SCALE_TRAITS})
    return corpus


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("user-columns")


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32))
def test_random_corpora(root, corpus, fraction, seed):
    assert_matches_record_oracles(corpus, fraction, seed, root)


@pytest.mark.parametrize("n", [40, 308])
def test_standard_corpora(tmp_path, n):
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n), 42)
    assert_matches_record_oracles(corpus, 0.8, 42, tmp_path)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_trait_flags_decode_trait_codes(corpus):
    """trait_flags(trait_codes(x)) is the three "> 3.0" flags, for one user
    and element by element for the corpus's columns."""
    columns = trait_flags(trait_codes(corpus))
    expected = [[int(value > 3.0) for value in getattr(corpus, name).tolist()]
                for name in FLAG_TRAITS]
    assert [flags.tolist() for flags in columns] == expected
    for user in users_of(corpus):
        assert trait_flags(trait_codes(user)) == tuple(
            int(getattr(user, name) > 3.0) for name in FLAG_TRAITS)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32),
       gender_probs=st.permutations([0.0, 0.25, 0.75]))
def test_dialog_features_profile_equals_the_dataset_rows(n, seed, gender_probs):
    """DialogFeatures from the `start_rows` row of a user of the corpus as
    a one-user namespace, its values those of the Corpus user columns,
    writes the profile block of each of that user's corpus_to_dataset rows.
    One gender class has weight 0, so its column reads 0 throughout."""
    traits = dataclasses.replace(default_trait_distributions(),
                                 gender_probs=tuple(gender_probs))
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n, traits=traits), seed)
    X, _ = corpus_to_dataset(corpus)
    profile = X[:, :PROFILE_END].reshape(n, STEPS_PER_DIALOG, PROFILE_END)
    columns = {name: getattr(corpus, name).tolist() for name in USER_COLUMNS[1:]}
    # act NONE at step 1
    turn = SimpleNamespace(proactive_act=[0], complexity=[3], step=[1], difficulty=[3],
                           duration=[42.0], game_score=[30.0], help_request=[False],
                           suggestion_request=[False])
    for u in range(n):
        user = SimpleNamespace(**{name: values[u] for name, values in columns.items()})
        features = DialogFeatures(start_rows(user)[0])
        row = features.write(turn_blocks(turn)[0]).copy()
        for dataset_row in profile[u]:
            assert row[:PROFILE_END].tobytes() == dataset_row.tobytes()
    unused = FEATURE_NAMES.index(f"gender={GENDER_ORDER[gender_probs.index(0.0)].value}")
    assert not X[:, unused].any()
