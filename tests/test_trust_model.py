"""Trust target folding, feature schema, classifier training and metrics."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    TurnContext,
    combine_trust_target,
    corpus_from_rows,
    corpus_user,
    dialogs_of,
    exchanges_of,
    fold_standardization,
    make_corpus,
    make_dialog,
    make_exchange,
    make_user,
    reference_dataset,
    reference_features,
    reference_predictions,
    reference_train,
    standardized_labels,
    stub_trust_model as stub_model,
    users_of,
)
from trustsim import trust_model
from trustsim.corpus import ACT_INDEX, ACT_ORDER, Corpus, Gender, ProactiveAct
from trustsim.synth import GeneratorConfig, generate_synthetic_corpus
from trustsim.errors import (
    DegenerateLabels,
    EmptyTestSet,
    InsufficientData,
    InvalidConfig,
    LengthMismatch,
    SchemaMismatch,
    ValueOutOfRange,
)
from trustsim.trust_model import (
    FEATURE_NAMES,
    N_FEATURES,
    TrainConfig,
    classification_metrics,
    classifier_from_json_dict,
    classifier_to_json_dict,
    corpus_to_dataset,
    dialog_rows,
    evaluate_classifier,
    load_classifier,
    predict_trust,
    save_classifier,
    start_rows,
    train_classifier,
    turn_blocks,
)


class TestTrustLabels:
    @pytest.mark.parametrize("ratings,expected", [
        ((3, 3, 3, 3), 3),
        ((4, 4, 4, 3), 4),    # 3.75 rounds up
        ((4, 3, 3, 3), 3),    # 3.25 rounds down
        ((4, 4, 3, 3), 4),    # exact half rounds up
        ((1, 2, 1, 2), 2),
        ((1, 1, 1, 2), 1),
        ((5, 5, 5, 5), 5),
        ((1, 1, 1, 1), 1),
    ])
    def test_mean_of_the_four_ratings_rounded_half_up(self, ratings, expected):
        names = ("trust", "competence", "reliability", "predictability")
        _, y = corpus_to_dataset(make_corpus(n_users=1, **dict(zip(names, ratings))))
        assert y.tolist() == [expected] * 12
        assert combine_trust_target(*ratings) == expected  # the oracle of the labels


def context(step=1, act=ProactiveAct.NONE, difficulty=3, duration=42.0,
            game_score=30.0, help_request=False, suggestion_request=False,
            trust_label=None):
    from trustsim.corpus import complexity_of_step
    return TurnContext(
        proactive_act=act, complexity=complexity_of_step(step), step=step,
        difficulty=difficulty, duration=duration, game_score=game_score,
        help_request=help_request, suggestion_request=suggestion_request,
        trust_label=trust_label,
    )


# the fields of a turn that its current-turn block holds, after its act
_BLOCK_FIELDS = ("complexity", "step", "difficulty", "duration", "game_score",
                 "help_request", "suggestion_request")


def one_dialog_rows(user, turns, labels) -> np.ndarray:
    """The `dialog_rows` of one dialog that starts from the `start_rows` row
    of the user (a UserRecord): its turns (anything with their act,
    complexity, step and observed fields) as their `turn_blocks` rows,
    labelled with these trust labels."""
    columns = SimpleNamespace(proactive_act=[ACT_INDEX[turn.proactive_act] for turn in turns],
                              **{name: [getattr(turn, name) for turn in turns]
                                 for name in _BLOCK_FIELDS})
    return dialog_rows(start_rows(corpus_user(user)), turn_blocks(columns)[None], [labels])[0]


def dialog_row(user, history, current) -> np.ndarray:
    """The row of `current` in a dialog whose earlier turns are `history`,
    each labelled with its trust label, the last of their `dialog_rows`. It
    equals the oracle `reference_features` on the same turns."""
    labels = [turn.trust_label for turn in history] + [0]  # current's is never read
    row = one_dialog_rows(user, [*history, current], labels)[-1]
    assert np.array_equal(row, reference_features(user, history, current))
    return row


class TestFeatureSchema:
    def test_dimension_and_uniqueness(self):
        assert N_FEATURES == 43
        assert len(FEATURE_NAMES) == 43
        assert len(set(FEATURE_NAMES)) == 43

    def test_layout_blocks(self):
        assert FEATURE_NAMES[0] == "age"
        assert FEATURE_NAMES.index("complexity") == 16
        assert sum(1 for n in FEATURE_NAMES if n.startswith("lag1:")) == 10
        assert sum(1 for n in FEATURE_NAMES if n.startswith("lag2:")) == 10

    def test_vector_without_history(self):
        user = make_user(gender=Gender.FEMALE)
        current = context(step=1, act=ProactiveAct.SUGGESTION, difficulty=2,
                          duration=50.0, game_score=20.0, help_request=True)
        vec = dialog_row(user, [], current)
        gender = [0.0, 1.0, 0.0]  # female, index 1 of GENDER_ORDER
        lag_fill = [0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 3.0]
        expected = np.array(
            [30.0] + gender + [3.5, 2.5, 4.0, 3.0, 3.0, 3.0, 3.0, 3.0]
            + [0.0, 0.0, 1.0, 0.0]
            + [3.0, 1.0, 2.0, 50.0, 20.0, 1.0, 0.0]
            + lag_fill + lag_fill
        )
        assert np.array_equal(vec, expected)

    def test_vector_with_one_lag(self):
        user = make_user()
        past = context(step=1, act=ProactiveAct.NONE, difficulty=4,
                       duration=60.0, game_score=10.0, suggestion_request=True,
                       trust_label=2)
        vec = dialog_row(user, [past], context(step=2))
        lag1 = [1.0, 0.0, 0.0, 0.0, 4.0, 60.0, 10.0, 0.0, 1.0, 2.0]
        start = FEATURE_NAMES.index(f"lag1:act={ProactiveAct.NONE.value}")
        assert vec[start:start + 10].tolist() == lag1
        lag2 = [0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 3.0]
        assert vec[start + 10:].tolist() == lag2

    def test_only_last_two_turns_matter(self):
        user = make_user()
        history = [context(step=s, difficulty=(s % 5) + 1, trust_label=4)
                   for s in range(1, 6)]
        full = dialog_row(user, history, context(step=6))
        tail = dialog_row(user, history[-2:], context(step=6))
        assert np.array_equal(full, tail)

    @pytest.mark.parametrize("gender", [0, 1, 2, np.int64(2)])
    def test_gender_index_sets_its_slot(self, gender):
        profile = corpus_user(make_user())
        profile.gender = gender
        rows = start_rows(profile)
        assert rows.shape == (1, N_FEATURES)
        assert rows[0, 1:4].tolist() == [float(g == gender) for g in range(3)]


class TestCorpusToDataset:
    def test_shapes_and_alignment(self, small_corpus):
        X, y = corpus_to_dataset(small_corpus)
        n = len(exchanges_of(small_corpus))
        assert X.shape == (n, N_FEATURES)
        assert y.shape == (n,)
        assert set(y) <= {1, 2, 3, 4, 5}

    # small_corpus holds 40 dialogs
    @pytest.mark.parametrize("start,stop", [(0, 1), (1, 3), (2, None), (38, 99), (3, 3),
                                            (5, 2), (41, 45)])
    def test_a_run_of_dialogs_gives_its_rows_of_the_whole(self, small_corpus, start, stop):
        X, y = corpus_to_dataset(small_corpus)
        part, labels = corpus_to_dataset(small_corpus, start, stop)
        rows = slice(*(None if i is None else 12 * i for i in (start, stop)))
        assert part.tobytes() == X[rows].tobytes()
        assert part.shape == (len(labels), N_FEATURES)
        assert labels.tolist() == y[rows].tolist()

    def test_lag_labels_are_teacher_forced(self, small_corpus):
        X, _ = corpus_to_dataset(small_corpus)
        first = dialogs_of(small_corpus)[small_corpus.user_id[0]][0]
        expected = combine_trust_target(first.trust, first.competence,
                                        first.reliability, first.predictability)
        lag_ix = FEATURE_NAMES.index("lag1:trust")
        assert X[1][lag_ix] == float(expected)


def varied_corpus() -> Corpus:
    """Hand-built users of every gender whose acts, requests and ratings
    change from step to step, so every lag column takes several values."""
    users, dialogs = [], {}
    for i, gender in enumerate(Gender):
        user = make_user(user_id=f"v{i}", age=20 + 7 * i, gender=gender,
                         openness=1.0 + i, neuroticism=4.5 - i)
        users.append(user)
        dialogs[user.user_id] = tuple(
            make_exchange(step, dialog_id=f"d{i}", act=ACT_ORDER[(step + i) % 4],
                          help_request=step % 3 == i, suggestion_request=step % 2 == 0,
                          duration=21.0 + 3.5 * step + i, difficulty=1 + (step + i) % 5,
                          trust=1 + step % 5, competence=1 + (step + i) % 5,
                          reliability=5 - step % 5, predictability=1 + (2 * step) % 5)
            for step in range(1, 13))
    return corpus_from_rows(users, dialogs)


def corpus_case(request, name) -> Corpus:
    """A named test corpus: a session fixture, a hand-built one, or
    "<n> dialogs", the seed-42 synthetic corpus of n dialogs."""
    builders = {"separable": separable_corpus, "varied": varied_corpus,
                "one-user": lambda: make_corpus(n_users=1),
                "empty": lambda: corpus_from_rows((), {})}
    if name in builders:
        return builders[name]()
    if name.endswith(" dialogs"):
        return generate_synthetic_corpus(GeneratorConfig(n_dialogs=int(name.split()[0])), 42)
    return request.getfixturevalue(name)


class TestColumnBuiltDatasetEqualsPerRowLoop:
    @pytest.mark.parametrize("name", ["default_corpus", "drifting_corpus",
                                      "small_corpus", "varied", "one-user", "empty"])
    def test_same_bytes_and_labels(self, request, name):
        corpus = corpus_case(request, name)
        X, y = corpus_to_dataset(corpus)
        X_ref, y_ref = reference_dataset(corpus)
        assert X.shape == X_ref.shape == (12 * corpus.n_dialogs, N_FEATURES)
        assert X.tobytes() == X_ref.tobytes()
        assert y.dtype == y_ref.dtype
        assert y.tolist() == y_ref.tolist()

    @pytest.mark.parametrize("name", ["small_corpus", "varied", "one-user"])
    def test_dialog_prefixes_give_the_same_rows(self, request, name):
        # the RL env scores a step as the last row of the dialog so far
        corpus = corpus_case(request, name)
        X, y = corpus_to_dataset(corpus)
        rows = []
        for i, (user, exchanges) in enumerate(zip(users_of(corpus),
                                                  dialogs_of(corpus).values())):
            labels = y[12 * i:12 * (i + 1)].tolist()
            for t in range(1, 13):
                rows.append(one_dialog_rows(user, exchanges[:t], labels[:t])[-1])
        assert np.array(rows).tobytes() == X.tobytes()


def separable_corpus() -> Corpus:
    """Two archetypes whose profiles fully determine their trust labels."""
    users, dialogs = [], {}
    for i in range(3):
        low = make_user(user_id=f"low{i}", age=22 + i, domain_expertise=1.5,
                        trust_propensity=1.0, technical_affinity=2.0)
        users.append(low)
        dialogs[low.user_id] = make_dialog(
            low.user_id, trust=1, competence=1, reliability=1, predictability=2)
        high = make_user(user_id=f"high{i}", age=50 + i, domain_expertise=4.5,
                         trust_propensity=5.0, technical_affinity=4.5)
        users.append(high)
        dialogs[high.user_id] = make_dialog(
            high.user_id, trust=5, competence=5, reliability=5, predictability=4)
    return corpus_from_rows(users, dialogs)


class TestTraining:
    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            train_classifier(corpus_from_rows((), {}))

    def test_degenerate_labels(self):
        user = make_user(user_id="u0")
        corpus = corpus_from_rows((user,), {"u0": make_dialog("u0")})
        with pytest.raises(DegenerateLabels):
            train_classifier(corpus)

    def test_config_validation(self):
        # a bool is an int
        for bad in ({"epochs": 0}, {"epochs": True}, {"epochs": 2.0}):
            with pytest.raises(InvalidConfig):
                TrainConfig(**bad)

    def test_separable_corpus_is_fit_exactly(self):
        corpus = separable_corpus()
        model = train_classifier(corpus)
        assert model.classes == (1, 5)
        report = evaluate_classifier(model, corpus)
        assert report.accuracy == 1.0

    def test_training_is_deterministic(self):
        corpus = separable_corpus()
        a = train_classifier(corpus)
        b = train_classifier(corpus)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_classes_are_present_labels_ascending(self, small_corpus):
        model = train_classifier(small_corpus)
        _, y = corpus_to_dataset(small_corpus)
        assert model.classes == tuple(sorted(set(int(v) for v in y)))




class TestTrainerEqualsReference:
    """The joint trainer against the per-class loop it replaced. Both run the
    same updates, but the joint products sum in another order (the bias
    inside the dot product, all classes in one gemm), so the weights agree
    to rounding, not to the bit; the predictions agree exactly. The
    reference's standardized-space weights are folded as the trainer folds
    its own. The trainer walks its exchanges a block at a time, so the
    synthetic corpora put the last exchange just before a block's end,
    just after it, and several blocks in with a short tail."""

    def test_the_synthetic_corpora_straddle_block_seams(self):
        block = trust_model._BLOCK
        assert 12 * 170 < block < 12 * 171
        assert 12 * 400 > 2 * block and (12 * 400) % block < block // 2

    @pytest.mark.parametrize("name", ["small_corpus", "drifting_corpus", "varied",
                                      "separable", "170 dialogs", "171 dialogs",
                                      "400 dialogs"])
    def test_same_weight_and_bias_bytes(self, request, name):
        corpus = corpus_case(request, name)
        model = train_classifier(corpus)
        classes, weights, biases, mean, scale, saw_no_violator = reference_train(corpus)
        assert model.classes == classes
        weights, biases = fold_standardization(weights, biases, mean, scale)
        np.testing.assert_allclose(model.weights, weights, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.biases, biases, rtol=1e-9, atol=1e-12)
        reference = dataclasses.replace(model, weights=weights, biases=biases)
        assert (evaluate_classifier(model, corpus).confusion
                == evaluate_classifier(reference, corpus).confusion)
        if name == "separable":
            # some epochs have no margin violator: the reference takes its
            # branch without a hinge term, the joint trainer a zero row of A
            assert saw_no_violator

    def test_raw_space_labels_equal_the_standardized_oracle(self, default_corpus):
        # the seed-42 corpus: 3696 exchanges, each labelled as v2 labelled it
        model = train_classifier(default_corpus)
        classes, weights, biases, mean, scale, _ = reference_train(default_corpus)
        X, _ = reference_dataset(default_corpus)
        labels = np.asarray(model.classes)[model.scores(X).argmax(axis=1)]
        assert len(labels) == 3696
        assert labels.tolist() == standardized_labels(classes, weights, biases, mean,
                                                      scale, X)


def test_training_keeps_one_standardized_copy():
    # the one standardized copy, features by rows, about X's size, and
    # per-block scratch: the peak stays well under two copies on top of X
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=400), 42)
    x_bytes = corpus_to_dataset(corpus)[0].nbytes
    tracemalloc.start()
    try:
        train_classifier(corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * x_bytes


def traced_peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_dialogs", [400, 1540])
def test_training_holds_no_whole_feature_matrix(n_dialogs):
    # the standardized copy is written a block of dialogs at a time, so X is
    # never held whole beside it: 1.40 x and 1.23 x X's size, against 2.07 x
    # and 2.05 x for a trainer that held X beside X.std's temporary
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=n_dialogs), 42)
    x_bytes = corpus.exchange_count * N_FEATURES * np.dtype(float).itemsize
    assert traced_peak(train_classifier, corpus) <= 1.6 * x_bytes


def test_evaluation_holds_no_whole_feature_matrix():
    # scored a block of dialogs at a time: 0.21 x X's size at 1540 dialogs,
    # against 1.80 x for one product over the whole of X
    corpus = generate_synthetic_corpus(GeneratorConfig(n_dialogs=1540), 42)
    x_bytes = corpus.exchange_count * N_FEATURES * np.dtype(float).itemsize
    assert traced_peak(evaluate_classifier, stub_model([0.0] * 5), corpus) <= 0.5 * x_bytes


class TestPrediction:
    def test_argmax_over_scores(self):
        model = stub_model([0.0, 0.3, 0.1, 0.0, 0.0])
        assert predict_trust(model, np.zeros(N_FEATURES)) == 2
        scores = model.scores(np.zeros(N_FEATURES))
        assert scores.shape == (5,)
        assert scores[1] == pytest.approx(0.3)

    def test_ties_break_to_lowest_label(self):
        assert predict_trust(stub_model([0.0] * 5), np.zeros(N_FEATURES)) == 1

    def test_wrong_dimension_rejected(self):
        model = stub_model([0.0] * 5)
        with pytest.raises(SchemaMismatch):
            predict_trust(model, np.zeros(7))
        for features in (np.zeros((3, 7)), np.zeros((2, 3, N_FEATURES)), np.zeros(())):
            with pytest.raises(SchemaMismatch):
                model.scores(features)

    def test_a_matrix_scores_row_by_row(self, small_corpus):
        model = train_classifier(small_corpus)
        X, _ = corpus_to_dataset(small_corpus)
        scores = model.scores(X)
        assert scores.shape == (len(X), len(model.classes))
        for x, row in zip(X, scores):
            np.testing.assert_allclose(model.scores(x), row, rtol=1e-12, atol=1e-12)


class TestClassificationMetrics:
    # 20 aligned pairs, confusion counted by hand
    Y_TRUE = [1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5]
    Y_PRED = [1, 2, 1, 2, 2, 3, 2, 3, 3, 4, 3, 5, 4, 4, 3, 5, 5, 5, 4, 5]

    def test_counting_oracle(self):
        report = classification_metrics(self.Y_TRUE, self.Y_PRED)
        assert report.n == 20
        assert report.accuracy == pytest.approx(14 / 20)
        assert report.majority_baseline == pytest.approx(5 / 20)
        # per-class F1: 4/5, 3/4, 3/5, 4/7, 4/5
        assert report.macro_f1 == pytest.approx(493 / 700)
        assert report.confusion == (
            (2, 1, 0, 0, 0),
            (0, 3, 1, 0, 0),
            (0, 0, 3, 1, 1),
            (0, 0, 1, 2, 0),
            (0, 0, 0, 1, 4),
        )

    def test_unsupported_classes_carry_no_vote(self):
        report = classification_metrics([1, 1, 3], [1, 2, 3])
        assert report.accuracy == pytest.approx(2 / 3)
        # class 2 has predictions but no support, so macro spans {1, 3}
        assert report.macro_f1 == pytest.approx((2 / 3 + 1.0) / 2)

    def test_perfect_predictions(self):
        report = classification_metrics([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            classification_metrics([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyTestSet):
            classification_metrics([], [])

    @pytest.mark.parametrize("label", [0, 6, 1.7, -1, 2**64, True, np.True_])
    def test_labels_outside_the_scale_rejected(self, label):
        with pytest.raises(ValueOutOfRange):
            classification_metrics([label, 5], [5, 5])
        with pytest.raises(ValueOutOfRange):
            classification_metrics([5, 5], [5, label])

    def test_integer_arrays_accepted(self):
        report = classification_metrics(np.array(self.Y_TRUE, dtype=np.int8),
                                        np.array(self.Y_PRED, dtype=np.uint64))
        assert report == classification_metrics(self.Y_TRUE, self.Y_PRED)


class TestEvaluateClassifier:
    def test_empty_corpus_rejected(self):
        model = stub_model([0.0] * 5)
        with pytest.raises(EmptyTestSet):
            evaluate_classifier(model, corpus_from_rows((), {}))

    @pytest.mark.parametrize("train_on, test_on", [
        ("small_corpus", "small_corpus"), ("small_corpus", "default_corpus"),
        ("drifting_corpus", "default_corpus"), ("separable", "separable"),
        ("varied", "varied"),
    ])
    def test_one_product_matches_per_row_prediction(self, request, monkeypatch,
                                                    train_on, test_on):
        model = train_classifier(corpus_case(request, train_on))
        corpus = corpus_case(request, test_on)
        seen = []

        def spy(y_true, y_pred):
            seen.append(list(y_pred))
            return classification_metrics(y_true, y_pred)

        monkeypatch.setattr(trust_model, "classification_metrics", spy)
        report = evaluate_classifier(model, corpus)
        expected = reference_predictions(model, corpus)
        assert seen == [expected]
        _, y = reference_dataset(corpus)
        assert report == classification_metrics(y, expected)

    def test_ties_go_to_the_lowest_label(self):
        corpus = separable_corpus()
        report = evaluate_classifier(stub_model([0.0, 1.0, 1.0, 1.0, 0.0]), corpus)
        assert [sum(row) for row in zip(*report.confusion)] == [0, 72, 0, 0, 0]

    def test_feature_count_mismatch_rejected(self):
        model = stub_model([0.0] * 5)
        narrow = trust_model.TrustClassifier(
            classes=model.classes, weights=model.weights[:, :7], biases=model.biases)
        with pytest.raises(SchemaMismatch):
            evaluate_classifier(narrow, separable_corpus())

    @pytest.mark.parametrize("weights, biases", [
        (np.zeros((5, N_FEATURES)), np.zeros(4)),
        (np.zeros((4, N_FEATURES)), np.zeros(5)),
        (np.zeros((4, N_FEATURES)), np.zeros(4)),
        (np.zeros(N_FEATURES), np.zeros(5)),
        (np.zeros((5, N_FEATURES)), np.zeros((5, 1))),
        (np.zeros((5, N_FEATURES, 1)), np.zeros(5)),
        (np.zeros((5, N_FEATURES)), 0.0),
    ], ids=["4-biases", "4-rows", "4-rows-and-biases", "1-d-weights", "2-d-biases",
            "3-d-weights", "scalar-bias"])
    def test_misshapen_arrays_rejected_at_construction(self, weights, biases):
        with pytest.raises(SchemaMismatch, match="do not fit 5 classes"):
            trust_model.TrustClassifier((1, 2, 3, 4, 5), weights, biases)

    @pytest.mark.parametrize("classes", [(4, 2), (0, 9), (2, 2), (1, 6), (1, True), (1, 2.0),
                                         (), 12])
    def test_classes_must_be_ascending_trust_levels_at_construction(self, classes):
        # (4, 2) would break a tie toward 4, and (0, 9) would predict 0
        n = len(classes) if isinstance(classes, tuple) else 2
        with pytest.raises(SchemaMismatch, match="classes"):
            trust_model.TrustClassifier(classes, np.zeros((n, N_FEATURES)), np.zeros(n))

    def test_numpy_classes_construct_as_python_ints(self):
        model = trust_model.TrustClassifier(np.array([2, 4]), np.zeros((2, N_FEATURES)),
                                            np.zeros(2))
        assert model.classes == (2, 4)
        assert all(type(label) is int for label in model.classes)

    def test_any_values_and_feature_count_construct(self):
        weights = np.full((2, 7), np.nan)
        weights[1] = np.inf
        model = trust_model.TrustClassifier((1, 5), weights, np.array([np.nan, -np.inf]))
        assert model.weights.shape == (2, 7)

    def test_stub_model_matches_hand_count(self):
        # a model that always answers 3 scores exactly the label-3 share
        corpus = separable_corpus()
        model = stub_model([0.0, 0.0, 1.0, 0.0, 0.0])
        report = evaluate_classifier(model, corpus)
        assert report.accuracy == 0.0
        assert report.majority_baseline == pytest.approx(0.5)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = train_classifier(separable_corpus())
        path = tmp_path / "model.json"
        save_classifier(model, path)
        loaded = load_classifier(path)
        assert loaded.classes == model.classes
        assert np.array_equal(loaded.weights, model.weights)
        probe = np.arange(N_FEATURES, dtype=float)
        assert np.array_equal(loaded.scores(probe), model.scores(probe))

    def test_byte_stable(self, tmp_path):
        model = train_classifier(separable_corpus())
        save_classifier(model, tmp_path / "a.json")
        save_classifier(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wrong_format_rejected(self):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        payload["format"] = "trust-model/v0"
        with pytest.raises(InvalidConfig):
            classifier_from_json_dict(payload)

    @pytest.mark.parametrize("old", ["trust-model/v1", "trust-model/v2"])
    def test_older_model_must_be_refit(self, old):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        assert payload["format"] == trust_model.MODEL_FORMAT == "trust-model/v3"
        payload["format"] = old
        with pytest.raises(InvalidConfig, match=f"{old}.*refit"):
            classifier_from_json_dict(payload)

    def test_file_holds_only_what_scoring_needs(self):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        assert payload.keys() == {"format", "schema_version", "feature_names",
                                  "classes", "weights", "biases"}
        assert payload["schema_version"] == trust_model.SCHEMA_VERSION

    def test_schema_drift_rejected(self):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        payload["schema_version"] = "turn-features/v0"
        with pytest.raises(SchemaMismatch):
            classifier_from_json_dict(payload)

    @pytest.mark.parametrize("case", ["overflowing-product", "duration-weight",
                                      "nan-weight", "inf-bias"])
    def test_overflowing_scores_rejected_at_load(self, case):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        if case == "overflowing-product":  # finite values, every score inf
            payload["weights"] = [[1e308 * (-1) ** j for j in range(N_FEATURES)]
                                  for _ in payload["weights"]]
        elif case == "duration-weight":  # finite, but 1e306 x 300 s is not
            payload["weights"][-1][FEATURE_NAMES.index("duration")] = 1e306
        elif case == "nan-weight":
            payload["weights"][0][-1] = math.nan
        else:
            payload["biases"][0] = -math.inf
        with pytest.raises(ValueOutOfRange, match="largest score"):
            classifier_from_json_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("weights", True), ("weights", "1.5"), ("biases", True), ("biases", "1.5"),
    ])
    def test_a_weight_or_bias_that_is_no_json_number_rejected(self, field, value):
        # np.array(..., dtype=float) would read true as 1.0 and "1.5" as 1.5
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        if field == "weights":
            payload["weights"][0][3] = value
        else:
            payload["biases"][-1] = value
        with pytest.raises(SchemaMismatch, match=f"model {field} must hold only numbers"):
            classifier_from_json_dict(payload)

    def test_large_scores_within_the_float_range_load(self):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        payload["weights"] = [[1e300] * N_FEATURES for _ in payload["weights"]]
        model = classifier_from_json_dict(payload)
        # every duration at the top of its range, every other feature at 12
        probe = np.where(["duration" in name for name in FEATURE_NAMES], 300.0, 12.0)
        assert np.isfinite(model.scores(probe)).all()

    def test_unknown_top_level_key_rejected(self):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        payload["weight"] = payload["weights"]
        with pytest.raises(SchemaMismatch, match="unknown \\['weight'\\]"):
            classifier_from_json_dict(payload)

    @pytest.mark.parametrize("names", [
        "swapped", "short", "renamed", "text", "null", "missing",
    ])
    def test_feature_names_must_be_the_schema(self, names):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        listed = list(FEATURE_NAMES)
        if names == "swapped":
            listed[0], listed[1] = listed[1], listed[0]
        elif names == "short":
            listed.pop()
        elif names == "renamed":
            listed[-1] = "lag2:trust_label"
        elif names == "text":
            listed = ",".join(listed)
        elif names == "null":
            listed = None
        payload["feature_names"] = listed
        if names == "missing":
            del payload["feature_names"]
        with pytest.raises(SchemaMismatch, match="feature_names"):
            classifier_from_json_dict(payload)

    @pytest.mark.parametrize("classes", [[5, 4, 3, 2, 1], [3, 3, 3, 3, 3], [1, 1],
                                         [2, 1], [0, 1], [1, True], [1.0, 2.0]])
    def test_classes_must_be_ascending_trust_levels(self, classes):
        # a reversed model would break the rule that ties go to the lower label
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        payload["classes"] = classes
        payload["weights"] = [[0.0] * N_FEATURES] * len(classes)
        payload["biases"] = [0.0] * len(classes)
        with pytest.raises(SchemaMismatch, match="classes"):
            classifier_from_json_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("weights", [[0.0]] * 2),
        ("biases", [0.0]),
        ("weights", [[0.0] * N_FEATURES] * 3),
        ("biases", [0.0] * 3),
        ("weights", [0.0] * 2),
        ("biases", [[0.0], [0.0]]),
    ])
    def test_misshapen_arrays_rejected_at_load(self, field, value):
        payload = classifier_to_json_dict(train_classifier(separable_corpus()))
        payload["classes"] = [1, 5]
        payload["weights"] = [[0.0] * N_FEATURES] * 2
        payload["biases"] = [0.0, 0.0]
        payload[field] = value
        with pytest.raises(SchemaMismatch):
            classifier_from_json_dict(payload)
