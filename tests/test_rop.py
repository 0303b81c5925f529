import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.autodiff import AutodiffError, Tensor, grad_check
from rorokit.layout import BBox, Corpus, Document, Segment, Word, derive_word_level
from rorokit.metrics import corpus_f1
from rorokit.nn import EncoderConfig, MissingGradientError, ParameterStore
from rorokit.rop import (
    GlobalPointerHead,
    ROPConfig,
    ROPModel,
    decode,
    fit,
    gp_loss,
    pool_elements,
    predict_pseudo_labels,
    target_relation,
    tokens_for_document,
    train,
)
from rorokit.relations import Relation
from rorokit.synth import SynthConfig, synth_generate

TINY_ENCODER = EncoderConfig(layers=1, model_dim=8, heads=2, ffn_dim=16)


def two_segment_doc():
    a = Segment(
        0,
        (Word("alpha", BBox(0, 0, 40, 20)), Word("beta", BBox(50, 0, 90, 20))),
        BBox(0, 0, 100, 25),
    )
    b = Segment(1, (Word("gamma", BBox(0, 50, 40, 70)),), BBox(0, 50, 100, 75))
    return Document(
        "doc", 1000, 1000, (a, b), isdr=Relation.from_pairs(2, [(0, 1)])
    )


# --- config ---


def test_config_defaults_and_budgets():
    cfg = ROPConfig()
    assert cfg.effective_max_elements == 256
    assert ROPConfig(task_level="word").effective_max_elements == 512
    assert ROPConfig(max_elements=7).effective_max_elements == 7


def test_config_round_trip():
    cfg = ROPConfig(task_level="word", threshold=0.5, seed=9)
    assert ROPConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "kwargs",
    [
        {"task_level": "page"},
        {"bbox_level": "line"},
        {"max_elements": -1},
        {"epochs": 0},
        {"batch_size": 0},
        {"val_fraction": 1.0},
        {"head_dim": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ROPConfig(**kwargs)


# --- document flattening ---


def test_tokens_segment_level():
    doc = two_segment_doc()
    texts, boxes, spans = tokens_for_document(doc, "segment", "segment")
    assert texts == ["alpha", "beta", "gamma"]
    assert boxes == [doc.segments[0].box, doc.segments[0].box, doc.segments[1].box]
    assert spans == [(0, 2), (2, 3)]


def test_tokens_word_level():
    doc = two_segment_doc()
    texts, boxes, spans = tokens_for_document(doc, "word", "word")
    assert boxes == [w.box for w in doc.all_words()]
    assert spans == [(0, 1), (1, 2), (2, 3)]


def test_target_relation_levels():
    doc = two_segment_doc()
    assert target_relation(doc, "segment") == doc.isdr
    assert target_relation(doc, "word") == derive_word_level(doc)
    bare = Document("bare", 10, 10, (doc.segments[0],))
    with pytest.raises(ValueError):
        target_relation(bare, "segment")


# --- pooling ---


def test_pool_means_each_span():
    states = Tensor(np.array([[1.0], [3.0]]))
    pooled = pool_elements(states, [(0, 2)])
    assert pooled.data.tolist() == [[2.0]]


def test_pool_identity_spans():
    states = Tensor(np.arange(6.0).reshape(3, 2))
    pooled = pool_elements(states, [(0, 1), (1, 2), (2, 3)])
    assert np.array_equal(pooled.data, states.data)


@pytest.mark.parametrize(
    "spans",
    [
        [(0, 2)],  # leaves a token uncovered
        [(0, 0), (0, 3)],  # empty span
        [(0, 2), (1, 3)],  # overlap
        [(1, 3)],  # gap at the start
    ],
)
def test_pool_rejects_broken_tilings(spans):
    states = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        pool_elements(states, spans)


def test_pool_gradient_spreads_mean():
    states = Tensor(np.zeros((2, 1)), requires_grad=True)
    pool_elements(states, [(0, 2)]).sum().backward()
    assert states.grad.tolist() == [[0.5], [0.5]]


# --- pair scores ---


def test_head_parameter_names():
    store = ParameterStore()
    GlobalPointerHead.create(8, 4, store, seed=0)
    assert store.names() == ["gp.Wk", "gp.Wq", "gp.bk", "gp.bq"]


def test_scores_match_two_loop_oracle():
    rng = np.random.default_rng(1)
    store = ParameterStore()
    head = GlobalPointerHead.create(6, 3, store, seed=1)
    pooled = rng.normal(size=(4, 6))
    got = head.scores(Tensor(pooled)).data
    wq, bq = store["gp.Wq"].data, store["gp.bq"].data
    wk, bk = store["gp.Wk"].data, store["gp.bk"].data
    for i in range(4):
        for j in range(4):
            want = float((pooled[i] @ wq + bq) @ (pooled[j] @ wk + bk))
            assert abs(got[i, j] - want) <= 1e-12


# --- loss ---


def test_loss_all_zero_scores_single_pair():
    scores = Tensor(np.zeros((2, 2)))
    labels = Relation.from_pairs(2, [(0, 1)])
    got = gp_loss(scores, labels).item()
    assert abs(got - (math.log(4) + math.log(2))) <= 1e-9


def test_loss_all_zero_scores_no_pairs():
    got = gp_loss(Tensor(np.zeros((2, 2))), Relation.empty(2)).item()
    assert abs(got - math.log(5)) <= 1e-9


def test_loss_saturates_when_separated():
    scores = np.full((2, 2), -40.0)
    scores[0, 1] = 40.0
    got = gp_loss(Tensor(scores), Relation.from_pairs(2, [(0, 1)])).item()
    assert 0.0 <= got < 1e-12


def test_loss_diagonal_exclusion():
    labels = Relation.from_pairs(2, [(0, 1)])
    got = gp_loss(
        Tensor(np.zeros((2, 2))), labels, include_diagonal_negatives=False
    ).item()
    # Only (1, 0) remains negative: log(1+1) + log(1+1).
    assert abs(got - 2 * math.log(2)) <= 1e-9


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    scores = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    labels = Relation.from_pairs(4, [(0, 1), (1, 2), (1, 3)])
    worst = grad_check(
        lambda: gp_loss(scores, labels), {"scores": scores}, samples_per_param=8
    )
    assert worst <= 1e-6


def test_loss_monotone_in_scores():
    labels = Relation.from_pairs(3, [(0, 1)])
    base = np.zeros((3, 3))
    ref = gp_loss(Tensor(base), labels).item()
    up_neg = base.copy()
    up_neg[2, 0] = 1.0
    assert gp_loss(Tensor(up_neg), labels).item() > ref
    up_pos = base.copy()
    up_pos[0, 1] = 1.0
    assert gp_loss(Tensor(up_pos), labels).item() < ref


@settings(max_examples=50)
@given(st.permutations(list(range(4))), st.integers(0, 2**32 - 1))
def test_loss_is_permutation_equivariant(perm, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(4, 4))
    labels = Relation.from_pairs(4, [(0, 1), (2, 3), (0, 3)])
    relabeled = Relation.from_pairs(4, [(perm[a], perm[b]) for a, b in labels.pairs])
    p = np.asarray(perm)
    permuted = np.empty_like(scores)
    permuted[p[:, None], p[None, :]] = scores
    a = gp_loss(Tensor(scores), labels).item()
    b = gp_loss(Tensor(permuted), relabeled).item()
    assert abs(a - b) <= 1e-9


def test_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gp_loss(Tensor(np.zeros((2, 3))), Relation.empty(2))
    with pytest.raises(ValueError):
        gp_loss(Tensor(np.zeros((2, 2))), Relation.empty(3))
    with pytest.raises(AutodiffError):
        gp_loss(Tensor(np.full((2, 2), np.nan)), Relation.empty(2))


# --- decoding ---


def test_decode_threshold_is_strict():
    scores = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert decode(scores).sorted_pairs() == [(0, 1)]
    assert decode(scores, threshold=0.5).sorted_pairs() == []


def test_decode_ignores_diagonal():
    assert decode(np.full((3, 3), 5.0)).sorted_pairs() == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_decode_acyclic_repair_drops_weakest_edge():
    scores = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert decode(scores).sorted_pairs() == [(0, 1), (1, 0)]
    assert decode(scores, enforce_acyclic=True).sorted_pairs() == [(0, 1)]


def test_decode_acyclic_repair_tie_breaks_lexicographically():
    scores = np.array([[0.0, 1.0], [1.0, 0.0]])
    repaired = decode(scores, enforce_acyclic=True)
    assert repaired.sorted_pairs() == [(1, 0)]


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_decode_depends_only_on_margin_signs(seed, gain):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(5, 5))
    assert decode(scores) == decode(scores * gain)


# --- end-to-end gradient ---


def test_full_model_gradient_check():
    doc = two_segment_doc()
    cfg = ROPConfig(head_dim=4)
    store = ParameterStore()
    rng = np.random.default_rng(0)
    from rorokit.nn import init_encoder_params

    init_encoder_params(TINY_ENCODER, rng, store, coord_init="normal")
    head = GlobalPointerHead.create(TINY_ENCODER.model_dim, cfg.head_dim, store, rng)
    texts, boxes, spans = tokens_for_document(doc)
    labels = target_relation(doc)

    def loss():
        from rorokit.nn import encoder_forward

        states = encoder_forward(TINY_ENCODER, store, texts, boxes)
        return gp_loss(head.scores(pool_elements(states, spans)), labels)

    worst = grad_check(loss, store.as_dict(), samples_per_param=2)
    assert worst <= 1e-4


# --- training ---


def chain_corpus(n_docs, seed=0):
    cfg = SynthConfig(n_docs=n_docs, mix={"chain": 1.0}, train_fraction=1.0)
    return synth_generate(cfg, seed=seed)


def small_train(corpus, **overrides):
    defaults = dict(epochs=60, batch_size=10, val_fraction=0.1, seed=0)
    defaults.update(overrides)
    cfg = ROPConfig(**defaults)
    enc = EncoderConfig(layers=1, model_dim=32, heads=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train(corpus, cfg, enc)


def test_training_overfits_small_chain_corpus():
    corpus = chain_corpus(20)
    model, report = small_train(corpus)
    assert report.best_val_f1 == 1.0
    pairs = [(d.isdr, model.predict(d)) for d in corpus.documents]
    assert corpus_f1(pairs).f1 == 1.0


def test_training_loss_decreases():
    corpus = chain_corpus(8)
    _, report = small_train(corpus, epochs=15, patience=15)
    assert report.train_losses[-1] < report.train_losses[0]


def test_training_is_deterministic():
    corpus = chain_corpus(8)
    model1, report1 = small_train(corpus, epochs=5, patience=5)
    model2, report2 = small_train(corpus, epochs=5, patience=5)
    assert report1.train_losses == report2.train_losses
    for name, tensor in model1.store.items():
        assert np.array_equal(tensor.data, model2.store[name].data)


def test_training_skips_oversized_documents():
    corpus = chain_corpus(8)
    max_n = max(d.n_segments for d in corpus.documents)
    assert min(d.n_segments for d in corpus.documents) < max_n
    cfg = ROPConfig(
        epochs=1, batch_size=4, val_fraction=0.0, max_elements=max_n - 1
    )
    enc = EncoderConfig(layers=0, model_dim=8, heads=2)
    with pytest.warns(UserWarning, match="skipping document"):
        _, report = train(corpus, cfg, enc)
    assert report.skipped and all("exceed" in s["reason"] for s in report.skipped)
    assert report.train_docs == len(corpus.documents) - len(report.skipped)


def test_training_requires_documents():
    corpus = chain_corpus(2)
    cfg = ROPConfig(epochs=1, max_elements=1)  # nothing fits
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            train(corpus, cfg, EncoderConfig(layers=0, model_dim=8, heads=2))


def test_early_stopping_respects_patience():
    corpus = chain_corpus(12)
    _, report = small_train(corpus, epochs=60, patience=2, learning_rate=0.0)
    # With a frozen model validation F1 never improves after the first epoch.
    assert report.epochs_run <= 3


def fit_one_parameter(scores=None, epochs=10, patience=1):
    """Fit w toward targets 1, 2, 3; validate replays ``scores`` in order."""
    store = ParameterStore()
    w = store.add("w", np.zeros(1))
    after_epoch = []

    def validate():
        after_epoch.append(w.data.copy())
        return scores[len(after_epoch) - 1]

    result = fit(
        store,
        [1.0, 2.0, 3.0],
        lambda target: ((w - target) ** 2).sum(),
        np.random.default_rng(0),
        learning_rate=0.1,
        epochs=epochs,
        batch_size=2,
        validate=validate if scores is not None else None,
        patience=patience,
    )
    return result, w.data.copy(), after_epoch


def test_fit_restores_best_epoch_after_patience_runs_out():
    (losses, scores, best), w, after_epoch = fit_one_parameter(
        [0.2, 0.5, 0.4, 0.3, 0.9, 0.9], patience=2
    )
    assert len(losses) == 4 and scores == [0.2, 0.5, 0.4, 0.3]
    assert best == 1
    assert np.array_equal(w, after_epoch[1])
    assert not np.array_equal(w, after_epoch[3])


def test_fit_stops_on_perfect_score():
    (losses, scores, best), _, _ = fit_one_parameter([1.0, 0.5], patience=5)
    assert len(losses) == 1 and scores == [1.0] and best == 0


def test_fit_without_validation_runs_every_epoch():
    (losses, scores, best), w, _ = fit_one_parameter(epochs=3)
    assert len(losses) == 3 and scores == [] and best == 2
    assert losses[-1] < losses[0] and 0.0 < w[0] < 3.0


# --- persistence and pseudo-labels ---


def test_model_round_trips_through_checkpoint(tmp_path):
    corpus = chain_corpus(6)
    model, _ = small_train(corpus, epochs=3, patience=3)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = ROPModel.load(path)
    assert loaded.encoder_config == model.encoder_config
    assert loaded.config == model.config
    doc = corpus.documents[0]
    assert np.array_equal(loaded.score_document(doc), model.score_document(doc))


def test_pseudo_labels_match_gold_after_overfitting():
    corpus = chain_corpus(20)
    model, report = small_train(corpus)
    assert report.best_val_f1 == 1.0
    relabeled, sidecar = predict_pseudo_labels(model, corpus)
    for original, predicted in zip(corpus.documents, relabeled.documents):
        assert predicted.isdr == original.isdr
        entry = sidecar[original.id]
        assert entry["acyclic"] is True
        assert entry["num_pairs"] == len(original.isdr)
