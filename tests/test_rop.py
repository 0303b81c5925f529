import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit import nn
from rorokit.autodiff import (
    AutodiffError,
    Tensor,
    grad_check,
    layer_norm,
    softmax_lastdim,
)
from rorokit.cli import main
from rorokit.layout import (
    BBox,
    Corpus,
    Document,
    Segment,
    Word,
    derive_word_level,
    save_corpus,
)
from rorokit.metrics import corpus_f1
from rorokit.nn import (
    AttentionBias,
    CheckpointError,
    EncoderConfig,
    MissingGradientError,
    ParameterStore,
    embed,
)
from rorokit.rop import (
    GlobalPointerHead,
    ROPConfig,
    ROPModel,
    decode,
    fit,
    gp_loss,
    pool_elements,
    predict_pseudo_labels,
    split_batch,
    target_relation,
    tokens_for_document,
    train,
)
from rorokit.relations import Relation, is_acyclic
from rorokit.rore import build_relation_matrix, init_lambda_params
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
    assert ROPConfig(**asdict(cfg)) == cfg


@pytest.mark.parametrize(
    "kwargs",
    [
        {"task_level": "page"},
        {"patience": 0},
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
    texts, boxes, spans = tokens_for_document(doc, "segment")
    assert texts == ["alpha", "beta", "gamma"]
    assert boxes == [doc.segments[0].box, doc.segments[0].box, doc.segments[1].box]
    assert spans == [(0, 2), (2, 3)]


def test_tokens_word_level():
    doc = two_segment_doc()
    texts, boxes, spans = tokens_for_document(doc, "word")
    assert boxes == [doc.segments[0].box, doc.segments[0].box, doc.segments[1].box]
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
    got = head.scores(Tensor(pooled)).data.reshape(4, 4)
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
    got = gp_loss(Tensor(np.zeros((2, 2))), Relation(2, ())).item()
    assert abs(got - math.log(5)) <= 1e-9


def test_loss_saturates_when_separated():
    scores = np.full((2, 2), -40.0)
    scores[0, 1] = 40.0
    got = gp_loss(Tensor(scores), Relation.from_pairs(2, [(0, 1)])).item()
    assert 0.0 <= got < 1e-12


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


@settings(max_examples=50, derandomize=True, database=None)
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
    both = r"shape \(2, 3\) do not match the labels' \(1, 2, 2\)"
    with pytest.raises(ValueError, match=both):
        gp_loss(Tensor(np.zeros((2, 3))), Relation(2, ()))
    with pytest.raises(ValueError):
        gp_loss(Tensor(np.zeros((2, 2))), Relation(3, ()))
    # Only the padded (B, n, n) array holds a pack; a lone matrix stands
    # for one document, and flattened scores are refused.
    with pytest.raises(ValueError, match=r"shape \(4,\) do not match"):
        gp_loss(Tensor(np.zeros(4)), Relation(2, ()))
    pack = r"shape \(2, 2\) do not match the labels' \(2, 2, 2\)"
    with pytest.raises(ValueError, match=pack):
        gp_loss(Tensor(np.zeros((2, 2))), [Relation(2, ()), Relation(1, ())])
    with pytest.raises(AutodiffError):
        gp_loss(Tensor(np.full((2, 2), np.nan)), Relation(2, ()))


# --- decoding ---


def test_decode_threshold_is_strict():
    scores = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert decode(scores).sorted_pairs() == [(0, 1)]
    assert decode(scores, threshold=0.5).sorted_pairs() == []


def test_decode_ignores_diagonal():
    scores = np.full((3, 3), 5.0)
    scores[np.tril_indices(3, -1)] = -5.0
    assert decode(scores).sorted_pairs() == [(0, 1), (0, 2), (1, 2)]


def test_decode_acyclic_repair_drops_weakest_edge():
    scores = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert decode(scores).sorted_pairs() == [(0, 1)]
    assert decode(scores.T).sorted_pairs() == [(1, 0)]


def test_decode_acyclic_repair_tie_breaks_lexicographically():
    # Tied pairs are taken in ascending (i, j), so the earlier one stays.
    assert decode(np.array([[0.0, 1.0], [1.0, 0.0]])).sorted_pairs() == [(0, 1)]
    # (1, 2) is weakest; of the tied (0, 1) and (2, 0), (0, 1) is taken first.
    scores = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 1.0], [3.0, 0.0, 0.0]])
    assert decode(scores).sorted_pairs() == [(0, 1), (2, 0)]


@settings(max_examples=40, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_decode_depends_only_on_margin_signs(seed, gain):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(5, 5))
    assert decode(scores) == decode(scores * gain)


def reaches(succ, source, target):
    """Whether ``target`` is reachable from ``source`` in ``succ``, by DFS."""
    seen, stack = set(), [source]
    while stack:
        node = stack.pop()
        if node == target:
            return True
        if node not in seen:
            seen.add(node)
            stack.extend(succ[node])
    return False


def decode_oracle(s, threshold=0.0):
    """decode as a reference greedy: the ``np.argwhere`` pairs sorted by
    descending score, then ascending pair, each kept unless a plain DFS over
    the pairs kept so far reaches its source from its target."""
    n = s.shape[0]
    mask = s > threshold
    np.fill_diagonal(mask, False)
    pairs = sorted(
        ((int(i), int(j)) for i, j in np.argwhere(mask)), key=lambda p: (-s[p], p)
    )
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        if not reaches(succ, j, i):
            succ[i].append(j)
    return Relation.from_pairs(n, [(i, j) for i in range(n) for j in succ[i]])


@pytest.mark.parametrize("seed", range(30))
def test_decode_matches_the_argwhere_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 13))
    threshold = float(rng.choice([0.0, 0.25, -0.5]))
    scores = rng.normal(-0.3, 1.0, size=(n, n))
    if seed % 2:
        scores = np.round(scores, 1)  # many tied pairs
    scores[rng.random((n, n)) < 0.2] = threshold
    np.fill_diagonal(scores, rng.choice([threshold, 5.0, -5.0]))
    got = decode(scores, threshold)
    assert got == decode_oracle(scores, threshold)
    assert all(type(i) is int for pair in got.pairs for i in pair)


def random_scores(seed):
    """A random (n, n) score matrix, n <= 8, with tied scores half the time."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 9))
    scores = rng.normal(size=(n, n))
    return np.round(scores, 1) if seed % 2 else scores


def above_threshold(scores):
    n = scores.shape[0]
    return {(i, j) for i in range(n) for j in range(n) if i != j and scores[i, j] > 0}


@settings(max_examples=200, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_decode_is_acyclic_and_maximal(seed):
    scores = random_scores(seed)
    n = scores.shape[0]
    rel = decode(scores)
    assert rel.pairs <= above_threshold(scores)
    assert is_acyclic(rel)[0]
    for pair in above_threshold(scores) - rel.pairs:
        assert not is_acyclic(Relation(n, rel.pairs | {pair}))[0], pair


@settings(max_examples=200, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_decode_returns_acyclic_input_unchanged(seed):
    scores = random_scores(seed)
    n = scores.shape[0]
    scores[np.tril_indices(n)] = -1.0  # only pairs with i < j score above 0
    assert decode(scores).pairs == above_threshold(scores)
    # The same holds under any renaming of the elements.
    p = np.random.default_rng(seed).permutation(n)
    permuted = np.empty_like(scores)
    permuted[p[:, None], p[None, :]] = scores
    assert decode(permuted).pairs == above_threshold(permuted)


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


def fit_one_parameter(scores=None, epochs=10, patience=1, max_tokens=8):
    """Fit w toward targets 1, 2, 3, one one-token example each; validate
    replays ``scores`` in order."""
    store = ParameterStore()
    w = store.add("w", np.zeros(1))
    after_epoch = []
    batch_sizes = []

    def validate():
        assert w.grad is None  # applied, so freed before validation
        after_epoch.append(w.data.copy())
        return scores[len(after_epoch) - 1]

    def batch_loss(batch):
        targets = [t for _, t in batch]
        batch_sizes.append(len(targets))
        return sum(((w - t) ** 2).sum() for t in targets) * (1.0 / len(targets))

    result = fit(
        store,
        [((["w"], [None], [(0, 1)]), t) for t in (1.0, 2.0, 3.0)],
        batch_loss,
        np.random.default_rng(0),
        learning_rate=0.1,
        epochs=epochs,
        batch_size=2,
        max_tokens=max_tokens,
        validate=validate if scores is not None else None,
        patience=patience,
    )
    return result, w.data.copy(), after_epoch, batch_sizes


def test_fit_restores_best_epoch_after_patience_runs_out():
    (losses, scores, best), w, after_epoch, _ = fit_one_parameter(
        [0.2, 0.5, 0.4, 0.3, 0.9, 0.9], patience=2
    )
    assert len(losses) == 4 and scores == [0.2, 0.5, 0.4, 0.3]
    assert best == 1
    assert np.array_equal(w, after_epoch[1])
    assert not np.array_equal(w, after_epoch[3])


def test_fit_stops_on_perfect_score():
    (losses, scores, best), _, _, _ = fit_one_parameter([1.0, 0.5], patience=5)
    assert len(losses) == 1 and scores == [1.0] and best == 0


def test_fit_without_validation_runs_every_epoch():
    (losses, scores, best), w, _, batch_sizes = fit_one_parameter(epochs=3)
    assert len(losses) == 3 and scores == [] and best == 2
    assert batch_sizes == [2, 1] * 3  # one loss call per batch
    assert losses[-1] < losses[0] and 0.0 < w[0] < 3.0


def test_fit_sub_batches_add_up_to_the_whole_batch():
    (whole, _, _), w_whole, _, _ = fit_one_parameter(epochs=3)
    # A budget of one token puts each example in a sub-batch of its own.
    (parts, _, _), w_parts, _, sizes = fit_one_parameter(epochs=3, max_tokens=1)
    assert sizes == [1, 1, 1] * 3  # one loss call per sub-batch
    np.testing.assert_allclose(parts, whole, rtol=1e-12)
    np.testing.assert_allclose(w_parts, w_whole, rtol=1e-12)


def test_split_batch_keeps_each_part_within_one_document():
    lengths = [8, 3, 3, 8, 2, 2, 1, 1, 1, 1, 5]
    batch = [((["w"] * n, [], []), None) for n in lengths]
    parts = split_batch(batch, 8)
    assert [e for part in parts for e in part] == batch
    for part in parts:
        sizes = [len(texts) for (texts, _, _), _ in part]
        assert sum(sizes) <= 8 and len(sizes) * max(sizes) ** 2 <= 8 * 8
    assert len(parts) == 5


def test_training_graphs_stay_within_one_document(monkeypatch):
    corpus = synth_generate(SynthConfig(n_docs=30), seed=3)
    budget = max(doc.n_words for doc in corpus.documents)
    seen = []
    original = ROPModel.scores

    def recording(self, inputs, bias=None):
        seen.append(sum(len(texts) for texts, _, _ in inputs))
        return original(self, inputs, bias)

    monkeypatch.setattr(ROPModel, "scores", recording)
    train(corpus, ROPConfig(epochs=1, val_fraction=0.0), EncoderConfig(max_tokens=budget))
    # 24 training documents in batches of 20 and 4, each batch cut into
    # graphs of at most one budget-sized document's tokens.
    assert max(seen) <= budget and len(seen) > 2


# --- persistence and pseudo-labels ---


def test_model_round_trips_through_checkpoint(tmp_path):
    corpus = chain_corpus(6)
    model, _ = small_train(corpus, epochs=3, patience=3)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = ROPModel.load(path)
    assert loaded.encoder_config == model.encoder_config
    assert loaded.config == model.config
    inputs = [tokens_for_document(corpus.documents[0])]
    assert np.array_equal(loaded.scores(inputs).data, model.scores(inputs).data)


# The rop keys that checkpoints written before their retirement carry.
RETIRED_ROP_KEYS = {"bbox_level": "segment", "include_diagonal_negatives": True}


def add_rop_keys(path, keys):
    """Rewrite the checkpoint at ``path`` with ``keys`` in its rop section."""
    checkpoint = json.loads(path.read_text())
    checkpoint["config"]["rop"].update(keys)
    path.write_text(json.dumps(checkpoint))


def test_checkpoint_with_the_retired_rop_keys_loads(tmp_path):
    corpus = chain_corpus(6)
    model, _ = small_train(corpus, epochs=3, patience=3)
    path = tmp_path / "model.json"
    model.save(path)
    add_rop_keys(path, RETIRED_ROP_KEYS)
    loaded = ROPModel.load(path)
    assert loaded.config == model.config
    inputs = [tokens_for_document(doc) for doc in corpus.documents]
    assert np.array_equal(loaded.scores(inputs).data, model.scores(inputs).data)
    assert loaded.predict(corpus.documents) == model.predict(corpus.documents)


@pytest.mark.parametrize(
    "field, value, shown",
    [("bbox_level", "word", '"word"'), ("include_diagonal_negatives", False, "false")],
)
def test_checkpoint_with_a_retired_rop_key_at_another_value_is_refused(
    tmp_path, capsys, field, value, shown
):
    path = tmp_path / "model.json"
    rng = np.random.default_rng(0)
    ROPModel.create(TINY_ENCODER, ROPConfig(head_dim=4), rng).save(path)
    add_rop_keys(path, {**RETIRED_ROP_KEYS, field: value})
    reason = (
        f"{path}: config section 'rop': retired field {field} must be "
        f"{json.dumps(RETIRED_ROP_KEYS[field])}, got {shown}"
    )
    with pytest.raises(CheckpointError) as refused:
        ROPModel.load(path)
    assert str(refused.value) == reason
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(chain_corpus(2), corpus)
    assert main(["eval", str(corpus), "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err


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


# --- packed batches against the per-document composite ---


PACK_ENCODER = EncoderConfig(layers=2, model_dim=8, heads=2, ffn_dim=16)


def reference_scores(model, texts, boxes, spans, rho=None, lambdas=None):
    """One document's (n, n) scores from primitive Tensor ops only, its
    attention biased by ``lambdas[layer] * rho`` when ``lambdas`` is given.

    This is the per-document composite the packed forward replaces:
    unfused projections, per-head reshapes and a dense pooling matmul.
    """
    cfg, p = model.encoder_config, model.store
    x = embed(cfg, p, list(zip(texts, boxes)), [len(texts)])
    n, d = x.shape
    dk = d // cfg.heads

    def heads(t):
        return t.reshape(n, cfg.heads, dk).transpose(1, 0, 2)

    for layer in range(cfg.layers):
        b = f"enc.l{layer}."
        h = layer_norm(x, p[b + "ln1.gain"], p[b + "ln1.bias"])
        q = h @ p[b + "attn.Wq"] + p[b + "attn.bq"]
        k = h @ p[b + "attn.Wk"]
        v = h @ p[b + "attn.Wv"] + p[b + "attn.bv"]
        logits = heads(q) @ heads(k).transpose(0, 2, 1)
        if lambdas is not None:
            logits = logits + lambdas[layer] * Tensor(rho)
        weights = softmax_lastdim(logits * (1.0 / np.sqrt(dk)))
        mixed = (weights @ heads(v)).transpose(1, 0, 2).reshape(n, d)
        x = x + mixed @ p[b + "attn.Wo"] + p[b + "attn.bo"]
        h = layer_norm(x, p[b + "ln2.gain"], p[b + "ln2.bias"])
        inner = (h @ p[b + "ffn.W1"] + p[b + "ffn.b1"]).relu()
        x = x + inner @ p[b + "ffn.W2"] + p[b + "ffn.b2"]
    pool = np.zeros((len(spans), n))
    for i, (start, end) in enumerate(spans):
        pool[i, start:end] = 1.0 / (end - start)
    pooled = Tensor(pool) @ x
    q = pooled @ p["gp.Wq"] + p["gp.bq"]
    k = pooled @ p["gp.Wk"] + p["gp.bk"]
    return q @ k.transpose()


def random_document(rng, n_tokens):
    """(texts, boxes, spans), a chain over the spans and a {0,1} token matrix."""
    texts = [f"w{int(t)}" for t in rng.integers(0, 50, size=n_tokens)]
    boxes = []
    for _ in range(n_tokens):
        x0, y0 = (int(c) for c in rng.integers(0, 900, size=2))
        boxes.append(BBox(x0, y0, x0 + 40, y0 + 20))
    cuts = rng.choice(np.arange(1, n_tokens), size=min(3, n_tokens - 1), replace=False)
    bounds = [0, *sorted(int(c) for c in cuts), n_tokens]
    spans = list(zip(bounds, bounds[1:]))
    labels = Relation.from_pairs(len(spans), [(i, i + 1) for i in range(len(spans) - 1)])
    rho = (rng.random((n_tokens, n_tokens)) < 0.3).astype(float)
    return (texts, boxes, spans), labels, rho


def packed_batch(max_tokens=2048, lengths=(2, 60, 5, 2, 60, 17)):
    encoder = replace(PACK_ENCODER, max_tokens=max_tokens)
    rng = np.random.default_rng(7)
    model = ROPModel.create(encoder, ROPConfig(head_dim=4), rng)
    docs = [random_document(rng, n) for n in lengths]
    return model, docs


def lambdas_for(model, kind):
    if kind in ("trainable", "bits"):
        return init_lambda_params(model.store, model.encoder_config.layers, init=0.7)
    return [Tensor(0.7) for _ in range(model.encoder_config.layers)]


def with_bias_blocks(docs, bias_kind):
    """The documents, their random float blocks swapped for the uint8
    ``RelationMatrix.bits`` of their labels when ``bias_kind`` is "bits"."""
    if bias_kind != "bits":
        return docs
    return [(i, rel, build_relation_matrix(rel, i[2]).bits) for i, rel, _ in docs]


def gradients(model, loss):
    model.store.zero_grads()
    loss.backward()
    return {name: t.grad.copy() for name, t in model.store.items()}


def assert_close(got, want, name):
    err = np.abs(got - want).max()
    assert err <= 1e-10 * np.abs(want).max(), (name, err)


def blocks_of(scores, inputs):
    """Each document's (n, n) matrix in packed (B, n, n) scores."""
    sizes = [len(spans) for _, _, spans in inputs]
    return [scores[b, :n, :n] for b, n in enumerate(sizes)]


def padded(blocks, fill=0.0):
    """(n_b, n_b) blocks as one (B, n, n) array, ``fill`` outside them."""
    n = max(len(block) for block in blocks)
    out = np.full((len(blocks), n, n), fill)
    for b, block in enumerate(blocks):
        out[b, : len(block), : len(block)] = block
    return out


@pytest.mark.parametrize("max_tokens", [2048, 64])
@pytest.mark.parametrize("bias_kind", [None, "trainable", "frozen", "bits"])
def test_packed_batch_matches_per_document_composite(max_tokens, bias_kind):
    # One forward packs all six documents whatever max_tokens is; under 64
    # they hold more tokens than the budget, which bounds each document only.
    model, docs = packed_batch(max_tokens)
    lambdas = lambdas_for(model, bias_kind) if bias_kind else None
    inputs, labels, rhos = zip(*with_bias_blocks(docs, bias_kind))

    def bias(blocks):
        return AttentionBias(blocks, lambdas) if lambdas is not None else None

    ref_scores = [reference_scores(model, *i, r, lambdas) for i, r in zip(inputs, rhos)]
    ref_loss = sum(gp_loss(s, rel) for s, rel in zip(ref_scores, labels)) * (
        1.0 / len(docs)
    )
    ref_grads = gradients(model, ref_loss)

    scores = model.scores(inputs, bias(rhos))
    loss = gp_loss(scores, labels)
    grads = gradients(model, loss)

    assert_close(loss.data, ref_loss.data, "loss")
    want = padded([s.data for s in ref_scores])
    assert scores.shape == want.shape
    assert_close(scores.data, want, "scores")
    assert grads.keys() == ref_grads.keys()
    if bias_kind in ("trainable", "bits"):
        assert any(name.startswith("rore.lambda.") for name in grads)
    for name, want_grad in ref_grads.items():
        assert_close(grads[name], want_grad, name)
    if bias_kind == "bits":
        # The ragged pack scores and differentiates its uint8 blocks
        # bit-identically to float64 copies of them.
        as_float = model.scores(inputs, bias([r.astype(float) for r in rhos]))
        assert np.array_equal(as_float.data, scores.data)
        float_grads = gradients(model, gp_loss(as_float, labels))
        assert all(np.array_equal(float_grads[n], g) for n, g in grads.items())


def test_every_stored_parameter_has_a_gradient():
    # A parameter the loss cannot move, such as a key bias the softmax
    # cancels, gets rounding noise for a gradient, and AdamW turns that noise
    # into learning-rate-sized steps.
    model, docs = packed_batch()
    # Encoder weights scaled up (std 0.02 -> 0.4) so that attention is far
    # from uniform: every live gradient is then above 1e-4.
    for name, t in model.store.items():
        if name.startswith("enc.l") and ".W" in name:
            t.data *= 20.0
    lambdas = lambdas_for(model, "trainable")
    inputs, labels, rhos = zip(*docs)
    scores = model.scores(inputs, AttentionBias(rhos, lambdas))
    grads = gradients(model, gp_loss(scores, labels))
    assert sum(name.startswith("rore.lambda.") for name in grads) == len(lambdas)
    largest = {name: float(np.abs(g).max()) for name, g in grads.items()}
    assert {name: g for name, g in largest.items() if g <= 1e-8} == {}


def test_scores_refuse_a_document_whose_tokens_do_not_line_up():
    # Misaligned documents whose totals agree: packed, c's first token would
    # take a's last box.
    model, docs = packed_batch(lengths=(3, 4))
    (texts_a, boxes_a, spans_a), (texts_c, boxes_c, spans_c) = (d[0] for d in docs)
    a = (texts_a, boxes_a + boxes_c[:1], spans_a)
    c = (texts_c, boxes_c[1:], spans_c)
    with pytest.raises(ValueError, match="document 0 has 3 texts, 4 boxes"):
        model.scores([a, c])
    with pytest.raises(ValueError, match="document 1 has 4 texts, 3 boxes"):
        model.scores([docs[0][0], c])
    with pytest.raises(ValueError, match="document 1 .* spans over 3 tokens"):
        model.scores([docs[1][0], (texts_c, boxes_c, spans_a)])
    assert model.scores([d[0] for d in docs]).shape == (2, 4, 4)


def test_single_document_scores_are_bit_identical_to_the_composite():
    model, docs = packed_batch()
    for inputs, _, _ in docs:
        got = model.scores([inputs]).data
        assert np.array_equal(got, reference_scores(model, *inputs).data[None])


def formula_loss(block, rel):
    """One document's gp_loss and score gradient, term by term from the
    docstring formula."""
    n = rel.element_count
    neg = [(i, j) for i in range(n) for j in range(n) if (i, j) not in rel.pairs]
    z_neg = 1.0 + sum(math.exp(block[c]) for c in neg)
    z_pos = 1.0 + sum(math.exp(-block[c]) for c in rel.pairs)
    grad = np.zeros((n, n))
    for c in neg:
        grad[c] = math.exp(block[c]) / z_neg
    for c in rel.pairs:
        grad[c] = -math.exp(-block[c]) / z_pos
    return math.log(z_neg) + math.log(z_pos), grad


RAGGED_LABELS = [
    Relation(1, ()),
    Relation.from_pairs(2, [(0, 1)]),
    Relation(4, ()),  # a relation with no pairs
    Relation.from_pairs(7, [(0, 1), (1, 2), (2, 6), (3, 4), (5, 0)]),
]


def test_ragged_pack_loss_matches_the_formula_per_document():
    rng = np.random.default_rng(11)
    blocks = [rng.normal(size=(r.element_count,) * 2) for r in RAGGED_LABELS]
    # The cells outside the documents' blocks take no part.
    scores = Tensor(padded(blocks, fill=50.0), requires_grad=True)
    loss = gp_loss(scores, RAGGED_LABELS)
    loss.backward()
    terms = [formula_loss(b, r) for b, r in zip(blocks, RAGGED_LABELS)]
    want = sum(value for value, _ in terms) / len(terms)
    assert abs(loss.item() - want) <= 1e-12 * abs(want)
    want_grad = padded([g for _, g in terms]) / len(terms)
    assert np.abs(scores.grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_ragged_pack_loss_rejects_one_non_finite_document():
    blocks = [np.zeros((r.element_count,) * 2) for r in RAGGED_LABELS]
    blocks[2][1, 1] = np.nan
    with pytest.raises(AutodiffError):
        gp_loss(Tensor(padded(blocks)), RAGGED_LABELS)


def pack_of(token_counts, element_counts, seed=0, dim=5):
    """Random token states of documents packed row-wise, and each document's
    own random span tiling."""
    rng = np.random.default_rng(seed)
    spans = []
    for t, e in zip(token_counts, element_counts):
        cuts = sorted(rng.choice(np.arange(1, t), size=e - 1, replace=False).tolist())
        bounds = [0, *cuts, t]
        spans.append(list(zip(bounds, bounds[1:])))
    return rng.normal(size=(sum(token_counts), dim)), spans


@pytest.mark.parametrize(
    "token_counts, element_counts",
    [((6, 6, 6), (3, 3, 3)), ((1, 6, 3, 9), (1, 4, 3, 5))],
    ids=["equal", "ragged"],
)
def test_batched_pooling_and_scores_match_per_document_composite(
    token_counts, element_counts
):
    states, spans = pack_of(token_counts, element_counts)
    store = ParameterStore()
    head = GlobalPointerHead.create(5, 4, store, seed=3)
    # Weights on the padded cells too: their gradient reaches no document.
    n = max(element_counts)
    weights = np.random.default_rng(4).normal(size=(len(element_counts), n, n))

    want_pooled, want_scores, want_states_grad = [], [], []
    rows = np.cumsum([0, *token_counts])
    for b, doc in enumerate(spans):
        # The dense pooling matmul and unfused projections of reference_scores.
        x = Tensor(states[rows[b] : rows[b + 1]], requires_grad=True)
        pool = np.zeros((len(doc), token_counts[b]))
        for i, (start, end) in enumerate(doc):
            pool[i, start:end] = 1.0 / (end - start)
        pooled = Tensor(pool) @ x
        q = pooled @ store["gp.Wq"] + store["gp.bq"]
        k = pooled @ store["gp.Wk"] + store["gp.bk"]
        out = q @ k.transpose()
        m = element_counts[b]
        (out * Tensor(weights[b, :m, :m])).sum().backward()
        want_pooled.append(pooled.data)
        want_scores.append(out.data)
        want_states_grad.append(x.grad)
    want_head = {name: t.grad.copy() for name, t in store.items()}

    store.zero_grads()
    x = Tensor(states, requires_grad=True)
    shifted = [(s + rows[b], e + rows[b]) for b, doc in enumerate(spans) for s, e in doc]
    pooled = pool_elements(x, shifted, element_counts)
    out = head.scores(pooled, element_counts)
    (out * Tensor(weights)).sum().backward()
    pairs = [
        (pooled.data, np.concatenate(want_pooled)),
        (out.data, padded(want_scores)),
        (x.grad, np.concatenate(want_states_grad)),
        *((store[name].grad, g) for name, g in want_head.items()),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def count_nodes(out):
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_graph_size_does_not_grow_with_batch_size():
    model, docs = packed_batch(lengths=[3, 9, 4, 12, 7] * 4)
    inputs, labels, _ = zip(*docs)

    def batch_nodes(k):
        scores = model.scores(inputs[:k])
        return count_nodes(gp_loss(scores, labels[:k]))

    assert batch_nodes(20) == batch_nodes(1)


def test_packed_attention_stays_within_one_document_budget(monkeypatch):
    # Six documents of up to 8 tokens under max_tokens=8: the callers that
    # cut a batch keep every padded attention array within one 8-token
    # document's cells, for training sub-batches and list prediction alike.
    model, docs = packed_batch(max_tokens=8, lengths=(8, 3, 3, 8, 2, 2))
    cells = []
    original = nn.softmax_lastdim

    def recording(x):
        cells.append(x.data.size)
        return original(x)

    monkeypatch.setattr(nn, "softmax_lastdim", recording)
    heads = model.encoder_config.heads
    parts = split_batch(list(docs), 8)
    scores = []
    for part in parts:
        inputs = [i for i, _, _ in part]
        scores += blocks_of(model.scores(inputs).data, inputs)
    assert len(parts) > 1 and max(cells) <= heads * 8 * 8
    want = [model.scores([i]).data[0] for i, _, _ in docs]
    assert_close(padded(scores), padded(want), "scores")

    cells.clear()
    pages = [page_from(f"p{i}", inputs) for i, (inputs, _, _) in enumerate(docs)]
    predicted = model.predict(pages)
    assert len(cells) > model.encoder_config.layers  # the list was cut
    assert max(cells) <= heads * 8 * 8
    assert predicted == [model.predict(page) for page in pages]


# --- packed inference against per-document inference ---


MIXED_LENGTHS = (2, 60, 5, 2, 60, 17, 33, 9, 3, 41)


def page_from(doc_id, inputs):
    """A document whose segments are the spans of ``random_document`` inputs."""
    texts, boxes, spans = inputs
    segments = []
    for k, (start, end) in enumerate(spans):
        words = tuple(Word(texts[t], boxes[t]) for t in range(start, end))
        box = BBox(
            min(w.box.x0 for w in words), min(w.box.y0 for w in words),
            max(w.box.x1 for w in words), max(w.box.y1 for w in words),
        )
        segments.append(Segment(k, words, box))
    return Document(doc_id, 1000, 1000, tuple(segments))


def mixed_pages(batch_size, max_tokens):
    model, docs = packed_batch(max_tokens, MIXED_LENGTHS)
    model = replace(model, config=replace(model.config, batch_size=batch_size))
    pages = [page_from(f"p{i}", inputs) for i, (inputs, _, _) in enumerate(docs)]
    return model, pages


def document_scores(model, page):
    """One page's (n, n) scores from a forward over it alone."""
    inputs = tokens_for_document(page, model.config.task_level)
    n = len(inputs[2])
    return model.scores([inputs]).data.reshape(n, n)


def record_groups(monkeypatch):
    """Token counts of every document list ``ROPModel.scores`` is called on."""
    groups = []
    original = ROPModel.scores

    def recording(self, inputs, bias=None):
        groups.append([spans[-1][1] for _, _, spans in inputs])
        return original(self, inputs, bias)

    monkeypatch.setattr(ROPModel, "scores", recording)
    return groups


# (3, 64): runs of 3 documents, cut again wherever a 60-token document would
# pad another beyond one 64-token document's attention cells.
@pytest.mark.parametrize("batch_size, max_tokens, n_groups", [(20, 2048, 1), (3, 64, 8)])
def test_packed_predict_matches_per_document_predict(
    monkeypatch, batch_size, max_tokens, n_groups
):
    model, pages = mixed_pages(batch_size, max_tokens)
    threshold = model.config.threshold
    single = [decode(document_scores(model, page), threshold) for page in pages]
    assert all(is_acyclic(rel)[0] for rel in single)
    assert [model.predict(page) for page in pages] == single
    groups = record_groups(monkeypatch)
    assert model.predict(pages) == single
    assert len(groups) == n_groups
    assert sum(len(g) for g in groups) == len(pages)
    assert all(len(g) <= batch_size and sum(g) <= max_tokens for g in groups)
    assert model.predict([]) == []


def test_packed_and_per_document_predictions_differ_only_at_the_threshold():
    model, pages = mixed_pages(20, 2048)
    # Head weights scaled up so scores reach trained magnitudes.
    for name in ("gp.Wq", "gp.Wk"):
        model.store[name].data *= 30.0
    single = [document_scores(model, page) for page in pages]
    inputs = [tokens_for_document(page) for page in pages]
    packed = blocks_of(model.scores(inputs).data, inputs)
    scale = max(np.abs(s).max() for s in single)
    assert scale > 1.0
    gap = max(np.abs(p - s).max() for p, s in zip(packed, single))
    assert gap <= 1e-14 * scale
    assert model.predict(pages) == [model.predict(page) for page in pages]
    # A threshold on a score that packing moved flips that pair, and only it,
    # unless the repair drops the pair, which is then taken last, for
    # closing a cycle.
    moved = [
        (b, int(i), int(j))
        for b, (p, s) in enumerate(zip(packed, single))
        for i, j in np.argwhere(p != s)
        if i != j
    ]
    flips = []
    for b, i, j in moved[:5]:
        threshold = min(packed[b][i, j], single[b][i, j])
        at = replace(model, config=replace(model.config, threshold=threshold))
        rel = at.predict(pages)[b]
        flipped = rel.pairs ^ at.predict(pages[b]).pairs
        closes_cycle = not is_acyclic(Relation(rel.element_count, rel.pairs | {(i, j)}))[0]
        assert flipped == (set() if closes_cycle else {(i, j)})
        flips.append(flipped)
    assert any(flips)


@pytest.mark.parametrize("bias_kind", [None, "trainable", "frozen", "bits"])
def test_grouped_link_prediction_matches_per_document(monkeypatch, bias_kind):
    model, docs = packed_batch(64, MIXED_LENGTHS)
    docs = with_bias_blocks(docs, bias_kind)
    model = replace(model, config=replace(model.config, batch_size=3))
    lambdas = lambdas_for(model, bias_kind) if bias_kind else None

    def bias(group):
        rhos = [rho for _, _, rho in group]
        return AttentionBias(rhos, lambdas) if lambdas is not None else None

    want = []
    for doc in docs:
        inputs = doc[0]
        scores = model.scores([inputs], bias([doc])).data
        want.append(decode(scores.reshape(len(inputs[2]), -1)))
    original = ROPModel.scores
    groups = record_groups(monkeypatch)
    calls = []
    recording = ROPModel.scores

    def keep_bias(self, inputs, bias=None):
        calls.append((inputs, bias))
        return recording(self, inputs, bias)

    # A random model's scores move by about 1e-6 under this bias, too little
    # to change a decoded pair, so each forward's bias is checked directly.
    monkeypatch.setattr(ROPModel, "scores", keep_bias)
    assert model.decode_inputs(docs, bias) == want
    if lambdas is None:
        assert [b for _, b in calls] == [None] * len(groups)
    else:
        start = 0
        for inputs, b in calls:
            blocks = [d[2] for d in docs[start : start + len(inputs)]]
            start += len(inputs)
            assert np.array_equal(b.padded[:, 0], padded(blocks))
            if bias_kind == "bits":
                # The ragged group scores its uint8 blocks bit-identically
                # to float64 copies of them.
                as_float = AttentionBias([r.astype(float) for r in blocks], lambdas)
                got = original(model, inputs, as_float).data
                assert np.array_equal(got, original(model, inputs, b).data)
        assert start == len(docs)
    assert sum(len(g) for g in groups) == len(docs)
    assert all(len(g) <= 3 and sum(g) <= 64 for g in groups)
    assert len(groups) == 8  # as in the (3, 64) predict case above
