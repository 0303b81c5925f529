from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.layout import BBox, Corpus
from rorokit.nn import (
    AttentionBias,
    EncoderConfig,
    ParameterError,
    ParameterStore,
    encoder_forward,
    init_encoder_params,
)
from rorokit import rore
from rorokit.relations import CycleError, Relation, transitive_closure
from rorokit.rop import GlobalPointerHead, ROPConfig, ROPModel, pool_elements
from rorokit.rore import (
    DemoConfig,
    RelationMatrix,
    build_relation_matrix,
    check_span_tiling,
    enhanced_encode,
    init_lambda_params,
    lambda_params,
    rore_demo_entity_linking,
)
from rorokit.synth import synth_forms

SMALL_ENCODER = EncoderConfig(layers=1, model_dim=8, heads=2, ffn_dim=16)


def spans_for(sizes):
    spans, cursor = [], 0
    for size in sizes:
        spans.append((cursor, cursor + size))
        cursor += size
    return spans


# --- matrix construction ---


def ones(matrix):
    """The set bits of a relation matrix as sorted [row, column] lists."""
    return np.argwhere(matrix.bits).tolist()


def test_matrix_from_two_token_element():
    rel = Relation.from_pairs(2, [(0, 1)])
    matrix = build_relation_matrix(rel, spans_for([2, 1]), "isdr")
    assert ones(matrix) == [[0, 2], [1, 2]]
    assert matrix.bits.sum() == 2
    assert matrix.bits.size == 9


def test_matrix_gsdr_adds_closure_bits():
    chain = Relation.from_pairs(3, [(0, 1), (1, 2)])
    spans = spans_for([1, 1, 1])
    isdr = build_relation_matrix(chain, spans, "isdr")
    gsdr = build_relation_matrix(chain, spans, "gsdr")
    assert ones(isdr) == [[0, 1], [1, 2]]
    assert ones(gsdr) == [[0, 1], [0, 2], [1, 2]]
    assert gsdr.kind == "gsdr"


def test_matrix_empty_relation_is_all_zero():
    matrix = build_relation_matrix(Relation(2, ()), spans_for([2, 2]), "isdr")
    assert matrix.bits.sum() == 0


def test_matrix_rejects_cycles_and_mismatches():
    cyclic = Relation.from_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        build_relation_matrix(cyclic, spans_for([1, 1]), "gsdr")
    with pytest.raises(ValueError):
        build_relation_matrix(Relation(3, ()), spans_for([1, 1]), "isdr")
    with pytest.raises(ValueError):
        build_relation_matrix(Relation(2, ()), [(0, 1), (2, 3)], "isdr")
    with pytest.raises(ValueError):
        build_relation_matrix(Relation(1, ()), spans_for([1]), "full")


def test_matrix_validation():
    with pytest.raises(ValueError):
        RelationMatrix(2, np.zeros((2, 3)), "isdr")
    with pytest.raises(ValueError):
        RelationMatrix(2, np.full((2, 2), 2.0), "isdr")
    with pytest.raises(ValueError):
        RelationMatrix(2, np.eye(2), "isdr")


def test_check_span_tiling():
    assert check_span_tiling(spans_for([2, 3])) == 5
    with pytest.raises(ValueError):
        check_span_tiling([(0, 2), (3, 4)])


@st.composite
def acyclic_relation_and_spans(draw):
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(list(range(n))))
    pairs = set()
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a == b:
            continue
        # Orient along the hidden order so the relation stays acyclic.
        if order.index(a) < order.index(b):
            pairs.add((a, b))
        else:
            pairs.add((b, a))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    return Relation.from_pairs(n, pairs), spans_for(sizes)


@settings(max_examples=60, derandomize=True, database=None)
@given(acyclic_relation_and_spans())
def test_gsdr_bits_contain_isdr_bits(case):
    rel, spans = case
    isdr = build_relation_matrix(rel, spans, "isdr")
    gsdr = build_relation_matrix(rel, spans, "gsdr")
    assert np.all(gsdr.bits >= isdr.bits)
    assert not np.diagonal(isdr.bits).any()
    assert not np.diagonal(gsdr.bits).any()
    sizes = [end - start for start, end in spans]
    expected = sum(sizes[i] * sizes[j] for i, j in rel.pairs)
    assert isdr.bits.sum() == expected


# --- enhanced encoding ---


def tiny_inputs(n_tokens=3):
    texts = [f"tok{i}" for i in range(n_tokens)]
    boxes = [BBox(10 * i, 0, 10 * i + 8, 10) for i in range(n_tokens)]
    return texts, boxes


def test_zero_matrix_matches_vanilla_encoding():
    texts, boxes = tiny_inputs()
    store = init_encoder_params(SMALL_ENCODER, seed=0)
    init_lambda_params(store, SMALL_ENCODER.layers)
    matrix = RelationMatrix(3, np.zeros((3, 3), dtype=np.uint8), "isdr")
    enhanced = enhanced_encode(texts, boxes, matrix, SMALL_ENCODER, store)
    vanilla = encoder_forward(SMALL_ENCODER, store, texts, boxes)
    assert np.array_equal(enhanced.data, vanilla.data)


def test_zero_lambda_matches_vanilla_encoding():
    texts, boxes = tiny_inputs()
    store = init_encoder_params(SMALL_ENCODER, seed=0)
    init_lambda_params(store, SMALL_ENCODER.layers, init=0.0)
    rel = Relation.from_pairs(3, [(0, 1), (1, 2)])
    matrix = build_relation_matrix(rel, spans_for([1, 1, 1]), "isdr")
    enhanced = enhanced_encode(texts, boxes, matrix, SMALL_ENCODER, store)
    vanilla = encoder_forward(SMALL_ENCODER, store, texts, boxes)
    assert np.allclose(enhanced.data, vanilla.data, atol=1e-12, rtol=0.0)


def test_enhanced_encode_requires_lambda_params():
    texts, boxes = tiny_inputs()
    store = init_encoder_params(SMALL_ENCODER, seed=0)
    matrix = RelationMatrix(3, np.zeros((3, 3), dtype=np.uint8), "isdr")
    with pytest.raises(ParameterError, match="rore.lambda.0"):
        enhanced_encode(texts, boxes, matrix, SMALL_ENCODER, store)


def test_enhanced_encode_rejects_size_mismatch():
    texts, boxes = tiny_inputs()
    store = init_encoder_params(SMALL_ENCODER, seed=0)
    init_lambda_params(store, SMALL_ENCODER.layers)
    matrix = RelationMatrix(4, np.zeros((4, 4), dtype=np.uint8), "isdr")
    with pytest.raises(ValueError):
        enhanced_encode(texts, boxes, matrix, SMALL_ENCODER, store)


def test_lambda_gradient_flows_through_bias():
    texts, boxes = tiny_inputs()
    store = init_encoder_params(SMALL_ENCODER, seed=0)
    (lam,) = init_lambda_params(store, SMALL_ENCODER.layers, init=0.5)
    rel = Relation.from_pairs(3, [(0, 2)])
    matrix = build_relation_matrix(rel, spans_for([1, 1, 1]), "isdr")
    out = enhanced_encode(texts, boxes, matrix, SMALL_ENCODER, store)
    (out * out).sum().backward()
    assert lam.grad is not None and abs(float(lam.grad)) > 0.0


def test_lambda_param_layout():
    store = ParameterStore()
    created = init_lambda_params(store, 6, init=0.1)
    assert len(created) == 6
    assert all(float(t.data) == 0.1 for t in created)
    assert all(t is c for t, c in zip(lambda_params(store, 6), created))
    with pytest.raises(ParameterError, match="rore.lambda.0"):
        lambda_params(ParameterStore(), 2)
    with pytest.raises(ParameterError, match="rore.lambda.6"):
        lambda_params(store, 7)


@pytest.mark.parametrize("init", [0.5, 0.0])
def test_biased_model_scores_match_enhanced_encode(init):
    encoder = EncoderConfig(layers=2, model_dim=8, heads=2, ffn_dim=16)
    model = ROPModel.create(encoder, ROPConfig(head_dim=4), np.random.default_rng(0))
    init_lambda_params(model.store, encoder.layers, init=init)
    texts, boxes = tiny_inputs(5)
    spans = spans_for([2, 1, 2])
    rel = Relation.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    matrix = build_relation_matrix(rel, spans, "isdr")
    bias = AttentionBias(matrix.bits, lambda_params(model.store, encoder.layers))
    biased = model.scores([(texts, boxes, spans)], bias).data
    states = enhanced_encode(texts, boxes, matrix, encoder, model.store)
    reference = GlobalPointerHead(model.store).scores(pool_elements(states, spans))
    assert np.array_equal(biased, reference.data)
    unbiased = model.scores([(texts, boxes, spans)]).data
    if init == 0.0:
        assert np.allclose(biased, unbiased, atol=1e-12, rtol=0.0)
    else:
        assert not np.allclose(biased, unbiased, atol=1e-12, rtol=0.0)


# --- linking demo ---


def test_demo_biased_arm_wins_under_tight_budget():
    corpus = synth_forms(60, seed=0)
    out = rore_demo_entity_linking(corpus, DemoConfig(epochs=15, seed=0))
    assert out["f1_rore"] > out["f1_vanilla"]
    assert set(out["arms"]) == {"vanilla", "rore"}


def relabeled(corpus, relation):
    """``corpus`` with each document's ``isdr`` replaced by ``relation(doc)``."""
    documents = tuple(replace(d, isdr=relation(d)) for d in corpus.documents)
    return Corpus(documents, dict(corpus.split))


def test_demo_empty_bias_relation_is_identical_computation():
    # An empty relation gives a zero bias matrix, which the learnable
    # lambdas scale to nothing: the biased arm computes what vanilla does.
    corpus = synth_forms(24, seed=1)
    empty = relabeled(corpus, lambda d: Relation(d.n_segments, ()))
    cfg = DemoConfig(epochs=3, label_source="pseudo", seed=3)
    out = rore_demo_entity_linking(corpus, cfg, pseudo_corpus=empty)
    assert out["f1_rore"] == out["f1_vanilla"]
    assert out["arms"]["vanilla"] == out["arms"]["rore"]


def test_demo_is_deterministic():
    corpus = synth_forms(20, seed=2)
    cfg = DemoConfig(epochs=2, seed=5)
    first = rore_demo_entity_linking(corpus, cfg)
    second = rore_demo_entity_linking(corpus, cfg)
    assert first == second


def test_demo_gsdr_bias_is_a_pseudo_corpus_of_closures():
    corpus = synth_forms(20, seed=3)
    closures = relabeled(corpus, lambda d: transitive_closure(d.isdr))
    bias_relations = {d.id: d.isdr for d in closures.documents}
    examples = rore._prepare_examples(corpus.documents, bias_relations)
    for doc, (inputs, _, rho) in zip(corpus.documents, examples):
        gsdr = build_relation_matrix(doc.isdr, inputs[2], "gsdr")
        assert np.array_equal(rho, gsdr.bits)
    cfg = DemoConfig(epochs=2, label_source="pseudo")
    out = rore_demo_entity_linking(corpus, cfg, pseudo_corpus=closures)
    assert 0.0 <= out["f1_rore"] <= 1.0


def test_demo_requires_a_test_split():
    corpus = synth_forms(12, seed=4)
    all_train = Corpus(corpus.documents, {d.id: "train" for d in corpus.documents})
    with pytest.raises(ValueError, match="non-empty train and test splits"):
        rore_demo_entity_linking(all_train, DemoConfig(epochs=1))


def test_demo_requires_link_labels():
    corpus = synth_forms(12, seed=4)
    stripped = Corpus(
        tuple(replace(d, links=None) for d in corpus.documents),
        dict(corpus.split),
    )
    with pytest.raises(ValueError, match="link labels"):
        rore_demo_entity_linking(stripped, DemoConfig(epochs=1))


def test_demo_pseudo_source_needs_matching_corpus():
    corpus = synth_forms(12, seed=5)
    cfg = DemoConfig(epochs=1, label_source="pseudo")
    with pytest.raises(ValueError, match="pseudo_corpus"):
        rore_demo_entity_linking(corpus, cfg)
    partial = Corpus((corpus.documents[0],), {corpus.documents[0].id: "train"})
    with pytest.raises(ValueError, match="lacks documents"):
        rore_demo_entity_linking(corpus, cfg, pseudo_corpus=partial)


def test_demo_config_validation():
    with pytest.raises(ValueError):
        DemoConfig(label_source="oracle")
    with pytest.raises(ValueError):
        DemoConfig(epochs=0)
    cfg = DemoConfig(head_dim=8, label_source="pseudo")
    assert DemoConfig(**asdict(cfg)) == cfg
