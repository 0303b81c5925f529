"""Succession-aware attention: token-pair bias matrices and a linking demo.

An element-level succession relation is lifted to a token-level binary matrix
(token of element i -> token of element j for every related pair), which the
encoder adds to its attention logits scaled by one learnable weight per
layer. The demo trains two identical models on a key-value linking task, one
vanilla and one biased, and reports held-out pair F1 for both; with the bias
carrying the succession structure the biased arm should never do worse.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .layout import BBox, Corpus, Document, check_field_types
from .metrics import corpus_f1
from .nn import AttentionBias, EncoderConfig, ParameterStore, encoder_forward
from .relations import CycleError, Relation, is_acyclic, transitive_closure
from .rop import (
    ROPConfig,
    ROPModel,
    check_span_tiling,
    fit,
    gp_loss,
    tokens_for_document,
)

MATRIX_KINDS = ("isdr", "gsdr")
LAMBDA_PREFIX = "rore.lambda."

# Element index -> contiguous token range; ranges must tile [0, n) in order.
SpanMap = Sequence[tuple[int, int]]


@dataclass(frozen=True, eq=False)
class RelationMatrix:
    """Token-level {0,1} bias matrix derived from an element relation."""

    n_tokens: int
    bits: np.ndarray
    kind: str

    def __post_init__(self):
        bits = np.asarray(self.bits)
        object.__setattr__(self, "bits", bits)
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if bits.shape != (self.n_tokens, self.n_tokens):
            raise ValueError(f"bits must be {self.n_tokens}x{self.n_tokens}")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("bits entries must be 0 or 1")
        if np.diagonal(bits).any():
            raise ValueError("diagonal bits must be 0")


def build_relation_matrix(
    rel: Relation, spans: SpanMap, kind: str = "isdr"
) -> RelationMatrix:
    """Lift an element relation onto token pairs.

    Bit (a, b) is set iff token a belongs to element i, token b to element j,
    and (i, j) is related (after transitive closure when kind is "gsdr").
    Within-element pairs and the diagonal stay 0: local token order is
    already carried by position features, the matrix only adds succession.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    n_tokens = check_span_tiling(spans)
    if len(spans) != rel.element_count:
        raise ValueError(
            f"{len(spans)} spans for a relation over {rel.element_count} elements"
        )
    ok, violation = is_acyclic(rel)
    if not ok:
        raise CycleError(violation.witness)
    base = rel if kind == "isdr" else transitive_closure(rel)
    bits = np.zeros((n_tokens, n_tokens), dtype=np.uint8)
    for i, j in base.sorted_pairs():
        (a0, a1), (b0, b1) = spans[i], spans[j]
        bits[a0:a1, b0:b1] = 1
    return RelationMatrix(n_tokens, bits, kind)


# ---------------------------------------------------------------------------
# Bias parameters and the enhanced forward pass


def _biased_layer_count(n_layers: int, bias_layers: Optional[int]) -> int:
    """``bias_layers=None`` biases every layer; an integer k the first k."""
    return n_layers if bias_layers is None else min(bias_layers, n_layers)


def init_lambda_params(
    store: ParameterStore,
    n_layers: int,
    bias_layers: Optional[int] = None,
    init: float = 10.0,
) -> list[Tensor]:
    """One learnable scalar bias weight per biased layer.

    ``bias_layers=None`` biases every layer; an integer k biases only the
    first k (the near-converged preset pairs k=4 with init 0.1).
    """
    k = _biased_layer_count(n_layers, bias_layers)
    return [
        store.add(f"{LAMBDA_PREFIX}{layer}", np.asarray(float(init)))
        for layer in range(k)
    ]


def lambda_params(store: ParameterStore, n_layers: int) -> list[Optional[Tensor]]:
    """Stored bias weights by layer; None where a layer has none."""
    names = [f"{LAMBDA_PREFIX}{layer}" for layer in range(n_layers)]
    return [store[n] if n in store else None for n in names]


def enhanced_encode(
    tokens: Sequence[str],
    boxes: Sequence[BBox],
    matrix: RelationMatrix,
    encoder_config: EncoderConfig,
    params: ParameterStore,
) -> Tensor:
    """Encoder forward pass with the relation matrix biasing attention."""
    lambdas = lambda_params(params, encoder_config.layers)
    if encoder_config.layers and all(lam is None for lam in lambdas):
        raise ValueError(
            "no bias weights in the parameter store; call init_lambda_params first"
        )
    bias = AttentionBias([matrix.bits.astype(float)], lambdas)
    return encoder_forward(encoder_config, params, tokens, boxes, bias=bias)


# ---------------------------------------------------------------------------
# Key-value linking demo


@dataclass(frozen=True)
class DemoConfig:
    """Controls for the vanilla-vs-biased linking comparison.

    The epoch cap is deliberately tight: the point of the comparison is
    sample efficiency under a fixed budget, and with enough epochs both
    arms saturate the toy task and the contrast collapses to a tie.
    """

    epochs: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 20
    head_dim: int = 32
    relation_kind: str = "isdr"  # which relation feeds the bias matrix
    bias_layers: Optional[int] = None  # None biases all layers
    lambda_init: float = 10.0
    freeze_lambda: bool = False
    label_source: str = "ground_truth"  # or "pseudo"
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.relation_kind not in MATRIX_KINDS:
            raise ValueError(f"unknown relation_kind {self.relation_kind!r}")
        if self.label_source not in ("ground_truth", "pseudo"):
            raise ValueError(f"unknown label_source {self.label_source!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.head_dim < 1:
            raise ValueError("epochs, batch_size, and head_dim must be >= 1")
        if self.bias_layers is not None and self.bias_layers < 0:
            raise ValueError("bias_layers must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _prepare_examples(
    docs: list[Document],
    config: DemoConfig,
    bias_relations: dict[str, Relation],
) -> list[tuple]:
    """(texts, boxes, spans), gold links and the float bias matrix per document."""
    examples = []
    for doc in docs:
        if doc.links is None:
            raise ValueError(f"document {doc.id} has no link labels")
        inputs = tokens_for_document(doc, "segment", "segment")
        matrix = build_relation_matrix(
            bias_relations[doc.id], inputs[2], config.relation_kind
        )
        examples.append((inputs, doc.links, matrix.bits.astype(float)))
    return examples


def _train_linking_arm(
    train_examples: list[tuple],
    test_examples: list[tuple],
    encoder_config: EncoderConfig,
    config: DemoConfig,
    biased: bool,
) -> dict:
    """One demo arm, self-seeded so both arms share their parameter init.

    The arm is a ``ROPModel`` scoring link pairs; the biased arm adds each
    document's relation matrix to its attention through an ``AttentionBias``.
    """
    rng = np.random.default_rng(config.seed)
    arm_config = ROPConfig(head_dim=config.head_dim, batch_size=config.batch_size)
    try:
        model = ROPModel.create(encoder_config, arm_config, rng)
    except ValueError as exc:  # the arm's "rop" head_dim is the demo section's
        if not str(exc).startswith("rop "):
            raise
        raise ValueError("demo " + str(exc).removeprefix("rop ")) from None
    lambdas: list[Tensor] = []
    if biased and config.freeze_lambda:
        k = _biased_layer_count(encoder_config.layers, config.bias_layers)
        lambdas = [Tensor(config.lambda_init) for _ in range(k)]
    elif biased:
        lambdas = init_lambda_params(
            model.store, encoder_config.layers, config.bias_layers, config.lambda_init
        )

    def bias(group: list) -> Optional[AttentionBias]:
        """The group's relation matrices, weighted by the arm's lambdas."""
        return AttentionBias([rho for _, _, rho in group], lambdas) if biased else None

    def batch_loss(batch: list) -> Tensor:
        inputs, links, _ = zip(*batch)
        return gp_loss(model.scores(inputs, bias(batch)), links)

    losses, _, _ = fit(
        model.store,
        train_examples,
        batch_loss,
        rng,
        config.learning_rate,
        config.epochs,
        config.batch_size,
        encoder_config.max_tokens,
    )

    def evaluate(examples: list[tuple]) -> float:
        predicted = model.decode_inputs(examples, bias)
        return corpus_f1(zip([links for _, links, _ in examples], predicted)).f1

    return {
        "train_f1": evaluate(train_examples),
        "test_f1": evaluate(test_examples),
        "final_loss": losses[-1],
    }


def rore_demo_entity_linking(
    corpus: Corpus,
    config: Optional[DemoConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    pseudo_corpus: Optional[Corpus] = None,
) -> dict:
    """Train vanilla and succession-biased linking models, identically seeded.

    The bias matrix is built from each document's gold succession relation,
    or from ``pseudo_corpus`` (same documents, predicted relations) when
    ``config.label_source`` is "pseudo". Returns held-out pair F1 for both
    arms plus per-arm detail; deterministic given the config seed.
    """
    config = config if config is not None else DemoConfig()
    if encoder_config is None:
        encoder_config = EncoderConfig(layers=2, model_dim=32, heads=4)

    train_docs = corpus.subset("train")
    test_docs = corpus.subset("test")
    if not train_docs or not test_docs:
        raise ValueError("demo needs non-empty train and test splits")

    if config.label_source == "pseudo":
        if pseudo_corpus is None:
            raise ValueError('label_source "pseudo" needs a pseudo_corpus')
        source = {d.id: d for d in pseudo_corpus.documents}
        missing = [d.id for d in corpus.documents if d.id not in source]
        if missing:
            raise ValueError(f"pseudo corpus lacks documents: {missing[:3]}")
        bias_relations = {
            d.id: source[d.id].isdr for d in corpus.documents
        }
    else:
        bias_relations = {d.id: d.isdr for d in corpus.documents}
    for doc_id, rel in bias_relations.items():
        if rel is None:
            raise ValueError(f"document {doc_id} has no succession relation")

    train_examples = _prepare_examples(train_docs, config, bias_relations)
    test_examples = _prepare_examples(test_docs, config, bias_relations)
    vanilla = _train_linking_arm(
        train_examples, test_examples, encoder_config, config, biased=False
    )
    biased = _train_linking_arm(
        train_examples, test_examples, encoder_config, config, biased=True
    )
    return {
        "f1_vanilla": vanilla["test_f1"],
        "f1_rore": biased["test_f1"],
        "arms": {"vanilla": vanilla, "rore": biased},
        "config": asdict(config),
    }
