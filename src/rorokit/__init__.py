"""rorokit: reading-order relations for visually-rich documents, at desk scale.

Reading order is modeled as a binary relation over layout elements rather
than a permutation: immediate succession (a directed acyclic relation) and
its transitive closure (a strict partial order). The package bundles the
relation algebra, a JSON-lines corpus model with a synthetic generator, a
small f64 autodiff engine with a text+layout transformer encoder, a global
pointer pair-scoring model for reading-order prediction, relation-aware
attention enhancement, metrics and baselines, and a CLI tying them together.
"""

from .relations import (
    BRUTE_FORCE_MAX_N,
    CycleError,
    InvalidPermutationError,
    OrderViolation,
    Relation,
    RelationError,
    best_permutation_recall,
    is_acyclic,
    is_strict_partial_order,
    permutation_to_relation,
    relation_from_json,
    relation_to_json,
    topological_linearization,
    transitive_closure,
)
from .layout import (
    BBox,
    Corpus,
    CorpusParseError,
    Document,
    Segment,
    ValidationError,
    Word,
    collapse_word_relation,
    corpus_stats,
    derive_word_level,
    load_corpus,
    save_corpus,
    validate_annotation,
)
from .synth import GenerationError, SynthConfig, synth_forms, synth_generate
from .autodiff import AutodiffError, Tensor, as_tensor, grad_check
from .nn import (
    AttentionBias,
    EncoderConfig,
    MissingGradientError,
    NonFiniteGradientError,
    ParameterStore,
    TokenOverflowError,
    encoder_forward,
    init_encoder_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .metrics import (
    PairMetrics,
    benchmark_report,
    corpus_f1,
    heuristic_reading_order,
    heuristic_relation,
    heuristic_word_relation,
    pair_f1,
)
from .rop import (
    GlobalPointerHead,
    ROPConfig,
    ROPModel,
    TrainReport,
    decode,
    gp_loss,
    predict_pseudo_labels,
    train,
)
from .rore import (
    DemoConfig,
    RelationMatrix,
    build_relation_matrix,
    enhanced_encode,
    init_lambda_params,
    rore_demo_entity_linking,
)
from .render import render_svg

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "AttentionBias",
    "AutodiffError",
    "BBox",
    "Corpus",
    "CorpusParseError",
    "CycleError",
    "DemoConfig",
    "Document",
    "EncoderConfig",
    "GenerationError",
    "GlobalPointerHead",
    "InvalidPermutationError",
    "MissingGradientError",
    "NonFiniteGradientError",
    "OrderViolation",
    "PairMetrics",
    "ParameterStore",
    "ROPConfig",
    "ROPModel",
    "Relation",
    "RelationError",
    "RelationMatrix",
    "Segment",
    "SynthConfig",
    "Tensor",
    "TokenOverflowError",
    "TrainReport",
    "ValidationError",
    "Word",
    "as_tensor",
    "benchmark_report",
    "best_permutation_recall",
    "build_relation_matrix",
    "collapse_word_relation",
    "corpus_f1",
    "corpus_stats",
    "decode",
    "derive_word_level",
    "encoder_forward",
    "enhanced_encode",
    "gp_loss",
    "grad_check",
    "heuristic_reading_order",
    "heuristic_relation",
    "heuristic_word_relation",
    "init_encoder_params",
    "init_lambda_params",
    "is_acyclic",
    "is_strict_partial_order",
    "load_checkpoint",
    "load_corpus",
    "optimizer_step",
    "pair_f1",
    "permutation_to_relation",
    "predict_pseudo_labels",
    "relation_from_json",
    "relation_to_json",
    "render_svg",
    "rore_demo_entity_linking",
    "save_checkpoint",
    "save_corpus",
    "synth_forms",
    "synth_generate",
    "topological_linearization",
    "train",
    "transitive_closure",
    "validate_annotation",
]

__version__ = "0.1.0"
