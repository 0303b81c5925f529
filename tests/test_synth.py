import itertools
import re
import sys

import numpy as np
import pytest

from rorokit import synth
from rorokit.layout import Corpus, document_to_dict, save_corpus
from rorokit.relations import is_acyclic
from rorokit.synth import (
    FORM_BOXES,
    GenerationError,
    SynthConfig,
    doc_kind,
    grid_relation_pairs,
    synth_forms,
    synth_generate,
)


def single_kind(kind, n_docs=6, **overrides):
    return SynthConfig(n_docs=n_docs, mix={kind: 1.0}, **overrides)


def test_same_seed_is_byte_identical(tmp_path):
    cfg = SynthConfig(n_docs=12)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(synth_generate(cfg, seed=7), a)
    save_corpus(synth_generate(cfg, seed=7), b)
    assert a.read_bytes() == b.read_bytes()
    save_corpus(synth_generate(cfg, seed=8), b)
    assert a.read_bytes() != b.read_bytes()


def test_grid_2x2_relation():
    assert set(grid_relation_pairs(2, 2)) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_grid_pair_count_formula():
    for r, c in itertools.product(range(1, 5), range(1, 5)):
        assert len(grid_relation_pairs(r, c)) == r * (c - 1) + (r - 1) * c


def test_chain_of_three():
    cfg = single_kind("chain", n_docs=4, chain_segments=(3, 3))
    corpus = synth_generate(cfg, seed=0)
    for doc in corpus.documents:
        assert doc.isdr.pairs == {(0, 1), (1, 2)}


def test_two_column_never_links_across_columns():
    cfg = single_kind("two-column", n_docs=10)
    for doc in synth_generate(cfg, seed=1).documents:
        # The two columns are separable by x coordinate.
        left = {s.id for s in doc.segments if s.box.x0 < 500}
        right = set(range(doc.n_segments)) - left
        for a, b in doc.isdr.pairs:
            assert not (a in left and b in right)
            assert not (a in right and b in left)


def test_header_footer_isolated():
    cfg = single_kind("header-footer", n_docs=10)
    for doc in synth_generate(cfg, seed=2).documents:
        last = doc.n_segments - 1
        touched = {i for pair in doc.isdr.pairs for i in pair}
        assert 0 not in touched and last not in touched
        assert doc.segments[0].box.y1 < min(s.box.y0 for s in doc.segments[1:])


def test_boxes_in_page_snapped_and_disjoint():
    corpus = synth_generate(
        SynthConfig(
            n_docs=30,
            mix={"chain": 0.25, "two-column": 0.25, "grid": 0.25, "header-footer": 0.25},
        ),
        seed=3,
    )
    for doc in corpus.documents:
        boxes = [s.box for s in doc.segments]
        for box in boxes:
            assert 0 <= box.x0 and box.x1 <= 1000 and 0 <= box.y0 and box.y1 <= 1000
            assert all(v % 25 == 0 for v in box.as_list())
        for a, b in itertools.combinations(boxes, 2):
            # Disjoint: apart on x or on y; touching edges are apart.
            assert a.x1 <= b.x0 or b.x1 <= a.x0 or a.y1 <= b.y0 or b.y1 <= a.y0
        ok, _ = is_acyclic(doc.isdr)
        assert ok


def test_split_counts_exact():
    cfg = SynthConfig(n_docs=500, train_fraction=0.8, validation_fraction=0.0)
    corpus = synth_generate(cfg, seed=4)
    assert len(corpus.subset("train")) == 400
    assert len(corpus.subset("validation")) == 0
    assert len(corpus.subset("test")) == 100


def test_validation_split_follows_train_in_document_order():
    cfg = SynthConfig(n_docs=20, train_fraction=0.6, validation_fraction=0.25)
    corpus = synth_generate(cfg, seed=4)
    names = [corpus.split[d.id] for d in corpus.documents]
    assert names == ["train"] * 12 + ["validation"] * 5 + ["test"] * 3


def test_doc_kind_parsing():
    corpus = synth_generate(SynthConfig(n_docs=8), seed=5)
    kinds = {doc_kind(d.id) for d in corpus.documents}
    assert kinds <= {"chain", "two-column", "grid"}
    with pytest.raises(ValueError):
        doc_kind("other-0001")


def test_words_respect_requested_range():
    cfg = single_kind("chain", n_docs=6, words_per_segment=(2, 2))
    for doc in synth_generate(cfg, seed=6).documents:
        assert all(len(s.words) == 2 for s in doc.segments)


def test_impossible_packing_raises():
    cfg = single_kind("chain", chain_segments=(40, 40))
    with pytest.raises(GenerationError):
        synth_generate(cfg, seed=0)


def test_config_validation():
    with pytest.raises(GenerationError):
        SynthConfig(n_docs=0)
    with pytest.raises(GenerationError):
        SynthConfig(mix={"pyramid": 1.0})
    with pytest.raises(GenerationError):
        SynthConfig(mix={"chain": 0.0})
    with pytest.raises(GenerationError):
        SynthConfig(words_per_segment=(3, 1))
    with pytest.raises(GenerationError):
        SynthConfig(train_fraction=0.9, validation_fraction=0.3)
    with pytest.raises(GenerationError, match="validation_fraction must be non-negative"):
        SynthConfig(train_fraction=0.8, validation_fraction=-0.1)
    nan, inf = float("nan"), float("inf")
    for mix, reason in [
        ({"chain": nan, "grid": 1.0}, "mix weight of 'chain' must be finite, got nan"),
        ({"chain": 1.0, "grid": inf}, "mix weight of 'grid' must be finite, got inf"),
        ({"chain": 10**400}, "mix weight of 'chain' must be finite, got 1000"),
        ({"chain": 1e308, "grid": 1e308}, "mix weights must have a finite sum, got inf"),
        ({"chain": True}, "mix weight of 'chain' must be a number, got True"),
        ({"chain": 1.0, "grid": "0.5"}, "mix weight of 'grid' must be a number, got '0.5'"),
        ({"chain": None}, "mix weight of 'chain' must be a number, got None"),
        ({"chain": [1.0]}, "mix weight of 'chain' must be a number, got [1.0]"),
    ]:
        with pytest.raises(GenerationError, match=re.escape(reason)):
            SynthConfig(mix=mix)
    # The weight checks do not hide the messages of the checks before them.
    with pytest.raises(GenerationError, match=re.escape("unknown layout kinds: ['pyramid']")):
        SynthConfig(mix={"pyramid": nan})
    with pytest.raises(GenerationError, match="non-negative weights"):
        SynthConfig(mix={"chain": -inf})
    assert SynthConfig(mix={"chain": 3, "grid": 1e-300}).mix["chain"] == 3


# The kind mixes the oracles below cover: the default, one kind (as in each
# of perfbench's relations-eval strata), integer weights, a vanishing weight
# and every kind.
MIXES = [
    {"chain": 0.4, "two-column": 0.3, "grid": 0.3},
    {"grid": 1.0},
    {"chain": 3, "header-footer": 1},
    {"chain": 1.0, "grid": 1e-300},
    {"chain": 0.1, "two-column": 0.2, "grid": 0.3, "header-footer": 0.4},
]


@pytest.mark.parametrize("mix", MIXES)
def test_cdf_kind_draw_equals_generator_choice(mix):
    # synth_generate's draw against the numpy call it replaces, with the
    # bounded-integer draws of the builders in between.
    weights = np.array([w for k, w in mix.items() if w > 0], dtype=np.float64)
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(200):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(12):
            assert int(cdf.searchsorted(fast.random(), side="right")) == int(
                slow.choice(len(weights), p=p)
            )
            assert fast.integers(0, 3 + step) == slow.integers(0, 3 + step)
        assert fast.bit_generator.state == slow.bit_generator.state


def reference_generate(config, seed):
    """synth_generate with Generator.choice drawing each kind: the reference
    that the CDF draw must reproduce."""
    rng = np.random.default_rng(seed)
    kinds = [k for k in synth.KINDS if config.mix.get(k, 0) > 0]
    weights = np.array([config.mix[k] for k in kinds], dtype=np.float64)
    weights = weights / weights.sum()
    documents = []
    for i in range(config.n_docs):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        boxes, pairs = synth._BUILDERS[kind](rng, config)
        documents.append(synth._assemble(f"synth-{i:04d}-{kind}", rng, config, boxes, pairs))
    split = synth._split_map([d.id for d in documents], config.train_fraction,
                             config.validation_fraction)
    return Corpus(tuple(documents), split)


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_corpus_equals_the_choice_reference(mix, seed):
    config = SynthConfig(n_docs=40, mix=mix, chain_segments=(3, 12), grid_rows=(2, 6),
                         words_per_segment=(1, 4))
    fast, slow = synth_generate(config, seed), reference_generate(config, seed)
    assert fast.split == slow.split
    assert [document_to_dict(d, fast.split[d.id]) for d in fast.documents] == [
        document_to_dict(d, slow.split[d.id]) for d in slow.documents
    ]


# --- form corpus ---


def test_forms_geometry_is_constant_and_links_subset_isdr():
    corpus = synth_forms(n_docs=40, seed=9)
    for doc in corpus.documents:
        assert tuple(s.box for s in doc.segments) == FORM_BOXES
        assert doc.links is not None
        assert doc.links.pairs < doc.isdr.pairs
        ok, _ = is_acyclic(doc.isdr)
        assert ok


def test_forms_styles_match_ids_and_are_mixed():
    corpus = synth_forms(n_docs=60, seed=10)
    vertical = [d for d in corpus.documents if d.id.endswith("-v")]
    horizontal = [d for d in corpus.documents if d.id.endswith("-h")]
    assert len(vertical) + len(horizontal) == 60
    assert vertical and horizontal
    for doc in vertical:
        assert doc.links.pairs == {(0, 2), (1, 3)}
    for doc in horizontal:
        assert doc.links.pairs == {(0, 1), (2, 3)}


def test_forms_refuse_zero_documents():
    with pytest.raises(GenerationError, match="n_docs must be positive"):
        synth_forms(0)


@pytest.mark.parametrize("n_docs", [sys.maxsize + 1, 10**400], ids=["maxsize+1", "1e400"])
def test_a_document_count_no_corpus_can_hold_is_refused(n_docs):
    reason = f"n_docs must be positive and at most {sys.maxsize}"
    with pytest.raises(GenerationError, match=re.escape(reason)):
        SynthConfig(n_docs=n_docs)
    with pytest.raises(GenerationError, match=re.escape(reason)):
        synth_forms(n_docs)
    assert SynthConfig(n_docs=sys.maxsize).n_docs == sys.maxsize


def test_forms_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(synth_forms(n_docs=20, seed=11), a)
    save_corpus(synth_forms(n_docs=20, seed=11), b)
    assert a.read_bytes() == b.read_bytes()
