import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.layout import BBox, Document, Segment, Word, collapse_word_relation
from rorokit.metrics import (
    PairMetrics,
    benchmark_report,
    corpus_f1,
    heuristic_reading_order,
    heuristic_relation,
    pair_f1,
    report_to_json,
    report_to_text,
)
from rorokit.relations import Relation, permutation_to_relation, topological_linearization
from rorokit.synth import SynthConfig, synth_generate


def box_seg(i, x0, y0, x1, y1, n_words=1):
    words = tuple(
        Word(f"w{i}{k}", BBox(x0 + 5 * k, y0, x0 + 5 * k + 5, y1))
        for k in range(n_words)
    )
    return Segment(i, words, BBox(x0, y0, x1, y1))


# --- pair metrics ---


def test_pair_overlap_example():
    gold = Relation.from_pairs(3, [(0, 1), (0, 2)])
    pred = Relation.from_pairs(3, [(0, 1), (1, 2)])
    m = pair_f1(gold, pred)
    assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)


def test_perfect_prediction():
    gold = Relation.from_pairs(3, [(0, 1), (1, 2)])
    assert pair_f1(gold, gold).f1 == 1.0


def test_empty_vs_empty_is_perfect():
    m = pair_f1(Relation(3, ()), Relation(3, ()))
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_empty_gold_with_prediction_is_zero():
    m = pair_f1(Relation(2, ()), Relation.from_pairs(2, [(0, 1)]))
    assert m.precision == 0.0 and m.f1 == 0.0


def test_pair_f1_requires_matching_element_count():
    with pytest.raises(ValueError):
        pair_f1(Relation(2, ()), Relation(3, ()))


def test_micro_average_pools_counts():
    gold1 = Relation.from_pairs(2, [(0, 1)])
    pred1 = Relation.from_pairs(2, [(0, 1)])
    gold2 = Relation.from_pairs(3, [(0, 1), (1, 2)])
    pred2 = Relation(3, ())
    m = corpus_f1([(gold1, pred1), (gold2, pred2)])
    assert m.true_positives == 1 and m.false_negatives == 2
    assert m.recall == pytest.approx(1 / 3)


def test_micro_equals_single_document_case():
    gold = Relation.from_pairs(4, [(0, 1), (2, 3)])
    pred = Relation.from_pairs(4, [(0, 1), (1, 3)])
    assert corpus_f1([(gold, pred)]).f1 == pair_f1(gold, pred).f1


# --- heuristic ---


def test_stacked_segments_top_first():
    doc = Document(
        "d", 1000, 1000,
        (box_seg(0, 0, 500, 200, 580), box_seg(1, 0, 0, 200, 80)),
    )
    assert heuristic_reading_order(doc) == [1, 0]


def test_side_by_side_left_first():
    doc = Document(
        "d", 1000, 1000,
        (box_seg(0, 500, 0, 700, 80), box_seg(1, 0, 0, 200, 80)),
    )
    assert heuristic_reading_order(doc) == [1, 0]


def test_grid_2x2_row_major():
    cfg = SynthConfig(n_docs=1, mix={"grid": 1.0}, grid_rows=(2, 2), grid_cols=(2, 2))
    doc = synth_generate(cfg, seed=0).documents[0]
    assert heuristic_reading_order(doc) == [0, 1, 2, 3]
    assert heuristic_relation(doc).pairs == {(0, 1), (1, 2), (2, 3)}


def test_heuristic_recovers_chains():
    cfg = SynthConfig(n_docs=5, mix={"chain": 1.0})
    for doc in synth_generate(cfg, seed=1).documents:
        rel = heuristic_relation(doc)
        assert rel == doc.isdr


# --- permutation adapter ---


def test_chain_linearization_round_trips_through_sequence():
    # Chain order -> its word sequence -> the word relation that sequence
    # induces -> projected onto segments: the chain again.
    cfg = SynthConfig(n_docs=3, mix={"chain": 1.0})
    for doc in synth_generate(cfg, seed=2).documents:
        seg_order = topological_linearization(doc.isdr)
        spans = doc.word_spans()
        word_seq = [w for s in seg_order for w in range(*spans[s])]
        word_rel = permutation_to_relation(word_seq)
        assert collapse_word_relation(doc, word_rel) == doc.isdr


# --- benchmark report ---


def test_benchmark_report_shape_and_ceiling():
    cfg = SynthConfig(n_docs=6, mix={"grid": 1.0}, grid_rows=(2, 2), grid_cols=(2, 2))
    docs = synth_generate(cfg, seed=3).documents
    report = benchmark_report(
        docs,
        {
            "gold": lambda d: d.isdr,
            "heuristic": heuristic_relation,
        },
    )
    names = [row["name"] for row in report["systems"]]
    assert names == ["gold", "heuristic"]
    gold_row = report["systems"][0]
    assert gold_row["f1"] == 1.0 and gold_row["docs"] == 6
    # A permutation covers at most 2 of the 4 pairs of a 2x2 grid.
    assert report["ceiling"]["mean_best_recall"] == pytest.approx(0.5)
    text = report_to_text(report)
    assert "heuristic" in text and "ceiling" in text
    parsed = json.loads(report_to_json(report))
    assert parsed["systems"][0]["name"] == "gold"


def test_benchmark_report_refuses_no_documents():
    with pytest.raises(ValueError, match="no documents"):
        benchmark_report([], {"h": heuristic_relation})


def test_benchmark_report_requires_gold():
    doc = Document("d", 1000, 1000, (box_seg(0, 0, 0, 100, 50),))
    with pytest.raises(ValueError):
        benchmark_report([doc], {"h": heuristic_relation})


@given(st.permutations(list(range(5))))
@settings(derandomize=True, database=None)
def test_permutation_systems_cannot_beat_adjacency_budget(perm):
    # A 5-element relation with 6 pairs: any permutation misses >= 2 pairs.
    gold = Relation.from_pairs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    pred = permutation_to_relation(perm)
    assert pair_f1(gold, pred).recall <= 4 / 6
