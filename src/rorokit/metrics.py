"""Pair-level metrics, a geometric reading-order heuristic, and the report.

Predictions and gold annotations are compared as sets of ordered element
pairs. Corpus scores pool the raw counts over documents (micro averaging).
A sequence-producing baseline is scored through the relation its
permutation induces (``relations.permutation_to_relation``), so that
permutation models and relation models share one scoreboard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .layout import Document
from .relations import (
    BRUTE_FORCE_MAX_N,
    Relation,
    best_permutation_recall,
    permutation_to_relation,
)


@dataclass(frozen=True)
class PairMetrics:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        if denom == 0:
            # Empty prediction against empty gold is vacuously perfect.
            return 1.0 if self.false_negatives == 0 else 0.0
        return self.true_positives / denom

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        if denom == 0:
            return 1.0 if self.false_positives == 0 else 0.0
        return self.true_positives / denom

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    def __add__(self, other: "PairMetrics") -> "PairMetrics":
        return PairMetrics(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
        )


def pair_f1(gold: Relation, pred: Relation) -> PairMetrics:
    if gold.element_count != pred.element_count:
        raise ValueError(
            f"element counts differ: gold {gold.element_count}, "
            f"pred {pred.element_count}"
        )
    tp = gold.shared(pred)
    return PairMetrics(tp, len(pred) - tp, len(gold) - tp)


def corpus_f1(pairs: Iterable[tuple[Relation, Relation]]) -> PairMetrics:
    """Micro average: pool pair counts over all (gold, pred) documents."""
    total = PairMetrics(0, 0, 0)
    for gold, pred in pairs:
        total = total + pair_f1(gold, pred)
    return total


# ---------------------------------------------------------------------------
# Geometric baseline


def heuristic_reading_order(doc: Document) -> list[int]:
    """Row-major segment order: horizontal bands top-down, left-right within.

    A new band starts when the vertical gap between consecutive y-centers
    exceeds half the median segment height. Deterministic for fixed input;
    a document without segments has the empty order.
    """
    if not doc.segments:
        return []
    heights = sorted(s.box.height for s in doc.segments)
    median_height = heights[len(heights) // 2]
    threshold = median_height / 2.0
    by_y = sorted(doc.segments, key=lambda s: (s.box.center()[1], s.box.x0, s.id))
    bands: list[list] = [[by_y[0]]]
    last_y = by_y[0].box.center()[1]
    for segment in by_y[1:]:
        y = segment.box.center()[1]
        if y - last_y > threshold:
            bands.append([])
        bands[-1].append(segment)
        last_y = y
    order = []
    for band in bands:
        band.sort(key=lambda s: (s.box.x0, s.box.center()[1], s.id))
        order.extend(s.id for s in band)
    return order


def heuristic_relation(doc: Document) -> Relation:
    """Segment relation induced by the row-major heuristic's permutation."""
    return permutation_to_relation(heuristic_reading_order(doc))


def heuristic_word_relation(doc: Document) -> Relation:
    """Word relation induced by the row-major heuristic: the segments in its
    order, each segment's words in their own order."""
    spans = doc.word_spans()
    return permutation_to_relation(
        [w for s in heuristic_reading_order(doc) for w in range(*spans[s])]
    )


# ---------------------------------------------------------------------------
# Benchmark report


def benchmark_report(
    documents: Sequence[Document],
    systems: dict[str, Callable[[Document], Relation]],
    ceiling: bool = True,
    gold_fn: Optional[Callable[[Document], Relation]] = None,
) -> dict:
    """Score each system (doc -> Relation) against gold, micro pooled.

    Gold defaults to each document's isdr; ``gold_fn`` swaps in another
    reference (e.g. the derived word-level relation). When ``ceiling`` is
    set, the mean recall ceiling of a single permutation, a maximum matching,
    covers documents of at most ``BRUTE_FORCE_MAX_N`` elements. An empty
    document list is refused: its scores would be vacuously perfect.
    """
    if not documents:
        raise ValueError("no documents to score")
    if gold_fn is None:
        offenders = [d.id for d in documents if d.isdr is None]
        if offenders:
            raise ValueError(f"documents missing gold isdr: {offenders}")
        gold_fn = lambda doc: doc.isdr  # noqa: E731
    golds = [gold_fn(doc) for doc in documents]
    rows = []
    for name in sorted(systems):
        predict = systems[name]
        metrics = corpus_f1(
            (gold, predict(doc)) for gold, doc in zip(golds, documents)
        )
        rows.append({
            "name": name,
            "precision": metrics.precision,
            "recall": metrics.recall,
            "f1": metrics.f1,
            "docs": len(documents),
        })
    report = {"systems": rows}
    if ceiling:
        recalls = [
            best_permutation_recall(gold)[1]
            for gold in golds
            if gold.element_count <= BRUTE_FORCE_MAX_N
        ]
        report["ceiling"] = {
            "mean_best_recall": float(np.mean(recalls)) if recalls else None
        }
    return report


def report_to_text(report: dict) -> str:
    """Aligned human-readable table for a benchmark report."""
    lines = [f"{'system':<16} {'precision':>9} {'recall':>9} {'f1':>9} {'docs':>6}"]
    for row in report["systems"]:
        lines.append(
            f"{row['name']:<16} {row['precision']:>9.4f} {row['recall']:>9.4f} "
            f"{row['f1']:>9.4f} {row['docs']:>6d}"
        )
    ceiling = report.get("ceiling", {}).get("mean_best_recall")
    if ceiling is not None:
        lines.append(f"permutation recall ceiling (mean): {ceiling:.4f}")
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)
