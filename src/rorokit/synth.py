"""Deterministic synthetic layout generator with known reading-order relations.

Pages are 1000 x 1000 with every coordinate snapped to a 25-unit lattice, so
the whole corpus draws boxes from a small discrete coordinate set. Four layout
families are supported:

- ``chain``: full-width segments stacked top to bottom, linked in sequence.
- ``two-column``: two independent columns; succession links run within each
  column only (the columns are separate reading threads).
- ``grid``: an r x c table; cell (i, j) links to its right neighbor (i, j+1)
  and its lower neighbor (i+1, j), with no wrap-around. Interior cells hence
  branch and join, which no single permutation can fully express.
- ``header-footer``: a page-wide header and footer that participate in no
  succession pair, around an indented body chain.

The same seed always yields a byte-identical corpus. A companion generator
produces form-like documents for the entity-linking demo, where key->value
links coincide with a subset of the succession pairs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .layout import BBox, Corpus, Document, Segment, Word, check_field_types
from .relations import Relation

PAGE = 1000
SNAP = 25
MARGIN = 50
MIN_SEGMENT_HEIGHT = 50

# Small fixed vocabulary: text carries no reading-order signal in the layout
# corpora, so a handful of filler tokens keeps hash-embedding noise low.
FILLER_WORDS = (
    "alpha", "bravo", "carta", "delta", "ember", "fjord", "gamma", "hollow",
)

KINDS = ("chain", "two-column", "grid", "header-footer")


class GenerationError(ValueError):
    """Requested layout cannot be packed into the page."""


@dataclass(frozen=True)
class SynthConfig:
    n_docs: int = 100
    mix: dict = field(
        default_factory=lambda: {"chain": 0.4, "two-column": 0.3, "grid": 0.3}
    )
    words_per_segment: tuple[int, int] = (1, 3)
    chain_segments: tuple[int, int] = (3, 8)
    column_segments: tuple[int, int] = (2, 5)
    grid_rows: tuple[int, int] = (2, 4)
    grid_cols: tuple[int, int] = (2, 4)
    header_body_segments: tuple[int, int] = (2, 5)
    train_fraction: float = 0.8
    validation_fraction: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.n_docs <= sys.maxsize:  # a corpus is a tuple
            raise GenerationError(f"n_docs must be positive and at most {sys.maxsize}")
        for name in (
            "words_per_segment", "chain_segments", "column_segments",
            "grid_rows", "grid_cols", "header_body_segments",
        ):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise GenerationError(f"{name} range must satisfy 1 <= lo <= hi")
        if not self.mix:
            raise GenerationError("mix must be non-empty with non-negative weights")
        weights = self.mix.values()
        for kind, weight in zip(self.mix, weights):
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise GenerationError(f"mix weight of {kind!r} must be a number, got {weight!r}")
        if any(w < 0 for w in weights):
            raise GenerationError("mix must be non-empty with non-negative weights")
        unknown = set(self.mix) - set(KINDS)
        if unknown:
            raise GenerationError(f"mix has unknown layout kinds: {sorted(unknown)}")
        # The kind draw in synth_generate makes none of Generator.choice's
        # checks. A weight must be finite as a float64: NaN fails `<=`.
        for kind, weight in zip(self.mix, weights):
            if not abs(weight) <= sys.float_info.max:
                raise GenerationError(f"mix weight of {kind!r} must be finite, got {weight!r}")
        total = sum(weights)
        if not total <= sys.float_info.max:
            raise GenerationError(f"mix weights must have a finite sum, got {total!r}")
        if total <= 0:
            raise GenerationError("mix weights must sum to a positive value")
        fractions = (self.train_fraction, self.validation_fraction)
        if not (min(fractions) >= 0 and sum(fractions) <= 1):
            raise GenerationError(
                "train_fraction and validation_fraction must be non-negative "
                "and sum to at most 1"
            )


def _pitch(extent: int, count: int) -> int:
    """Lattice-aligned slot pitch; errors when slots get too shallow."""
    pitch = (extent // count // SNAP) * SNAP
    if pitch - SNAP < MIN_SEGMENT_HEIGHT:
        raise GenerationError(
            f"cannot pack {count} segments into an extent of {extent}"
        )
    return pitch


def _make_words(rng, box: BBox, count_range: tuple[int, int]) -> tuple[Word, ...]:
    # Words sit on one row: 100 wide, 25 apart, inset 25 from the box edge.
    width = box.x1 - box.x0
    n_fit = max(1, (width - 150) // 125 + 1)
    requested = int(rng.integers(count_range[0], count_range[1] + 1))
    count = min(requested, n_fit)
    words = []
    for t in range(count):
        text = FILLER_WORDS[int(rng.integers(0, len(FILLER_WORDS)))]
        x0 = box.x0 + 25 + 125 * t
        words.append(Word(text, BBox(x0, box.y0 + 25, x0 + 100, box.y0 + 50)))
    return tuple(words)


def _stack_column(x0: int, x1: int, y0: int, y1: int, count: int) -> list[BBox]:
    pitch = _pitch(y1 - y0, count)
    return [
        BBox(x0, y0 + i * pitch, x1, y0 + i * pitch + pitch - SNAP)
        for i in range(count)
    ]


def _chain(rng, cfg: SynthConfig):
    k = int(rng.integers(cfg.chain_segments[0], cfg.chain_segments[1] + 1))
    inset = int(rng.integers(0, 3)) * SNAP
    boxes = _stack_column(MARGIN + inset, PAGE - MARGIN - inset, MARGIN, PAGE - MARGIN, k)
    pairs = [(i, i + 1) for i in range(k - 1)]
    return boxes, pairs


def _two_column(rng, cfg: SynthConfig):
    lo, hi = cfg.column_segments
    k_left = int(rng.integers(lo, hi + 1))
    k_right = int(rng.integers(lo, hi + 1))
    left = _stack_column(50, 400, MARGIN, PAGE - MARGIN, k_left)
    right = _stack_column(600, 950, MARGIN, PAGE - MARGIN, k_right)
    # Columns are independent reading threads: no cross-column pair.
    pairs = [(i, i + 1) for i in range(k_left - 1)]
    pairs += [(k_left + i, k_left + i + 1) for i in range(k_right - 1)]
    return left + right, pairs


def grid_relation_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Right and below successors of each cell, row-major ids, no wrap."""
    pairs = []
    for i in range(rows):
        for j in range(cols):
            cell = i * cols + j
            if j + 1 < cols:
                pairs.append((cell, cell + 1))
            if i + 1 < rows:
                pairs.append((cell, cell + cols))
    return pairs


def _grid(rng, cfg: SynthConfig):
    rows = int(rng.integers(cfg.grid_rows[0], cfg.grid_rows[1] + 1))
    cols = int(rng.integers(cfg.grid_cols[0], cfg.grid_cols[1] + 1))
    pitch_x = _pitch(PAGE - 2 * MARGIN, cols)
    pitch_y = _pitch(PAGE - 2 * MARGIN, rows)
    boxes = []
    for i in range(rows):
        for j in range(cols):
            x0 = MARGIN + j * pitch_x
            y0 = MARGIN + i * pitch_y
            boxes.append(BBox(x0, y0, x0 + pitch_x - SNAP, y0 + pitch_y - SNAP))
    return boxes, grid_relation_pairs(rows, cols)


def _header_footer(rng, cfg: SynthConfig):
    lo, hi = cfg.header_body_segments
    k = int(rng.integers(lo, hi + 1))
    header = BBox(50, 50, 950, 125)
    footer = BBox(50, 875, 950, 950)
    body = _stack_column(150, 850, 175, 825, k)
    # Header and footer take part in no succession pair.
    pairs = [(i, i + 1) for i in range(1, k)]
    return [header] + body + [footer], pairs


_BUILDERS = {
    "chain": _chain,
    "two-column": _two_column,
    "grid": _grid,
    "header-footer": _header_footer,
}


def _assemble(doc_id: str, rng, cfg: SynthConfig, boxes, pairs) -> Document:
    segments = tuple(
        Segment(i, _make_words(rng, box, cfg.words_per_segment), box)
        for i, box in enumerate(boxes)
    )
    isdr = Relation.from_pairs(len(boxes), pairs)
    return Document(doc_id, PAGE, PAGE, segments, isdr)


def _split_map(doc_ids: list[str], train_fraction: float, validation_fraction: float):
    n = len(doc_ids)
    n_train = int(round(n * train_fraction))
    n_val = int(round(n * validation_fraction))
    split = {}
    for i, doc_id in enumerate(doc_ids):
        if i < n_train:
            split[doc_id] = "train"
        elif i < n_train + n_val:
            split[doc_id] = "validation"
        else:
            split[doc_id] = "test"
    return split


def synth_generate(config: SynthConfig, seed: int) -> Corpus:
    """Generate a corpus per ``config``; byte-identical for equal seeds."""
    rng = np.random.default_rng(seed)
    kinds = [k for k in KINDS if config.mix.get(k, 0) > 0]
    weights = np.array([config.mix[k] for k in kinds], dtype=np.float64)
    # The two steps Generator.choice(len(kinds), p=weights / weights.sum())
    # takes for one draw, with the CDF computed once: the same uniform from
    # the stream, so the same kinds.
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    documents = []
    for i in range(config.n_docs):
        kind = kinds[int(cdf.searchsorted(rng.random(), side="right"))]
        boxes, pairs = _BUILDERS[kind](rng, config)
        documents.append(_assemble(f"synth-{i:04d}-{kind}", rng, config, boxes, pairs))
    split = _split_map(
        [d.id for d in documents], config.train_fraction, config.validation_fraction
    )
    return Corpus(tuple(documents), split)


def doc_kind(doc_id: str) -> str:
    """Layout family encoded in a generated document id."""
    parts = doc_id.split("-", 2)
    if len(parts) != 3 or parts[2] not in KINDS:
        raise ValueError(f"not a generated document id: {doc_id!r}")
    return parts[2]


# ---------------------------------------------------------------------------
# Form-like corpus for the entity-linking demo

# Four blocks in a 2x2 arrangement; ids 0..3 are A (top-left), B (top-right),
# C (bottom-left), D (bottom-right). Geometry never varies between documents,
# so layout alone cannot reveal the pairing style.
FORM_BOXES = (
    BBox(100, 150, 450, 400),
    BBox(550, 150, 900, 400),
    BBox(100, 500, 450, 750),
    BBox(550, 500, 900, 750),
)

# Reading style H pairs along rows, style V along columns. The style is
# signaled by marker words only; links are always a subset of the isdr.
STYLE_H_ISDR = ((0, 1), (1, 2), (2, 3))
STYLE_H_LINKS = ((0, 1), (2, 3))
STYLE_V_ISDR = ((0, 2), (2, 1), (1, 3))
STYLE_V_LINKS = ((0, 2), (1, 3))

H_MARKERS = ("invoice", "ledger", "receipt", "billing")
V_MARKERS = ("roster", "agenda", "survey", "census")


def synth_forms(n_docs: int = 300, seed: int = 0) -> Corpus:
    """Form-like linking corpus: identical geometry, text-cued reading style.

    Every segment's first word comes from its document's style pool, so both
    the reading order and the key->value links are predictable from text, and
    the succession pairs always contain the link pairs. The first 80% of the
    documents are the train split, the rest the test split.
    """
    if not 0 < n_docs <= sys.maxsize:  # a corpus is a tuple
        raise GenerationError(f"n_docs must be positive and at most {sys.maxsize}")
    rng = np.random.default_rng(seed)
    documents = []
    for i in range(n_docs):
        vertical = bool(rng.integers(0, 2))
        markers = V_MARKERS if vertical else H_MARKERS
        isdr_pairs = STYLE_V_ISDR if vertical else STYLE_H_ISDR
        link_pairs = STYLE_V_LINKS if vertical else STYLE_H_LINKS
        segments = []
        for seg_id, box in enumerate(FORM_BOXES):
            marker = markers[int(rng.integers(0, len(markers)))]
            filler = FILLER_WORDS[int(rng.integers(0, len(FILLER_WORDS)))]
            words = (
                Word(marker, BBox(box.x0 + 25, box.y0 + 25, box.x0 + 125, box.y0 + 50)),
                Word(filler, BBox(box.x0 + 150, box.y0 + 25, box.x0 + 250, box.y0 + 50)),
            )
            segments.append(Segment(seg_id, words, box))
        documents.append(
            Document(
                f"form-{i:04d}-{'v' if vertical else 'h'}",
                PAGE,
                PAGE,
                tuple(segments),
                Relation.from_pairs(4, isdr_pairs),
                Relation.from_pairs(4, link_pairs),
            )
        )
    return Corpus(tuple(documents), _split_map([d.id for d in documents], 0.8, 0.0))
