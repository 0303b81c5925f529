"""Layout data model and corpus serialization.

Documents are collections of segments (text regions) made of words, each
carrying an integer bounding box. Coordinates use the OCR image convention:
top-left origin, y growing downward, normalized to [0, 1000]. A document may
carry an ``isdr`` relation over its segments (immediate succession during
reading) and, for form corpora, a ``links`` relation (key -> value pairs).

The corpus file format is JSON-lines, one document per line. Acyclicity of
``isdr`` is enforced by the loader and reported by
:func:`validate_annotation`, not by the ``Document`` constructor, so that a
cyclic relation stays representable for validation to name.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional

from .relations import Relation, index_pair, is_acyclic, json_relation

COORD_MAX = 1000

SPLITS = ("train", "validation", "test")


class ValidationError(ValueError):
    """An invariant breach in layout data, naming the offending document."""


class CorpusParseError(ValueError):
    """Malformed corpus file; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def check_integer(name: str, value) -> None:
    """Raise TypeError naming ``name`` unless ``value`` is an int; a bool, a
    float such as 1.0 or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def check_field_types(config) -> None:
    """Raise TypeError naming the field unless each field of the dataclass
    ``config`` holds a value of its type: ``int`` (``check_integer``),
    ``tuple[int, int]`` (a pair), ``float`` (a finite float, or an int a
    float64 can hold; NaN and infinity are refused) or ``dict``. A bool is
    no number. Types are read as the strings ``from __future__ import
    annotations`` leaves."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "tuple[int, int]":
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise TypeError(f"{f.name} must be a pair of integers, got {value!r}")
            for item in value:
                check_integer(f"{f.name} entry", item)
        elif f.type == "int":
            check_integer(f.name, value)
        elif f.type == "float" and not (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
        ):
            raise TypeError(f"{f.name} must be a finite float64 number, got {value!r}")
        elif f.type == "dict" and not isinstance(value, dict):
            raise TypeError(f"{f.name} must be an object, got {value!r}")


@dataclass(frozen=True)
class BBox:
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        if not (type(x0) is int and type(y0) is int and type(x1) is int and type(y1) is int):
            # An int subclass passes; anything else is named, first field first.
            for name in ("x0", "y0", "x1", "y1"):
                check_integer(f"box {name}", getattr(self, name))
        if not (0 <= x0 <= x1 <= COORD_MAX):
            raise ValidationError(f"bad x extent: {self.as_list()}")
        if not (0 <= y0 <= y1 <= COORD_MAX):
            raise ValidationError(f"bad y extent: {self.as_list()}")

    def as_list(self) -> list[int]:
        return [self.x0, self.y0, self.x1, self.y1]

    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    @property
    def height(self) -> int:
        return self.y1 - self.y0


@dataclass(frozen=True)
class Word:
    text: str
    box: BBox

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValidationError(f"word text must be a string, got {self.text!r}")
        if not self.text:
            raise ValidationError("word text must be non-empty")


@dataclass(frozen=True)
class Segment:
    id: int
    words: tuple[Word, ...]
    box: BBox

    def __post_init__(self):
        if type(self.id) is not int:
            check_integer("segment id", self.id)
        object.__setattr__(self, "words", tuple(self.words))
        if not self.words:
            raise ValidationError(f"segment {self.id} has no words")
        # Each word box must lie inside the segment box; edges may touch.
        box = self.box
        x0, y0, x1, y1 = box.x0, box.y0, box.x1, box.y1
        for w in self.words:
            b = w.box
            if not (x0 <= b.x0 and y0 <= b.y0 and b.x1 <= x1 and b.y1 <= y1):
                raise ValidationError(
                    f"segment {self.id} box does not contain word box {b.as_list()}"
                )


@dataclass(frozen=True)
class Document:
    id: str
    page_width: int
    page_height: int
    segments: tuple[Segment, ...]
    isdr: Optional[Relation] = None
    links: Optional[Relation] = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        check_integer("page width", self.page_width)
        check_integer("page height", self.page_height)
        if self.page_width <= 0 or self.page_height <= 0:
            raise ValidationError(f"document {self.id}: non-positive page size")
        ids = [s.id for s in self.segments]
        if ids != list(range(len(ids))):
            raise ValidationError(
                f"document {self.id}: segment ids must be 0..{len(ids) - 1}, got {ids}"
            )
        for rel_name in ("isdr", "links"):
            rel = getattr(self, rel_name)
            if rel is not None and rel.element_count != len(self.segments):
                raise ValidationError(
                    f"document {self.id}: {rel_name} covers {rel.element_count} "
                    f"elements, document has {len(self.segments)} segments"
                )

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_words(self) -> int:
        return sum(len(s.words) for s in self.segments)

    def word_spans(self) -> list[tuple[int, int]]:
        """Global word-index range per segment, in segment-id order."""
        spans = []
        offset = 0
        for seg in self.segments:
            spans.append((offset, offset + len(seg.words)))
            offset += len(seg.words)
        return spans

    def all_words(self) -> list[Word]:
        return [w for seg in self.segments for w in seg.words]

    def word_segment_index(self) -> list[int]:
        """Owning segment id for each global word index."""
        return [seg.id for seg in self.segments for _ in seg.words]


@dataclass
class Corpus:
    documents: tuple[Document, ...]
    split: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.documents = tuple(self.documents)
        counts = Counter(d.id for d in self.documents)
        duplicates = sorted(doc_id for doc_id, n in counts.items() if n > 1)
        if duplicates:
            raise ValidationError(f"duplicate document ids: {duplicates}")
        if not self.split:
            self.split = {d.id: "train" for d in self.documents}
        missing = [d.id for d in self.documents if d.id not in self.split]
        if missing:
            raise ValidationError(f"split missing documents: {missing}")
        bad = {v for v in self.split.values()} - set(SPLITS)
        if bad:
            raise ValidationError(f"unknown split names: {sorted(bad)}")

    def subset(self, split_name: str) -> list[Document]:
        return [d for d in self.documents if self.split[d.id] == split_name]

    def __len__(self) -> int:
        return len(self.documents)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def document_to_dict(doc: Document, split: str) -> dict:
    # Field order is part of the file format; do not reorder.
    out: dict = {
        "id": doc.id,
        "page": [doc.page_width, doc.page_height],
        "segments": [
            {
                "id": seg.id,
                "box": seg.box.as_list(),
                "words": [{"text": w.text, "box": w.box.as_list()} for w in seg.words],
            }
            for seg in doc.segments
        ],
        "isdr": [list(p) for p in doc.isdr.sorted_pairs()] if doc.isdr is not None else None,
    }
    if doc.links is not None:
        out["links"] = [list(p) for p in doc.links.sorted_pairs()]
    out["split"] = split
    return out


def document_id(obj: dict) -> str:
    """The ``id`` of a corpus line; one that is missing or not a non-empty
    string raises :class:`ValidationError`."""
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValidationError(
            f"document id must be a non-empty string, got {doc_id!r}"
            if "id" in obj
            else "document has no id"
        )
    return doc_id


def document_from_dict(obj: dict) -> Document:
    doc_id = document_id(obj)
    try:
        page = obj["page"]
        segments = []
        for raw_seg in obj["segments"]:
            words = tuple(
                Word(w["text"], BBox(*w["box"])) for w in raw_seg["words"]
            )
            segments.append(Segment(raw_seg["id"], words, BBox(*raw_seg["box"])))
        n = len(segments)
        isdr, links = (
            None
            if obj.get(name) is None
            else json_relation(n, obj[name], name)
            for name in ("isdr", "links")
        )
        doc = Document(doc_id, page[0], page[1], tuple(segments), isdr, links)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValidationError(f"document {doc_id}: malformed field ({exc})") from exc
    except ValueError as exc:
        named = str(exc).startswith(f"document {doc_id}: ")  # Document's own refusals
        raise ValidationError(str(exc) if named else f"document {doc_id}: {exc}") from exc
    if doc.isdr is not None:
        ok, violation = is_acyclic(doc.isdr)
        if not ok:
            raise ValidationError(
                f"document {doc_id}: cyclic isdr, witness {list(violation.witness)}"
            )
    return doc


def document_split(obj: dict) -> str:
    """The split a corpus line names, ``"train"`` when it names none; a name
    outside ``SPLITS`` raises :class:`ValidationError` naming the document."""
    name = obj.get("split", "train")
    if name not in SPLITS:
        raise ValidationError(
            f"document {str(obj.get('id', '<missing id>'))!r} has split {name!r}, "
            f"not one of {', '.join(SPLITS)}"
        )
    return name


def read_json_lines(path) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line of a JSON-lines file;
    malformed JSON raises :class:`CorpusParseError` with the line number."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(lineno, str(exc)) from exc
            yield lineno, obj


def load_corpus(path) -> Corpus:
    """Load a JSON-lines corpus, validating every invariant.

    Raises :class:`CorpusParseError` with the line number on malformed JSON
    or a line that is not a JSON object, and :class:`ValidationError`
    naming the document on invariant breaches, naming the line for an
    ``id`` that is missing or not a non-empty string and the line and the
    document for a ``split`` that is not one of ``SPLITS``, or naming the
    id and both line numbers when a document id repeats.
    """
    documents = []
    split: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, obj in read_json_lines(path):
        if not isinstance(obj, dict):
            raise CorpusParseError(lineno, f"holds a JSON {type(obj).__name__}, not an object")
        try:
            document_id(obj)
            split_name = document_split(obj)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        doc = document_from_dict(obj)
        if doc.id in first_line:
            raise ValidationError(
                f"line {lineno}: duplicate document id {doc.id!r} "
                f"(first on line {first_line[doc.id]})"
            )
        first_line[doc.id] = lineno
        documents.append(doc)
        split[doc.id] = split_name
    return Corpus(tuple(documents), split)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            obj = document_to_dict(doc, split=corpus.split[doc.id])
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Label derivation and statistics


def derive_word_level(doc: Document) -> Relation:
    """Word-level succession derived from segment-level annotation.

    Inside each segment, consecutive words chain; for every segment pair
    (A, B) in the isdr, the last word of A links to the first word of B.
    Acyclicity is inherited from the segment relation.
    """
    if doc.isdr is None:
        raise ValidationError(f"document {doc.id}: missing isdr")
    ok, violation = is_acyclic(doc.isdr)
    if not ok:
        raise ValidationError(
            f"document {doc.id}: cyclic isdr, witness {list(violation.witness)}"
        )
    spans = doc.word_spans()
    pairs = set()
    for start, end in spans:
        pairs.update((k, k + 1) for k in range(start, end - 1))
    for a, b in doc.isdr.sorted_pairs():
        last_of_a = spans[a][1] - 1
        first_of_b = spans[b][0]
        pairs.add((last_of_a, first_of_b))
    return Relation(doc.n_words, frozenset(pairs))


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    segments: int
    words: int
    pairs: int
    nonlinear_fraction: Optional[float]


def corpus_stats(corpus: Corpus, literal_nonlinearity: bool = False) -> CorpusStats:
    """Counts, and the fraction of segments involved in non-linear reading
    order; that fraction is None unless every document has an isdr and
    there is at least one segment.

    Default definition: a segment counts when its in-degree or out-degree in
    the isdr is at least 2 (it branches or joins).
    ``literal_nonlinearity=True`` instead counts segments whose predecessor
    and successor both uniquely exist, which marks every interior element
    of a plain chain.
    """
    n_pairs = sum(len(d.isdr) for d in corpus.documents if d.isdr is not None)
    fraction = None
    if all(d.isdr is not None for d in corpus.documents):
        nonlinear = total = 0
        for doc in corpus.documents:
            degrees = zip(doc.isdr.in_degrees(), doc.isdr.out_degrees())
            if literal_nonlinearity:
                nonlinear += sum(1 for i, o in degrees if i == 1 and o == 1)
            else:
                nonlinear += sum(1 for i, o in degrees if i >= 2 or o >= 2)
            total += doc.n_segments
        fraction = nonlinear / total if total else None
    return CorpusStats(
        documents=len(corpus.documents),
        segments=sum(d.n_segments for d in corpus.documents),
        words=sum(d.n_words for d in corpus.documents),
        pairs=n_pairs,
        nonlinear_fraction=fraction,
    )


# ---------------------------------------------------------------------------
# Annotation validation


@dataclass(frozen=True)
class AnnotationReport:
    doc_id: str
    cycle: Optional[tuple[int, ...]]  # witness, None when acyclic
    index_errors: tuple[tuple[int, int], ...]
    duplicate_pairs: tuple[tuple[int, int], ...]
    self_pairs: tuple[int, ...]
    schema_errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.cycle is None
            and not self.index_errors
            and not self.duplicate_pairs
            and not self.self_pairs
            and not self.schema_errors
        )

    def to_dict(self) -> dict:
        return {
            "id": self.doc_id,
            "ok": self.ok,
            "cycle": list(self.cycle) if self.cycle else None,
            "index_errors": [list(p) for p in self.index_errors],
            "duplicate_pairs": [list(p) for p in self.duplicate_pairs],
            "self_pairs": list(self.self_pairs),
            "schema_errors": list(self.schema_errors),
        }


def validate_annotation(doc) -> AnnotationReport:
    """Report isdr problems in one corpus line's raw JSON value: cycles,
    ranges, duplicates, self-pairs and, instead of raising, schema problems:
    a value that is not an object, and each reason ``load_corpus`` would
    refuse the document for.
    """
    if not isinstance(doc, dict):
        doc_id, n, raw_pairs = "<missing id>", 0, []
        schema_errors = [f"document is a JSON {type(doc).__name__}, not an object"]
    else:
        doc_id = str(doc.get("id", "<missing id>"))
        schema_errors = []
        # The isdr is reported pair by pair below; every other field goes
        # through the checks that load_corpus runs.
        for check in (
            lambda: document_from_dict({**doc, "isdr": None}),
            lambda: document_split(doc),
        ):
            try:
                check()
            except ValidationError as exc:
                schema_errors.append(str(exc))
        try:
            n = len(doc["segments"])
        except (KeyError, TypeError):
            n = 0
        raw = doc.get("isdr") or []
        if not isinstance(raw, list):
            schema_errors.append(f"'isdr' is a JSON {type(raw).__name__}, not a list")
            raw = []
        raw_pairs = []
        for p in raw:
            try:
                raw_pairs.append(index_pair(p, "isdr"))
            except ValueError as exc:
                schema_errors.append(str(exc))

    index_errors = tuple(
        (a, b) for a, b in raw_pairs if not (0 <= a < n and 0 <= b < n)
    )
    seen = set()
    duplicates = []
    for p in raw_pairs:
        if p in seen:
            duplicates.append(p)
        else:
            seen.add(p)
    self_pairs = tuple(sorted({a for a, b in seen if a == b}))
    in_range = [(a, b) for a, b in seen if 0 <= a < n and 0 <= b < n]
    ok, violation = is_acyclic(Relation.from_pairs(n, in_range))
    cycle = None if ok else violation.witness
    return AnnotationReport(
        doc_id=doc_id,
        cycle=cycle,
        index_errors=index_errors,
        duplicate_pairs=tuple(duplicates),
        self_pairs=self_pairs,
        schema_errors=tuple(schema_errors),
    )


def collapse_word_relation(doc: Document, word_rel: Relation) -> Relation:
    """Project a word-level relation back onto segments, dropping intra-segment pairs."""
    owner = doc.word_segment_index()
    pairs = set()
    for a, b in word_rel.sorted_pairs():
        sa, sb = owner[a], owner[b]
        if sa != sb:
            pairs.add((sa, sb))
    return Relation(doc.n_segments, frozenset(pairs))
