import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.layout import (
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
    document_from_dict,
    document_to_dict,
    load_corpus,
    save_corpus,
    validate_annotation,
)
from rorokit.relations import Relation, is_acyclic


def seg(i, x0, y0, x1, y1, texts=("w",)):
    # One word row per segment, words side by side.
    words = []
    step = max(1, (x1 - x0) // max(1, len(texts)))
    for k, t in enumerate(texts):
        wx0 = x0 + k * step
        words.append(Word(t, BBox(wx0, y0, min(wx0 + step, x1), y1)))
    return Segment(i, tuple(words), BBox(x0, y0, x1, y1))


def chain_doc(doc_id="d0", n=3, texts_per_seg=1):
    segments = tuple(
        seg(i, 0, 100 * i, 500, 100 * i + 80, texts=tuple(f"w{i}{k}" for k in range(texts_per_seg)))
        for i in range(n)
    )
    isdr = Relation.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    return Document(doc_id, 1000, 1000, segments, isdr)


# --- BBox ---


def test_bbox_bounds():
    box = BBox(0, 0, 1000, 1000)
    assert box.as_list() == [0, 0, 1000, 1000]
    with pytest.raises(ValidationError):
        BBox(10, 0, 5, 5)
    with pytest.raises(ValidationError):
        BBox(0, 0, 1001, 5)
    with pytest.raises(ValidationError):
        BBox(-1, 0, 5, 5)


def test_segment_box_contains_its_word_boxes():
    # A segment's box must contain each word box; edges may touch.
    outer = BBox(10, 10, 100, 100)
    inner = BBox(20, 20, 50, 50)
    assert Segment(0, (Word("w", inner), Word("v", outer)), outer).box == outer
    for word_box in (BBox(9, 10, 100, 100), BBox(10, 9, 100, 100),
                     BBox(10, 10, 101, 100), BBox(10, 10, 100, 101)):
        reason = f"segment 0 box does not contain word box {word_box.as_list()}"
        with pytest.raises(ValidationError, match=re.escape(reason)):
            Segment(0, (Word("w", inner), Word("v", word_box)), outer)


def test_bbox_center_and_height():
    box = BBox(0, 100, 50, 200)
    assert box.center() == (25.0, 150.0)
    assert box.height == 100


# --- structural invariants ---


def test_word_requires_text():
    with pytest.raises(ValidationError):
        Word("", BBox(0, 0, 1, 1))


def test_segment_requires_contained_words():
    w = Word("x", BBox(0, 0, 60, 10))
    with pytest.raises(ValidationError):
        Segment(0, (w,), BBox(0, 0, 50, 50))
    with pytest.raises(ValidationError):
        Segment(0, (), BBox(0, 0, 50, 50))


def test_document_requires_dense_ids():
    s0 = seg(0, 0, 0, 100, 50)
    s2 = seg(2, 0, 60, 100, 110)
    with pytest.raises(ValidationError):
        Document("d", 1000, 1000, (s0, s2))


def test_document_relation_size_checked():
    doc = chain_doc(n=3)
    with pytest.raises(ValidationError):
        Document("d", 1000, 1000, doc.segments, Relation(5, ()))


def test_document_word_bookkeeping():
    doc = chain_doc(n=3, texts_per_seg=2)
    assert doc.n_segments == 3
    assert doc.n_words == 6
    assert doc.word_spans() == [(0, 2), (2, 4), (4, 6)]
    assert doc.word_segment_index() == [0, 0, 1, 1, 2, 2]


def test_corpus_split_validation():
    doc = chain_doc()
    corpus = Corpus((doc,))
    assert corpus.split == {"d0": "train"}
    with pytest.raises(ValidationError):
        Corpus((doc,), {"d0": "holdout"})
    with pytest.raises(ValidationError):
        Corpus((doc,), {"other": "train"})
    assert Corpus((doc,), {"d0": "test"}).subset("test") == [doc]


# --- serialization ---


def test_document_dict_field_order():
    doc = chain_doc(n=2)
    obj = document_to_dict(doc, "test")
    assert list(obj.keys()) == ["id", "page", "segments", "isdr", "split"]
    assert list(obj["segments"][0].keys()) == ["id", "box", "words"]
    assert obj["isdr"] == [[0, 1]]
    assert document_from_dict(json.loads(json.dumps(obj))) == doc


def test_round_trip_corpus(tmp_path):
    docs = tuple(chain_doc(f"d{i}", n=3 + i) for i in range(3))
    corpus = Corpus(docs, {"d0": "train", "d1": "validation", "d2": "test"})
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.documents == corpus.documents
    assert loaded.split == corpus.split


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(document_to_dict(chain_doc(), "train"))
    path.write_text(good + "\n{not json\n")
    with pytest.raises(CorpusParseError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 2


def test_load_rejects_inverted_box(tmp_path):
    obj = document_to_dict(chain_doc("dbad"), "train")
    obj["segments"][0]["box"] = [400, 0, 0, 80]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValidationError, match="dbad"):
        load_corpus(path)


def test_load_rejects_cyclic_isdr(tmp_path):
    obj = document_to_dict(chain_doc("dcyc", n=2), "train")
    obj["isdr"] = [[0, 1], [1, 0]]
    path = tmp_path / "cyc.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValidationError, match=r"dcyc: cyclic isdr, witness \[0, 1, 0\]"):
        load_corpus(path)


@pytest.mark.parametrize("field", ["isdr", "links"])
def test_load_rejects_a_repeated_relation_pair(tmp_path, field):
    # A relation is a set: a pair listed twice would silently count once.
    obj = document_to_dict(chain_doc("drep", n=3), "train")
    obj[field] = [[0, 1], [1, 2], [0, 1]]
    reason = f"document drep: {field} lists pair [0, 1] more than once"
    with pytest.raises(ValidationError, match=re.escape(reason)):
        document_from_dict(obj)
    path = tmp_path / "rep.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValidationError, match=re.escape(reason)):
        load_corpus(path)
    report = validate_annotation(obj)
    assert not report.ok
    if field == "isdr":
        assert report.duplicate_pairs == ((0, 1),)
    else:
        assert report.schema_errors == (reason,)


def test_load_rejects_duplicate_ids(tmp_path):
    # Four lines, three ids: the repeat must not silently overwrite the split.
    rows = [("a", "train"), ("b", "train"), ("c", "test"), ("b", "test")]
    path = tmp_path / "dup.jsonl"
    path.write_text(
        "".join(
            json.dumps(document_to_dict(chain_doc(i), split=split)) + "\n"
            for i, split in rows
        )
    )
    with pytest.raises(ValidationError, match="line 4: .* id 'b' .*line 2"):
        load_corpus(path)
    with pytest.raises(ValidationError, match="duplicate document ids"):
        Corpus((chain_doc(), chain_doc()))


# --- word-level derivation ---


def test_derive_word_level_cross_segment_rule():
    # A = [a1, a2], B = [b1]; the bridge pair is last-of-A -> first-of-B.
    a = seg(0, 0, 0, 400, 80, texts=("a1", "a2"))
    b = seg(1, 0, 100, 400, 180, texts=("b1",))
    doc = Document("d", 1000, 1000, (a, b), Relation.from_pairs(2, [(0, 1)]))
    assert derive_word_level(doc).pairs == {(0, 1), (1, 2)}


def test_derive_word_level_single_segment():
    a = seg(0, 0, 0, 600, 80, texts=("a1", "a2", "a3"))
    doc = Document("d", 1000, 1000, (a,), Relation(1, ()))
    assert derive_word_level(doc).pairs == {(0, 1), (1, 2)}


def test_derive_word_level_preserves_branching():
    a = seg(0, 0, 0, 200, 80, texts=("a1",))
    b = seg(1, 0, 100, 200, 180, texts=("b1",))
    c = seg(2, 300, 100, 500, 180, texts=("c1",))
    doc = Document(
        "d", 1000, 1000, (a, b, c), Relation.from_pairs(3, [(0, 1), (0, 2)])
    )
    assert derive_word_level(doc).pairs == {(0, 1), (0, 2)}


def test_derive_word_level_requires_isdr():
    doc = Document("d", 1000, 1000, chain_doc().segments, None)
    with pytest.raises(ValidationError):
        derive_word_level(doc)


def test_derive_word_level_refuses_a_cyclic_isdr():
    # Document keeps a cyclic relation representable; deriving from it is refused.
    cyclic = Relation.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    doc = Document("d", 1000, 1000, chain_doc(n=3).segments, cyclic)
    with pytest.raises(ValidationError, match=r"d: cyclic isdr, witness \[0, 1, 2, 0\]"):
        derive_word_level(doc)


@given(st.integers(2, 6), st.integers(1, 3))
@settings(derandomize=True, database=None)
def test_derived_relation_is_acyclic_and_collapses_back(n, words_per):
    doc = chain_doc("d", n=n, texts_per_seg=words_per)
    word_rel = derive_word_level(doc)
    assert is_acyclic(word_rel)[0]
    assert collapse_word_relation(doc, word_rel) == doc.isdr


# --- statistics ---


def test_nonlinear_chain_is_zero():
    corpus = Corpus((chain_doc(n=3),))
    assert corpus_stats(corpus).nonlinear_fraction == 0.0


def test_nonlinear_star_is_one_third():
    a = seg(0, 0, 0, 200, 80)
    b = seg(1, 0, 100, 200, 180)
    c = seg(2, 300, 100, 500, 180)
    doc = Document(
        "d", 1000, 1000, (a, b, c), Relation.from_pairs(3, [(0, 1), (0, 2)])
    )
    # One of the three segments branches.
    assert corpus_stats(Corpus((doc,))).nonlinear_fraction == pytest.approx(1 / 3)


def test_nonlinear_literal_reading_marks_interior_chain_segments():
    corpus = Corpus((chain_doc(n=4),))
    # Interior segments have exactly one predecessor and one successor.
    literal = corpus_stats(corpus, literal_nonlinearity=True)
    assert literal.nonlinear_fraction == pytest.approx(0.5)
    assert corpus_stats(corpus, literal_nonlinearity=False).nonlinear_fraction == 0.0


def test_nonlinear_requires_isdr():
    # Without every document's isdr there is no fraction to report.
    doc = Document("d", 1000, 1000, chain_doc().segments, None)
    corpus = Corpus((doc, chain_doc("e", n=3)))
    assert corpus_stats(corpus).nonlinear_fraction is None
    assert corpus_stats(corpus, literal_nonlinearity=True).nonlinear_fraction is None


def test_corpus_stats_counts():
    corpus = Corpus((chain_doc("a", n=3, texts_per_seg=2), chain_doc("b", n=2)))
    stats = corpus_stats(corpus)
    assert (stats.documents, stats.segments, stats.words, stats.pairs) == (2, 5, 8, 3)
    assert stats.nonlinear_fraction == 0.0
    empty = corpus_stats(Corpus(()))
    assert empty.documents == 0 and empty.nonlinear_fraction is None


# --- annotation validation ---


def test_validate_clean_document():
    report = validate_annotation(document_to_dict(chain_doc(), "train"))
    assert report.ok
    assert report.cycle is None


def test_validate_flags_self_pair():
    raw = document_to_dict(chain_doc("d", n=2), "train")
    raw["isdr"] = [[0, 0], [0, 1]]
    report = validate_annotation(raw)
    assert not report.ok
    assert report.self_pairs == (0,)


def test_validate_flags_cycle_with_witness():
    raw = document_to_dict(chain_doc("d", n=3), "train")
    raw["isdr"] = [[0, 1], [1, 2], [2, 0]]
    report = validate_annotation(raw)
    assert report.cycle == (0, 1, 2, 0)


def test_validate_flags_duplicates_and_ranges():
    raw = document_to_dict(chain_doc("d", n=2), "train")
    raw["isdr"] = [[0, 1], [0, 1], [5, 1], ["x", 1]]
    report = validate_annotation(raw)
    assert report.duplicate_pairs == ((0, 1),)
    assert report.index_errors == ((5, 1),)
    assert report.schema_errors
    assert not report.ok
    as_dict = report.to_dict()
    assert as_dict["ok"] is False and as_dict["id"] == "d"


@pytest.mark.parametrize("pair", [[0.9, 1.7], ["0", "1"], [True, False]],
                         ids=["float", "string", "bool"])
@pytest.mark.parametrize("field", ["isdr", "links"])
def test_relation_pair_that_is_not_two_integers_is_refused(field, pair):
    raw = document_to_dict(chain_doc("d", n=3), "train")
    raw[field] = [[0, 1], pair]
    reason = f"{field} pair {pair!r} is not two integers"
    with pytest.raises(ValidationError, match=re.escape(f"document d: {reason}")):
        document_from_dict(raw)
    report = validate_annotation(raw)
    [message] = report.schema_errors
    assert message.endswith(reason) and not report.ok


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda obj: obj.pop("id"), "document has no id"),
        (lambda obj: obj.update(id=None), "document id must be a non-empty string, got None"),
        (lambda obj: obj.update(id=5), "document id must be a non-empty string, got 5"),
        (lambda obj: obj.update(id=""), "document id must be a non-empty string, got ''"),
    ],
    ids=["missing", "null", "int", "empty"],
)
def test_document_id_that_is_not_a_non_empty_string_is_refused(tmp_path, edit, reason):
    raw = document_to_dict(chain_doc("d", n=2), "train")
    edit(raw)
    with pytest.raises(ValidationError, match=re.escape(reason)):
        document_from_dict(raw)
    report = validate_annotation(raw)
    assert report.schema_errors == (reason,) and not report.ok
    path = tmp_path / "ids.jsonl"
    path.write_text(json.dumps(document_to_dict(chain_doc("a"), "train")) + "\n" + json.dumps(raw) + "\n")
    with pytest.raises(ValidationError, match=re.escape(f"line 2: {reason}")):
        load_corpus(path)


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: BBox(0.5, 0, 999, 999), "box x0 must be an integer, got 0.5"),
        (lambda: BBox(0, True, 999, 999), "box y0 must be an integer, got True"),
        (lambda: BBox(0, 0, "999", 999), "box x1 must be an integer, got '999'"),
        (lambda: BBox(0, 0, 999, 999.0), "box y1 must be an integer, got 999.0"),
        (lambda: BBox(np.int64(0), 0, 999, 999),
         f"box x0 must be an integer, got {np.int64(0)!r}"),
        (lambda: BBox(0, None, 999, [999]), "box y0 must be an integer, got None"),
        (lambda: Segment(0.0, chain_doc().segments[0].words, BBox(0, 0, 999, 999)),
         "segment id must be an integer, got 0.0"),
        (lambda: Document("d", 1000.9, 1000, chain_doc().segments),
         "page width must be an integer, got 1000.9"),
        (lambda: Document("d", 1000, "1000", chain_doc().segments),
         "page height must be an integer, got '1000'"),
    ],
    ids=["float-box", "bool-box", "string-box", "float-y1", "numpy-int64-box",
         "two-bad-fields-first-named", "float-segment-id", "float-page", "string-page"],
)
def test_layout_integers_are_not_coerced(make, reason):
    with pytest.raises(TypeError, match=re.escape(reason)):
        make()


def test_layout_accepts_an_int_subclass():
    class Coordinate(int):
        pass

    box = BBox(Coordinate(0), 0, Coordinate(999), Coordinate(999))
    assert box.as_list() == [0, 0, 999, 999]
    assert Segment(Coordinate(0), chain_doc().segments[0].words, box).id == 0


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda obj: obj["segments"][0].update(box=[0.5, 0, 999, 999]),
         "box x0 must be an integer, got 0.5"),
        (lambda obj: obj["segments"][0]["words"][0].update(box=[0, True, 10, 10]),
         "box y0 must be an integer, got True"),
        (lambda obj: obj["segments"][0].update(id=0.7),
         "segment id must be an integer, got 0.7"),
        (lambda obj: obj["segments"][0].update(id="0"),
         "segment id must be an integer, got '0'"),
        (lambda obj: obj.update(page=[1000.9, 1000]),
         "page width must be an integer, got 1000.9"),
    ],
    ids=["float-box", "bool-word-box", "float-segment-id", "string-segment-id",
         "float-page"],
)
def test_corpus_line_with_a_non_integer_layout_value_is_refused(tmp_path, edit, reason):
    raw = document_to_dict(chain_doc("d", n=2), "train")
    edit(raw)
    message = f"document d: malformed field ({reason})"
    with pytest.raises(ValidationError, match=re.escape(message)):
        document_from_dict(raw)
    report = validate_annotation(raw)
    assert report.schema_errors == (message,) and not report.ok
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps(raw) + "\n")
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_corpus(path)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda obj: obj["segments"][1].update(id=5),
         "segment ids must be 0..1, got [0, 5]"),
        (lambda obj: obj.update(page=[0, 1000]), "non-positive page size"),
        (lambda obj: obj.update(links=[[0, 5]]),
         "pair (0, 5) out of range for element_count=2"),
    ],
    ids=["segment-ids", "page-size", "links-pair"],
)
def test_refused_corpus_line_names_its_document_once(tmp_path, edit, reason):
    raw = document_to_dict(chain_doc("d", n=2), "train")
    edit(raw)
    message = f"document d: {reason}"
    with pytest.raises(ValidationError) as caught:
        document_from_dict(raw)
    assert str(caught.value) == message
    assert validate_annotation(raw).schema_errors == (message,)
    path = tmp_path / "once.jsonl"
    path.write_text(json.dumps(raw) + "\n")
    with pytest.raises(ValidationError) as caught:
        load_corpus(path)
    assert str(caught.value) == message
