"""One field of a valid corpus line, mutated: every command refuses it by name
or accepts it, and never crashes.

A mutation swaps a value for another JSON type, deletes it, or pushes an
integer out of range. For ``validate``, ``stats``, ``eval --heuristic``,
``convert`` and ``predict`` the exit code is 0, 1 or 2 with no exception
escaping ``main``, a failing command names the line or the document, and
``validate`` says ok exactly when ``load_corpus`` accepts the file.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.cli import main
from rorokit.layout import CorpusParseError, ValidationError, document_to_dict, load_corpus
from rorokit.nn import EncoderConfig, init_encoder_params
from rorokit.rop import GlobalPointerHead, ROPConfig, ROPModel
from rorokit.synth import SynthConfig, synth_generate

CORPUS = synth_generate(
    SynthConfig(n_docs=3, mix={"chain": 1.0, "grid": 1.0, "two-column": 1.0}), seed=0
)
LINES = [document_to_dict(doc, CORPUS.split[doc.id]) for doc in CORPUS.documents]

SWAPS = (None, True, False, 0, 1.5, -2.0, "", "x", [], [0], [0, 1, 2], {}, {"id": 0})
OUT_OF_RANGE = (-1, 1001, 2**63, -(2**64), 10**400)


def paths(value, prefix=()):
    """Every position below ``value``: dict keys and list indices, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


@st.composite
def mutations(draw):
    line = draw(st.integers(0, len(LINES) - 1))
    path = draw(st.sampled_from(list(paths(LINES[line]))))
    kind = draw(st.sampled_from(("swap", "delete", "out-of-range")))
    value = draw(st.sampled_from(OUT_OF_RANGE if kind == "out-of-range" else SWAPS))
    return line, path, kind, value


def mutate(obj, path, kind, value):
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    config = EncoderConfig(layers=0, model_dim=16, heads=2)
    store = init_encoder_params(config)
    GlobalPointerHead.create(config.model_dim, ROPConfig().head_dim, store)
    ROPModel(config, ROPConfig(), store).save(work / "model.json")
    return work


def commands(work, corpus):
    return {
        "validate": ("validate", corpus, "-o", work / "validate.json"),
        "stats": ("stats", corpus, "-o", work / "stats.json"),
        "eval": ("eval", corpus, "--heuristic", "-o", work / "eval.json"),
        "convert": ("convert", corpus, "-o", work / "words.jsonl"),
        "predict": ("predict", corpus, "--model", work / "model.json",
                    "--out-corpus", work / "pred.jsonl", "-o", work / "pred.json"),
    }


def write(work, lines):
    path = work / "corpus.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return path


def test_every_command_accepts_the_unmutated_corpus(workdir):
    corpus = write(workdir, LINES)
    for name, argv in commands(workdir, corpus).items():
        code, err = run(*argv)
        assert code == 0, (name, err)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(mutations())
def test_one_mutated_field_is_refused_by_name_or_accepted(workdir, mutation):
    line, path, kind, value = mutation
    lines = list(LINES)
    lines[line] = mutate(LINES[line], path, kind, value)
    corpus = write(workdir, lines)
    doc_id = lines[line].get("id")
    names = [f"line {line + 1}"] + ([doc_id] if isinstance(doc_id, str) and doc_id else [])
    try:
        load_corpus(corpus)
        accepted = True
    except (CorpusParseError, ValidationError):
        accepted = False
    for name, argv in commands(workdir, corpus).items():
        code, err = run(*argv)
        assert code in (0, 1, 2), (name, code)
        assert "Traceback" not in err, name
        if code != 0:
            assert any(n in err for n in names), (name, err)
        if name == "validate":
            assert (code == 0) == accepted, err
