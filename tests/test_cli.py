import base64
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rorokit
from rorokit.cli import main
from rorokit.layout import derive_word_level, load_corpus
from rorokit.metrics import corpus_f1
from rorokit.nn import EncoderConfig, init_encoder_params
from rorokit.relations import Relation, is_acyclic
from rorokit.rop import GlobalPointerHead, ROPConfig, ROPModel, tokens_for_document
from rorokit.synth import SynthConfig, synth_generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(tmp_path, n_docs=8, mix=None, seed=0, name="corpus.jsonl"):
    path = tmp_path / name
    config = SynthConfig(n_docs=n_docs, mix=mix or {"chain": 1.0})
    from rorokit.layout import save_corpus

    save_corpus(synth_generate(config, seed=seed), path)
    return path


TRAIN_CFG = {
    "rop": {"epochs": 6, "batch_size": 4, "seed": 0, "val_fraction": 0.2},
    "encoder": {"layers": 0, "model_dim": 16, "heads": 2},
}


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


# --- validate / stats / closure / convert ---


def test_validate_clean_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    code, out, _ = run(capsys, "validate", str(corpus))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_reports_cycles(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(
            {
                "id": "loop",
                "page": [100, 100],
                "segments": [
                    {"id": 0, "box": [0, 0, 40, 40],
                     "words": [{"text": "a", "box": [0, 0, 10, 10]}]},
                    {"id": 1, "box": [50, 50, 90, 90],
                     "words": [{"text": "b", "box": [50, 50, 60, 60]}]},
                ],
                "isdr": [[0, 1], [1, 0]],
            }
        )
        + "\n"
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    report = json.loads(out)["documents"][0]
    assert report["id"] == "loop" and report["cycle"] is not None
    assert "loop" in err


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[1, 2]", "document is a JSON list, not an object"),
        ('"x"', "document is a JSON str, not an object"),
        ({"isdr": 5}, "'isdr' is a JSON int, not a list"),
        ({"isdr": "01"}, "'isdr' is a JSON str, not a list"),
    ],
    ids=["list", "string", "int-isdr", "string-isdr"],
)
def test_validate_reports_malformed_documents(tmp_path, capsys, line, reason):
    corpus = write_corpus(tmp_path, n_docs=2)
    lines = corpus.read_text().splitlines()
    if isinstance(line, dict):
        line = json.dumps({**json.loads(lines[1]), **line})
    lines[1] = line
    corpus.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "validate", str(corpus))
    assert code == 1
    first, second = json.loads(out)["documents"]
    assert first["ok"] and not second["ok"]
    assert second["schema_errors"] == [reason]
    assert reason in err


@pytest.mark.parametrize("line, kind", [("[1, 2]", "list"), ('"x"', "str")],
                         ids=["list", "string"])
@pytest.mark.parametrize(
    "command", [["stats"], ["convert"], ["eval", "--heuristic"], ["render"]],
    ids=["stats", "convert", "eval", "render"],
)
def test_corpus_line_that_is_not_an_object_exits_2(tmp_path, capsys, line, kind, command):
    corpus = write_corpus(tmp_path, n_docs=2)
    corpus.write_text(corpus.read_text() + line + "\n")
    code, out, err = run(capsys, command[0], str(corpus), *command[1:])
    assert code == 2 and out == ""
    assert f"error: line 3: holds a JSON {kind}, not an object" in err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda obj: obj.update(split=[1]),
         "has split [1], not one of train, validation, test"),
        (lambda obj: obj.update(split="dev"),
         "has split 'dev', not one of train, validation, test"),
        (lambda obj: obj["segments"][0]["words"][0].update(text=5),
         "word text must be a string, got 5"),
    ],
    ids=["list-split", "unknown-split", "int-text"],
)
def test_validate_reports_what_load_corpus_refuses(tmp_path, capsys, edit, reason):
    corpus = write_corpus(tmp_path, n_docs=2)
    doc_id = edit_second_document(corpus, edit)
    code, out, err = run(capsys, "validate", str(corpus))
    assert code == 1
    first, second = json.loads(out)["documents"]
    assert first["ok"] and not second["ok"]
    [message] = second["schema_errors"]
    assert doc_id in message and message.endswith(reason)
    assert reason in err
    with pytest.raises(ValueError, match=re.escape(reason)):
        load_corpus(corpus)


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/corpus.jsonl")
    assert code == 2 and "error" in err


def test_stats_counts(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=5)
    code, out, err = run(capsys, "stats", str(corpus))
    assert code == 0
    stats = json.loads(out)
    loaded = load_corpus(corpus)
    assert stats["documents"] == 5
    assert stats["segments"] == sum(d.n_segments for d in loaded.documents)
    assert stats["pairs"] == sum(len(d.isdr) for d in loaded.documents)
    assert stats["nonlinear_fraction"] == 0.0  # pure chains
    assert "documents 5" in err


def test_stats_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, _ = run(capsys, "stats", str(empty))
    assert code == 0
    stats = json.loads(out)
    assert stats["documents"] == 0 and stats["nonlinear_fraction"] is None


def edit_second_document(corpus, edit):
    """Apply ``edit`` to the second document of a corpus file; return its id."""
    lines = corpus.read_text().splitlines()
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = json.dumps(obj)
    corpus.write_text("\n".join(lines) + "\n")
    return obj.get("id")


@pytest.mark.parametrize("split", [["train"], 1, "dev"], ids=["list", "int", "unknown"])
@pytest.mark.parametrize("command", [["stats"], ["eval", "--heuristic"]],
                         ids=["stats", "eval"])
def test_split_outside_the_split_names_exits_1(tmp_path, capsys, split, command):
    corpus = write_corpus(tmp_path, n_docs=3)
    doc_id = edit_second_document(corpus, lambda obj: obj.update(split=split))
    code, out, err = run(capsys, command[0], str(corpus), *command[1:])
    assert code == 1 and out == ""
    assert (f"error: line 2: document {doc_id!r} has split {split!r}, "
            "not one of train, validation, test") in err


@pytest.mark.parametrize("pair", [[0.9, 1.7], ["0", "1"], [True, False]],
                         ids=["float", "string", "bool"])
@pytest.mark.parametrize("field", ["isdr", "links"])
def test_relation_pair_that_is_not_two_integers_is_refused(tmp_path, capsys, field, pair):
    corpus = write_corpus(tmp_path, n_docs=3)
    doc_id = edit_second_document(corpus, lambda obj: obj.update({field: [[0, 1], pair]}))
    reason = f"{field} pair {pair!r} is not two integers"
    code, out, err = run(capsys, "stats", str(corpus))
    assert code == 1 and out == ""
    assert f"error: document {doc_id}: {reason}" in err
    code, out, err = run(capsys, "validate", str(corpus))
    assert code == 1
    first, second, third = json.loads(out)["documents"]
    assert first["ok"] and third["ok"] and not second["ok"]
    [message] = second["schema_errors"]
    assert message.endswith(reason)


@pytest.mark.parametrize("text", [5, None, ["a"]], ids=["int", "null", "list"])
def test_stats_rejects_word_text_that_is_not_a_string(tmp_path, capsys, text):
    corpus = write_corpus(tmp_path, n_docs=3)

    def edit(obj):
        obj["segments"][0]["words"][0]["text"] = text

    doc_id = edit_second_document(corpus, edit)
    code, out, err = run(capsys, "stats", str(corpus))
    assert code == 1 and out == ""
    assert f"error: document {doc_id}: word text must be a string, got {text!r}" in err


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
def test_document_id_that_is_not_a_non_empty_string_is_refused(tmp_path, capsys, edit, reason):
    corpus = write_corpus(tmp_path, n_docs=3)
    edit_second_document(corpus, edit)
    model = write_model(tmp_path)
    for command in (["stats"], ["eval", "--heuristic"],
                    ["predict", "--model", str(model), "--out-corpus", str(tmp_path / "p.jsonl")]):
        code, out, err = run(capsys, command[0], str(corpus), *command[1:])
        assert code == 1 and out == ""
        assert f"error: line 2: {reason}" in err
    assert not (tmp_path / "p.jsonl").exists()
    code, out, err = run(capsys, "validate", str(corpus))
    assert code == 1
    first, second, third = json.loads(out)["documents"]
    assert first["ok"] and third["ok"] and not second["ok"]
    assert second["schema_errors"] == [reason]
    assert "invalid: line 2: " in err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda obj: obj["segments"][0].update(box=[0.5, 0, 999, 999]),
         "box x0 must be an integer, got 0.5"),
        (lambda obj: obj["segments"][0].update(id=0.7),
         "segment id must be an integer, got 0.7"),
        (lambda obj: obj["segments"][0].update(id="0"),
         "segment id must be an integer, got '0'"),
        (lambda obj: obj.update(page=[1000.9, 1000]),
         "page width must be an integer, got 1000.9"),
    ],
    ids=["float-box", "float-segment-id", "string-segment-id", "float-page"],
)
def test_layout_value_that_is_not_an_integer_is_refused(tmp_path, capsys, edit, reason):
    corpus = write_corpus(tmp_path, n_docs=3)
    doc_id = edit_second_document(corpus, edit)
    message = f"document {doc_id}: malformed field ({reason})"
    model = write_model(tmp_path)
    for command in (["stats"], ["eval", "--heuristic"],
                    ["predict", "--model", str(model), "--out-corpus", str(tmp_path / "p.jsonl")]):
        code, out, err = run(capsys, command[0], str(corpus), *command[1:])
        assert code == 1 and out == ""
        assert f"error: {message}" in err
    assert not (tmp_path / "p.jsonl").exists()
    code, out, err = run(capsys, "validate", str(corpus))
    assert code == 1
    first, second, third = json.loads(out)["documents"]
    assert first["ok"] and third["ok"] and not second["ok"]
    assert second["schema_errors"] == [message]


@pytest.mark.parametrize("field", ["isdr", "links"])
def test_a_repeated_relation_pair_is_refused(tmp_path, capsys, field):
    corpus = write_corpus(tmp_path, n_docs=3)
    doc_id = edit_second_document(
        corpus, lambda obj: obj.update({field: obj["isdr"] + obj["isdr"][:1]})
    )
    pair = json.loads(corpus.read_text().splitlines()[1])["isdr"][0]
    reason = f"document {doc_id}: {field} lists pair {pair} more than once"
    for command in (["eval", "--heuristic"], ["stats"]):
        code, out, err = run(capsys, command[0], str(corpus), *command[1:])
        assert code == 1 and out == ""
        assert f"error: {reason}" in err
    code, out, _ = run(capsys, "validate", str(corpus))
    assert code == 1
    assert [doc["ok"] for doc in json.loads(out)["documents"]] == [True, False, True]


def test_closure_command(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text('{"n": 3, "pairs": [[0, 1], [1, 2]]}')
    out_path = tmp_path / "closed.json"
    code, _, _ = run(capsys, "closure", str(rel), "-o", str(out_path))
    assert code == 0
    closed = json.loads(out_path.read_text())
    assert [0, 2] in closed["pairs"]


def test_closure_bad_json_exits_2(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text("{not json")
    code, _, _ = run(capsys, "closure", str(rel))
    assert code == 2


def test_closure_cost_follows_the_pairs_not_the_element_count(tmp_path):
    rel = tmp_path / "rel.json"
    rel.write_text('{"n": 1000000000000, "pairs": [[0, 1]]}')
    # The child runs under a 1 GiB address-space limit, so that code which
    # allocates per element fails fast instead of filling the machine.
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from rorokit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(rorokit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", child, "closure", str(rel)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"n": 1000000000000, "pairs": [[0, 1]]}


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[[0, 1]]", "relation is a JSON list, not an object"),
        ('{"pairs": []}', "relation field 'n' is missing or not an integer: None"),
        ('{"n": "3", "pairs": []}',
         "relation field 'n' is missing or not an integer: '3'"),
        ('{"n": 3}', "relation field 'pairs' is missing or not a list"),
        ('{"n": 3, "pairs": [[0]]}', "relation pair [0] is not two integers"),
        ('{"n": 3, "pairs": [[0, 1.5]]}', "relation pair [0, 1.5] is not two integers"),
        ('{"n": 3, "pairs": [0]}', "relation pair 0 is not two integers"),
        ('{"n": 3, "pairs": [[0, 1], [1, 2], [0, 1]]}',
         "relation lists pair [0, 1] more than once"),
    ],
    ids=["list", "no-n", "string-n", "no-pairs", "short-pair", "float-pair", "int-pair",
         "repeated-pair"],
)
def test_closure_malformed_relation_exits_1(tmp_path, capsys, text, reason):
    rel = tmp_path / "rel.json"
    rel.write_text(text)
    code, out, err = run(capsys, "closure", str(rel))
    assert code == 1 and out == ""
    assert f"error: {reason}" in err


def test_convert_produces_word_level_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=3)
    out_path = tmp_path / "words.jsonl"
    code, _, _ = run(capsys, "convert", str(corpus), "-o", str(out_path))
    assert code == 0
    original = load_corpus(corpus)
    converted = load_corpus(out_path)
    for before, after in zip(original.documents, converted.documents):
        assert after.n_segments == before.n_words
        assert all(len(seg.words) == 1 for seg in after.segments)


# --- synth ---


def test_synth_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(capsys, "synth", "--seed", "4", "--n-docs", "6",
                         "-o", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_forms_flag(tmp_path, capsys):
    path = tmp_path / "forms.jsonl"
    code, _, _ = run(capsys, "synth", "--forms", "--n-docs", "10",
                     "--seed", "0", "-o", str(path))
    assert code == 0
    corpus = load_corpus(path)
    assert len(corpus) == 10
    assert all(d.links is not None for d in corpus.documents)
    assert all(d.id.startswith("form-") for d in corpus.documents)


def test_synth_stdout_is_jsonl(tmp_path, capsys):
    code, out, _ = run(capsys, "synth", "--seed", "1", "--n-docs", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 and all(json.loads(l)["id"] for l in lines)


def test_synth_bad_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"synth": {"mix": {"spiral": 1.0}}})
    code, _, _ = run(capsys, "synth", "--config", str(cfg))
    assert code == 1


@pytest.mark.parametrize("n_docs", [sys.maxsize + 1, 10**400], ids=["maxsize+1", "1e400"])
@pytest.mark.parametrize(
    "argv, sections",
    [
        (["synth", "--n-docs", "{n}"], None),
        (["synth", "--forms", "--n-docs", "{n}"], None),
        (["synth"], {"synth": {"n_docs": "{n}"}}),
        (["demo-rore"], {"demo": {"n_docs": "{n}"}}),
    ],
    ids=["synth", "synth-forms", "synth-config", "demo-rore"],
)
def test_a_document_count_no_corpus_can_hold_exits_1(tmp_path, capsys, argv, sections, n_docs):
    argv = [arg.format(n=n_docs) for arg in argv]
    if sections is not None:
        section = next(iter(sections.values()))
        section["n_docs"] = n_docs
        argv += ["--config", str(write_config(tmp_path, sections))]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: n_docs must be positive and at most {sys.maxsize}\n"


# --- train / eval / predict pipeline ---


def test_pipeline_train_eval_predict(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=8)
    cfg = write_config(tmp_path, TRAIN_CFG)
    model = tmp_path / "model.json"

    code, out, err = run(capsys, "train", str(corpus), "--model", str(model),
                         "--config", str(cfg))
    assert code == 0 and model.exists()
    report = json.loads(out)
    assert report["epochs_run"] >= 1 and str(model) in err

    code, out, _ = run(capsys, "eval", str(corpus), "--model", str(model),
                       "--heuristic")
    assert code == 0
    table = json.loads(out)
    assert [row["name"] for row in table["systems"]] == ["heuristic", "model"]
    assert table["ceiling"]["mean_best_recall"] == 1.0  # chains

    predicted = tmp_path / "pred.jsonl"
    code, out, _ = run(capsys, "predict", str(corpus), "--model", str(model),
                       "--out-corpus", str(predicted))
    assert code == 0 and predicted.exists()
    summary = json.loads(out)
    assert set(summary) == {"documents", "acyclic_fraction"}
    assert len(summary["documents"]) == 8
    reloaded = load_corpus(predicted)
    assert len(reloaded) == 8


def test_train_report_without_validation_is_strict_json(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=6)
    cfg = write_config(
        tmp_path,
        {"rop": {"epochs": 1, "val_fraction": 0.0}, "encoder": TRAIN_CFG["encoder"]},
    )
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "train", str(corpus), "--model",
                     str(tmp_path / "model.json"), "--config", str(cfg),
                     "-o", str(report_path))
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(report_path.read_text(), parse_constant=reject)
    assert report["val_docs"] == 0
    assert report["best_val_f1"] is None


def test_train_is_byte_deterministic(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=6)
    cfg = write_config(tmp_path, TRAIN_CFG)
    models = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, "train", str(corpus), "--model", str(path),
                         "--config", str(cfg))
        assert code == 0
        models.append(path.read_bytes())
    assert models[0] == models[1]


def test_train_rejects_word_text_that_is_not_a_string(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=6)

    def edit(obj):
        obj["segments"][-1]["words"][-1]["text"] = 5

    doc_id = edit_second_document(corpus, edit)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, "train", str(corpus), "--model", str(model),
                         "--config", str(write_config(tmp_path, TRAIN_CFG)))
    assert code == 1 and out == "" and not model.exists()
    assert f"error: document {doc_id}: word text must be a string, got 5" in err


def write_model(tmp_path, rop=ROPConfig(), **encoder):
    path = tmp_path / "model.json"
    config = EncoderConfig(**{"layers": 0, "model_dim": 16, "heads": 2, **encoder})
    store = init_encoder_params(config)
    GlobalPointerHead.create(config.model_dim, rop.head_dim, store)
    ROPModel(config, rop, store).save(path)
    return path


def pack(values) -> str:
    """A checkpoint's ``values`` text: base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unpack(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


@pytest.mark.parametrize(
    "name, shape", [("enc.tok_embed", [4, 16]), ("gp.Wq", [16, 2])]
)
def test_checkpoint_shapes_must_fit_config(tmp_path, capsys, name, shape):
    corpus = write_corpus(tmp_path, n_docs=2)
    model = write_model(tmp_path)
    obj = json.loads(model.read_text())
    param = obj["params"][name]
    needed = param["shape"]
    param["shape"] = shape
    param["values"] = pack(unpack(param["values"])[: shape[0] * shape[1]])
    model.write_text(json.dumps(obj))
    for argv in (["predict", "--out-corpus", str(tmp_path / "out.jsonl")], ["eval"]):
        code, out, err = run(capsys, argv[0], str(corpus), "--model", str(model),
                             *argv[1:])
        assert code == 1 and out == ""
        assert f"parameter {name!r} has shape {shape}" in err
        assert f"config needs {needed}" in err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda params: params.pop("gp.bk"),
         "parameter 'gp.bk' has shape absent in the checkpoint, but its config needs [128]"),
        (lambda params: params.update(extra=params["gp.bk"]),
         "parameter 'extra' has shape [128] in the checkpoint, but its config needs absent"),
        (lambda params: params.update(extra=params.pop("gp.bk")),
         "parameter 'gp.bk' has shape absent in the checkpoint, but its config needs [128]"),
    ],
    ids=["missing", "extra", "renamed"],
)
def test_checkpoint_names_must_fit_config(tmp_path, edit, reason):
    model = write_model(tmp_path)
    obj = json.loads(model.read_text())
    edit(obj["params"])
    model.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(f"{model}: {reason}")):
        ROPModel.load(model)


def load_peak(path):
    """``ROPModel.load``'s tracemalloc peak in bytes, and what it raised."""
    tracemalloc.start()
    try:
        ROPModel.load(path)
        error = None
    except ValueError as exc:
        error = exc
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak, error


@pytest.mark.parametrize("layers", [0, 1])
@pytest.mark.parametrize(
    "section, field, size, reason",
    [
        ("encoder", "vocab_hash_size", 10**6,
         "parameter 'enc.tok_embed' has shape [512, 16] in the checkpoint, "
         "but its config needs [1000000, 16]"),
        ("rop", "head_dim", 10**12,
         "parameter 'gp.Wq' has shape [16, 128] in the checkpoint, "
         "but its config needs [16, 1000000000000]"),
        ("encoder", "layers", 10**4,
         "parameter 'enc.l{layers}.ln1.gain' has shape absent in the checkpoint, "
         "but its config needs [16]"),
    ],
    ids=["vocab_hash_size", "head_dim", "layers"],
)
def test_a_checkpoint_config_of_huge_sizes_is_refused_without_allocating_them(
    tmp_path, capsys, layers, section, field, size, reason
):
    # The config's sizes would take 128 MB, 256 TB and 260 MB of parameters;
    # load compares them with the checkpoint's without building any.
    corpus = write_corpus(tmp_path, n_docs=2)
    model = write_model(tmp_path, layers=layers)
    baseline, error = load_peak(model)
    assert error is None
    obj = json.loads(model.read_text())
    obj["config"][section][field] = size
    model.write_text(json.dumps(obj))
    reason = reason.format(layers=layers)
    for argv in (["predict", "--out-corpus", str(tmp_path / "out.jsonl")], ["eval"]):
        code, out, err = run(capsys, argv[0], str(corpus), "--model", str(model),
                             *argv[1:])
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == f"error: {model}: {reason}\n"
    peak, error = load_peak(model)
    assert reason in str(error)
    assert peak < baseline + 2**20


def truncate_values(param):
    param["values"] = pack(unpack(param["values"])[:-1])


def cut_bytes(param):
    raw = base64.b64decode(param["values"])
    param["values"] = base64.b64encode(raw[:-3]).decode("ascii")


def poison_value(value):
    def corrupt(param):
        values = unpack(param["values"])
        values[3] = value
        param["values"] = pack(values)

    return corrupt


def set_values(values):
    return lambda param: param.update(values=values)


NOT_BASE64 = "has values that are not base64 text"


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (truncate_values, "has 1016 value bytes, but its shape [128] needs 1024"),
        (cut_bytes, "has 1021 value bytes, but its shape [128] needs 1024"),
        (poison_value(np.nan), "holds a value that is not a finite number"),
        (poison_value(-np.inf), "holds a value that is not a finite number"),
        (set_values([0.0] * 128), NOT_BASE64),
        (set_values("AAAA*AAA"), NOT_BASE64),
        (set_values("AAAAAAAAAAA"), NOT_BASE64),
    ],
    ids=["truncated", "odd-bytes", "nan", "inf", "list", "not-base64", "bad-padding"],
)
def test_checkpoint_values_are_checked_at_load(tmp_path, capsys, corrupt, reason):
    corpus = write_corpus(tmp_path, n_docs=2)
    model = write_model(tmp_path)
    obj = json.loads(model.read_text())
    corrupt(obj["params"]["gp.bq"])
    model.write_text(json.dumps(obj))
    for argv in (["predict", "--out-corpus", str(tmp_path / "out.jsonl")], ["eval"]):
        code, out, err = run(capsys, argv[0], str(corpus), "--model", str(model),
                             *argv[1:])
        assert code == 1 and out == ""
        assert f"{model}: parameter 'gp.bq' {reason}" in err


def test_checkpoint_that_is_not_json_is_named(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=2)
    model = tmp_path / "bad.json"
    model.write_text("not json\n")
    for argv in (["predict", "--out-corpus", str(tmp_path / "out.jsonl")], ["eval"]):
        code, out, err = run(capsys, argv[0], str(corpus), "--model", str(model),
                             *argv[1:])
        assert code == 2 and out == ""
        assert f"error: {model}: Expecting value: line 1 column 1 (char 0)" in err


def without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def edit_bq(field, value):
    def corrupt(obj):
        param = obj["params"]["gp.bq"]
        if value is None:
            del param[field]
        else:
            param[field] = value
        return obj

    return corrupt


def edit_rop(field, value):
    def corrupt(obj):
        obj["config"]["rop"][field] = value
        return obj

    return corrupt


def as_format_2(obj):
    """The same checkpoint as format 2 wrote it: values as JSON float lists."""
    for param in obj["params"].values():
        param["values"] = unpack(param["values"]).tolist()
    return {**obj, "format_version": 2}


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (without("params"), "checkpoint has no 'params' object"),
        (without("config"), "checkpoint has no 'config' object"),
        (edit_bq("shape", None), "parameter 'gp.bq' has no 'shape' field"),
        (edit_bq("shape", [-1, -128]),
         "parameter 'gp.bq' has shape [-1, -128], not a list of sizes"),
        (edit_rop("bogus", 1),
         "config section 'rop': ROPConfig.__init__() got an unexpected keyword "
         "argument 'bogus'"),
        (edit_rop("epochs", 1.5),
         "config section 'rop': epochs must be an integer, got 1.5"),
        (lambda obj: [obj], "checkpoint holds a JSON list, not an object"),
        (lambda obj: {**obj, "format_version": 1},
         "unsupported checkpoint format_version: 1"),
        (as_format_2, "unsupported checkpoint format_version: 2"),
        (edit_rop("max_tokens", 2048),
         "config section 'rop': ROPConfig.__init__() got an unexpected keyword "
         "argument 'max_tokens'"),
        (lambda obj: {**obj, "config": without("rop")(obj["config"])},
         "config has no 'rop' section"),
    ],
    ids=["no-params", "no-config", "no-shape", "negative-shape", "unknown-key",
         "float-count", "list", "format-1", "format-2", "rop-max-tokens", "no-rop"],
)
def test_checkpoint_structure_is_checked_at_load(tmp_path, capsys, corrupt, reason):
    corpus = write_corpus(tmp_path, n_docs=2)
    model = write_model(tmp_path)
    model.write_text(json.dumps(corrupt(json.loads(model.read_text()))))
    for argv in (["predict", "--out-corpus", str(tmp_path / "out.jsonl")], ["eval"]):
        code, out, err = run(capsys, argv[0], str(corpus), "--model", str(model),
                             *argv[1:])
        assert code == 1 and out == ""
        assert f"{model}: {reason}" in err


@pytest.mark.parametrize(
    "command, sections, reason",
    [
        ("train", {"rop": {"epochs": 1.5}},
         "bad ROPConfig section: epochs must be an integer, got 1.5"),
        ("train", {"rop": {"batch_size": 2.5}},
         "bad ROPConfig section: batch_size must be an integer, got 2.5"),
        ("train", {"rop": {"patience": True}},
         "bad ROPConfig section: patience must be an integer, got True"),
        ("train", {"encoder": {"layers": 1.0}},
         "bad EncoderConfig section: layers must be an integer, got 1.0"),
        ("demo-rore", {"demo": {"epochs": 1.5}},
         "bad DemoConfig section: epochs must be an integer, got 1.5"),
        ("demo-rore", {"demo": {"bias_layers": 1.5}},
         "bad DemoConfig section: bias_layers must be an integer, got 1.5"),
        ("demo-rore", {"demo": {"n_docs": "x"}},
         "bad demo section: n_docs must be an integer, got 'x'"),
        ("synth", {"synth": {"n_docs": 2.5}},
         "bad SynthConfig section: n_docs must be an integer, got 2.5"),
        ("synth", {"synth": {"grid_rows": [2, 4.5]}},
         "bad SynthConfig section: grid_rows entry must be an integer, got 4.5"),
        ("synth", {"synth": {"grid_rows": [2, 3, 4]}},
         "bad SynthConfig section: grid_rows must be a pair of integers, "
         "got [2, 3, 4]"),
    ],
    ids=["rop-float", "rop-batch-float", "rop-bool", "encoder-float", "demo-float",
         "demo-optional-float", "demo-n-docs", "synth-float", "synth-range-entry",
         "synth-range-length"],
)
def test_config_counts_must_be_integers(tmp_path, capsys, command, sections, reason):
    argv = [command, "--config", str(write_config(tmp_path, sections))]
    if command == "train":
        corpus = write_corpus(tmp_path, n_docs=2)
        argv += [str(corpus), "--model", str(tmp_path / "model.json")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert reason in err


@pytest.mark.parametrize("size", [10**400, 10**19, 10**12], ids=["1e400", "1e19", "1e12"])
@pytest.mark.parametrize("field", ["vocab_hash_size", "coord_buckets"])
def test_an_encoder_table_too_large_to_allocate_is_refused_by_name(
    tmp_path, capsys, field, size
):
    # 1e400 and 1e19 rows pass numpy's dimension limit; 1e12 rows of 64
    # floats are 466 TiB, more memory than a process can get.
    corpus = write_corpus(tmp_path, n_docs=20)
    cfg = write_config(tmp_path, {"encoder": {field: size}, "rop": {"epochs": 1}})
    code, out, err = run(capsys, "train", str(corpus), "--model",
                         str(tmp_path / "model.json"), "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: encoder {field} is too large: a table of {field} x 64")
    assert "Traceback" not in err and not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("size", [10**400, 10**19, 10**12], ids=["1e400", "1e19", "1e12"])
@pytest.mark.parametrize(
    "command, section, field, table",
    [
        ("train", "encoder", "ffn_dim", "encoder ffn_dim is too large: a table of 64 x ffn_dim"),
        ("train", "rop", "head_dim", "rop head_dim is too large: a table of 64 x head_dim"),
        ("demo-rore", "demo", "head_dim", "demo head_dim is too large: a table of 32 x head_dim"),
    ],
    ids=["encoder.ffn_dim", "rop.head_dim", "demo.head_dim"],
)
def test_every_parameter_too_large_to_allocate_is_refused_by_name(
    tmp_path, capsys, command, section, field, table, size
):
    # 1e12 columns of 64 or 32 floats are more memory than a process can get.
    sections = {section: {field: size}}
    if command == "train":
        sections.setdefault("rop", {})["epochs"] = 1
        argv = [str(write_corpus(tmp_path, n_docs=20)), "--model", str(tmp_path / "model.json")]
    else:
        sections["demo"]["n_docs"] = 20
        argv = []
    code, out, err = run(capsys, command, *argv, "--config", str(write_config(tmp_path, sections)))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {table} float64 values cannot be allocated")
    assert "Traceback" not in err and not (tmp_path / "model.json").exists()


def oversized_setup(tmp_path):
    """A corpus and a model whose token budget only some documents fit."""
    corpus = write_corpus(tmp_path, n_docs=8)
    docs = load_corpus(corpus).documents
    budget = sorted(d.n_words for d in docs)[len(docs) // 2]
    oversized = {d.id: d.n_words for d in docs if d.n_words > budget}
    assert 0 < len(oversized) < len(docs)
    return corpus, write_model(tmp_path, max_tokens=budget), budget, oversized


def test_predict_skips_documents_over_the_token_budget(tmp_path, capsys):
    corpus, model, budget, oversized = oversized_setup(tmp_path)
    predicted = tmp_path / "pred.jsonl"
    with pytest.warns(UserWarning, match="skipping document"):
        code, out, _ = run(capsys, "predict", str(corpus), "--model", str(model),
                           "--out-corpus", str(predicted))
    assert code == 0
    sidecar = json.loads(out)["documents"]
    for doc_id, entry in sidecar.items():
        if doc_id in oversized:
            reason = f"{oversized[doc_id]} tokens exceed the budget of {budget}"
            assert entry == {"skipped": reason}
        else:
            assert set(entry) == {"acyclic", "num_pairs"}
    relabeled = load_corpus(predicted)
    original = load_corpus(corpus)
    assert [d.id for d in relabeled.documents] == [d.id for d in original.documents]
    assert {d.id for d in relabeled.documents if d.isdr is None} == set(oversized)


def test_eval_skips_documents_over_the_token_budget(tmp_path, capsys):
    corpus, model, budget, oversized = oversized_setup(tmp_path)
    with pytest.warns(UserWarning, match="skipping document"):
        code, out, _ = run(capsys, "eval", str(corpus), "--model", str(model),
                           "--heuristic")
    assert code == 0
    report = json.loads(out)
    assert [s["id"] for s in report["skipped"]] == list(oversized)
    assert all(row["docs"] == 8 - len(oversized) for row in report["systems"])
    code, out, _ = run(capsys, "eval", str(corpus), "--heuristic")
    assert code == 0
    report = json.loads(out)
    assert report["skipped"] == [] and report["systems"][0]["docs"] == 8
    tiny = write_model(tmp_path, max_tokens=1)
    with pytest.warns(UserWarning, match="skipping document"):
        code, out, err = run(capsys, "eval", str(corpus), "--model", str(tiny))
    assert code == 1 and out == "" and "all 8 documents exceed" in err


def test_eval_names_why_every_document_was_skipped(tmp_path, capsys):
    empty = {"id": "empty", "page": [100, 100], "segments": [], "isdr": []}
    alone = tmp_path / "alone.jsonl"
    alone.write_text(json.dumps(empty) + "\n")
    model = write_model(tmp_path)
    with pytest.warns(UserWarning, match="skipping document empty"):
        code, out, err = run(capsys, "eval", str(alone), "--model", str(model))
    assert code == 1 and out == ""
    assert "error: all 1 documents have no segment elements" in err
    assert "exceed" not in err
    corpus = write_corpus(tmp_path, n_docs=8)
    with open(corpus, "a") as fh:
        fh.write(json.dumps(empty) + "\n")
    tiny = write_model(tmp_path, max_tokens=1)
    with pytest.warns(UserWarning, match="skipping document"):
        code, out, err = run(capsys, "eval", str(corpus), "--model", str(tiny))
    assert code == 1 and out == ""
    assert ("error: all 9 documents were skipped: 8 exceed the model's budgets, "
            "1 have no segment elements") in err


def test_a_document_without_segments_is_skipped_not_fatal(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=8)
    empty = {"id": "empty", "page": [100, 100], "segments": [], "isdr": []}
    with open(corpus, "a") as fh:
        fh.write(json.dumps(empty) + "\n")
    skipped = [{"id": "empty", "reason": "no segment elements"}]
    model = tmp_path / "model.json"
    with pytest.warns(UserWarning, match="skipping document empty"):
        code, out, _ = run(capsys, "train", str(corpus), "--model", str(model),
                           "--config", str(write_config(tmp_path, TRAIN_CFG)))
    assert code == 0 and json.loads(out)["skipped"] == skipped
    with pytest.warns(UserWarning, match="skipping document empty"):
        code, out, _ = run(capsys, "eval", str(corpus), "--model", str(model))
    report = json.loads(out)
    assert code == 0 and report["skipped"] == skipped
    assert report["systems"][0]["docs"] == 8
    with pytest.warns(UserWarning, match="skipping document empty"):
        code, out, _ = run(capsys, "predict", str(corpus), "--model", str(model),
                           "--out-corpus", str(tmp_path / "pred.jsonl"))
    assert code == 0
    assert json.loads(out)["documents"]["empty"] == {"skipped": "no segment elements"}
    code, out, _ = run(capsys, "eval", str(corpus), "--heuristic")
    assert code == 0 and json.loads(out)["systems"][0]["docs"] == 9


def test_eval_scores_a_word_level_model_against_word_level_gold(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=6)
    model_path = write_model(tmp_path, rop=ROPConfig(task_level="word"))
    code, out, _ = run(capsys, "eval", str(corpus), "--model", str(model_path),
                       "--heuristic", "--no-ceiling")
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out)["systems"]}
    docs = list(load_corpus(corpus).documents)
    golds = [derive_word_level(doc) for doc in docs]
    predicted = ROPModel.load(model_path).predict(docs)
    want = corpus_f1(zip(golds, predicted))
    assert [rows["model"][k] for k in ("precision", "recall", "f1")] == [
        want.precision, want.recall, want.f1
    ]
    # The heuristic reads chains in order, so read word by word it is the
    # word-level gold exactly.
    assert rows["heuristic"]["f1"] == 1.0
    assert rows["heuristic"]["docs"] == rows["model"]["docs"] == 6


def test_predict_collapses_a_word_level_model_onto_segments(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=4)
    # Zero projections and unit biases score every word pair alike, so the
    # word-level prediction also links the words inside each segment.
    model_path = write_model(tmp_path, rop=ROPConfig(task_level="word"))
    model = ROPModel.load(model_path)
    for name in ("gp.Wq", "gp.Wk"):
        model.store[name].data[...] = 0.0
    for name in ("gp.bq", "gp.bk"):
        model.store[name].data[...] = 1.0
    model.save(model_path)
    predicted = tmp_path / "pred.jsonl"
    code, out, _ = run(capsys, "predict", str(corpus), "--model", str(model_path),
                       "--out-corpus", str(predicted))
    assert code == 0
    sidecar = json.loads(out)["documents"]
    docs = load_corpus(predicted).documents
    assert any(len(seg.words) > 1 for doc in docs for seg in doc.segments)
    for doc in docs:
        # Tied scores keep each word pair (a, b) with a < b, so the segments
        # are ordered the same way.
        n = doc.n_segments
        assert doc.isdr.pairs == {(a, b) for a in range(n) for b in range(a + 1, n)}
        assert sidecar[doc.id] == {"acyclic": True, "num_pairs": len(doc.isdr)}


def test_an_under_trained_model_predicts_a_corpus_that_loads(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert run(capsys, "synth", "--n-docs", "10", "--seed", "0", "-o", str(corpus))[0] == 0
    cfg = write_config(tmp_path, {"rop": {"epochs": 1, "seed": 0}})
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", str(corpus), "--model", str(model_path),
                       "--config", str(cfg))
    assert code == 0, err
    # One epoch leaves raw threshold sets that are cyclic, so the repair runs.
    model = ROPModel.load(model_path)
    raw = []
    for doc in load_corpus(corpus).documents:
        above = model.scores([tokens_for_document(doc)]).data[0] > 0.0
        np.fill_diagonal(above, False)
        raw.append(Relation(doc.n_segments, map(tuple, np.argwhere(above).tolist())))
    assert not all(is_acyclic(rel)[0] for rel in raw)
    predicted = tmp_path / "pred.jsonl"
    code, out, err = run(capsys, "predict", str(corpus), "--model", str(model_path),
                         "--out-corpus", str(predicted))
    assert code == 0, err
    assert json.loads(out)["acyclic_fraction"] == 1.0
    code, out, err = run(capsys, "validate", str(predicted))
    assert code == 0 and json.loads(out)["ok"] is True, err
    code, _, err = run(capsys, "eval", str(predicted), "--heuristic")
    assert code == 0, err


def test_predict_skips_a_word_order_that_collapses_to_a_cyclic_one(
    tmp_path, capsys, monkeypatch
):
    # Words 0 and 1 make segment 0, words 2 and 3 segment 1: the acyclic
    # word pairs (0, 2) and (3, 1) project onto (0, 1) and (1, 0).
    segments = [
        {"id": k, "box": [0, 100 * k, 300, 100 * k + 50],
         "words": [{"text": f"w{2 * k + w}",
                    "box": [100 * w, 100 * k, 100 * w + 90, 100 * k + 50]}
                   for w in range(2)]}
        for k in range(2)
    ]
    corpus = write_corpus(tmp_path, n_docs=2)
    with open(corpus, "a") as fh:
        fh.write(json.dumps({"id": "crossed", "page": [1000, 1000],
                             "segments": segments, "isdr": [[0, 1]]}) + "\n")
    model_path = write_model(tmp_path, rop=ROPConfig(task_level="word"))
    predict = ROPModel.predict

    def stub(self, docs):
        out = predict(self, docs)
        return [Relation(4, {(0, 2), (3, 1)}) if doc.id == "crossed" else rel
                for doc, rel in zip(docs, out)]

    monkeypatch.setattr(ROPModel, "predict", stub)
    predicted = tmp_path / "pred.jsonl"
    with pytest.warns(UserWarning, match="skipping document crossed: .*cyclic"):
        code, out, err = run(capsys, "predict", str(corpus), "--model", str(model_path),
                             "--out-corpus", str(predicted))
    assert code == 0, err
    sidecar = json.loads(out)["documents"]
    assert sidecar["crossed"] == {
        "skipped": "word-level prediction projects onto a cyclic segment relation, "
                   "witness [0, 1, 0]"
    }
    assert all(set(sidecar[k]) == {"acyclic", "num_pairs"} for k in sidecar if k != "crossed")
    docs = {doc.id: doc for doc in load_corpus(predicted).documents}
    assert docs["crossed"].isdr is None and len(docs) == 3


def test_eval_without_systems_exits_1(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=2)
    code, _, err = run(capsys, "eval", str(corpus))
    assert code == 1 and "nothing to evaluate" in err


def test_eval_refuses_an_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    code, out, err = run(capsys, "eval", str(corpus), "--heuristic")
    assert code == 1 and out == "" and "no documents" in err


def test_eval_refuses_an_empty_corpus_before_the_model_filters_it(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    model = write_model(tmp_path)
    for systems in (["--model", str(model)], ["--heuristic"]):
        code, out, err = run(capsys, "eval", str(corpus), *systems)
        assert code == 1 and out == ""
        assert err.strip() == "error: corpus has no documents"


def test_eval_rejects_duplicate_ids(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=3)
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines + lines[1:2]) + "\n")
    code, out, err = run(capsys, "eval", str(corpus), "--heuristic")
    assert code == 1 and out == ""
    assert "line 4: duplicate document id" in err


def test_eval_refuses_a_split_with_no_documents(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=3)  # every document in train
    code, out, err = run(capsys, "eval", str(corpus), "--heuristic",
                         "--split", "validation")
    assert code == 1 and out == ""
    assert "error: corpus has no documents in split 'validation'" in err


def test_eval_split_filter(tmp_path, capsys):
    path = tmp_path / "split.jsonl"
    from rorokit.layout import save_corpus

    corpus = synth_generate(
        SynthConfig(n_docs=10, mix={"chain": 1.0}, train_fraction=0.8), seed=0
    )
    save_corpus(corpus, path)
    code, out, _ = run(capsys, "eval", str(path), "--heuristic",
                       "--split", "test", "--no-ceiling")
    assert code == 0
    assert json.loads(out)["systems"][0]["docs"] == 2


# --- demo and render ---


def test_demo_rore_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "demo": {"n_docs": 16, "epochs": 2, "seed": 1},
            "encoder": {"layers": 1, "model_dim": 16, "heads": 2},
        },
    )
    code, out, err = run(capsys, "demo-rore", "--config", str(cfg))
    assert code == 0
    result = json.loads(out)
    assert {"f1_vanilla", "f1_rore"} <= set(result)
    assert "f1_rore" in err


def test_demo_rore_seed_flag_overrides_the_demo_section(tmp_path, capsys):
    encoder = {"layers": 1, "model_dim": 16, "heads": 2}
    outputs = []
    for seed, argv in ((1, ["--seed", "3"]), (3, [])):
        demo = {"n_docs": 10, "epochs": 1, "seed": seed}
        cfg = write_config(tmp_path, {"demo": demo, "encoder": encoder})
        code, out, _ = run(capsys, "demo-rore", "--config", str(cfg), *argv)
        assert code == 0
        outputs.append(out)
    assert json.loads(outputs[0])["config"]["seed"] == 3
    assert outputs[0] == outputs[1]


def test_demo_rore_pseudo_needs_model(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"demo": {"n_docs": 8, "epochs": 1, "label_source": "pseudo"}},
    )
    code, _, err = run(capsys, "demo-rore", "--config", str(cfg))
    assert code == 1 and "model" in err


def test_demo_rore_repairs_cyclic_pseudo_labels(tmp_path, capsys):
    # Zero projections and unit biases score every pair alike, so the raw
    # prediction links every two segments both ways.
    model_path = write_model(tmp_path)
    model = ROPModel.load(model_path)
    for name in ("gp.Wq", "gp.Wk"):
        model.store[name].data[...] = 0.0
    for name in ("gp.bq", "gp.bk"):
        model.store[name].data[...] = 1.0
    model.save(model_path)
    cfg = write_config(
        tmp_path,
        {
            "demo": {"n_docs": 8, "epochs": 1, "label_source": "pseudo",
                     "model": str(model_path)},
            "encoder": {"layers": 1, "model_dim": 16, "heads": 2},
        },
    )
    code, out, err = run(capsys, "demo-rore", "--config", str(cfg))
    assert code == 0, err
    assert {"f1_vanilla", "f1_rore"} <= set(json.loads(out))
    assert "hold no pair" not in err


def test_demo_rore_says_when_pseudo_labels_hold_no_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        ROPModel, "predict",
        lambda self, docs: [Relation(doc.n_segments, set()) for doc in docs],
    )
    cfg = write_config(
        tmp_path,
        {
            "demo": {"n_docs": 8, "epochs": 1, "label_source": "pseudo",
                     "model": str(write_model(tmp_path))},
            "encoder": {"layers": 1, "model_dim": 16, "heads": 2},
        },
    )
    out_path = tmp_path / "demo.json"
    code, out, err = run(capsys, "demo-rore", "--config", str(cfg), "-o", str(out_path))
    assert code == 0, err
    assert out == ""
    assert ("pseudo labels hold no pair on any of the 8 forms: "
            "the RORE arm runs unbiased") in err
    result = json.loads(out_path.read_text())
    # An all-zero bias leaves the RORE arm the vanilla arm, bit for bit.
    assert result["f1_rore"] == result["f1_vanilla"]
    assert result["arms"]["rore"] == result["arms"]["vanilla"]


def test_render_document(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=2)
    doc_id = load_corpus(corpus).documents[1].id
    svg_path = tmp_path / "doc.svg"
    code, _, _ = run(capsys, "render", str(corpus), "--doc", doc_id,
                     "-o", str(svg_path))
    assert code == 0
    first = svg_path.read_bytes()
    code, _, _ = run(capsys, "render", str(corpus), "--doc", doc_id,
                     "-o", str(svg_path))
    assert code == 0 and svg_path.read_bytes() == first
    assert b"<svg" in first


def test_render_refuses_a_cyclic_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=1)
    obj = json.loads(corpus.read_text())
    obj["isdr"] = [[0, 1], [1, 0]]
    corpus.write_text(json.dumps(obj) + "\n")
    code, out, err = run(capsys, "render", str(corpus))
    assert code == 1 and out == "" and "cyclic isdr" in err


def test_render_refuses_an_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    code, out, err = run(capsys, "render", str(corpus))
    assert code == 1 and out == "" and "error: corpus is empty" in err


def test_render_unknown_doc_exits_1(tmp_path, capsys):
    corpus = write_corpus(tmp_path, n_docs=1)
    code, _, _ = run(capsys, "render", str(corpus), "--doc", "missing")
    assert code == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
