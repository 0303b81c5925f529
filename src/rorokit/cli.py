"""Command-line surface tying the pipeline together.

Conventions shared by every subcommand:

* machine-readable output is JSON written to --output or standard output;
  human-oriented notes go to standard error only
* exit 0 on success, 1 on domain errors (validation failures, cycles,
  impossible configs), 2 on I/O or parse failures
* everything is deterministic given --seed

``main(argv)`` may be called repeatedly in one process: the parser is built
on first use and reused, and each call shows its own warnings (such as
``train``'s skipped-document notes) even when an earlier call showed the
same text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from collections import Counter
from dataclasses import asdict
from typing import Callable, Optional

from .autodiff import AutodiffError
from .layout import (
    Corpus,
    CorpusParseError,
    Document,
    corpus_stats,
    check_integer,
    derive_word_level,
    document_to_dict,
    load_corpus,
    read_json_lines,
    save_corpus,
    validate_annotation,
)
from .layout import Segment
from .metrics import (
    benchmark_report,
    heuristic_relation,
    heuristic_word_relation,
    report_to_json,
    report_to_text,
)
from .nn import EncoderConfig, MissingGradientError
from .relations import (
    Relation,
    relation_from_json,
    relation_to_json,
    transitive_closure,
)
from .render import render_svg
from .rop import ROPConfig, ROPModel, filter_usable, predict_pseudo_labels
from .rop import train as train_rop
from .rore import DemoConfig, rore_demo_entity_linking
from .synth import SynthConfig, synth_forms, synth_generate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

# ValueError covers the package's domain errors; CorpusParseError is caught first.
_DOMAIN_ERRORS = (AutodiffError, MissingGradientError, ValueError)


# ---------------------------------------------------------------------------
# Shared plumbing


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_text(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _note(f"wrote {output}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj, output: Optional[str]) -> None:
    _emit_text(json.dumps(obj, sort_keys=True, indent=2), output)


def _load_sections(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        sections = json.load(fh)
    if not isinstance(sections, dict):
        raise ValueError("config file must hold a JSON object of sections")
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object, got {section!r}")
    return sections


def _build(cls, section: dict, overrides: Optional[dict] = None):
    kwargs = dict(section)
    if overrides:
        kwargs.update(overrides)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad {cls.__name__} section: {exc}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    reports = [
        (lineno, validate_annotation(row)) for lineno, row in read_json_lines(args.corpus)
    ]
    ok = all(r.ok for _, r in reports)
    for lineno, report in reports:
        if not report.ok:
            _note(f"invalid: line {lineno}: {report.doc_id}: {report.to_dict()}")
    _emit_json(
        {"ok": ok, "documents": [r.to_dict() for _, r in reports]}, args.output
    )
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    stats = corpus_stats(corpus, literal_nonlinearity=args.literal)
    out = {
        "documents": stats.documents,
        "segments": stats.segments,
        "words": stats.words,
        "pairs": stats.pairs,
        "nonlinear_fraction": stats.nonlinear_fraction,
        "nonlinear_definition": "literal" if args.literal else "degree",
    }
    fraction = "n/a" if stats.nonlinear_fraction is None else f"{stats.nonlinear_fraction:.4f}"
    _note(
        f"documents {stats.documents}  segments {stats.segments}  "
        f"words {stats.words}  pairs {stats.pairs}  nonlinear {fraction}"
    )
    _emit_json(out, args.output)
    return EXIT_OK


def cmd_closure(args) -> int:
    with open(args.relation, "r", encoding="utf-8") as fh:
        rel = relation_from_json(fh.read())
    _emit_text(relation_to_json(transitive_closure(rel)), args.output)
    return EXIT_OK


def cmd_convert(args) -> int:
    corpus = load_corpus(args.corpus)
    converted = []
    for doc in corpus.documents:
        word_rel = derive_word_level(doc)
        segments = tuple(
            Segment(i, (word,), word.box)
            for i, word in enumerate(doc.all_words())
        )
        converted.append(
            Document(doc.id, doc.page_width, doc.page_height, segments, isdr=word_rel)
        )
    out_corpus = Corpus(tuple(converted), dict(corpus.split))
    _save_corpus_out(out_corpus, args.output)
    return EXIT_OK


def _save_corpus_out(corpus: Corpus, output: Optional[str]) -> None:
    if output:
        save_corpus(corpus, output)
        _note(f"wrote {output} ({len(corpus)} documents)")
    else:
        for doc in corpus.documents:
            obj = document_to_dict(doc, split=corpus.split[doc.id])
            sys.stdout.write(json.dumps(obj) + "\n")


def cmd_synth(args) -> int:
    sections = _load_sections(args.config)
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    if args.forms:
        n_docs = args.n_docs if args.n_docs is not None else 300
        corpus = synth_forms(n_docs, seed=seed)
    else:
        overrides = {"n_docs": args.n_docs} if args.n_docs is not None else None
        config = _build(SynthConfig, sections.get("synth", {}), overrides)
        corpus = synth_generate(config, seed=seed)
    _save_corpus_out(corpus, args.output)
    return EXIT_OK


def cmd_train(args) -> int:
    sections = _load_sections(args.config)
    overrides = {"seed": args.seed} if args.seed is not None else None
    rop_config = _build(ROPConfig, sections.get("rop", {}), overrides)
    encoder_config = None
    if "encoder" in sections:
        encoder_config = _build(EncoderConfig, sections["encoder"])
    corpus = load_corpus(args.corpus)
    model, report = train_rop(corpus, rop_config, encoder_config)
    model.save(args.model)
    _note(f"wrote {args.model}")
    _emit_json(asdict(report), args.output)
    return EXIT_OK


def _system_table(
    args, model: Optional[ROPModel], docs: list[Document], level: str
) -> dict:
    systems: dict[str, Callable[[Document], Relation]] = {}
    if model is not None:
        # One packed pass over the documents; the report looks them up by id.
        predicted = dict(zip([doc.id for doc in docs], model.predict(docs)))
        systems["model"] = lambda doc: predicted[doc.id]
    if args.heuristic:
        systems["heuristic"] = (
            heuristic_word_relation if level == "word" else heuristic_relation
        )
    if not systems:
        raise ValueError("nothing to evaluate: pass --model and/or --heuristic")
    return systems


def _all_skipped(skipped: list[dict]) -> str:
    """Why every document was skipped: each kind of reason with its count."""
    kinds = Counter(
        f"have {s['reason']}" if s["reason"].startswith("no ") else "exceed the model's budgets"
        for s in skipped
    )
    if len(kinds) == 1:
        return f"all {len(skipped)} documents {next(iter(kinds))}"
    counts = ", ".join(f"{count} {kind}" for kind, count in kinds.items())
    return f"all {len(skipped)} documents were skipped: {counts}"


def cmd_eval(args) -> int:
    model = ROPModel.load(args.model) if args.model else None
    level = model.config.task_level if model is not None else "segment"
    corpus = load_corpus(args.corpus)
    docs = list(corpus.documents) if args.split == "all" else corpus.subset(args.split)
    if not docs:
        where = "" if args.split == "all" else f" in split {args.split!r}"
        raise ValueError(f"corpus has no documents{where}")
    skipped: list[dict] = []
    if model is not None:
        docs = filter_usable(docs, model.config, model.encoder_config, skipped)
        if not docs:
            raise ValueError(_all_skipped(skipped))
    systems = _system_table(args, model, docs, level)
    gold_fn = derive_word_level if level == "word" else None
    report = benchmark_report(
        docs, systems, ceiling=not args.no_ceiling, gold_fn=gold_fn
    )
    report["skipped"] = skipped
    _note(report_to_text(report))
    _emit_text(report_to_json(report), args.output)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = ROPModel.load(args.model)
    corpus = load_corpus(args.corpus)
    relabeled, sidecar = predict_pseudo_labels(model, corpus)
    predicted = [entry for entry in sidecar.values() if "skipped" not in entry]
    acyclic = sum(1 for entry in predicted if entry["acyclic"])
    summary = {
        "documents": sidecar,
        "acyclic_fraction": acyclic / len(predicted) if predicted else None,
    }
    save_corpus(relabeled, args.out_corpus)
    _note(f"wrote {args.out_corpus} ({len(relabeled)} documents)")
    _emit_json(summary, args.output)
    return EXIT_OK


def cmd_demo_rore(args) -> int:
    sections = _load_sections(args.config)
    demo_section = dict(sections.get("demo", {}))
    n_docs = demo_section.pop("n_docs", 300)
    model_path = demo_section.pop("model", None)
    if model_path is not None and (not isinstance(model_path, str) or not model_path):
        raise ValueError(f"bad demo section: model must be a non-empty path, got {model_path!r}")
    if args.seed is not None:
        demo_section["seed"] = args.seed
    config = _build(DemoConfig, demo_section)
    try:
        check_integer("n_docs", n_docs)
    except TypeError as exc:
        raise ValueError(f"bad demo section: {exc}") from None
    encoder_config = None
    if "encoder" in sections:
        encoder_config = _build(EncoderConfig, sections["encoder"])

    corpus = synth_forms(n_docs, seed=config.seed)
    pseudo_corpus = None
    if config.label_source == "pseudo":
        if model_path is None:
            raise ValueError('label_source "pseudo" needs a "model" path in the demo section')
        model = ROPModel.load(model_path)
        pseudo_corpus, sidecar = predict_pseudo_labels(model, corpus)
        if not any(entry.get("num_pairs") for entry in sidecar.values()):
            _note(
                f"pseudo labels hold no pair on any of the {len(sidecar)} forms: "
                "the RORE arm runs unbiased"
            )
    result = rore_demo_entity_linking(corpus, config, encoder_config, pseudo_corpus)
    _note(
        f"f1_vanilla {result['f1_vanilla']:.4f}  f1_rore {result['f1_rore']:.4f}"
    )
    _emit_json(result, args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    corpus = load_corpus(args.corpus)
    if args.doc is not None:
        matches = [d for d in corpus.documents if d.id == args.doc]
        if not matches:
            raise ValueError(f"no document with id {args.doc!r}")
        doc = matches[0]
    else:
        if not corpus.documents:
            raise ValueError("corpus is empty")
        doc = corpus.documents[0]
    _emit_text(render_svg(doc), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rorokit`` parser, built once per process. It holds no state
    between calls: ``parse_args`` returns a fresh namespace, and no action
    has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="rorokit",
        description="Reading-order relations: validate, synthesize, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", help="write machine-readable output here")
        return p

    p = add("validate", cmd_validate, "check annotation invariants per document")
    p.add_argument("corpus")

    p = add("stats", cmd_stats, "corpus counts and non-linearity fraction")
    p.add_argument("corpus")
    p.add_argument("--literal", action="store_true",
                   help="use the literal non-linearity reading instead of degrees")

    p = add("closure", cmd_closure, "transitive closure of a relation JSON file")
    p.add_argument("relation")

    p = add("convert", cmd_convert, "derive a word-level corpus from segments")
    p.add_argument("corpus")
    p.add_argument("--level", default="word", choices=["word"])

    p = add("synth", cmd_synth, "generate a synthetic corpus")
    p.add_argument("--config", help="JSON config file (section: synth)")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-docs", type=int, dest="n_docs")
    p.add_argument("--forms", action="store_true",
                   help="generate the key-value linking corpus instead of layouts")

    p = add("train", cmd_train, "fit a reading-order predictor")
    p.add_argument("corpus")
    p.add_argument("--model", required=True, help="checkpoint output path")
    p.add_argument("--config", help="JSON config file (sections: rop, encoder)")
    p.add_argument("--seed", type=int)

    p = add("eval", cmd_eval, "score a model and/or the row-major heuristic")
    p.add_argument("corpus")
    p.add_argument("--model")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--split", default="all",
                   choices=["all", "train", "validation", "test"])
    p.add_argument("--no-ceiling", action="store_true")

    p = add("predict", cmd_predict, "relabel a corpus with model predictions")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--out-corpus", required=True, dest="out_corpus")

    p = add("demo-rore", cmd_demo_rore,
            "vanilla vs succession-biased linking comparison")
    p.add_argument("--config", help="JSON config file (sections: demo, encoder)")
    p.add_argument("--seed", type=int)

    p = add("render", cmd_render, "render one document to SVG")
    p.add_argument("corpus")
    p.add_argument("--doc", help="document id (default: first)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Entering resets the warning registries, so a text an earlier call
        # showed is shown again; the caller's filters still apply.
        with warnings.catch_warnings():
            return args.func(args)
    except (CorpusParseError, json.JSONDecodeError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_IO
    except _DOMAIN_ERRORS as exc:
        _note(f"error: {exc}")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
