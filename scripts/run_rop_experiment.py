#!/usr/bin/env python3
"""Train the pair-scoring reading-order model on a synthetic corpus.

Generates a mixed corpus (chains, two-column pages, grids), trains the
segment-level model, and reports held-out micro pair F1 against the
row-major heuristic, overall and per layout kind. The grid slice is the
interesting one: a grid row reads both rightward and downward, so any
single permutation of its cells misses pairs that a relation predictor
can keep.

Run from the repository root after an editable install:

    python3 scripts/run_rop_experiment.py --out rop_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from rorokit.metrics import corpus_f1, heuristic_relation
from rorokit.rop import ROPConfig, train
from rorokit.synth import SynthConfig, doc_kind, synth_generate


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-docs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--patience", type=int, default=20)
    parser.add_argument(
        "--task-level", choices=("segment", "word"), default="segment"
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress convergence warnings"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    corpus = synth_generate(SynthConfig(n_docs=args.n_docs), seed=args.seed)
    test_docs = corpus.subset("test")
    kinds = sorted({doc_kind(d.id) for d in corpus.documents})
    print(f"corpus: {len(corpus.documents)} documents, kinds {kinds}")
    print(f"split: {len(corpus.subset('train'))} train / {len(test_docs)} test")

    config = ROPConfig(
        epochs=args.epochs,
        patience=args.patience,
        task_level=args.task_level,
        seed=args.seed,
    )
    start = time.perf_counter()
    with warnings.catch_warnings():
        if args.quiet:
            warnings.simplefilter("ignore")
        model, report = train(corpus, config)
    elapsed = time.perf_counter() - start
    val_f1 = "n/a" if report.best_val_f1 is None else f"{report.best_val_f1:.4f}"
    print(
        f"trained {report.epochs_run} epochs "
        f"(best epoch {report.best_epoch}, val F1 {val_f1})"
    )
    # Wall-clock time varies between runs; it stays out of the report.
    print(f"training took {elapsed:.1f}s", file=sys.stderr)

    predictions = dict(zip([d.id for d in test_docs], model.predict(test_docs)))
    rows = []
    for label, docs in [("all", test_docs)] + [
        (kind, [d for d in test_docs if doc_kind(d.id) == kind]) for kind in kinds
    ]:
        if not docs:
            continue
        model_f1 = corpus_f1((d.isdr, predictions[d.id]) for d in docs)
        heur_f1 = corpus_f1((d.isdr, heuristic_relation(d)) for d in docs)
        rows.append(
            {
                "subset": label,
                "docs": len(docs),
                "model_f1": model_f1.f1,
                "heuristic_f1": heur_f1.f1,
            }
        )
        print(
            f"{label:>12}: {len(docs):3d} docs  "
            f"model {model_f1.f1:.4f}  heuristic {heur_f1.f1:.4f}"
        )

    payload = {
        "n_docs": args.n_docs,
        "seed": args.seed,
        "task_level": args.task_level,
        "epochs_run": report.epochs_run,
        "best_val_f1": report.best_val_f1,
        "subsets": rows,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
