#!/usr/bin/env python3
"""Run reading-order experiments over several seeds and report their spread.

An experiment maps a seed to rows of (arm, subset, metrics):

  rop       the segment-level pair-scoring model and the row-major heuristic
            on the held-out split of a mixed synthetic corpus (chains,
            two-column pages, grids): pair F1 overall and per layout kind,
            scored as ``rorokit eval`` scores; the grids are the slice where
            one permutation must miss pairs that a relation can keep
  rop-word  the same at word level, against the derived word-level gold
  rore      entity linking on the synthetic forms with vanilla attention,
            attention biased by the gold succession relation (rore-gold),
            and by the relation a small ROP model trained on the forms
            predicts (rore-pseudo)

Run from the repository root after an editable install:

    python3 scripts/run_experiments.py rop rore --seeds 0 1 2 3 4 --out report.json

The JSON report holds every seed's rows and, per experiment, arm, subset and
metric, the mean, min and max over the seeds; stdout gets that summary as a
table. Wall-clock time goes to stderr only. Without ``--n-docs`` and
``--epochs`` each experiment uses its own sizes: 500 documents and 200
epochs for rop and rop-word, 300 forms and 10 linking epochs for rore.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time

from rorokit.layout import derive_word_level
from rorokit.metrics import benchmark_report, heuristic_relation, heuristic_word_relation
from rorokit.nn import EncoderConfig
from rorokit.rop import ROPConfig, predict_pseudo_labels, train
from rorokit.rore import DemoConfig, rore_demo_entity_linking
from rorokit.synth import SynthConfig, doc_kind, synth_forms, synth_generate


def row(arm: str, subset: str, **metrics) -> dict:
    return {"arm": arm, "subset": subset, "metrics": metrics}


def rop(seed: int, n_docs: int, epochs: int, level: str = "segment") -> list[dict]:
    corpus = synth_generate(SynthConfig(n_docs=n_docs), seed=seed)
    model, report = train(corpus, ROPConfig(epochs=epochs, task_level=level, seed=seed))
    rows = [row("model", "validation", epochs_run=report.epochs_run,
                best_val_f1=report.best_val_f1)]
    test = corpus.subset("test")
    predicted = dict(zip([d.id for d in test], model.predict(test)))
    word = level == "word"
    systems = {
        "model": lambda doc: predicted[doc.id],
        "heuristic": heuristic_word_relation if word else heuristic_relation,
    }
    gold_fn = derive_word_level if word else None
    kinds = sorted({doc_kind(d.id) for d in corpus.documents})
    for subset, docs in [("all", test)] + [
        (kind, [d for d in test if doc_kind(d.id) == kind]) for kind in kinds
    ]:
        if not docs:
            continue
        scores = benchmark_report(docs, systems, ceiling=False, gold_fn=gold_fn)
        rows += [row(s["name"], subset, f1=s["f1"], docs=s["docs"]) for s in scores["systems"]]
    return rows


def rore(seed: int, n_docs: int, epochs: int) -> list[dict]:
    corpus = synth_forms(n_docs, seed=seed)
    gold = rore_demo_entity_linking(corpus, DemoConfig(epochs=epochs, seed=seed))
    # A deliberately small reading-order model: even a cheap predictor yields
    # labels good enough to keep most of the gain. Style is cued only by the
    # first word, so validation F1 plateaus for a dozen epochs before the
    # text pathway locks in; ROPConfig's patience of 20 outlasts that.
    rop_model, _ = train(
        corpus, ROPConfig(epochs=40, seed=seed),
        encoder_config=EncoderConfig(layers=1, model_dim=32, heads=2),
    )
    pseudo_corpus, _ = predict_pseudo_labels(rop_model, corpus)
    pseudo = rore_demo_entity_linking(
        corpus, DemoConfig(epochs=epochs, seed=seed, label_source="pseudo"),
        pseudo_corpus=pseudo_corpus,
    )
    if pseudo["f1_vanilla"] != gold["f1_vanilla"]:
        raise RuntimeError(
            f"seed {seed}: the vanilla arm scored {gold['f1_vanilla']} and "
            f"{pseudo['f1_vanilla']} in two identically seeded runs"
        )
    return [
        row("vanilla", "test", f1=gold["f1_vanilla"]),
        row("rore-gold", "test", f1=gold["f1_rore"]),
        row("rore-pseudo", "test", f1=pseudo["f1_rore"]),
    ]


# name -> (experiment, default n_docs, default epochs)
EXPERIMENTS = {
    "rop": (rop, 500, 200),
    "rop-word": (functools.partial(rop, level="word"), 500, 200),
    "rore": (rore, 300, 10),
}


def summarize(runs: list[dict]) -> list[dict]:
    """Mean, min and max of each (experiment, arm, subset, metric) over seeds."""
    values: dict[tuple, list] = {}
    for run in runs:
        for r in run["rows"]:
            for metric, value in r["metrics"].items():
                if value is not None:
                    key = (run["experiment"], r["arm"], r["subset"], metric)
                    values.setdefault(key, []).append(value)
    return [
        {"experiment": e, "arm": a, "subset": s, "metric": m,
         "mean": statistics.fmean(v), "min": min(v), "max": max(v), "seeds": len(v)}
        for (e, a, s, m), v in values.items()
    ]


def summary_table(summary: list[dict]) -> str:
    lines = [f"{'experiment':<10} {'arm':<11} {'subset':<10} {'metric':<11} "
             f"{'mean':>9} {'min':>9} {'max':>9} {'seeds':>5}"]
    for s in summary:
        lines.append(
            f"{s['experiment']:<10} {s['arm']:<11} {s['subset']:<10} {s['metric']:<11} "
            f"{s['mean']:>9.4f} {s['min']:>9.4f} {s['max']:>9.4f} {s['seeds']:>5d}"
        )
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="+", choices=list(EXPERIMENTS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--n-docs", type=int, help="corpus size (default: per experiment)")
    parser.add_argument("--epochs", type=int, help="epoch cap (default: per experiment)")
    parser.add_argument("--out", help="write the JSON report here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = []
    for name in dict.fromkeys(args.experiments):
        experiment, n_docs, epochs = EXPERIMENTS[name]
        n_docs = n_docs if args.n_docs is None else args.n_docs
        epochs = epochs if args.epochs is None else args.epochs
        for seed in args.seeds:
            start = time.perf_counter()
            rows = experiment(seed, n_docs, epochs)
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
            runs.append({"experiment": name, "seed": seed, "n_docs": n_docs,
                         "epochs": epochs, "rows": rows})
    summary = summarize(runs)
    print(summary_table(summary))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs, "summary": summary}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
