#!/usr/bin/env python3
"""Time perfbench's rop-predict page loop of two rorokit source trees in one
process.

    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_inprocess.py \\
        --parent-rev HEAD~1 --out BENCH_x.json

The change is ``src/rorokit`` of this checkout; the parent is
``src/rorokit`` of ``--parent-rev`` in its git history, taken out with
``git archive`` into a temporary directory. Both are imported side by side,
as the packages ``rorokit_parent`` and ``rorokit_change``, so each side runs
its own code on the same inputs, in the same process and after the same
warm-up. Each round times one step of each side, and the rounds alternate
which side goes first. Separate processes on a 2-vCPU host swing too much to
tell ±10% on a step this short; alternating rounds in one process share
whatever load the host is under.

The step is perfbench's rop-predict page loop, ``ROPModel.predict`` plus
``is_acyclic`` one page at a time. Its model and pages are built as
perfbench builds them, with perfbench's own sizes and helpers and this
checkout's ``rorokit`` command line, and each side loads them from the same
files. One untimed step per side warms both sides up.

The report holds every round, each side's median and quartiles of
``docs_per_s`` with the change/parent ratio of the medians (``end_to_end``),
and a ``verdict`` in the shape ``scripts/bench_pairs.py`` writes: the
change's wins out of the rounds, the gain of its median over the parent's
and the distance between the parent's quartiles. ``outputs_equal`` says
whether both sides computed the same results.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "scripts"), str(REPO / "src"), str(REPO / "perfbench")]
import bench_pairs  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = workloads.RopPredict.name
METRIC = "docs_per_s"
SIDES = ("parent", "change")
ROUNDS = 20


def load_package(src: Path, name: str) -> ModuleType:
    """Import the package whose ``__init__.py`` is in ``src`` under the
    top-level name ``name``; its relative imports load its own modules, as
    ``name.<module>``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def archive_tree(rev: str, dest: Path) -> Path:
    """``src/rorokit`` of ``rev`` in this checkout's git history, written
    under ``dest``; returns its directory."""
    tar_bytes = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev, "src/rorokit"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src" / "rorokit"


def rop_predict_steps(
    packages: dict[str, ModuleType], work: Path, pages: int, train_docs: int
) -> dict[str, Callable[[], tuple[float, list]]]:
    """Per side, a step that predicts every page and returns (docs per
    second, the pages' sorted pairs and acyclicity). The model is trained on
    ``train_docs`` documents and the step covers ``pages`` pages."""
    run_cli, write_json = workloads.run_cli, workloads.write_json
    train_corpus, checkpoint = work / "train.jsonl", work / "model.ckpt"
    run_cli(["synth", "--n-docs", train_docs, "--seed", workloads.PREDICT_MODEL_SEED,
             "-o", train_corpus])
    epochs = workloads.PREDICT_SETUP_EPOCHS
    config = write_json(work / "train.json",
                        {"rop": {"epochs": epochs, "patience": epochs, "seed": 0}})
    run_cli(["train", train_corpus, "--model", checkpoint, "--config", config,
             "-o", work / "train-report.json"])
    corpus = work / "pages.jsonl"
    synth_config = write_json(work / "synth.json", {"synth": workloads.PREDICT_SYNTH})
    run_cli(["synth", "--config", synth_config, "--n-docs", pages, "--seed", 0,
             "-o", corpus])

    def make_step(package: ModuleType) -> Callable[[], tuple[float, list]]:
        side_model = package.ROPModel.load(checkpoint)
        docs = list(package.load_corpus(corpus).documents)
        is_acyclic = package.is_acyclic

        def step() -> tuple[float, list]:
            outputs = []
            start = time.perf_counter()
            for doc in docs:
                rel = side_model.predict(doc)
                outputs.append((rel, is_acyclic(rel)[0]))
            elapsed = time.perf_counter() - start
            return len(docs) / elapsed, [(rel.sorted_pairs(), ok) for rel, ok in outputs]

        step()
        return step

    return {side: make_step(package) for side, package in packages.items()}


def alternate(
    steps: dict[str, Callable[[], tuple[float, list]]], rounds: int
) -> tuple[list[dict], bool]:
    """Run ``rounds`` rounds of one step per side, alternating which side
    goes first; returns the runs, in ``bench_pairs``' record shape, and
    whether every step of both sides gave the first step's outputs."""
    runs, first, equal = [], None, True
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            rate, outputs = steps[side]()
            if first is None:
                first = outputs
            equal = equal and outputs == first
            runs.append({"workload": WORKLOAD, "seed": 0, "trace": 0, "side": side,
                         "pair": i, "metrics": {METRIC: rate}})
    return runs, equal


def report(runs: list, end_to_end: list, outputs_equal: bool) -> dict:
    """Each side's spread, the ratio of the medians and the verdict on
    ``METRIC``, as ``bench_pairs`` reads them."""
    specs = [spec for spec in end_to_end if spec["name"] == METRIC]
    summary = bench_pairs.summarize(runs)
    return {
        "end_to_end": summary,
        "verdict": bench_pairs.verdict(summary, runs, WORKLOAD, specs, METRIC),
        "outputs_equal": outputs_equal,
    }


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-rev", required=True,
                        help="git revision of this checkout to compare against")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = {"parent": archive_tree(args.parent_rev, work / "parent"),
                 "change": REPO / "src" / "rorokit"}
        packages = {side: load_package(tree, f"rorokit_{side}")
                    for side, tree in trees.items()}
        steps = rop_predict_steps(packages, work, workloads.PREDICT_DOCS,
                                  workloads.TRAIN_CORPUS_DOCS)
        runs, equal = alternate(steps, ROUNDS)
        lines = bench_pairs.src_lines({side: tree.parents[1]
                                       for side, tree in trees.items()})
    out = {
        "mode": "inprocess",
        "workload": WORKLOAD,
        "parent_rev": args.parent_rev,
        "rounds": ROUNDS,
        "pages": workloads.PREDICT_DOCS,
        "machine": machine(),
        **report(runs, benchmark["end_to_end"], equal),
        "src_lines": lines,
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    row = out["end_to_end"][f"{WORKLOAD} seed 0"][METRIC]
    claim = out["verdict"]["claim"][f"{WORKLOAD} seed 0"]
    print(f"wrote {args.out}: change/parent {row['change_over_parent']:.3f}, "
          f"{claim['wins']} of {claim['pairs']} rounds won, outputs_equal {equal}")
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
