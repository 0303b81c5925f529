#!/usr/bin/env python3
"""Compare two rorokit checkouts on the perfbench workloads, in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --claim rop-train --metric setup_s --out BENCH_corpus_io.json

Each run is a fresh ``perfbench/run.py`` process started in its own
checkout, for the ``run_seconds`` of the change's ``BENCHMARK.json``. A
claimed workload (``--claim``) runs ``PAIRS`` untraced pairs on seed 0 and
``HELD_OUT_PAIRS`` on the held-out seed 1, and its gain is read on
``--metric``, one of the end-to-end metrics of ``BENCHMARK.json``
(``docs_per_s`` by default) in the direction its ``better`` gives; every
other workload runs ``OTHER_PAIRS`` untraced pairs on seed 0, so that its
metrics get a spread too: on a 2-vCPU host three pairs could not tell a ±10%
change. Without ``--claim`` every workload runs ``OTHER_PAIRS`` and the
report records ``"claim": null``. Every workload runs ``TRACED_PAIRS``
traced pairs on seed 0, and its per-layer values are the medians of each
side's traced runs, so that a slow spell of host load does not set them:
with three traced pairs, two slow runs of one side were enough to move a
median. Pairs alternate which side runs first. The output holds every run,
per-metric medians and quartiles (inclusive method) for each side, per
workload whether the change's seed-0 determinism hashes and input digests
equal the parent's (``outputs_equal``), the per-layer medians and their
deltas, the line count of ``src/rorokit/*.py`` in each checkout and its
change (``src_lines``), and the machine block. Its ``verdict`` reads the
medians against the bounds of the change's ``BENCHMARK.json``, and counts
the change's wins on the claimed metric to read the claim against the rule
that the change wins at least nine tenths of its pairs by a median gain
above the parent's interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

WORKLOADS = ("rop-train", "rop-predict", "relations-eval", "rore-link")
DEFAULT_METRIC = "docs_per_s"
PAIRS, HELD_OUT_PAIRS, OTHER_PAIRS, TRACED_PAIRS = 10, 3, 5, 7


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "named": {k: m["value"] for k, m in detail["named"].items()},
        "hashes": detail["hashes"], "input_digests": detail["input_digests"],
        "machine": detail["machine"],
    }


def run_pairs(sides: dict, workload: str, seed: int, pairs: int, seconds: float,
              trace: int, runs: list) -> None:
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], workload, seed, seconds, trace)
            record.update(side=side, pair=i)
            runs.append(record)
            print(f"{workload} seed {seed} trace {trace} pair {i} {side}: "
                  f"{json.dumps(record['metrics'], sort_keys=True)[:200]}", flush=True)


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    return out


def summarize(runs: list) -> dict:
    summary: dict = {}
    for r in runs:
        if r["trace"]:
            continue
        key = f"{r['workload']} seed {r['seed']}"
        row = summary.setdefault(key, {})
        for name, value in r["metrics"].items():
            row.setdefault(name, {"parent": [], "change": []})[r["side"]].append(value)
    for key, row in summary.items():
        for name, sides in row.items():
            row[name] = {side: spread(v) for side, v in sides.items()}
            row[name]["change_over_parent"] = (
                row[name]["change"]["median"] / row[name]["parent"]["median"]
            )
    return summary


def claim_pairs(runs: list, key: str, metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of ``metric``, one per untraced pair of the
    summary row ``key``."""
    pairs: dict = {}
    for r in runs:
        if not r["trace"] and f"{r['workload']} seed {r['seed']}" == key:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][metric]
    return [(p["parent"], p["change"]) for _, p in sorted(pairs.items())]


def verdict(summary: dict, runs: list, claim: Optional[str], end_to_end: list,
            metric: str = DEFAULT_METRIC) -> dict:
    """The report read against the end-to-end metrics of ``BENCHMARK.json``.

    ``claim`` has, per seed of the claimed workload, the change's wins on
    ``metric`` out of its pairs (a win is a value better in the direction of
    the metric's ``better``), the gain of the change's median over the
    parent's, the distance between the parent's quartiles, and ``met``: at
    least nine tenths of the pairs won and a gain above that distance.
    ``end_to_end`` has, per summary row and metric, the change/parent median
    ratio oriented so that above 1 is better, the metric's bound, and
    ``within_bound``: the change's median is worse than the parent's by no
    more than the bound, as a fraction of the parent's.
    """
    specs = {spec["name"]: spec for spec in end_to_end}

    def gain(parent: float, change: float, name: str) -> float:
        return change - parent if specs[name]["better"] == "higher" else parent - change

    out: dict = {"claim": None, "end_to_end": {}}
    for key, row in summary.items():
        out["end_to_end"][key] = {}
        for name, sides in row.items():
            if name not in specs:
                continue
            parent, change = sides["parent"]["median"], sides["change"]["median"]
            ratio = None
            if parent and change:
                ratio = change / parent if specs[name]["better"] == "higher" else parent / change
            out["end_to_end"][key][name] = {
                "ratio": ratio,
                "bound": specs[name]["bound"],
                "within_bound": -gain(parent, change, name) <= specs[name]["bound"] * abs(parent),
            }
    if claim is not None:
        out["claim"] = {}
        for key, row in summary.items():
            if not key.startswith(claim + " "):
                continue
            pairs = claim_pairs(runs, key, metric)
            wins = sum(gain(p, c, metric) > 0 for p, c in pairs)
            parent = row[metric]["parent"]
            median_gain = gain(parent["median"], row[metric]["change"]["median"], metric)
            iqr = parent["q3"] - parent["q1"]
            out["claim"][key] = {
                "metric": metric, "wins": wins, "pairs": len(pairs),
                "median_gain": median_gain, "parent_iqr": iqr,
                "met": wins >= 0.9 * len(pairs) and median_gain > iqr,
            }
    return out


def outputs_equal(runs: list) -> dict:
    """Per workload: do all seed-0 runs of both sides record the same
    determinism hashes and input digests?"""
    equal = {}
    for workload in WORKLOADS:
        seen = {
            json.dumps([r["hashes"], r["input_digests"]], sort_keys=True)
            for r in runs if r["workload"] == workload and r["seed"] == 0
        }
        if seen:
            equal[workload] = len(seen) == 1
    return equal


def layer_deltas(runs: list) -> dict:
    """Per workload and metric: each side's median over its traced runs."""
    deltas = {}
    for workload in WORKLOADS:
        traced: dict = {"parent": {}, "change": {}}
        for r in runs:
            if r["trace"] and r["workload"] == workload:
                for name, value in r["metrics"].items():
                    traced[r["side"]].setdefault(name, []).append(value)
        if not traced["parent"] or not traced["change"]:
            continue
        row = {}
        for name, values in traced["change"].items():
            parent = statistics.median(traced["parent"].get(name, [0.0]))
            change = statistics.median(values)
            if change or parent:
                row[name] = {"parent": parent, "change": change,
                             "delta": change - parent, "n": len(values)}
        deltas[workload] = row
    return deltas


def src_lines(sides: dict) -> dict:
    """Lines of ``src/rorokit/*.py`` in each checkout, and change minus parent."""
    count = {
        side: sum(len(path.read_text(encoding="utf-8").splitlines())
                  for path in (checkout / "src" / "rorokit").glob("*.py"))
        for side, checkout in sides.items()
    }
    return {**count, "delta": count["change"] - count["parent"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", choices=WORKLOADS,
                        help="the workload whose gain is claimed; "
                             "without it no gain is claimed")
    parser.add_argument("--metric", default=DEFAULT_METRIC,
                        help="the end-to-end metric of BENCHMARK.json the claim "
                             f"is read on (default {DEFAULT_METRIC})")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [spec["name"] for spec in benchmark["end_to_end"]]
    if args.metric not in names:
        parser.error(f"--metric must be one of {', '.join(names)}, not {args.metric!r}")
    seconds = benchmark["run_seconds"]

    runs: list = []
    if args.claim is not None:
        run_pairs(sides, args.claim, 0, PAIRS, seconds, 0, runs)
        run_pairs(sides, args.claim, 1, HELD_OUT_PAIRS, seconds, 0, runs)
    for workload in WORKLOADS:
        if workload != args.claim:
            run_pairs(sides, workload, 0, OTHER_PAIRS, seconds, 0, runs)
    for workload in WORKLOADS:
        run_pairs(sides, workload, 0, TRACED_PAIRS, seconds, 1, runs)

    summary = summarize(runs)
    claim = None
    if args.claim is not None:
        claim = {"workload": args.claim, "metric": args.metric, "seed": 0, "held_out_seed": 1}
    report = {
        "claim": claim,
        "run_seconds": seconds,
        "machine": runs[0]["machine"],
        "all_correct": all(r["correct"] and not r["failed"] for r in runs),
        "end_to_end": summary,
        "verdict": verdict(summary, runs, args.claim, benchmark["end_to_end"], args.metric),
        "outputs_equal": outputs_equal(runs),
        "src_lines": src_lines(sides),
        "per_layer_traced": layer_deltas(runs),
        "runs": [{k: v for k, v in r.items() if k != "machine"} for r in runs],
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
