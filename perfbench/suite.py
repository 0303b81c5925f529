"""Run every workload, untraced and traced, on one or more seeds.

    python3 perfbench/suite.py              # seeds 0 and the held-out 1
    python3 perfbench/suite.py --seeds 3

Each run is a fresh ``perfbench/run.py`` process, so set-up time and peak
memory belong to one workload alone; it measures for the ``run_seconds`` of
``BENCHMARK.json``. The suite prints every end-to-end
metric with its unit, documents attempted and failed, and exits non-zero
when any of these fails:

* a run's output checks (``correct`` false, or failed documents);
* the trace self-test of a traced run;
* determinism: the untraced and traced runs of one workload and seed must
  report the same input digests, rop-train checkpoint SHA-256 and
  rore-link result SHA-256.

It also reports the tracing overhead: the traced run's fastest step wall
time minus the untraced one's (the fastest, because host contention only
ever adds time).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    failures = []
    summary = []
    for seed in args.seeds:
        for workload in WORKLOAD_NAMES:
            plain_detail, plain = run_once(workload, seed, seconds, 0)
            traced_detail, traced = run_once(workload, seed, seconds, 1)
            label = f"{workload} seed {seed}"
            print(f"== {label}: attempted {plain['attempted']}, failed {plain['failed']}, "
                  f"correct {plain['correct']}")
            for name, metric in plain["metrics"].items():
                print(f"   {name:<20} {metric['value']:>14.6g} {metric['unit']}")
            for name, metric in plain_detail["named"].items():
                print(f"   {name:<20} {metric['value']:>14.6g} {metric['unit']}")
            for key in ("hashes", "input_digests"):
                for name, digest in plain_detail[key].items():
                    print(f"   {name:<20} {digest}")
            plain_step = min(plain_detail["step_wall_s"])
            traced_step = min(traced_detail["step_wall_s"])
            overhead = traced_step - plain_step
            share = traced["metrics"]["trace.self_share"]["value"]
            print(f"   tracing overhead     {overhead:>+14.4f} s per step "
                  f"({overhead / plain_step:+.1%} of {plain_step:.4f} s); "
                  f"layer self times cover {share:.1%} of the traced wall time")

            if not plain["correct"] or plain["failed"]:
                failures.append(f"{label}: output checks failed: {plain_detail['problems']}")
            if not traced["correct"]:
                failures.append(
                    f"{label}: traced run failed: "
                    f"{traced_detail['problems'] + traced_detail['trace_problems']}"
                )
            for key in ("hashes", "input_digests"):
                if plain_detail[key] != traced_detail[key]:
                    failures.append(f"{label}: {key} differ between runs of one commit")
            summary.append({
                "workload": workload,
                "seed": seed,
                "attempted": plain["attempted"],
                "failed": plain["failed"],
                "correct": plain["correct"] and traced["correct"],
                "metrics": plain["metrics"],
                "named": plain_detail["named"],
                "hashes": plain_detail["hashes"],
                "tracing_overhead_s_per_step": overhead,
                "machine": plain_detail["machine"],
            })

    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    print(json.dumps({"runs": summary, "failures": failures}, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
