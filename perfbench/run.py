"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload rop-train --seed 0 --seconds 10 --trace 0

Run it from the root of a rorokit checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. Standard
output ends with two JSON lines: a detail record (machine block, the
workload's own named metrics, hashes, checks) and the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
span figures, and the trace self-test decides ``correct`` as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("rop-train", "rop-predict", "relations-eval", "rore-link")

# setup_s is the median, in reference seconds (see hostclock), of several
# complete set-ups made in two rounds: one before the measured steps and one
# after them, so that the repeats span the run rather than one stretch of
# host contention. Each round makes at least SETUP_MIN_REPEATS, and more
# until SETUP_MIN_S of set-up time is spent or SETUP_MAX_REPEATS are done.
# Each set-up must build byte-identical inputs.
SETUP_MIN_REPEATS = 2
SETUP_MAX_REPEATS = 100
SETUP_MIN_S = 1.0


def thread_problem() -> str | None:
    """Why the environment asks for a path other than the default one."""
    raw = os.environ.get("ROROKIT_THREADS")
    if raw is None:
        return None
    try:
        threads = int(raw)
    except ValueError:
        return f"ROROKIT_THREADS={raw!r} is not an integer"
    if threads > 1:
        return (
            f"ROROKIT_THREADS={threads}: the threaded path is not the default "
            "users run; unset it"
        )
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ROROKIT_THREADS": os.environ.get("ROROKIT_THREADS"),
    }


def import_package():
    """Import rorokit from this checkout's sources, or explain why not."""
    if not (SRC / "rorokit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rorokit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rorokit

    if Path(rorokit.__file__).resolve().parent != (SRC / "rorokit").resolve():
        raise SystemExit(f"perfbench: imported rorokit from {rorokit.__file__}, not {SRC}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import spans  # both import rorokit, so only once src/ is on the path
    import workloads

    tracer = spans.Tracer()
    if trace:
        tracer.install()
    work = WORK / f"{workload}-{os.getpid()}"
    setup_times = []  # reference seconds
    setup_walls = []
    digests = []

    def set_up_round(workdir: Path):
        times = []
        while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
        ):
            instance = workloads.WORKLOADS[workload](seed, workdir)
            tracer.phase = "setup"
            start, wall = workloads.CLOCK.now(), time.perf_counter()
            digests.append(instance.setup())
            times.append(workloads.CLOCK.now() - start)
            setup_walls.append(time.perf_counter() - wall)
            tracer.phase = None
        setup_times.extend(times)
        return instance

    workloads.CLOCK.start()
    try:
        instance = set_up_round(work / "measured")
        steps = []
        measured = 0.0
        instance.start()
        try:
            while True:
                tracer.phase = "measure"
                step = instance.step()
                tracer.phase = None
                steps.append(step)
                measured += step.wall_s
                instance.check(step)
                if instance.enough(measured, steps, seconds):
                    break
        finally:
            tracer.phase = None
            instance.close()
        outcome = instance.finish(steps)
        set_up_round(work / "after")
    finally:
        workloads.CLOCK.stop()
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    problems = list(outcome.problems)
    if any(d != digests[0] for d in digests):
        problems.append("repeated set-ups built different inputs")
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_block(),
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_walls,
        "probe_ms": {"count": len(workloads.CLOCK.probe_s),
                     "median": statistics.median(workloads.CLOCK.probe_s) * 1e3,
                     "min": min(workloads.CLOCK.probe_s) * 1e3},
        "steps": len(steps),
        "measured_s": measured,
        "step_wall_s": [s.wall_s for s in steps],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
        "hashes": outcome.hashes,
        "input_digests": digests[0],
        "problems": problems,
    }
    if trace:
        values = spans.per_layer_metrics(tracer, measured, len(steps), len(setup_times))
        trace_problems = spans.self_test(workload, tracer, values)
        detail["trace_problems"] = trace_problems
        problems = problems + trace_problems
        result_metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.per_layer_metric_specs()
        }
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result_metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "docs_per_s": {"value": outcome.docs_per_s, "unit": "docs/s"},
            "quality": {"value": outcome.quality, "unit": "ratio"},
        }
    result = {
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result_metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    problem = thread_problem()
    if problem:
        print(f"perfbench: refusing to run: {problem}", file=sys.stderr)
        return 2
    import_package()
    # train warns once per skipped document; the workloads count skipped
    # documents from its report instead.
    warnings.simplefilter("ignore")

    # The package's notes go to stderr; keep them out of the way unless the
    # run fails, and keep stdout for the two result lines.
    notes = io.StringIO()
    real_stdout = sys.stdout
    try:
        with contextlib.redirect_stdout(sys.stderr), contextlib.redirect_stderr(notes):
            detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        sys.stderr.write(notes.getvalue()[-4000:])
        traceback.print_exc()
        return 1
    for problem in detail["problems"] + detail.get("trace_problems", []):
        print(f"perfbench: {problem}", file=sys.stderr)
    real_stdout.write(json.dumps({"detail": detail}, sort_keys=True) + "\n")
    real_stdout.write(json.dumps(result, sort_keys=True) + "\n")
    real_stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
