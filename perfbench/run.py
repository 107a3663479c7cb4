#!/usr/bin/env python3
"""ricensim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

An untraced run (``--trace 0``) prints the end-to-end metrics; a traced run
(``--trace 1``) wraps ricensim's layers and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run also
writes it, with a record of the machine, to ``perfbench/out/results/``.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "out" / "results"

WORKLOAD_NAMES = ("sweep", "pariah", "negotiated")
UNITS = {
    "rollouts_per_s": "rollouts/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Fresh-interpreter set-up: ``import ricensim`` up to the first ``reset``.
SETUP_PROGRAM = """
import time
start = time.perf_counter()
import ricensim
ricensim.reset(ricensim.SimParams(), ricensim.VariantConfig())
print(repr(time.perf_counter() - start))
"""
#: Set-up is timed this many times per run, after one discarded warm-up
#: that also leaves the bytecode cache written; the median is reported.
SETUP_REPEATS = 15


def measure_setup_s() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ricensim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, load_1min: float) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload_seed": seed,
        "load_avg_1min_at_start": load_1min,
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    load_1min = os.getloadavg()[0]
    setup_s = None if trace else measure_setup_s()

    import tracer
    import workloads as wl

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    problems: list[str] = []
    extra = {}
    if trace:
        traced = wl.measure_traced(workload, seed, seconds, RESULTS / f"{stem}.spans.npz")
        invocations, metrics = traced.invocations, traced.metrics
        problems += traced.problems
        units = {m: tracer.unit(m) for m in metrics}
    else:
        invocations = wl.measure(workload, seed, seconds)
        metrics = {
            "rollouts_per_s": wl.rollouts_per_s(invocations),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = UNITS
        raw = [i.rollouts / i.elapsed_s for i in invocations]
        extra.update(rollouts_per_s_raw_median=statistics.median(raw), rollouts_per_s_raw_best=max(raw))
    attempted = sum(i.rollouts for i in invocations)
    failed = sum(i.failed for i in invocations)
    for inv in invocations:
        problems += [f"seed {inv.seed}: {p}" for p in inv.problems]
    correct = failed == 0 and not problems

    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record = dict(
        report,
        workload=workload,
        seconds=seconds,
        trace=trace,
        failed_frac=failed / attempted,
        **extra,
        environment=environment(seed, load_1min),
        problems=problems,
        invocations=[vars(i) for i in invocations],
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for p in problems:
        print(f"{workload}: check failed: {p}", file=sys.stderr)
    for m, v in metrics.items():
        print(f"{workload:<11} {m:<44} {v:>14.6g} {units[m]}")
    print(f"{workload:<11} {'failed_frac':<44} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} rollouts)")
    print(json.dumps(report))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in a fresh interpreter so peak RSS is its own."""
    code = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "ricensim" / "__init__.py").is_file():
        print(f"error: no ricensim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
