#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize them.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each of two checkouts, for every workload that ``BENCHMARK.json``
lists, with the seed of the pair (``--seed`` plus the pair index) on both
sides. Even pairs run the parent first, odd pairs the change, so drift in
the host's speed falls on both sides alike. Before the first pair, each
checkout's ``src/ricensim`` is compiled once, so that no run's ``setup_s``
includes compiling it. The summary is rewritten after every run, so an
interrupted session keeps the pairs it finished:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seconds 35 \\
        --seed 611 --out BENCH_6.json

For each workload and end-to-end metric the summary holds both sides'
median and quartiles (``statistics.quantiles``, inclusive method), every
run's value, the number of pairs the change won (a win is a value
better in the metric's direction from ``BENCHMARK.json``; ties count for
neither side), the median and quartiles of the per-pair ratio change/parent
(the two runs of a pair share the host's state, so the ratio can hold
steady while the medians of the sides drift apart) and a ``verdict``, the
first of these that holds:

- ``gain``: the change won at least 9/10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound``, a fraction of the parent's median;
- ``unresolved``: the parent's interquartile range exceeds ``bound`` times
  its median, and not every run of the change beats every parent run;
- ``no regression``.

It also records ``nproc``, the numpy version, each side's
``source_sha256`` as ``perfbench/run.py`` reports them, and each side's
``src_lines``, the ``wc -l`` total of its ``src/ricensim/*.py``. Nothing
under ``perfbench/`` is written except the result files the benchmark
writes itself.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import py_compile
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def precompile(checkout: Path) -> None:
    """Write the bytecode cache of every module under the checkout's
    ``src/ricensim``, as an import would. ``compileall`` writes it even under
    ``PYTHONDONTWRITEBYTECODE=1``, where an import writes none."""
    ok = compileall.compile_dir(
        checkout / "src" / "ricensim", quiet=1,
        invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP,
    )
    if not ok:
        raise RuntimeError(f"{checkout}: src/ricensim does not compile")


def src_lines(checkout: Path) -> int:
    """The newlines in the checkout's ``src/ricensim/*.py``, as ``wc -l``
    counts them."""
    return sum(
        path.read_bytes().count(b"\n") for path in (checkout / "src" / "ricensim").glob("*.py")
    )


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; its report line plus the checkout's source hash."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=3 * seconds + 600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (checkout / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace0.json")
        .read_text(encoding="utf-8")
    )
    return {
        "seed": seed,
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: v["value"] for m, v in report["metrics"].items()},
        "source_sha256": record["environment"]["source_sha256"],
    }


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' spread and runs of one metric, the change of the median,
    the spread of the per-pair ratios change/parent, the parent's
    interquartile range, the change's wins and the verdict."""
    sign = 1 if better == "higher" else -1
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    moved = sign * (c["median"] - p["median"])
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and moved > iqr:
        verdict = "gain"
    elif moved < -bound * abs(p["median"]):
        verdict = "regression"
    elif iqr > bound * abs(p["median"]) and min(sign * b for b in change) <= max(
        sign * a for a in parent
    ):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "parent": dict(p, runs=parent),
        "change": dict(c, runs=change),
        "change_frac": c["median"] / p["median"] - 1.0,
        "pair_ratio": spread([b / a for a, b in zip(parent, change)]),
        "parent_iqr": iqr,
        "wins": wins,
        "verdict": verdict,
    }


def summarize(runs: dict, spec: list[dict]) -> dict:
    """Per workload and metric: ``compare`` on the pairs both sides finished."""
    out = {}
    for workload, pairs in runs.items():
        done = [p for p in pairs if all(side in p for side in SIDES)]
        if not done:
            continue
        entry = {
            "pairs": len(done),
            "failed": {s: sum(p[s]["failed"] for p in done) for s in SIDES},
            "attempted": {s: sum(p[s]["attempted"] for p in done) for s in SIDES},
        }
        for metric in spec:
            values = {s: [p[s]["metrics"][metric["name"]] for p in done] for s in SIDES}
            entry[metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **compare(values["parent"], values["change"], metric["better"], metric["bound"]),
            }
        out[workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--out", type=Path, required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: no perfbench/run.py under {path}")
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    spec = benchmark["end_to_end"]

    for path in checkouts.values():
        precompile(path)
    lines = {side: src_lines(path) for side, path in checkouts.items()}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    sources: dict[str, str] = {}
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair: dict = {"seed": seed, "first": order[0]}
            runs[workload].append(pair)
            for side in order:
                result = run_benchmark(checkouts[side], workload, seed, args.seconds)
                sources[side] = result.pop("source_sha256")
                pair[side] = result
                print(f"pair {k} {workload:<10} {side:<6} "
                      + " ".join(f"{m}={v:.6g}" for m, v in result["metrics"].items()),
                      flush=True)
                summary = {
                    "command": f"perfbench/run.py --workload W --seed S "
                               f"--seconds {args.seconds} --trace 0",
                    "pairs_requested": args.pairs,
                    "seeds": [args.seed + i for i in range(args.pairs)],
                    "environment": {
                        "nproc": len(os.sched_getaffinity(0)),
                        "numpy": np.__version__,
                        "python": platform.python_version(),
                    },
                    "source_sha256": sources,
                    "src_lines": lines,
                    "summary": summarize(runs, spec),
                    "runs": runs,
                }
                args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
