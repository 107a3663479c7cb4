"""The three workloads, their correctness checks and the measuring loops.

Each workload runs one *invocation* at a time through a public entry point
of ricensim: a CLI command called in-process through ``cli.main``, or a
batch of ``run_episode`` calls. An invocation is timed from the call into
the entry point until every result file is written; the output check runs
after the clock stops.

Invocation 0 of a CLI workload uses ``REFERENCE_SEED`` and is compared row
by row against the CSV stored under ``reference/``. Every other invocation
uses a seed derived from the workload seed and is checked by invariants
that hold for any seed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Entry points are looked up as module attributes at call time, so that
# the traced run's wrappers see the calls.
from ricensim import cli, engine
from ricensim.config import NegotiationConfig, SimParams, VariantConfig
from ricensim.policies import UniformRandomPolicy

import tracer as tracer_mod
from probe import PROBE_REF_S, probe_s

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

REFERENCE_SEED = 0
# Invocations are kept short (0.1-0.2 s on a 2-vCPU Xeon), so the probes around
# each one see the host speed it ran at; see ``rollouts_per_s``.
GRID = 2  # 2 levels per dimension: 2**5 = 32 rollouts, 4 outcome cells
PARIAH_RUNS = 4  # 5 conditions: 20 episodes
EPISODES_PER_BATCH = 5

#: Relative tolerance against the stored reference: far above the ulp-level
#: drift a change of reduction order causes (~1e-16), far below any change
#: to the model.
REL_TOL = 1e-9
#: Carbon conservation holds to round-off: |initial + emitted - final|.
CARBON_REL_TOL = 1e-12

#: A measured run keeps starting invocations while it expects to finish
#: within its seconds, and makes at least this many unless that would take
#: three times as long.
MIN_INVOCATIONS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def derived_seed(workload_seed: int, index: int) -> int:
    """The ``index``-th seed derived from a workload seed."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


@dataclass
class Invocation:
    seed: int
    elapsed_s: float
    rollouts: int
    failed: int
    problems: list[str]
    probe_s: float = 0.0  # mean probe time just before and after it


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(b), scale)


def _compare_rows(rows, reference, keys, float_cols) -> set[int]:
    """Indices of rows whose keys differ from the reference or whose
    values differ beyond REL_TOL (relative to the value, or to the
    column's largest magnitude for values near zero)."""
    if len(rows) != len(reference):
        return set(range(len(rows)))
    bad = set()
    for col in float_cols:
        scale = max(abs(float(r[col])) for r in reference)
        for i, (row, ref) in enumerate(zip(rows, reference)):
            if not _close(float(row[col]), float(ref[col]), scale):
                bad.add(i)
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if any(row[k] != ref[k] for k in keys):
            bad.add(i)
    return bad


class CliWorkload:
    """A CLI command run in-process; one invocation is one ``cli.main`` call."""

    reference_file: str

    def __init__(self, name: str, argv: list[str], rollouts: int):
        self.name = name
        self.argv = argv
        self.rollouts = rollouts
        self.out_dir = HERE / "out" / name

    def invoke(self, seed: int, argv: list[str] | None = None) -> tuple[float, int]:
        args = (argv or self.argv) + ["--seed", str(seed), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(args)
            elapsed = time.perf_counter() - start
        return elapsed, code

    def reference(self) -> list[dict[str, str]]:
        return _read_csv(REFERENCE_DIR / self.reference_file)

    def run(self, seed: int, check_reference: bool) -> Invocation:
        elapsed, code = self.invoke(seed)
        if code != 0:
            return Invocation(seed, elapsed, self.rollouts, self.rollouts, [f"exit code {code}"])
        failed, problems = self.check(check_reference)
        return Invocation(seed, elapsed, self.rollouts, failed, problems)


class SweepWorkload(CliWorkload):
    reference_file = "sweep.csv"
    float_cols = (
        "delta_t_end_degc", "cumulative_gross_output", "mean_total_reward",
        "climate_index", "economic_index",
    )
    level_cols = ("savings_level", "mitigation_level", "export_level", "imports_level", "tariffs_level")

    def __init__(self, name: str, workers: int):
        super().__init__(
            name, ["sweep", "--grid", str(GRID), "--workers", str(workers)], GRID**5
        )

    def warm_up(self) -> None:
        self.invoke(REFERENCE_SEED, ["sweep", "--grid", "1"])

    def check(self, check_reference: bool) -> tuple[int, list[str]]:
        rows = _read_csv(self.out_dir / "sweep.csv")
        summary = _read_csv(self.out_dir / "sweep_summary.csv")[0]
        problems = []
        bad = {
            i for i, row in enumerate(rows)
            if not all(math.isfinite(float(row[c])) for c in self.float_cols)
        }
        # Only savings and mitigation may move the outcome: one
        # (warming, output) point per savings x mitigation cell.
        cells: dict[tuple[str, str], list[int]] = {}
        for i, row in enumerate(rows):
            cells.setdefault((row["savings_level"], row["mitigation_level"]), []).append(i)
        for members in cells.values():
            first = rows[members[0]]
            for i in members:
                if not all(
                    _close(float(rows[i][c]), float(first[c]), 0.0)
                    for c in ("delta_t_end_degc", "cumulative_gross_output")
                ):
                    bad.add(i)
        whole_run_ok = (
            len(rows) == self.rollouts
            and len(cells) == GRID * GRID
            and int(summary["distinct_outcome_pairs"]) == GRID * GRID
        )
        if not whole_run_ok:
            problems.append(
                f"{len(rows)} rows, {len(cells)} cells, "
                f"{summary['distinct_outcome_pairs']} distinct outcomes; expected "
                f"{self.rollouts} rows and {GRID * GRID} cells and outcomes"
            )
            return self.rollouts, problems
        if check_reference:
            mismatched = _compare_rows(rows, self.reference(), self.level_cols, self.float_cols)
            if mismatched:
                problems.append(f"{len(mismatched)} rows differ from the reference")
            bad |= mismatched
        if bad:
            problems.append(f"{len(bad)} rollouts failed the sweep checks")
        return len(bad), problems


class PariahWorkload(CliWorkload):
    reference_file = "pariah_runs.csv"
    conditions = 5

    def __init__(self):
        super().__init__(
            "pariah", ["pariah", "--runs", str(PARIAH_RUNS)], self.conditions * PARIAH_RUNS
        )

    def warm_up(self) -> None:
        self.invoke(REFERENCE_SEED, ["pariah", "--runs", "1"])

    def check(self, check_reference: bool) -> tuple[int, list[str]]:
        rows = _read_csv(self.out_dir / "pariah_runs.csv")
        problems = []
        if len(rows) != self.rollouts:
            return self.rollouts, [f"{len(rows)} rows, expected {self.rollouts}"]
        bad = {
            i for i, row in enumerate(rows)
            if not all(math.isfinite(float(row[c])) for c in ("total_reward", "z_reward"))
        }
        by_run: dict[str, list[int]] = {}
        for i, row in enumerate(rows):
            by_run.setdefault(row["run"], []).append(i)
        for members in by_run.values():
            # Tariffs cannot punish: the subject's reward is bitwise equal
            # in every condition (CSV floats round-trip exactly).
            rewards = {rows[i]["total_reward"] for i in members}
            subjects = {rows[i]["subject"] for i in members}
            if len(rewards) != 1 or len(subjects) != 1 or len(members) != self.conditions:
                problems.append(f"run {rows[members[0]]['run']}: subject reward varies by condition")
                bad.update(members)
        if check_reference:
            mismatched = _compare_rows(
                rows, self.reference(), ("condition", "run", "subject"),
                ("total_reward", "z_reward", "realized_tariff"),
            )
            if mismatched:
                problems.append(f"{len(mismatched)} rows differ from the reference")
            bad |= mismatched
        if bad:
            problems.append(f"{len(bad)} rollouts failed the pariah checks")
        return len(bad), problems


class NegotiatedWorkload:
    """Negotiated episodes under the uniform random policy, called through
    the library; one invocation is a batch of EPISODES_PER_BATCH episodes
    with distinct seeds."""

    name = "negotiated"
    rollouts = EPISODES_PER_BATCH

    def __init__(self):
        self.params = SimParams(negotiation=NegotiationConfig(enabled=True))
        self.variant = VariantConfig()
        self.policy = UniformRandomPolicy()

    def warm_up(self) -> None:
        engine.run_episode(self.params, self.variant, self.policy, REFERENCE_SEED)

    def run(self, seed: int, check_reference: bool) -> Invocation:
        seeds = [derived_seed(seed, k + 1) for k in range(EPISODES_PER_BATCH)]
        records, problems = [], []
        start = time.perf_counter()
        for s in seeds:
            try:
                records.append(engine.run_episode(self.params, self.variant, self.policy, s))
            except Exception as exc:  # a failed rollout is counted, not fatal
                problems.append(f"episode seed {s}: {exc!r}")
        elapsed = time.perf_counter() - start
        # Only invariants that hold for any valid order of random draws.
        broken = 0
        for rec in records:
            residual = abs(rec.initial_carbon_total + rec.cumulative_emissions - rec.final_carbon_total)
            ok = (
                rec.commitments is not None
                and bool(np.all(rec.mitigation_levels >= rec.commitments))
                and residual <= CARBON_REL_TOL * abs(rec.final_carbon_total)
                and bool(np.all(np.isfinite(rec.rewards)))
            )
            broken += not ok
        if broken:
            problems.append(f"{broken} episodes break a negotiation invariant")
        failed = broken + len(seeds) - len(records)
        return Invocation(seed, elapsed, len(seeds), failed, problems)


WORKLOADS = {
    "sweep": SweepWorkload("sweep", workers=1),
    "pariah": PariahWorkload(),
    "negotiated": NegotiatedWorkload(),
}
#: The sweep with one worker process per CPU, the only path through the
#: process-pool chunking of ``experiments.action_sweep``. Run-to-run spread
#: on a shared host is too wide for an end-to-end workload, so the traced
#: sweep runs it for ``experiments.parallel_efficiency`` only.
PARALLEL_SWEEP = SweepWorkload("sweep-par", workers=nproc())


def rollouts_per_s(invocations: list[Invocation]) -> float:
    """Median invocation rate, scaled to the reference host speed.

    The host is shared: the same invocation runs up to twice as slowly
    while neighbours are busy, and the slowdown changes from one tenth of
    a second to the next as well as over minutes. Raw rates, even the
    fastest of a run, moved 12-25% from run to run. Each invocation's rate
    is multiplied by ``probe_s / PROBE_REF_S``, the slowdown the probe saw
    just before and after it; the median of these moved 2-5%. The raw
    median and fastest rates are kept in the result file.
    """
    return statistics.median(
        i.rollouts / i.elapsed_s * i.probe_s / PROBE_REF_S for i in invocations
    )


def _seed_of(workload, workload_seed: int, index: int) -> tuple[int, bool]:
    """(seed, compare against the reference) of invocation ``index``."""
    if index == 0 and isinstance(workload, CliWorkload):
        return REFERENCE_SEED, True
    return derived_seed(workload_seed, index + 1), False


def measure(name: str, workload_seed: int, seconds: float) -> list[Invocation]:
    """Untraced run: invocations until ``seconds`` are used up."""
    workload = WORKLOADS[name]
    workload.warm_up()
    probe_s()
    done: list[Invocation] = []
    start = time.perf_counter()
    before = probe_s()
    while True:
        seed, check_reference = _seed_of(workload, workload_seed, len(done))
        invocation = workload.run(seed, check_reference)
        after = probe_s()
        invocation.probe_s = (before + after) / 2
        before = after
        done.append(invocation)
        spent = time.perf_counter() - start
        expected = spent + statistics.median(i.elapsed_s for i in done)
        if expected > seconds and not (len(done) < MIN_INVOCATIONS and expected <= 3 * seconds):
            return done


@dataclass
class TracedRun:
    invocations: list[Invocation]
    metrics: dict[str, float]
    problems: list[str]


def measure_traced(name: str, workload_seed: int, seconds: float, spans_path: Path) -> TracedRun:
    """Traced run: pairs of an untraced and a traced invocation on the same
    inputs, until ``seconds`` are used up (on sweep, with an untraced
    parallel sweep of the same inputs in each pair). Counts come from the first
    traced pass and must repeat exactly in later ones; each time is the
    minimum over the passes. The first pass's spans are written to
    ``spans_path``."""
    workload = WORKLOADS[name]
    workload.warm_up()
    start = time.perf_counter()
    done: list[Invocation] = []
    problems: list[str] = []
    if isinstance(workload, CliWorkload):
        done.append(workload.run(REFERENCE_SEED, True))
    seed, _ = _seed_of(workload, workload_seed, 1)

    tracer = tracer_mod.Tracer()
    untraced, traced, parallel, passes = [], [], [], []
    while True:
        untraced.append(workload.run(seed, False))
        if name == "sweep":
            parallel.append(PARALLEL_SWEEP.run(seed, False))
        uninstall = tracer_mod.install(tracer)
        tracer.reset()
        try:
            traced.append(workload.run(seed, False))
        finally:
            uninstall()
        passes.append(tracer.snapshot())
        if len(passes) == 1:
            tracer.write_spans(spans_path)
        spent = time.perf_counter() - start
        if spent * (len(passes) + 1) / len(passes) > seconds:
            break
    done += untraced + parallel + traced

    metrics = {m: passes[0][m] for m in tracer_mod.EXACT_METRICS}
    for m in tracer_mod.EXACT_METRICS:
        if any(p[m] != metrics[m] for p in passes[1:]):
            problems.append(f"{m} did not repeat across traced passes of one input")
    # The fastest pass, as the host is shared (see ``rollouts_per_s``).
    for m in tracer_mod.TIMED_METRICS:
        metrics[m] = min(p[m] for p in passes)
    untraced_s = min(i.elapsed_s for i in untraced)
    metrics["trace.overhead_frac"] = min(i.elapsed_s for i in traced) / untraced_s - 1.0
    metrics["experiments.parallel_efficiency"] = (
        untraced_s / (nproc() * min(i.elapsed_s for i in parallel)) if parallel else 0.0
    )
    return TracedRun(done, metrics, problems)


PER_LAYER_METRICS = (
    tracer_mod.EXACT_METRICS
    + tracer_mod.TIMED_METRICS
    + ("trace.overhead_frac", "experiments.parallel_efficiency")
)
