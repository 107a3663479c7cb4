"""Coverage of the traced run: each wrapper sits where the program looks
the function up, and each per-layer metric reads zero or non-zero on the
workloads the README's table says it should.

Run from the root of a checkout (about 10 s on two cores):

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3
STEPS = 20  # 100-year horizon at 5-year steps


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    return report


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced() -> dict:
    out = {}
    for workload in ("sweep", "pariah", "negotiated"):
        out[workload] = {m: v["value"] for m, v in _run(workload, 1)["metrics"].items()}
    return out


def test_reports_exactly_the_declared_metrics(spec, traced):
    per_layer = {m["name"] for m in spec["per_layer"]}
    for metrics in traced.values():
        assert set(metrics) == per_layer
    untraced = _run("negotiated", 0)["metrics"]
    assert set(untraced) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in untraced.values())


ENGINE_WORK = [
    "engine.step", "engine.reset", "economy.gross_output", "economy.damage_fraction",
    "economy.abatement_fraction", "trade.build_demand", "trade.ration_exports",
    "trade.apply_tariffs", "trade.consumption", "trade.step_balance",
    "trade.budget_multiplier", "climate.step_carbon", "climate.radiative_forcing",
    "climate.exogenous_forcing", "climate.step_temperature", "actions.validate",
    "regions.generate",
]
ACTION_LAYER = [
    "policies.act", "engine.observation", "engine.masks", "negotiation.build_mask",
    "negotiation.masked_sample", "negotiation.commitments", "actions.from_action_sets",
]
OUTPUT_LAYER = ["runio.write_csv", "runio.write_manifest"]


@pytest.mark.parametrize("workload", ["sweep", "pariah", "negotiated"])
def test_engine_layers_measured_wherever_rollouts_run(traced, workload):
    m = traced[workload]
    for span in ENGINE_WORK:
        assert m[f"{span}.calls"] > 0, span
        assert m[f"{span}.self_s"] > 0, span
    assert m["engine.step.calls"] == STEPS * m["engine.rollout.calls"]
    assert m["actions.validate.per_step"] == 1.0
    assert m["trade.matrix_bytes"] == 3 * 27 * 27 * 8
    assert 0 < m["climate.carbon_residual_max"] < 1e-6
    assert m["engine.rollout.self_s"] > 0


def test_sweep(traced):
    m = traced["sweep"]
    rollouts = workloads.GRID**5
    assert m["engine.rollout.calls"] == rollouts
    assert m["regions.distinct_seed_ratio"] == 1 / rollouts
    for span in ACTION_LAYER:
        assert m[f"{span}.calls"] == 0, span
    for span in OUTPUT_LAYER:
        assert m[f"{span}.calls"] > 0, span
    for layer in ("experiments", "stats", "cli", "runio"):
        assert m[f"{layer}.self_s"] > 0, layer
    assert m["runio.bytes_written"] > 0
    # The pool path runs untraced beside each traced pass.
    assert m["experiments.parallel_efficiency"] > 0


def test_pariah(traced):
    m = traced["pariah"]
    rollouts = 5 * workloads.PARIAH_RUNS
    assert m["engine.rollout.calls"] == rollouts
    # Static actions: one policy pass of 27 regions per rollout.
    assert m["policies.act.calls"] == 27 * rollouts
    assert m["actions.from_action_sets.calls"] == rollouts
    assert m["regions.distinct_seed_ratio"] == 1 / 5
    for span in ("negotiation.build_mask", "negotiation.masked_sample", "negotiation.commitments"):
        assert m[f"{span}.calls"] == 0, span
    for layer in ("experiments", "stats", "cli", "runio"):
        assert m[f"{layer}.self_s"] > 0, layer


def test_negotiated(traced):
    m = traced["negotiated"]
    episodes = m["engine.rollout.calls"]
    assert episodes > 0
    for span in ACTION_LAYER:
        assert m[f"{span}.calls"] > 0, span
        assert m[f"{span}.self_s"] > 0, span
    assert m["policies.act.calls"] == 27 * STEPS * episodes
    assert m["regions.distinct_seed_ratio"] == 1.0
    for layer in ("experiments", "stats", "cli", "runio"):
        assert m[f"{layer}.self_s"] == 0, layer
    assert m["runio.bytes_written"] == 0
    assert m["experiments.parallel_efficiency"] == 0


def test_event_counts_repeat_at_one_seed(traced):
    again = {m: v["value"] for m, v in _run("negotiated", 1)["metrics"].items()}
    for m in tracer.EXACT_METRICS:
        assert again[m] == traced["negotiated"][m], m


def test_clamp_and_cap_hooks_fire_where_the_engine_looks_them_up():
    from ricensim import economy, engine, trade

    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        t.reset()
        trade.import_budget_multiplier(np.array([1e9, -1e9, 0.0]), np.ones(3))
        engine.economy_mod.damage_fraction(1e6, "dice_quadratic", 0.0, 1.0)
        economy.abatement_fraction(np.array([1.0]), np.array([0.0]), "persistent", 1e3, 2.6)
    finally:
        uninstall()
    snap = t.snapshot()
    assert snap["trade.budget_clamps"] == 2
    assert snap["economy.fraction_cap_hits"] == 2
    assert snap["trade.budget_multiplier.calls"] == 1
    assert engine.generate_regions.__module__ == "ricensim.regions"
    assert not hasattr(engine.generate_regions, "__wrapped__")
