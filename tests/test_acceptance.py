"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The sweep and pariah fixtures take their sizes from ``runio.EXPERIMENTS``, as
the CLI does: CI scale by default (1024 sweep rollouts, 100 pariah runs); set
``RICENSIM_FULL_SCALE=1`` for the ``--full-scale`` sizes (the 10^5-rollout
sweep, parallelized over all cores, and 1000 pariah runs; minutes) with the
same assertions.
"""
import math
import os

import numpy as np
import pytest

from ricensim import (
    FixedLevelsPolicy,
    IDEAL_TRADE_POLICY,
    PariahOverridePolicy,
    SimParams,
    VariantConfig,
    run_episode,
)
from ricensim.cli import main as cli_main
from ricensim.experiments import (
    action_sweep,
    commitment_statistics,
    horizon_experiment,
    pariah_experiment,
    tariff_effect_experiment,
    trade_effect_experiment,
)
from ricensim.runio import EXPERIMENTS
from ricensim.trade import step_balance

FULL_SCALE = os.environ.get("RICENSIM_FULL_SCALE", "") == "1"
PARAMS = SimParams()
BASELINE = VariantConfig()

_carbon_audits: list = []


def report(criterion: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def registry_options(experiment: str) -> dict:
    """The experiment's options at this run's scale, resolved as the CLI does."""
    return EXPERIMENTS[experiment].resolve_options({}, {}, FULL_SCALE)


def audited(record) -> None:
    _carbon_audits.append(
        (record.initial_carbon_total, record.cumulative_emissions, record.final_carbon_total)
    )


@pytest.fixture(scope="module")
def sweep():
    workers = (os.cpu_count() or 1) if FULL_SCALE else 1
    grid = registry_options("sweep")["grid"]
    return action_sweep(PARAMS, BASELINE, grid=grid, seed=0, workers=workers)


@pytest.fixture(scope="module")
def pariah_baseline():
    options = registry_options("pariah")
    return pariah_experiment(
        PARAMS, BASELINE, runs=options["runs"], tariff_levels=tuple(options["tariff_levels"]),
        seed=1,
    )


def test_c01_tariff_invariance_is_exact():
    """Tariffs aimed at a region change nothing in its reward stream."""
    target = 5
    lenient = run_episode(PARAMS, BASELINE, PariahOverridePolicy(IDEAL_TRADE_POLICY, target, 0), 42)
    punitive = run_episode(PARAMS, BASELINE, PariahOverridePolicy(IDEAL_TRADE_POLICY, target, 9), 42)
    audited(lenient)
    audited(punitive)
    identical = bool(np.array_equal(lenient.rewards[:, target], punitive.rewards[:, target]))
    tariffs_differ = bool((punitive.tariff_levels[:, :, target].max()) == 9)
    report(1, "bitwise-equal reward stream for the tariffed region", identical and tariffs_differ)


def test_c02_tariffer_self_harm():
    """Maximal tariffs strictly lower the tariffing region's own reward."""
    result = tariff_effect_experiment(PARAMS, BASELINE, 0)
    rec = run_episode(PARAMS, BASELINE, IDEAL_TRADE_POLICY, 0)
    audited(rec)
    trades = rec.imports_scaled.sum(axis=0)
    passed = bool((trades > 0).all() and (result.delta_total < 0).all())
    report(2, "own max tariffs strictly reduce every trading region's reward", passed)


def test_c03_trade_limitation_inversion():
    """No-trade beats max-trade for every region at mitigation 0.9, savings 0.3."""
    result = trade_effect_experiment(PARAMS, BASELINE, 0)
    report(3, "no-trade/max-trade reward ratio > 1 for every region",
           bool((result.ratio > 1.0).all()))


def test_c04_outcome_dots_are_savings_mitigation_cells(sweep):
    """All trade actions are irrelevant to (warming, output): the sweep
    collapses to exactly (savings levels x mitigation levels) outcome dots."""
    expected = len(sweep.grid_levels) ** 2
    report(4, f"{sweep.n_rollouts} rollouts collapse to exactly {expected} outcome pairs",
           sweep.distinct_outcome_count == expected)


def test_c05_correlation_structure(sweep):
    """Trade actions decorrelated from both indices; mitigation drives the
    climate index, savings the economic index, and savings lowers reward."""
    c = sweep.correlations
    trade_ok = all(
        abs(c[dim][metric]) < 0.01
        for dim in ("imports", "export", "tariffs")
        for metric in ("climate_index", "economic_index")
    )
    mitigation_ok = c["mitigation"]["climate_index"] > 0.9
    savings_ok = c["savings"]["economic_index"] > 0.5
    reward_ok = c["savings"]["reward"] < 0
    report(
        5,
        "correlations: trade<0.01 both indices, mitigation-climate>0.9, "
        "savings-economic>0.5, savings-reward<0",
        trade_ok and mitigation_ok and savings_ok and reward_ok,
    )


def test_c06_damage_anchors():
    """8.5% at 100y by construction; 200y/300y are structural predictions."""
    result = horizon_experiment(PARAMS, BASELINE, (100, 200, 300), 0)
    d = result.damage_end
    ok100 = math.isclose(d[100], 0.085, abs_tol=0.005)
    ok200 = math.isclose(d[200], 0.13, abs_tol=0.05)
    ok300 = math.isclose(d[300], 0.22, abs_tol=0.05)
    report(6, f"damages {d[100]:.4f}/{d[200]:.4f}/{d[300]:.4f} at 100/200/300y "
              "within 0.085+-0.005, 0.13+-0.05, 0.22+-0.05",
           ok100 and ok200 and ok300)


def test_c07_masking_inflation():
    """Committing to the max of 27 uniform proposals almost always commits
    to the top level; Monte-Carlo matches the exact order-statistic oracle."""
    result = commitment_statistics(PARAMS.n_regions, PARAMS.n_steps, 10_000, seed=1)
    oracle_mean = sum(k * (((k + 1) / 10) ** 27 - (k / 10) ** 27) for k in range(10))
    oracle_p9 = 1 - 0.9**27
    mean_ok = abs(result.mean_commitment - oracle_mean) < 0.05
    mean_quoted_ok = abs(result.mean_commitment - 8.938) < 0.05
    p9_ok = abs(result.p_max_level - oracle_p9) < 0.01
    p9_quoted_ok = abs(result.p_max_level - 0.9419) < 0.01
    report(7, f"mean commitment {result.mean_commitment:.4f} (oracle {oracle_mean:.4f}), "
              f"P(9) {result.p_max_level:.4f} (oracle {oracle_p9:.4f})",
           mean_ok and p9_ok and mean_quoted_ok and p9_quoted_ok)


def test_c08_variant_efficacy():
    """Overproduction penalty makes received tariffs bite; tariff revenue
    adds exactly dt*revenue to the balance."""
    target = 11
    over = VariantConfig(overproduction_penalty=True)
    policy = FixedLevelsPolicy(savings=3, mitigation=3, export=3, imports=5, tariffs=0)
    rewards = []
    for level in (0, 5, 9):
        rec = run_episode(PARAMS, over, PariahOverridePolicy(policy, target, level), 7)
        audited(rec)
        rewards.append(rec.total_reward[target])
    strictly_decreasing = rewards[0] > rewards[1] > rewards[2]

    revenue_variant = VariantConfig(use_tariff_revenue=True)
    tariffed = FixedLevelsPolicy(savings=3, mitigation=3, export=3, imports=5, tariffs=9)
    on = run_episode(PARAMS, revenue_variant, tariffed, 7)
    off = run_episode(PARAMS, BASELINE, tariffed, 7)
    audited(on)
    # Bitwise replay: the recorded balances follow B' = B + dt*(X - M) + dt*r.
    balance = np.zeros(PARAMS.n_regions)
    replay_exact = True
    for t in range(PARAMS.n_steps):
        balance = step_balance(
            balance, on.exports_scaled[t], on.imports_scaled[t], on.revenue[t],
            revenue_variant, PARAMS.dt_years,
        )
        replay_exact = replay_exact and bool(np.array_equal(balance, on.balance[t]))
    # Paired runs share flows on the first step (feedback has not kicked in),
    # so the balance difference equals dt*revenue to float precision.
    first_diff = on.balance[0] - off.balance[0]
    paired_ok = bool(
        np.allclose(first_diff, PARAMS.dt_years * on.revenue[0], rtol=1e-12, atol=0)
        and np.array_equal(on.revenue[0], off.revenue[0])
    )
    report(8, "overproduction: reward strictly decreasing in received tariffs; "
              "revenue: balance gains exactly dt*revenue",
           strictly_decreasing and replay_exact and paired_ok)


def test_c09_pariah_experiment(pariah_baseline):
    """Subjecting a region to fixed tariffs does not move its normalized
    reward, while the manipulation itself is confirmed by the realized
    tariff rates."""
    result = pariah_baseline
    means = [result.mean_z[c] for c in result.conditions]
    means_equal = max(means) - min(means) < 0.05
    expected_tariff = {
        "pariah@5": 0.5, "pariah@7": 0.7, "pariah@9": 0.9,
        "control": 0.0, "free_trade": 0.0,
    }
    realized_ok = all(
        result.mean_realized_tariff[c] == expected_tariff[c] for c in result.conditions
    )
    report(9, "condition means within 0.05 and realized tariffs exact", means_equal and realized_ok)


def test_c10_conservation_and_determinism(tmp_path):
    """Carbon books balance to 1e-9 across all acceptance episodes, and
    rerunning a command with the same config and seed reproduces its CSV
    outputs byte for byte."""
    assert _carbon_audits, "earlier criteria must have recorded carbon audits"
    conserved = all(
        abs(final - initial - added) <= 1e-9 * max(final, 1.0)
        for initial, added, final in _carbon_audits
    )
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli_main(["sweep", "--grid", "2", "--seed", "9", "--out", str(d)]) == 0
        assert cli_main(["masking-demo", "--episodes", "1000", "--seed", "9",
                         "--out", str(d / "mask")]) == 0
    identical = all(
        (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
        for rel in ("sweep.csv", "correlations.csv", "sweep_summary.csv",
                    "mask/masking.csv", "mask/masking_summary.csv")
    )
    report(10, f"carbon conserved in {len(_carbon_audits)} episodes; reruns byte-identical",
           conserved and identical)
