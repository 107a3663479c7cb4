import json
import math
import os

import numpy as np
import pytest

from ricensim import JointActions, NegotiationConfig, SimParams, VariantConfig
from ricensim.engine import reset, step
from ricensim import experiments
from ricensim.cli import main
from ricensim.errors import ConfigError
from ricensim.experiments import (
    action_sweep,
    commitment_statistics,
    horizon_experiment,
    pariah_experiment,
    sweep_grid_levels,
    tariff_effect_experiment,
    trade_effect_experiment,
)

from conftest import symmetric_world
from test_negotiation import max_level_oracle_mean


@pytest.fixture(scope="module")
def params():
    return SimParams()


@pytest.fixture(scope="module")
def baseline():
    return VariantConfig()


class TestSweepGrid:
    def test_grid_levels(self):
        assert sweep_grid_levels(4) == (0, 3, 6, 9)
        assert sweep_grid_levels(10) == tuple(range(10))
        assert sweep_grid_levels(2) == (0, 9)
        assert sweep_grid_levels(1) == (0,)

    def test_invalid_grid(self):
        with pytest.raises(ConfigError, match=r"options\.grid: expected an integer in 1\.\.10"):
            sweep_grid_levels(0)
        with pytest.raises(ConfigError, match=r"options\.grid: expected an integer in 1\.\.10"):
            sweep_grid_levels(11)


@pytest.fixture(scope="module")
def sweep2(params, baseline):
    return action_sweep(params, baseline, grid=2, seed=0)


@pytest.fixture(scope="module")
def tariff_result(params, baseline):
    return tariff_effect_experiment(params, baseline, 0)


@pytest.fixture(scope="module")
def pariah_result(params, baseline):
    return pariah_experiment(params, baseline, runs=25, tariff_levels=(5, 7, 9), seed=13)


@pytest.fixture(scope="module")
def horizon_result(params, baseline):
    return horizon_experiment(params, baseline, (100, 200, 300), 0)


class TestActionSweep:

    def test_row_count_is_grid_power_five(self, sweep2):
        assert sweep2.n_rollouts == 2**5

    def test_distinct_outcomes_count_savings_mitigation_cells(self, sweep2):
        assert sweep2.distinct_outcome_count == 4

    def test_indices_in_unit_interval(self, sweep2):
        assert (sweep2.climate_index >= 0).all() and (sweep2.climate_index <= 1).all()
        assert (sweep2.economic_index >= 0).all() and (sweep2.economic_index <= 1).all()

    def test_trade_dimensions_uncorrelated_with_indices(self, sweep2):
        for dim in ("export", "imports", "tariffs"):
            for metric in ("climate_index", "economic_index"):
                assert abs(sweep2.correlations[dim][metric]) < 0.01

    def test_degenerate_single_point_grid(self, params, baseline):
        s = action_sweep(params, baseline, grid=1, seed=0)
        assert s.n_rollouts == 1
        assert s.climate_index[0] == 0.0 and s.economic_index[0] == 0.0
        assert s.correlations["savings"]["reward"] is None

    @pytest.mark.parametrize("workers", [0, -1, 10**6])
    def test_workers_outside_the_cpu_count_rejected_before_any_pool(
        self, baseline, monkeypatch, workers
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match=r"workers: expected an integer in 1\.\."):
            action_sweep(SimParams(n_regions=4), baseline, grid=1, seed=0, workers=workers)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for workers=2")
    def test_worker_counts_agree(self, baseline):
        small = SimParams(n_regions=4)
        one = action_sweep(small, baseline, grid=2, seed=2, workers=1)
        two = action_sweep(small, baseline, grid=2, seed=2, workers=2)
        assert np.array_equal(one.levels, two.levels)
        assert np.array_equal(one.delta_t_end, two.delta_t_end)
        assert np.array_equal(one.y_cum, two.y_cum)
        assert np.array_equal(one.mean_reward, two.mean_reward)


class TestTradeEffect:
    def test_every_region_prefers_no_trade(self, params, baseline):
        result = trade_effect_experiment(params, baseline, 0)
        assert (result.ratio > 1.0).all()

    def test_symmetric_two_region_world_is_neutral_at_full_weight(self):
        """With foreign weight 1 and identical regions, symmetric flows
        cancel out of the reward."""
        p = SimParams(n_regions=2, foreign_weight=1.0)
        v = VariantConfig()
        totals = {}
        for label, levels in (("none", 0), ("max", 9)):
            w = symmetric_world(reset(p, v, 0))
            actions = JointActions.uniform(2, savings=3, mitigation=9,
                                           export=levels, imports=levels, tariffs=0)
            total = np.zeros(2)
            for _ in range(p.n_steps):
                w, d = step(w, actions)
                total += d.rewards
            totals[label] = total
        assert np.allclose(totals["none"], totals["max"], rtol=1e-9)

    def test_tariffs_break_neutrality_even_at_full_weight(self):
        p = SimParams(n_regions=2, foreign_weight=1.0)
        v = VariantConfig()
        totals = {}
        for label, tariff in (("free", 0), ("walled", 9)):
            w = symmetric_world(reset(p, v, 0))
            actions = JointActions.uniform(2, savings=3, mitigation=9,
                                           export=9, imports=9, tariffs=tariff)
            total = np.zeros(2)
            for _ in range(p.n_steps):
                w, d = step(w, actions)
                total += d.rewards
            totals[label] = total
        assert (totals["free"] > totals["walled"]).all()


class TestTariffEffect:
    def test_received_tariffs_never_touch_reward(self, tariff_result):
        assert np.array_equal(
            tariff_result.delta_domestic, np.zeros_like(tariff_result.delta_domestic)
        )

    def test_own_tariffs_only_hurt(self, tariff_result):
        assert (tariff_result.delta_foreign <= 0).all()
        assert (tariff_result.delta_total < 0).all()

    def test_overproduction_variant_hits_exporters(self, params):
        over = tariff_effect_experiment(params, VariantConfig(overproduction_penalty=True), 0)
        assert (over.delta_domestic < 0).all()


class TestPariah:
    def test_baseline_condition_means_equal(self, pariah_result):
        means = [pariah_result.mean_z[c] for c in pariah_result.conditions]
        assert max(means) - min(means) < 0.05

    def test_realized_tariffs_confirm_manipulation(self, pariah_result):
        assert pariah_result.mean_realized_tariff["pariah@9"] == 0.9
        assert pariah_result.mean_realized_tariff["pariah@7"] == 0.7
        assert pariah_result.mean_realized_tariff["pariah@5"] == 0.5
        assert pariah_result.mean_realized_tariff["free_trade"] == 0.0
        assert pariah_result.mean_realized_tariff["control"] == 0.0

    def test_deterministic_given_seed(self, params, baseline):
        a = pariah_experiment(params, baseline, runs=5, tariff_levels=(5, 7, 9), seed=21)
        b = pariah_experiment(params, baseline, runs=5, tariff_levels=(5, 7, 9), seed=21)
        assert {c: list(a.rewards[c]) for c in a.conditions} == {
            c: list(b.rewards[c]) for c in b.conditions
        }
        # Every condition runs on the same [run] subjects.
        assert a.subjects.shape == (5,) and np.array_equal(a.subjects, b.subjects)

    def test_overproduction_penalizes_the_pariah(self, params):
        over = pariah_experiment(
            params, VariantConfig(overproduction_penalty=True), runs=25,
            tariff_levels=(5, 7, 9), seed=13,
        )
        gap = over.mean_z["free_trade"] - over.mean_z["pariah@9"]
        assert gap > 0.1


class TestHorizon:
    def test_anchor_is_exact_by_construction(self, horizon_result):
        assert math.isclose(horizon_result.damage_end[100], 0.085, abs_tol=5e-3)

    def test_extended_horizons_track_reported_damages(self, horizon_result):
        assert math.isclose(horizon_result.damage_end[200], 0.13, abs_tol=0.05)
        assert math.isclose(horizon_result.damage_end[300], 0.22, abs_tol=0.05)

    def test_rejects_misaligned_horizon(self, params, baseline):
        with pytest.raises(ConfigError):
            horizon_experiment(params, baseline, horizons=(100, 123), seed=0)


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("pariah", "tariff_levels", []),
        ("pariah", "tariff_levels", [5, 5]),
        ("pariah", "tariff_levels", [12]),
        ("pariah", "tariff_levels", [True]),
        ("horizon", "horizons", [100, 100]),
    ],
    ids=["empty", "duplicate", "out of range", "bool", "duplicate horizons"],
)
def test_bad_list_option_fails_as_in_the_cli(
    tmp_path, capsys, params, baseline, experiment, key, value
):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": experiment, "options": {key: value}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    cli_error = capsys.readouterr().err.splitlines()[-1]  # after the usage lines
    with pytest.raises(ConfigError) as library_error:
        if experiment == "pariah":
            pariah_experiment(params, baseline, runs=2, tariff_levels=value, seed=0)
        else:
            horizon_experiment(params, baseline, horizons=value, seed=0)
    assert cli_error == f"error: {library_error.value}"


class TestMaskingDemo:
    def test_matches_exact_oracle(self, params):
        result = commitment_statistics(params.n_regions, params.n_steps, episodes=4000, seed=5)
        assert abs(result.mean_commitment - max_level_oracle_mean(27)) < 0.05
        assert abs(result.p_max_level - (1 - 0.9**27)) < 0.01

    def test_single_region_mean_is_uniform_mean(self):
        result = commitment_statistics(n_regions=1, steps=20, episodes=10_000, seed=2)
        assert abs(result.mean_commitment - 4.5) < 0.05

    def test_realized_mitigation_at_least_commitment_mean(self, params):
        result = commitment_statistics(params.n_regions, params.n_steps, episodes=1000, seed=5)
        assert result.mean_realized_mitigation * 10 >= result.mean_commitment

    def test_histogram_counts_episode_steps(self, params):
        result = commitment_statistics(params.n_regions, params.n_steps, episodes=100, seed=0)
        assert result.level_counts.sum() == 100 * params.n_steps

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    @pytest.mark.parametrize("key", ["sim.n_regions", "steps"])
    def test_bad_sizes_name_their_key(self, key, bad):
        sizes = {"sim.n_regions": 27, "steps": 20} | {key: bad}
        with pytest.raises(ConfigError, match=f"^{key}: expected an integer"):
            commitment_statistics(sizes["sim.n_regions"], sizes["steps"], episodes=10, seed=0)

    @pytest.mark.parametrize("n_regions, steps, episodes", [(27, 20, 40), (2, 7, 30), (3, 1, 11)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_each_episode_commits_as_the_episode_at_its_seed(
        self, baseline, n_regions, steps, episodes, seed
    ):
        """Episode ``e``'s commitments are the first ``steps`` rows ``reset``
        draws at the ``e``-th seed of the masking sequence; its uniforms are
        block ``e`` of one draw of them all from the stream spawned off it."""
        streams = np.random.SeedSequence([seed, experiments._MASKING_STREAM])
        params = SimParams(n_regions=n_regions, horizon_years=5 * steps,
                           negotiation=NegotiationConfig(enabled=True))
        commitments = np.array([
            reset(params, baseline, episode_seed).constants.commitments[:steps, 0]
            for episode_seed in streams.generate_state(episodes, np.uint64).tolist()
        ])
        uniforms = np.random.Generator(np.random.PCG64(streams.spawn(1)[0]))
        u = uniforms.random(size=(episodes, steps, n_regions))
        realized = commitments[..., None] + np.floor(u * (10 - commitments)[..., None])
        result = commitment_statistics(n_regions, steps, episodes, seed)
        assert np.array_equal(result.level_counts, np.bincount(commitments.ravel(), minlength=10))
        assert result.mean_commitment == float(commitments.mean())
        assert result.p_max_level == float((commitments == 9).mean())
        assert result.mean_realized_mitigation == float(realized.mean() / 10.0)
