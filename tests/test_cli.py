import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ricensim
from ricensim import experiments
from ricensim.cli import main
from ricensim.errors import ConfigError
from ricensim.runio import EXPERIMENTS, parse_config


def read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


class TestSweepCommand:
    def test_writes_expected_files_and_row_count(self, tmp_path):
        out = tmp_path / "d"
        assert main(["sweep", "--grid", "2", "--seed", "7", "--out", str(out)]) == 0
        rows = read_lines(out / "sweep.csv")
        assert len(rows) == 1 + 2**5
        assert (out / "correlations.csv").exists()
        assert (out / "manifest.json").exists()
        correlations = read_lines(out / "correlations.csv")
        assert correlations[0] == "action,climate_index,economic_index,reward"
        assert len(correlations) == 6

    def test_byte_identical_reruns(self, tmp_path):
        # The manifest does not hold the output directory, so every file is
        # byte-identical across directories whose paths differ in length.
        a, b = tmp_path / "a", tmp_path / "longer" / "b"
        for out in (a, b):
            assert main(["sweep", "--grid", "2", "--seed", "3", "--out", str(out)]) == 0
        for name in ("sweep.csv", "correlations.csv", "sweep_summary.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


#: Tiny options per experiment; every other option keeps its default.
TINY_OPTIONS = {"sweep": {"grid": 2}, "pariah": {"runs": 2}, "masking-demo": {"episodes": 200}}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_manifest_reproduces_run(tmp_path, name):
    doc = {"experiment": name, "options": TINY_OPTIONS.get(name, {}), "seed": 5}
    if name == "episode":
        doc["sim"] = {"n_regions": 4, "horizon_years": 20}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["run", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["run", "--config", str(first / "manifest.json"), "--out", str(replay)]) == 0
    written = sorted(f.name for f in first.iterdir())
    assert written == sorted(f.name for f in replay.iterdir())
    assert len(written) >= 2
    for fname in written:
        assert (first / fname).read_bytes() == (replay / fname).read_bytes(), fname
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["options"].keys() == EXPERIMENTS[name].options.keys()


class TestOtherCommands:
    def test_horizon_csv_has_three_rows(self, tmp_path):
        out = tmp_path / "h"
        assert main(["horizon", "--seed", "0", "--out", str(out)]) == 0
        rows = read_lines(out / "horizon.csv")
        assert rows[0] == "horizon_years,t_end_degc,damage_fraction_end"
        assert len(rows) == 4
        assert rows[1].startswith("100,")

    def test_masking_demo_summary(self, tmp_path):
        out = tmp_path / "m"
        assert main(["masking-demo", "--episodes", "500", "--seed", "1", "--out", str(out)]) == 0
        header = read_lines(out / "masking_summary.csv")[0].split(",")
        assert "mean_commitment" in header and "p_max_level" in header

    def test_calibrate_writes_json(self, tmp_path):
        out = tmp_path / "c"
        assert main(["calibrate", "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert 0 < doc["pi2"] < 1
        assert doc["anchor_damage"] == 0.085

    def test_episode_run_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sim": {"n_regions": 4, "horizon_years": 20},
            "experiment": "episode",
            "options": {"mitigation": 5},
            "seed": 2,
        }))
        out = tmp_path / "e"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_lines(out / "episode.csv")
        assert len(rows) == 1 + 4 * 4  # header + steps * regions


class TestErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"sim": {"n_regions": 1}}')
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "n_regions" in capsys.readouterr().err

    def test_unreadable_config_exits_two(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"experiment": "sweep", "options": {"grid": 2, "gird": 9}}, "options.gird"),
            ({"experiment": "pariah", "options": {"tariffs": [5]}}, "options.tariffs"),
            ({"experiment": "masking-demo", "options": {"episodez": 4}}, "options.episodez"),
            ({"experiment": "episode", "options": {"mitigaton": 5}}, "options.mitigaton"),
            ({"experiment": "sweep", "options": {"grid": "x"}}, "options.grid"),
            ({"experiment": "pariah", "options": {"tariff_levels": [12]}}, "options.tariff_levels"),
            ({"experiment": "episode", "options": {"mitigation": 12}}, "options.mitigation"),
            ({"experiment": "sweep", "seed": -1}, "seed"),
            ({"sim": {"n_regions": 3.5}}, "sim.n_regions"),
            ({"sim": {"n_regions": "27"}}, "sim.n_regions"),
            ({"sim": {"n_regions": True}}, "sim.n_regions"),
            ({"sim": {"region_seed": -1}}, "unknown key: sim.region_seed"),
            ({"sim": {"dt_years": 25}}, "dt_years"),
            (
                {"sim": {"horizon_years": 500, "climate": {"heat_capacity_c1": 50}},
                 "experiment": "episode"},
                "climate.heat_capacity_c1",
            ),
            # Stable two-box parameters, but forcings no climate has.
            (
                {"sim": {"climate": {"forcing_per_doubling": 1e308}}, "experiment": "episode"},
                "climate.forcing_per_doubling",
            ),
            (
                {"sim": {"climate": {"forcing_per_doubling": 1e300}}, "experiment": "episode"},
                "climate.forcing_per_doubling",
            ),
            (
                {"sim": {"climate": {"forcing_exogenous_end": 1e308}}, "experiment": "episode"},
                "climate.forcing_exogenous_end",
            ),
            (
                {"sim": {"climate": {"forcing_exogenous_start": -11}}, "experiment": "episode"},
                "climate.forcing_exogenous_start",
            ),
            # The top-level seed is the only seed; a second one is not ignored.
            ({"sim": {"region_seed": 5}, "seed": 7}, "unknown key: sim.region_seed"),
            ({"seed": None}, "seed"),
            # The output directory is chosen by --out, never by the document.
            ({"out_dir": "elsewhere"}, "unknown key: out_dir"),
            # A repeated entry would write the same row twice.
            ({"experiment": "pariah", "options": {"tariff_levels": [5, 5]}},
             "options.tariff_levels"),
            ({"experiment": "horizon", "options": {"horizons": [100, 100]}}, "options.horizons"),
            # Each would otherwise fail only during the run.
            ({"sim": {"climate": {"reference_atmosphere_gtc": 1e-320}}},
             "climate.reference_atmosphere_gtc"),
            ({"variant": {"disaster": {"threshold_degc": 0.5, "penalty": 1e308}}},
             "variant.disaster.penalty"),
            # Each would otherwise run to absurd temperatures.
            ({"sim": {"climate": {"initial_t_atmosphere": 1e300}}},
             "climate.initial_t_atmosphere"),
            ({"sim": {"climate": {"initial_t_ocean": -1e300}}}, "climate.initial_t_ocean"),
            ({"sim": {"climate": {"initial_carbon_gtc": [850, 1e308, 1e308]}}},
             "climate.initial_carbon_gtc"),
            # Manifests written while the option existed hold this line.
            ({"sim": {"climate": {"emissions_floor": 0.0}}},
             "unknown key: sim.climate.emissions_floor"),
        ],
    )
    def test_bad_option_or_seed_is_a_config_error(self, tmp_path, capsys, doc, key):
        text = json.dumps(doc)
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(text)
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep", "horizon", "calibrate"])
    def test_fixed_actions_under_enforced_masks_exit_one(self, tmp_path, capsys, command):
        # Fixed actions cannot follow commitment masks, which would raise
        # their "zero" mitigation.
        cfg = tmp_path / "masked.json"
        cfg.write_text(json.dumps({"sim": {"negotiation": {"enabled": True}}}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + (["--grid", "1"] if command == "sweep" else [])) == 1
        err = capsys.readouterr().err
        assert "sim.negotiation.enforce_masks" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["calibrate", "horizon"])
    def test_calibrating_weitzman_damages_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "weitzman.json"
        cfg.write_text(json.dumps({"variant": {"damage_kind": "weitzman"}}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "variant.damage_kind" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "workers", [0, -1, (os.cpu_count() or 1) + 1], ids=["zero", "negative", "above_cpu_count"]
    )
    def test_workers_outside_the_cpu_count_exit_one(self, tmp_path, capsys, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        argv = ["sweep", "--grid", "2", "--workers", str(workers), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "workers: must be in 1.." in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        assert main(["calibrate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err


def test_one_process_serves_a_rejected_then_a_good_call(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sim": {"n_regions": 1}}')
    calls = [
        ["run", "--config", str(bad), "--out", str(tmp_path / "bad")],
        ["masking-demo", "--episodes", "200", "--out", str(tmp_path / "good")],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(ricensim.__file__).parents[1])}
    separate = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "ricensim.cli", *argv], env=env, capture_output=True, text=True
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    expected = (tmp_path / "good" / "masking_summary.csv").read_bytes()
    shutil.rmtree(tmp_path / "good")
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, *capsys.readouterr()))
    assert in_process == separate
    assert [code for code, _, _ in separate] == [1, 0]
    assert (tmp_path / "good" / "masking_summary.csv").read_bytes() == expected


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("RICENSIM_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["masking-demo", "--episodes", "200", "--seed", "1"]) == 0
    assert (target / "masking_summary.csv").exists()
