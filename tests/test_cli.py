import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ricensim
from ricensim import engine, regions, runio
from ricensim.cli import main
from ricensim.errors import ConfigError
from ricensim.runio import EXPERIMENTS, parse_config

from conftest import DISPATCH


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


#: SHA-256 of each file ``test_manifest_reproduces_run`` writes, except
#: ``manifest.json``, which records the python and numpy versions, keyed by
#: the dispatch class whose rounding numpy's ``**``, ``log`` and ``exp``
#: follow (``conftest.DISPATCH``). Like ``TestGoldenBits`` in
#: tests/test_engine.py, these were recorded under numpy 2.4.6 and may differ
#: under another numpy; the ``libm`` set was recorded on an AVX-512 host under
#: ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, from the code
#: that wrote the ``avx512`` set. A file that goes through none of those
#: functions, or only where both round alike, has one digest in both.
GOLDEN_OUTPUT_SHA256 = {
    "avx512": {
        "episode": {
            "episode.csv": "261674148259ee907a0711287798ddf62da435737cb6df9c318b83d87ba1da71",
            "episode_summary.csv": "68837e131f9627e1f5fa401da04e063f4b26b86d385f5b89927b3c9abfeaa238",
        },
        "sweep": {
            "correlations.csv": "035284675ca9a48ec4aaf72a13d3545918b88d715977da2fb94f05b711f4b703",
            "sweep.csv": "bf0a712eaa84628366b77ad7477245d8d5932d0168edfab17b73360750c3957a",
            "sweep_summary.csv": "13890263153fca7cc164ed21ab5436d5b4b8a56b47d20c6b04fae5d3d6307432",
        },
        "pariah": {
            "pariah.csv": "030d7a531aa4f50ba47026de97eb1c670b7945bacc0e27c37c0151c1473178e3",
            "pariah_runs.csv": "2c441ffd3e08a9fdb621d468d1868d2ce82c87f36ce1ec8e7a0e1d1d63d4a112",
        },
        "trade-effect": {
            "trade_effect.csv": "29ae8c3e280efc765f1b6dc468c486bfcf823e87d789b7addf481090b1f8b46e",
        },
        "tariff-effect": {
            "tariff_effect.csv": "ff8535f57666b41fd2eebe11ed69a5629f11a253e74160dbb7ee6045d1f0d2f8",
        },
        "horizon": {
            "horizon.csv": "7acc04f92d152e6ab1994c0bc861750ee0c0d1d765ef34dec956df17e96ed055",
        },
        "masking-demo": {
            "masking.csv": "55944f81777a644cfb332272f999d11641f4a866dea0b847a57fd973046b1872",
            "masking_summary.csv": "4835159e2c184c8fa9b6208e696c7a3365b2f17d67d65ca4232b7f7f9d137861",
        },
        "calibrate": {
            "calibration.json": "094d21743e7e0fddb3a66dafe02389cb02890c05c264886de864203059257a7f",
        },
    },
    "libm": {
        "episode": {
            "episode.csv": "a194ce8b2103636e42890a495843871b10ec88513ee62c18c392dd4c327abbbb",
            "episode_summary.csv": "60e3989f8107b30de4032f3586ba4c26fb1eb08fb23777082ca3057821bd415f",
        },
        "sweep": {
            "correlations.csv": "29e32203945b2c4d319ec17e18d07613761c73656cb1bffc820a4406baced57f",
            "sweep.csv": "005194a7661ddcfb38a773cccf0b2dcaeb1ed6162e64aabcc4a19507859707b2",
            "sweep_summary.csv": "13890263153fca7cc164ed21ab5436d5b4b8a56b47d20c6b04fae5d3d6307432",
        },
        "pariah": {
            "pariah.csv": "030d7a531aa4f50ba47026de97eb1c670b7945bacc0e27c37c0151c1473178e3",
            "pariah_runs.csv": "c7b7373447d9c97c6bdd8d060dd4ebd1529007b254207caf2ea5da213f044089",
        },
        "trade-effect": {
            "trade_effect.csv": "9395cb92444bba6e697a2fd2d1d26b720517d598f47022e8fe9e5a62e2e7e90b",
        },
        "tariff-effect": {
            "tariff_effect.csv": "0592bc3138a319bc945fcb6e6064c39a40944da9f5c4957b9aee4398d28b4817",
        },
        "horizon": {
            "horizon.csv": "059ed5542d53631af328a23e48b7e8bc93d6d307bc35bc09681f753122a91dd8",
        },
        "masking-demo": {
            "masking.csv": "55944f81777a644cfb332272f999d11641f4a866dea0b847a57fd973046b1872",
            "masking_summary.csv": "4835159e2c184c8fa9b6208e696c7a3365b2f17d67d65ca4232b7f7f9d137861",
        },
        "calibrate": {
            "calibration.json": "094d21743e7e0fddb3a66dafe02389cb02890c05c264886de864203059257a7f",
        },
    },
}[DISPATCH]


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
    digests = {
        fname: hashlib.sha256((first / fname).read_bytes()).hexdigest()
        for fname in written
        if fname != "manifest.json"
    }
    assert digests == GOLDEN_OUTPUT_SHA256[name]
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["options"].keys() == EXPERIMENTS[name].options.keys()


@pytest.mark.parametrize("argv", [["sweep", "--grid", "2"], ["pariah", "--runs", "3"]])
def test_cold_and_warm_generation_caches_write_the_same_bytes(tmp_path, argv):
    """A run that generates every world and builds its first constants
    afresh writes what a run that finds them in the caches of
    ``generate_regions`` and ``reset`` writes."""
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    regions._generated.cache_clear()
    engine._cached_constants.cache_clear()
    assert main([*argv, "--seed", "6", "--out", str(cold)]) == 0
    assert regions._generated.cache_info().currsize > 0
    assert main([*argv, "--seed", "6", "--out", str(warm)]) == 0
    assert regions._generated.cache_info().hits > 0
    written = sorted(f.name for f in cold.iterdir())
    assert written == sorted(f.name for f in warm.iterdir())
    for fname in written:
        assert (cold / fname).read_bytes() == (warm / fname).read_bytes(), fname


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

    @pytest.mark.parametrize("enforce", [False, True])
    def test_negotiated_episode_writes_its_commitments(self, tmp_path, enforce):
        """Each row holds the commitment its region's step drew, enforced or
        not: the replay of an unenforced episode sees what it drew."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sim": {"n_regions": 4, "horizon_years": 20,
                    "negotiation": {"enabled": True, "enforce_masks": enforce}},
            "experiment": "episode",
            "seed": 2,
        }))
        out = tmp_path / "e"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in read_lines(out / "episode.csv")]
        assert header[3:6] == ["savings_level", "mitigation_level", "commitment_level"]
        committed = [int(row[5]) for row in rows]
        assert committed == engine._draw_commitments(4, 4, 2)[:4].ravel().tolist()
        mitigation = [int(row[4]) for row in rows]
        assert (min(m - c for m, c in zip(mitigation, committed)) >= 0) == enforce

    def test_episode_subcommand_matches_run_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"n_regions": 4, "horizon_years": 20}, "seed": 2}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["episode", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("episode.csv", "episode_summary.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_readme_config_example_runs(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M)
        doc = json.loads(example)
        doc["options"]["grid"] = 1  # the smallest sweep
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


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

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda path: None, "No such file or directory"),
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b'{"seed": "\xe9"}'), "can't decode byte 0xe9"),
        ],
        ids=["missing", "directory", "latin1"],
    )
    def test_unreadable_config_exits_one(self, tmp_path, capsys, make, reason):
        cfg = tmp_path / "config.json"
        make(cfg)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: --config {cfg}: " in err and reason in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_naming_a_file_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch, out):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        experiment = EXPERIMENTS["masking-demo"]
        monkeypatch.setitem(EXPERIMENTS, "masking-demo", dataclasses.replace(experiment, run=no_run))
        (tmp_path / "taken").write_text("not a directory")
        assert main(["masking-demo", "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        taken = tmp_path / "taken"
        assert f"error: --out {tmp_path / out}: {taken} exists and is not a directory" in err
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("message", ["Unable to allocate 393. TiB", ""])
    def test_allocation_failure_exits_two(self, tmp_path, monkeypatch, capsys, message):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(runio, "commitment_statistics", out_of_memory)
        argv = ["masking-demo", "--episodes", "200", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"runtime error: {message or 'MemoryError'}\n"
        assert "Traceback" not in err

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
            # Manifests written while the step length was configurable hold
            # this line; the step is now the climate calibration's 5 years.
            ({"sim": {"dt_years": 5}}, "unknown key: sim.dt_years"),
            # The top-level seed is the only seed; a second one is not ignored.
            ({"sim": {"region_seed": 5}, "seed": 7}, "unknown key: sim.region_seed"),
            ({"seed": None}, "seed"),
            # The output directory is chosen by --out, never by the document.
            ({"out_dir": "elsewhere"}, "unknown key: out_dir"),
            # A repeated entry would write the same row twice.
            ({"experiment": "pariah", "options": {"tariff_levels": [5, 5]}},
             "options.tariff_levels"),
            ({"experiment": "horizon", "options": {"horizons": [100, 100]}}, "options.horizons"),
            # It would otherwise fail only during the run.
            ({"variant": {"disaster": {"threshold_degc": 0.5, "penalty": 1e308}}},
             "variant.disaster.penalty"),
            # Manifests written while the climate calibration was configurable
            # hold this block; the calibration is now constants.
            ({"sim": {"climate": {"initial_t_atmosphere": 1.1, "initial_t_ocean": 0.3}}},
             "unknown key: sim.climate"),
            # Each ran before its key declared a range: to overflowing
            # temperatures, or out of memory.
            ({"sim": {"horizon_years": 50000}}, "sim.horizon_years"),
            ({"experiment": "masking-demo", "options": {"episodes": 100000000000}},
             "options.episodes"),
            # Manifests written while a mask could also floor savings hold this line.
            ({"sim": {"negotiation": {"enabled": True, "dimensions": ["mitigation"]}}},
             "unknown key: sim.negotiation.dimensions"),
            # Manifests written while the economic calibration was configurable
            # hold these lines; it is now constants of economy and trade.
            ({"sim": {"output_elasticity": 0.3}}, "unknown key: sim.output_elasticity"),
            ({"sim": {"depreciation": 0.1}}, "unknown key: sim.depreciation"),
            ({"sim": {"import_budget": 0.1}}, "unknown key: sim.import_budget"),
            ({"sim": {"theta2": 2.6}}, "unknown key: sim.theta2"),
            ({"sim": {"theta3": 1.0}}, "unknown key: sim.theta3"),
            ({"sim": {"damage_pi1": 0.0}}, "unknown key: sim.damage_pi1"),
            # Such a manifest lists its keys sorted, so the first one it names
            # is damage_pi1.
            ({"sim": {"damage_pi1": 0.0, "damage_pi2": 0.0002, "depreciation": 0.1,
                      "import_budget": 0.1, "output_elasticity": 0.3, "theta2": 2.6,
                      "theta3": 1.0}}, "unknown key: sim.damage_pi1"),
            # A horizon is a whole number of 5-year steps.
            ({"sim": {"horizon_years": 102}}, "sim.horizon_years: 102 is not a multiple of 5"),
            ({"experiment": "horizon", "options": {"horizons": [100, 7]}},
             "options.horizons[1]: 7 is not a multiple of 5"),
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

    @pytest.mark.parametrize(
        "argv, key",
        [
            # Inside its range, but the draws would not fit the memory budget.
            (["masking-demo", "--episodes", "1000000"], "options.episodes: 1000000 episodes"),
            (["horizon", "--horizons", "100,7"], "options.horizons[1]: 7 is not a multiple"),
        ],
    )
    def test_option_checked_against_sim_exits_one_before_any_work(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: {key}" in err and "Traceback" not in err
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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        argv = ["sweep", "--grid", "2", "--workers", str(workers), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "workers: expected an integer in 1.." in capsys.readouterr().err
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


def test_default_out_dir_is_under_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["masking-demo", "--episodes", "200", "--seed", "1"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ricensim_out"]
    assert (tmp_path / "ricensim_out" / "masking_summary.csv").exists()


def test_one_process_runs_load_no_process_pool(tmp_path):
    """A ``--workers 1`` sweep, a pariah run and a negotiated episode never
    import the process pool's modules; ``action_sweep`` imports them only
    where it starts a pool."""
    script = f"""
import sys
from ricensim import NegotiationConfig, SimParams, UniformRandomPolicy, VariantConfig
from ricensim.cli import main
from ricensim.engine import run_episode

out = {str(tmp_path)!r}
assert main(["sweep", "--grid", "2", "--workers", "1", "--out", out + "/sweep"]) == 0
assert main(["pariah", "--runs", "2", "--out", out + "/pariah"]) == 0
params = SimParams(negotiation=NegotiationConfig(enabled=True))
run_episode(params, VariantConfig(), UniformRandomPolicy(), 0)
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(ricensim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
