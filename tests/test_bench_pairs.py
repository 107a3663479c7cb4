"""The verdicts of ``scripts/bench_pairs.py`` on synthetic paired runs, and
its precompiled checkouts."""
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]
#: Quartiles 70 and 130 around a median of 100: a spread wider than any bound.
WIDE = [60.0, 140.0, 100.0, 60.0, 140.0, 100.0, 60.0, 140.0, 100.0, 100.0]


def shifted(runs, delta):
    return [r + delta for r in runs]


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        # Every pair won and the medians 10 apart, against an IQR of 0.75.
        (PARENT, shifted(PARENT, 10.0), "higher", "gain"),
        (PARENT, shifted(PARENT, -10.0), "lower", "gain"),
        # 9 of 10 pairs suffice; a tie counts for neither side.
        (PARENT, shifted(PARENT, 10.0)[:9] + [PARENT[9] - 1.0], "higher", "gain"),
        (PARENT, shifted(PARENT, 10.0)[:8] + PARENT[8:], "higher", "no regression"),
        # Every pair won, but by less than the parent's IQR.
        (PARENT, shifted(PARENT, 0.5), "higher", "no regression"),
        # 14% worse is inside a bound of 0.15; 16% worse is not.
        (PARENT, shifted(PARENT, -14.0), "higher", "no regression"),
        (PARENT, shifted(PARENT, -16.0), "higher", "regression"),
        (PARENT, shifted(PARENT, 16.0), "lower", "regression"),
        # The parent's own spread exceeds the bound.
        (WIDE, shifted(WIDE, 1.0), "higher", "unresolved"),
        (WIDE, shifted(WIDE, -1.0), "higher", "unresolved"),
        # ... unless every change run beats every parent run.
        (WIDE, [141.0] * 10, "higher", "no regression"),
        (WIDE, [59.0] * 10, "lower", "no regression"),
    ],
)
def test_verdict(parent, change, better, verdict):
    assert bench_pairs.compare(parent, change, better, 0.15)["verdict"] == verdict


def test_compare_reports_spread_and_wins():
    result = bench_pairs.compare(PARENT, shifted(PARENT, 10.0), "higher", 0.15)
    assert result["parent"]["median"] == 100.0 and result["change"]["median"] == 110.0
    assert result["parent"]["runs"] == PARENT
    assert result["change_frac"] == pytest.approx(0.1)
    assert result["parent_iqr"] == pytest.approx(0.75)
    assert result["wins"] == 10


def test_precompile_caches_every_module_with_bytecode_writing_off(tmp_path, monkeypatch):
    # What PYTHONDONTWRITEBYTECODE=1 sets: imports write no cache.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    package = tmp_path / "src" / "ricensim"
    shutil.copytree(ROOT / "src" / "ricensim", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    modules = sorted(package.glob("*.py"))
    assert modules
    bench_pairs.precompile(tmp_path)
    for module in modules:
        assert Path(importlib.util.cache_from_source(str(module))).is_file(), module.name
