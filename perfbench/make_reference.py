#!/usr/bin/env python3
"""Regenerate the stored reference outputs under reference/.

    python3 perfbench/make_reference.py

Runs the sweep and pariah workloads once at REFERENCE_SEED and copies the
per-rollout CSVs. Do this only for a change that is meant to alter model
outputs, and say so with the change.
"""
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

wl.REFERENCE_DIR.mkdir(exist_ok=True)
for name in ("sweep", "pariah"):
    workload = wl.WORKLOADS[name]
    _, code = workload.invoke(wl.REFERENCE_SEED)
    if code != 0:
        sys.exit(f"{name}: exit code {code}")
    shutil.copyfile(workload.out_dir / workload.reference_file, wl.REFERENCE_DIR / workload.reference_file)
    print(f"wrote {wl.REFERENCE_DIR / workload.reference_file}")
