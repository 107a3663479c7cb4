#!/usr/bin/env python3
"""Run every experiment into one output tree.

The experiments come from the registry ``ricensim.runio.EXPERIMENTS``; each
writes into ``OUT_DIR/<name>`` (dashes become underscores). Sizes are the
CI-scale defaults unless ``--full-scale`` is given.

Usage: python scripts/run_all_experiments.py [OUT_DIR] [--seed N] [--full-scale] [--workers N]
"""
import argparse
import sys
from pathlib import Path

from ricensim.cli import main as ricensim_main
from ricensim.runio import EXPERIMENTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="ricensim_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full-scale", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    for name in EXPERIMENTS:
        argv = [
            name,
            "--seed", str(args.seed),
            "--out", str(Path(args.out_dir) / name.replace("-", "_")),
            "--workers", str(args.workers),
        ]
        if args.full_scale:
            argv.append("--full-scale")
        print(f"== ricensim {' '.join(argv)}")
        code = ricensim_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
