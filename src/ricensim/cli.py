"""Command-line entry point.

Every command writes CSV results plus a ``manifest.json`` holding the fully
resolved configuration; re-running with ``--config manifest.json``
reproduces the outputs byte for byte, into any directory: that is not part
of the configuration, but ``--out``, else ``$RICENSIM_OUT``, else
``ricensim_out``. Exit codes: 0 success, 1 configuration error, 2 runtime
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .config import SimParams, VariantConfig, check_workers
from .errors import ConfigError, RicensimError
from .runio import EXPERIMENTS, RunConfig, load_config, write_manifest

OUT_DIR_ENV = "RICENSIM_OUT"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The parser, built on the first call; parsing leaves it unchanged."""
    parser = _ArgumentParser(prog="ricensim", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    commands = [("run", "run the experiment selected by the config file", {})]
    commands += [(e.name, e.help, e.options) for e in EXPERIMENTS.values() if e.help]
    for name, help_text, options in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="worker processes, 1..nproc")
        p.add_argument(
            "--full-scale",
            action="store_true",
            help="use the full experiment sizes instead of the CI-scale defaults",
        )
        for key, opt in options.items():
            if opt.flag_help:
                p.add_argument(
                    f"--{key}",
                    type=_int_list if opt.is_list else int,
                    default=None,
                    help=opt.flag_help,
                )
    return parser


def _resolve_config(args) -> RunConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = RunConfig(sim=SimParams(), variant=VariantConfig())
    command = args.command if args.command != "run" else config.experiment
    return dataclasses.replace(
        config,
        experiment=command,
        options=EXPERIMENTS[command].resolve_options(config.options, vars(args), args.full_scale),
        seed=args.seed if args.seed is not None else config.seed,
    )


def _execute(config: RunConfig, out: Path, workers: int) -> None:
    experiment = EXPERIMENTS[config.experiment]
    print(experiment.write(out, config, experiment.run(config, workers)))
    write_manifest(out, config)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        check_workers(args.workers)
        config = _resolve_config(args)
        out = Path(args.out or os.environ.get(OUT_DIR_ENV) or "ricensim_out")
        _execute(config, out, args.workers)
        return 0
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RicensimError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
