"""Command-line front end.

Subcommands: basis, spectrum, gap-scan, ramp, rj-sweep, phase-diagram,
rho1-map, init-pulse, combine-max. Exit codes: 0 success, 2 bad input (a
config, file or value the run cannot use), 3 a solver failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .basis import ResourceLimitError
from .config import ConfigError, fmt, load_config
from .propagate import PropagationError
from .spectrum import ConvergenceError, DegeneracyError
from . import sweeps

_CONFIG_COMMANDS = (
    "basis", "spectrum", "gap-scan", "ramp", "rj-sweep",
    "phase-diagram", "rho1-map", "init-pulse",
)
_GRID_COMMANDS = ("rj-sweep", "phase-diagram", "rho1-map")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jclattice",
        description="Polariton ground-state preparation in finite JC lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _CONFIG_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", help="override the config's output path")
        if name in _GRID_COMMANDS:
            p.add_argument("--threads", type=_positive_int, default=1,
                           help="pool workers, at least 1")
            p.add_argument("--resume", action="store_true",
                           help="reuse <out>.progress of the same command and config")
    comb = sub.add_parser("combine-max")
    comb.add_argument("inputs", nargs="+", help="fidelity grid CSVs")
    comb.add_argument("--out", required=True)
    return parser


def _dispatch(args) -> int:
    if args.command == "combine-max":
        grids = [sweeps.read_grid_csv(path) for path in args.inputs]
        combined = sweeps.combine_max_fidelity(grids)
        sweeps.write_grid_csv(args.out, combined)
        print(f"combined {len(grids)} grids -> {args.out} "
              f"(min F = {fmt(float(combined.fidelity.min()))})")
        return EXIT_OK

    cfg = load_config(args.config)
    if args.out:
        cfg.out = args.out
    if cfg.out is None and args.command != "ramp":
        raise ConfigError(f"{args.command} needs an output path (out= or --out)")

    if args.command == "basis":
        table = sweeps.run_basis(cfg)
        print(f"L={cfg.sites} N={cfg.excitations} dim={table.dim} -> {cfg.out}")
    elif args.command == "spectrum":
        rows = sweeps.run_spectrum(cfg)
        print(f"{len(rows)} spectrum rows -> {cfg.out}")
    elif args.command == "gap-scan":
        report = sweeps.run_gap_scan(cfg)
        print(
            f"gap minimum: s={fmt(report.s)} g={fmt(report.params.g)} "
            f"J={fmt(report.params.J)} Delta={fmt(report.params.delta)} "
            f"E_gap={fmt(report.gap)}"
        )
    elif args.command == "ramp":
        summary = sweeps.run_ramp(cfg)
        print(
            f"F={fmt(summary.fidelity_raw)} "
            f"F_normalized={fmt(summary.fidelity_normalized)} "
            f"norm_drift={fmt(summary.norm_drift)} steps={summary.step_count} "
            f"error_estimate={fmt(summary.error_estimate)}"
        )
    elif args.command == "rj-sweep":
        result = sweeps.run_rj_sweep(cfg, args.threads, args.resume)
        pairs = ", ".join(
            f"rJ={fmt(r)}: F={fmt(f)}"
            for r, f in zip(result.rj_values, result.fidelities)
        )
        print(f"{pairs}; argmax rJ={fmt(result.best_rj)}")
    elif args.command == "phase-diagram":
        grid = sweeps.run_phase_diagram(cfg, args.threads, args.resume)
        print(
            f"{grid.fidelity.size} grid points -> {cfg.out} "
            f"(min F = {fmt(float(grid.fidelity.min()))})"
        )
    elif args.command == "rho1-map":
        rows = sweeps.run_rho1_map(cfg, args.threads, args.resume)
        print(f"{len(rows)} map points -> {cfg.out}")
    elif args.command == "init-pulse":
        res = sweeps.run_init_pulse(cfg)
        print(f"pulse fidelity={fmt(res.fidelity)} duration={fmt(res.duration)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (DegeneracyError, ConvergenceError, PropagationError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, ResourceLimitError, OSError) as exc:
        # LinAlgError is a ValueError too, so it is caught above first
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
