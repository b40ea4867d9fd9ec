"""Command-line front end for the experiment suite.

``qsqg <experiment> [flags]`` runs one experiment (or ``all``), prints a
short console summary, and persists deterministic artifacts under --out.
The wall-clock time is printed only, never written to the artifacts.
``--config`` replays a run's config.json.  Exit status is 0 exactly when
every hard check passed; soft thresholds only print warnings.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .fields import GridSpec, SpaceParams
from .sweep import BoxSweepConfig
from .experiments import RUNNERS, ExperimentConfig, persist


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsqg",
        description="Experiments for the dissipative surface quasi-geostrophic "
                    "equation on the periodic plane.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    default = ExperimentConfig()
    for name in list(RUNNERS) + ["all"]:
        p = sub.add_parser(name, help=f"run the '{name}' experiment" if name != "all"
                           else "run every experiment in sequence")
        p.add_argument("--alpha", type=float, default=default.params.alpha)
        p.add_argument("--beta", type=float, default=default.params.beta)
        p.add_argument("--grid", type=int, default=default.grid.side_points, metavar="N",
                       help="points per side (even)")
        p.add_argument("--length", type=float, default=default.grid.domain_length,
                       help="domain side length")
        p.add_argument("--horizon", type=float, default=default.horizon,
                       help="final time of the solver grid")
        p.add_argument("--seed", type=int, default=default.seed)
        p.add_argument("--corpus-size", type=int, default=default.corpus_size)
        p.add_argument("--solver-nodes", type=int, default=default.solver_nodes)
        p.add_argument("--radii", type=int, default=default.sweep.num_radii,
                       help="number of dyadic box radii in norm sweeps")
        p.add_argument("--time-nodes", type=int, default=default.sweep.time_nodes,
                       help="quadrature nodes per semigroup time ladder")
        p.add_argument("--out", type=Path, default=Path("qsqg-out"),
                       help="artifact directory")
        p.add_argument("--config", type=Path, default=None,
                       help="a run's config.json, or part of one, overriding the flags")
    return parser


def _cast(old, value, key: str):
    """``value`` cast to the type of ``old``; SystemExit naming ``key`` when
    the cast fails or changes the value (8191.9 or "64" for an int), or
    when a bool is given for a number."""
    kind = type(old)
    try:
        new = kind(value)
    except (TypeError, ValueError):
        new = None
    if new is None or new != value or (isinstance(value, bool) and kind is not bool):
        raise SystemExit(f"config {key}: expected {kind.__name__}, got {value!r}")
    return new


def _override(base, raw, prefix: str = ""):
    """``base`` with the fields ``raw`` names replaced and cast, exactly, to
    their types (``_cast``); a nested object (``params``, ``grid``,
    ``sweep``) replaces only its keys."""
    if not isinstance(raw, dict):
        raise SystemExit(f"config {prefix.rstrip('.') or 'file'} must be a JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    changes = {}
    for key, value in raw.items():
        old = getattr(base, key)
        changes[key] = (_override(old, value, f"{prefix}{key}.")
                        if dataclasses.is_dataclass(old) else _cast(old, value, prefix + key))
    return dataclasses.replace(base, **changes)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(
        params=SpaceParams(args.alpha, args.beta), grid=GridSpec(args.grid, args.length),
        sweep=BoxSweepConfig(args.radii, args.time_nodes), horizon=args.horizon,
        seed=args.seed, corpus_size=args.corpus_size, solver_nodes=args.solver_nodes,
    )
    if args.config is not None:
        cfg = _override(cfg, json.loads(Path(args.config).read_text()))
    return cfg


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    names = list(RUNNERS) if args.experiment == "all" else [args.experiment]

    failed = False
    for name in names:
        start = time.monotonic()
        report = RUNNERS[name](cfg)
        wall = time.monotonic() - start
        path = persist(report, args.out)
        print(f"[{name}] wall time {wall:.2f}s, artifacts in {path}")
        for key, value in report.summary.items():
            print(f"[{name}]   {key} = {value}")
        for w in report.warnings:
            print(f"[{name}] warning: {w}")
        for h in report.hard_failures:
            print(f"[{name}] FAILED: {h}")
        print(f"[{name}] {'pass' if report.passed else 'FAIL'}")
        failed = failed or not report.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
