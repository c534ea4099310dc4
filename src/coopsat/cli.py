"""Command line interface.

Subcommands: ``run`` executes a scenario and writes result files,
``validate`` checks a scenario file, ``oracle`` compares the greedy
scheduler against the exhaustive optimum on a small scenario.
Scenario arguments accept either a YAML file path or a bundled profile
name (``desk`` or ``full``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_config
from .harness import build_epoch_instance, emit, run
from .scheduling import SchemeMode, exhaustive_schedule, greedy_schedule

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_PROFILES = ("desk", "full")


def _resolve_config(arg: str) -> ScenarioConfig:
    path = Path(arg)
    if path.exists():
        return load_config(path)
    if arg in _PROFILES:
        with resources.as_file(
                resources.files("coopsat.data").joinpath(f"{arg}.yaml")) as p:
            return load_config(p)
    raise ConfigError([f"{arg}: no such file or bundled profile "
                       f"(profiles: {', '.join(_PROFILES)})"])


def _cmd_run(args) -> int:
    config = _resolve_config(args.config)
    if args.schemes:
        try:
            modes = tuple(dict.fromkeys(
                SchemeMode.parse(s) for s in args.schemes.split(",")))
        except ValueError as exc:
            raise ConfigError([f"--schemes: {exc}"])
        config = replace(config, schemes=modes)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(["--seed: must be >= 0"])
        config = replace(config, seed=args.seed)

    report = run(config, trace=args.trace)
    if args.trace:
        for key, records in report.summary.get("trace", {}).items():
            for rec in records:
                print(f"trace {key} iter={rec['iteration']} "
                      f"candidates={rec['n_candidates']} "
                      f"link=({rec['sat_id']},{rec['gu_id']}) "
                      f"dSE={rec['delta_se']:.6f} committed={rec['committed']}")
    files = emit(report, args.out, args.format)
    for scheme, value in report.summary["mean_total_se"].items():
        print(f"mean total SE [{scheme}]: {value:.6f} bit/s/Hz")
    for pair, pct in report.summary["gains"].items():
        print(f"gain {pair}: {pct:+.1f}%")
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _resolve_config(args.config)
    print("OK")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = _resolve_config(args.config)
    ratios = []
    for epoch_index, t in enumerate(config.epochs.times()):
        instance = build_epoch_instance(config, epoch_index, t)
        for mode in config.schemes:
            greedy = greedy_schedule(instance, mode, beta=config.beta)
            optimum = exhaustive_schedule(instance, mode, beta=config.beta,
                                          max_space=args.max_space)
            ratio = (greedy.total_se / optimum.total_se
                     if optimum.total_se > 0.0 else 1.0)
            ratios.append(ratio)
            print(f"epoch {epoch_index} [{mode.value}]: "
                  f"greedy={greedy.total_se:.6f} optimum={optimum.total_se:.6f} "
                  f"ratio={ratio:.4f}")
    print(f"min ratio: {min(ratios):.4f}  mean ratio: "
          f"{sum(ratios) / len(ratios):.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsat",
        description="Multi-satellite cooperative downlink simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write results")
    p_run.add_argument("config", help="scenario YAML file or profile name")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--schemes", help="comma-separated subset, e.g. au,jhu")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--trace", action="store_true",
                       help="print per-iteration scheduling decisions")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_orc = sub.add_parser("oracle",
                           help="greedy vs exhaustive comparison (small scenarios)")
    p_orc.add_argument("config")
    p_orc.add_argument("--max-space", type=int, default=1_000_000,
                       help="largest assignment space to enumerate")
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
