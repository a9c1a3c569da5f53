"""Command-line front end.

    relaysched run         --seed 7 --trials 20 --n 100 --out results/
    relaysched sweep-n     --seed 7 --out results/ [--n-values 20,40,60]
    relaysched sweep-speed --seed 7 --out results/ [--speed-values 4,8,12]

Defaults come from the built-in config; a JSON config file (--config) overrides
them and explicit flags override the file.  Exit code 0 on success, 1 when a
run cannot be configured or its outputs cannot be written.  A run that
succeeds prints one `[timing]` line to stderr: its trial count and the wall
time of its trials and writes together.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    cmd_run,
    cmd_sweep_n,
    cmd_sweep_speed,
    config_from_doc,
    load_config_file,
    master_seed,
    write_outputs,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int,
                        help="master seed, 0..2**64-1 (required here or in the config file; "
                             "runs are never wall-clock seeded)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--policies", help="comma-separated subset of msrs,irrs,noncoop,optimal")
    parser.add_argument("--trials", type=int, help="trials per point")
    parser.add_argument("--oracle-cap", type=int, dest="oracle_cap",
                        help="largest fleet the exhaustive oracle will accept")
    parser.add_argument("--workers", type=int, help="worker processes (results are identical)")


def _parse_values(text: str, kind):
    try:
        return tuple(kind(part) for part in text.split(",") if part)
    except ValueError:
        raise ValueError(f"could not parse value list {text!r}") from None


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    doc = load_config_file(args.config) if args.config else {}
    overrides = {}
    for attr in ("seed", "trials", "oracle_cap", "workers", "n_vehicles"):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[attr] = value
    if args.policies is not None:
        overrides["policies"] = tuple(args.policies.split(","))
    if getattr(args, "n_values", None) is not None:
        overrides["n_values"] = _parse_values(args.n_values, int)
    if getattr(args, "speed_values", None) is not None:
        overrides["speed_values"] = _parse_values(args.speed_values, float)
    return config_from_doc(doc, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="relaysched", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="trials at one (fleet size, speed) point",
                           allow_abbrev=False)
    _add_common(p_run)
    p_run.add_argument("--n", type=int, dest="n_vehicles", help="fleet size")

    # no abbreviated flags: sweep-n, which has no --n, would read `--n` as `--n-values`
    p_sweep_n = sub.add_parser("sweep-n", help="trials at each fleet size",
                               allow_abbrev=False)
    _add_common(p_sweep_n)
    p_sweep_n.add_argument("--n-values", dest="n_values", help="comma-separated fleet sizes")

    p_sweep_s = sub.add_parser("sweep-speed", help="trials at each fixed speed",
                               allow_abbrev=False)
    _add_common(p_sweep_s)
    p_sweep_s.add_argument("--n", type=int, dest="n_vehicles", help="fleet size")
    p_sweep_s.add_argument("--speed-values", dest="speed_values",
                           help="comma-separated speeds in m/s")

    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        master_seed(config)
        # the output directory exists before any trial runs, and only for a valid config
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"{args.out}: cannot create output directory ({exc.strerror})") from None
        t0 = time.perf_counter()
        rows = {"run": cmd_run, "sweep-n": cmd_sweep_n, "sweep-speed": cmd_sweep_speed}[
            args.command
        ](config)
        try:
            write_outputs(rows, config, args.out)
        except OSError as exc:  # a failed open names its file, a failed write none
            raise ValueError(f"{exc.filename or args.out}: cannot write outputs ({exc.strerror})") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seconds = time.perf_counter() - t0
    trials = len({row.seed for row in rows})
    print(f"[timing] {args.command}: {trials} trials in {seconds:.3f} s, "
          f"{1000.0 * seconds / trials:.2f} ms per trial", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}/metrics.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
