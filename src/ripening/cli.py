"""Command line front end.

Every analytic quantity and the simulator are exposed as subcommands that
emit CSV (default) or JSON.  Output is deterministic: floats are printed
with 17 significant digits, CSV rows follow the input grid order, files are
UTF-8 with LF line endings, and every CSV starts with one comment line
recording the exact invocation, package version and seed — rerunning a
command with the same flags produces byte-identical files.

Exit codes: 0 on success, 2 for domain/input errors, 3 for convergence
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, astuple
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .distribution import density, size_distribution
from .csvtable import write_table
from .ensemble import simulate_late_stage, write_series_csv, write_snapshot_csv
from .errors import ConvergenceError, RipeningError
from .recrystallization import initial_growth_rate, new_volume_fraction
from .regime import (
    flow_time,
    get_regime,
    growth_rate_scaled,
    return_invariant,
)
from .return_map import return_point_for_ratio, solve_return_point

__all__ = ["main"]

MAX_COUNT = 1_000_000  # largest --count: rows are all kept before writing
# Largest simulate --n.  `simulate --regime dl --n 1000000` took 3.6 s wall
# and 118 MB peak resident in a fresh process (2-core Xeon).
MAX_PARTICLES = 1_000_000


def _finite_or_spelled(value):
    """``value`` with every non-finite float, at any depth, replaced by the
    string the CSV prints for it: ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "%.17g" % value
    if isinstance(value, dict):
        return {k: _finite_or_spelled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_spelled(v) for v in value]
    return value


def _emit_json(stream, payload):
    # Strict JSON (RFC 8259) has no Infinity or NaN; only a payload that
    # holds one pays for the second pass that spells them out.
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite_or_spelled(payload), indent=2,
                          sort_keys=True, allow_nan=False)
    stream.write(text + "\n")


def _comment(invocation: str, seed) -> str:
    # One line whatever the arguments hold: backslash, LF and CR are escaped.
    line = (invocation.replace("\\", "\\\\").replace("\n", "\\n")
            .replace("\r", "\\r"))
    seed_text = "-" if seed is None else str(seed)
    return f"{line} | version={__version__} | seed={seed_text}"


def _resolve_grid(args, parser, explicit, default=None):
    if explicit is not None:
        if args.min is not None or args.max is not None or args.count is not None:
            parser.error("give either explicit values or a --min/--max/--count grid")
        return list(explicit)
    given = (args.min is not None, args.max is not None, args.count is not None)
    if not any(given):
        if default is not None:
            return list(default)
        parser.error("no grid given: use explicit values or --min/--max/--count")
    if not all(given):
        parser.error("--min, --max and --count must be given together")
    if not (math.isfinite(args.min) and math.isfinite(args.max)):
        parser.error("--min and --max must be finite")
    if args.log and not (args.min > 0.0 and args.max > 0.0):
        parser.error("--log grids require --min > 0 and --max > 0")
    if args.count < 1:
        parser.error("--count must be >= 1")
    if args.count > MAX_COUNT:
        parser.error(f"--count must be <= {MAX_COUNT}")
    if args.count == 1:
        if args.min != args.max:
            parser.error("--count 1 requires --min == --max")
        return [float(args.min)]
    if args.log:
        return list(np.geomspace(args.min, args.max, args.count))
    return list(np.linspace(args.min, args.max, args.count))


def _return_variable(args, parser):
    """--z0 or --s values, else --var, choose what return's grid runs over."""
    if args.z0 is not None and args.s is not None:
        parser.error("give --z0 values or --s values, not both")
    var = "z0" if args.z0 is not None else "s" if args.s is not None else args.var
    solve = solve_return_point if var == "z0" else return_point_for_ratio
    return getattr(args, var), lambda r, x: astuple(solve(r, x)), {"variable": var}


class _Command(NamedTuple):
    """One analytic subcommand: a grid of values in, one row per value out."""

    help: str
    flag: str  # repeatable value flag; its dest names the grid variable
    flag_help: str
    columns: tuple[str, ...]
    compute: Callable | None  # (regime, grid array) -> one array per column
    default_grid: Callable | None = None  # (regime) -> grid when none is given
    summary: Callable | None = None  # (regime) -> the JSON "summary" object
    # (args, parser) -> (values, compute, extra JSON keys), in place of
    # flag/compute
    pick: Callable | None = None
    options: tuple = ()  # (flag, add_argument keywords) after the grid flags


TABLE = {
    "tau": _Command(
        "rescaled flow: tau, alpha and dz/dtau over z",
        "--z", "scaled size to evaluate",
        ("z", "tau", "alpha", "dz_dtau"),
        lambda r, z: (z, flow_time(r, z), return_invariant(r, z),
                      growth_rate_scaled(r, z)),
    ),
    "return": _Command(
        "return map: rho and time ratio s",
        "--z0", "initial scaled size",
        ("z0", "rho", "s"),
        None,
        pick=_return_variable,
        options=(
            ("--s", dict(
                action="append", type=float, default=None, metavar="X",
                help="time ratio to invert; repeatable, alternative to --z0",
            )),
            ("--var", dict(
                choices=("z0", "s"), default="z0",
                help="which variable the --min/--max grid runs over (default z0)",
            )),
        ),
    ),
    "phi": _Command(
        "new-volume fraction over the time ratio s",
        "--s", "time ratio t/t0",
        ("s", "phi"),
        lambda r, s: (s, new_volume_fraction(r, s)),
        default_grid=lambda r: np.geomspace(1.0, 1e3, 200),
        summary=lambda r: {"initial_rate": initial_growth_rate(r)},
    ),
    "dist": _Command(
        "scaled size density, CDF and moments",
        "--z", "scaled size to evaluate",
        ("z", "h", "cdf"),
        lambda r, z: (z, density(r, z), size_distribution(r).cdf(z)),
        default_grid=lambda r: np.linspace(0.0, r.z_max, 257),
        summary=lambda r: {
            "moments": {str(k): size_distribution(r).moment(k) for k in range(4)}
        },
    ),
}


def cmd_table(args, parser, invocation) -> int:
    """Emit one row per grid value for the ``TABLE`` entry named by the command."""
    spec = TABLE[args.command]
    regime = get_regime(args.regime)
    if spec.pick is None:
        values, compute, extra = getattr(args, spec.flag[2:]), spec.compute, {}
    else:
        values, compute, extra = spec.pick(args, parser)
    default = None if spec.default_grid is None else spec.default_grid(regime)
    grid = np.array(_resolve_grid(args, parser, values, default), dtype=float)
    # Everything is computed before the output is opened, so a failing grid
    # point leaves no partial file behind.
    columns = [np.asarray(c, dtype=float) for c in compute(regime, grid)]
    if spec.summary is not None:
        extra = {**extra, "summary": spec.summary(regime)}
    if args.out == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(args.out, "w", encoding="utf-8", newline="")
    with out as stream:
        if args.format == "json":
            _emit_json(stream, {
                "command": args.command,
                "invocation": invocation,
                "version": __version__,
                "seed": None,
                "regime": regime.kind,
                **extra,
                "rows": [dict(zip(spec.columns, r))
                         for r in zip(*[c.tolist() for c in columns])],
            })
        else:
            write_table(stream, ",".join(spec.columns), columns,
                        _comment(invocation, None))
    return 0


def cmd_simulate(args, parser, invocation) -> int:
    if args.n > MAX_PARTICLES:
        parser.error(f"--n must be <= {MAX_PARTICLES}")
    regime = get_regime(args.regime)
    # Default reference times keep the equivalent burn-in comfortably beyond
    # the late-stage condition (see README); any t0 > 0 gives the same
    # rescaled comparison.
    t0 = args.t0 if args.t0 is not None else {"dl": 225.0, "al": 200.0}[regime.kind]
    snapshot_times = args.snapshot
    if snapshot_times is None:
        snapshot_times = [1.5 * t0, 2.0 * t0, 3.0 * t0]
    t_end = args.t_end if args.t_end is not None else max(snapshot_times)
    result = simulate_late_stage(
        regime, args.n, t0, t_end, snapshot_times, args.seed
    )
    os.makedirs(args.out_dir, exist_ok=True)
    comment = _comment(invocation, args.seed)

    base_file = "snapshot_00.csv"
    write_snapshot_csv(result.base, os.path.join(args.out_dir, base_file), comment)
    snapshot_entries = []
    for i, (cmp_row, snap) in enumerate(
        zip(result.comparisons, result.snapshots), start=1
    ):
        name = f"snapshot_{i:02d}.csv"
        write_snapshot_csv(snap, os.path.join(args.out_dir, name), comment)
        snapshot_entries.append({"file": name, **asdict(cmp_row)})
    write_series_csv(
        result.series, os.path.join(args.out_dir, "series.csv"), comment
    )

    report = {
        "command": "simulate",
        "invocation": invocation,
        "version": __version__,
        "regime": regime.kind,
        "n": result.n_init,
        "t0": result.t0,
        "t_end": result.t_end,
        "seed": result.seed,
        "r_c0": result.r_c0,
        "conservation_residual": result.conservation_residual,
        "rc_power_slope": result.rc_power_slope,
        "rc_power_slope_expected": result.rc_power_slope_expected,
        "files": {"base_snapshot": base_file, "series": "series.csv"},
        "snapshots": snapshot_entries,
        "work": result.work,
    }
    with open(
        os.path.join(args.out_dir, "report.json"), "w",
        encoding="utf-8", newline="",
    ) as fh:
        _emit_json(fh, report)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process (about 1.7 ms a build): every parse makes a new
    # namespace, and the repeatable flags copy their None defaults, so no
    # call leaves state behind for the next.
    parser = argparse.ArgumentParser(
        prog="ripening",
        description="Late-stage coarsening analytics and simulation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in TABLE.items():
        p = sub.add_parser(name, help=spec.help)
        p.add_argument(
            "--regime", choices=("dl", "al"), required=True,
            help="kinetic regime: diffusion- or attachment-limited",
        )
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="output format (default csv)",
        )
        p.add_argument(
            "--out", default="-", metavar="PATH",
            help="output file, '-' for stdout (default)",
        )
        p.add_argument(
            spec.flag, action="append", type=float, default=None, metavar="X",
            help=f"{spec.flag_help}; repeatable, overrides the --min/--max grid",
        )
        p.add_argument("--min", type=float, default=None, help="grid start")
        p.add_argument("--max", type=float, default=None, help="grid end")
        p.add_argument(
            "--count", type=int, default=None, help=f"grid points, <= {MAX_COUNT}"
        )
        p.add_argument(
            "--log", action="store_true",
            help="space the --min/--max grid logarithmically",
        )
        for flag, keywords in spec.options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=cmd_table, parser=p)

    p = sub.add_parser(
        "simulate", help="N-particle run compared against the analytics"
    )
    p.add_argument(
        "--regime", choices=("dl", "al"), required=True,
        help="kinetic regime: diffusion- or attachment-limited",
    )
    p.add_argument(
        "--n", type=int, default=20000,
        help=f"particle count, <= {MAX_PARTICLES}",
    )
    p.add_argument(
        "--t0", type=float, default=None,
        help="reference time on the coarsening clock (default 225 dl / 200 al)",
    )
    p.add_argument(
        "--t-end", dest="t_end", type=float, default=None,
        help="end time (default: last snapshot time)",
    )
    p.add_argument(
        "--snapshot", action="append", type=float, default=None, metavar="T",
        help="absolute snapshot time, repeatable (default 1.5,2,3 x t0)",
    )
    p.add_argument("--seed", type=int, default=1, help="RNG seed")
    p.add_argument(
        "--out-dir", default="ripening_run",
        help="directory for snapshot/series/report files",
    )
    p.set_defaults(handler=cmd_simulate, parser=p)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    args = _build_parser().parse_args(argv)
    invocation = " ".join(["ripening"] + argv)
    try:
        return args.handler(args, args.parser, invocation)
    except ConvergenceError as exc:  # IntegrationError included
        print(f"ripening: convergence error: {exc}", file=sys.stderr)
        return 3
    except RipeningError as exc:  # DomainError, DataError
        print(f"ripening: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ripening: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
