"""Benchmark of the ``ripening`` package, run from the repository root:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Each workload is a single-process closed loop over the public API: one
caller, and each operation starts when the previous one returns.

* ``analytic``: ``new_volume_fraction(regime, s)`` over the default phi grid,
  ``np.geomspace(1, 1e3, 200)``, for dl then al (400 ops per pass).
* ``tail``: the same call over ``np.geomspace(1e3, 1e300, 200)`` per regime,
  where z0 crowds the cutoff and rho underflows.
* ``ensemble``: ``ripening.cli.main(["simulate", ...])`` with the CLI
  defaults (N = 20 000) for dl then al (2 ops per pass).

Grids and op lists are fixed; ``--seed`` is the simulate seed of the
``ensemble`` workload.  Every op is checked against an independent oracle:
``oracle.json``, written by ``make_oracle.py`` with mpmath.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes, checks that both
give identical outputs, and reports the per-layer metrics of BENCHMARK.json
from spans recorded around the calls into each module (see ``spans.py``).
The spans are written to ``.perfbench_runs/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric with its unit and sample count, and the environment.
"""

import os

# One thread for BLAS and OpenMP, so the process uses no more threads than
# cores; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

REGIMES = ("dl", "al")
# Largest accepted |phi - oracle|.  The package's quadrature budget is 1e-10
# absolute plus 1e-10 relative per integral; its outputs are good to ~1e-11.
ORACLE_TOL = 1e-9
# Acceptance criterion 7 of the package (tests/test_acceptance.py).
CONSERVATION_TOL = 1e-5
SLOPE_TOL = 0.10
PHI_REL_TOL = 0.10
BOUNDARY_REL_TOL = 0.02

PHI_GRIDS = {
    "analytic": lambda: np.geomspace(1.0, 1e3, 200),
    "tail": lambda: np.geomspace(1e3, 1e300, 200),
}
# Defaults of `ripening simulate`: snapshots at 1.5, 2, 3 x t0, and t0 = 225
# (dl) or 200 (al), where R_c(t0)**gamma = (gamma/nu) t0 = 100 in both regimes.
SIM_RC0 = {"dl": 100.0 ** (1.0 / 3.0), "al": 10.0}
SIM_S = (1.5, 2.0, 3.0)
SIM_N = 20_000
SETUP_CHILDREN = 9
PROBE_REPEATS = 3
# The argv lists of acceptance criterion 8; dist uses its default grid.
CLI_PROBES = {
    "tau": ["tau", "--regime", "dl", "--min", "0.1", "--max", "1.4",
            "--count", "50"],
    "return": ["return", "--regime", "al", "--min", "1.0", "--max", "1.9",
               "--count", "50"],
    "phi": ["phi", "--regime", "dl", "--min", "1", "--max", "100",
            "--count", "50", "--log"],
    "dist": ["dist", "--regime", "al", "--format", "json"],
}
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ripening
for kind in ("dl", "al"):
    dist = ripening.size_distribution(ripening.get_regime(kind))
    for k in range(4):
        dist.moment(k)
    dist.cdf_table
print(time.perf_counter() - start, ripening.__file__)
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def import_ripening():
    package = os.path.join(SRC, "ripening")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        fail(f"no package sources at {package}; run from the repository root")
    sys.path.insert(0, SRC)
    import ripening
    import ripening.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(ripening.__file__)) != package:
        fail(f"imported {ripening.__file__}, not the sources in {package}")
    return ripening


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
    }


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "ripening")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


class Problems:
    """Failed ops and broken checks, with the first few reasons kept."""

    def __init__(self):
        self.failed = 0
        self.wrong = 0  # failures that make the run incorrect
        self.notes = []

    def op_failed(self, reason, wrong):
        self.failed += 1
        self.wrong += bool(wrong)
        self.note(reason)

    def broken(self, reason):
        self.wrong += 1
        self.note(reason)

    def note(self, reason):
        if len(self.notes) < 8:
            self.notes.append(reason)


# -- workloads -------------------------------------------------------------


class PhiWorkload:
    """``new_volume_fraction`` over a fixed grid, dl then al."""

    def __init__(self, name, ripening, oracle):
        self.name = name
        self.ripening = ripening
        grid = PHI_GRIDS[name]()
        self.ops = []
        self.expected = []
        for kind in REGIMES:
            table = oracle["grids"][name][kind]
            if table["s"] != [float(s) for s in grid]:
                fail(f"oracle grid for {name}/{kind} differs from the workload "
                     "grid; regenerate perfbench/oracle.json")
            self.ops += [(kind, float(s)) for s in grid]
            self.expected += [float(p) for p in table["phi"]]
        self.abs_err_max = 0.0

    def run_pass(self, tracer, first_op):
        rp = self.ripening
        latencies, outputs = [], []
        for n, (kind, s) in enumerate(self.ops):
            regime = rp.get_regime(kind)
            token = tracer.begin_op(first_op + n, "op.phi") if tracer else None
            start = perf_counter()
            try:
                value = rp.new_volume_fraction(regime, s)
            except Exception as exc:  # an op that raises is counted, not fatal
                value = exc
            latencies.append(perf_counter() - start)
            if tracer:
                tracer.end_op(token)
            outputs.append(value)
        return latencies, outputs

    def check(self, outputs, problems):
        previous = None
        for (kind, s), value, want in zip(self.ops, outputs, self.expected):
            label = f"{kind} phi({s!r})"
            if previous is not None and previous[0] != kind:
                previous = None
            if isinstance(value, Exception):
                problems.op_failed(f"{label} raised {value!r}", wrong=True)
                continue
            if not isinstance(value, float) or not math.isfinite(value):
                problems.op_failed(f"{label} = {value!r}", wrong=True)
                previous = None
                continue
            err = abs(value - want)
            self.abs_err_max = max(self.abs_err_max, err)
            if err > ORACLE_TOL:
                problems.op_failed(
                    f"{label} = {value!r} misses the oracle {want!r} by {err:.3g}",
                    wrong=True)
            elif not 0.0 <= value <= 1.0:
                problems.op_failed(f"{label} = {value!r} outside [0, 1]", wrong=False)
            elif previous is not None and value < previous[1]:
                problems.op_failed(
                    f"{label} = {value!r} below the previous grid point "
                    f"{previous[1]!r}", wrong=False)
            previous = (kind, value)

    def summary(self):
        return {"phi_abs_err_max": (self.abs_err_max, "1", None)}


class EnsembleWorkload:
    """``ripening simulate`` with the CLI defaults, dl then al."""

    OUTPUT_FILES = ("snapshot_00.csv", "snapshot_01.csv", "snapshot_02.csv",
                    "snapshot_03.csv", "series.csv", "report.json")

    def __init__(self, ripening, oracle, seed, workdir):
        self.ripening = ripening
        self.ops = []
        self.truth = {}
        for kind in REGIMES:
            table = oracle["grids"]["ensemble"][kind]
            if table["s"] != list(SIM_S):
                fail("oracle ensemble points differ from the snapshot ratios")
            self.truth[kind] = [
                (float(phi), float(z0) * SIM_RC0[kind])
                for phi, z0 in zip(table["phi"], table["z0"])
            ]
            out_dir = os.path.join(workdir, kind)
            argv = ["simulate", "--regime", kind, "--seed", str(seed),
                    "--out-dir", out_dir]
            self.ops.append((kind, argv, out_dir))
        self.phi_rel_err_max = 0.0
        self.boundary_rel_err_max = 0.0
        self.abs_err_max = 0.0

    def run_pass(self, tracer, first_op):
        latencies, outputs = [], []
        for n, (kind, argv, out_dir) in enumerate(self.ops):
            shutil.rmtree(out_dir, ignore_errors=True)
            token = tracer.begin_op(first_op + n, "op.simulate") if tracer else None
            start = perf_counter()
            try:
                value = self.ripening.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                value = exc.code
            except Exception as exc:  # an op that raises is counted, not fatal
                value = exc
            latencies.append(perf_counter() - start)
            if tracer:
                tracer.end_op(token)
            outputs.append(self._collect(value, out_dir))
        return latencies, outputs

    def _collect(self, code, out_dir):
        """The op's exit code, output digests, report and work counts."""
        files = {}
        for name in self.OUTPUT_FILES:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        result = {"code": code if isinstance(code, int) else repr(code),
                  "digests": {n: hashlib.sha256(b).hexdigest() for n, b in files.items()},
                  "bytes": sum(len(b) for b in files.values()),
                  "report": None, "counts": None}
        try:
            result["report"] = json.loads(files["report.json"])
            series = np.loadtxt(os.path.join(out_dir, "series.csv"), delimiter=",",
                                skiprows=2, usecols=(1,), dtype=np.int64, ndmin=1)
        except (KeyError, ValueError, OSError):
            return result
        result["counts"] = {
            "substeps": int(series.size - 1),
            "deletions": int(result["report"]["n"] - series[-1]),
            "shrink_substeps": int(np.count_nonzero(series[1:] < series[:-1])),
            "particle_substeps": int(series[1:].sum()),
            "series_rows": int(series.size),
            "bytes_written": result["bytes"],
        }
        return result

    def check(self, outputs, problems):
        for (kind, _, _), out in zip(self.ops, outputs):
            label = f"simulate {kind}"
            reasons = []
            if out["code"] != 0:
                reasons.append(f"exit code {out['code']}")
            missing = [n for n in self.OUTPUT_FILES if n not in out["digests"]]
            if missing:
                reasons.append(f"missing {', '.join(missing)}")
            report = out["report"]
            if report is not None:
                reasons += self._check_report(kind, report)
            elif "report.json" not in missing:
                reasons.append("unreadable report.json or series.csv")
            if reasons:
                problems.op_failed(f"{label}: {'; '.join(reasons)}", wrong=True)

    def _check_report(self, kind, report):
        reasons = []
        try:
            residual = report["conservation_residual"]
            slope = report["rc_power_slope"]
            slope_want = report["rc_power_slope_expected"]
            snaps = report["snapshots"]
            if [snap["s"] for snap in snaps] != list(SIM_S):
                return [f"snapshot ratios {[snap['s'] for snap in snaps]}"]
            if not residual < CONSERVATION_TOL:
                reasons.append(f"conservation residual {residual!r}")
            if not abs(slope - slope_want) <= SLOPE_TOL * slope_want:
                reasons.append(f"rc^gamma slope {slope!r} vs {slope_want!r}")
            for snap, (phi, boundary) in zip(snaps, self.truth[kind]):
                phi_rel = abs(snap["phi_empirical"] - phi) / phi
                boundary_rel = abs(snap["boundary_radius_empirical"] - boundary) / boundary
                phi_abs = abs(snap["phi_analytic"] - phi)
                analytic_rel = abs(snap["boundary_radius_analytic"] - boundary) / boundary
                self.phi_rel_err_max = max(self.phi_rel_err_max, phi_rel)
                self.boundary_rel_err_max = max(self.boundary_rel_err_max, boundary_rel)
                self.abs_err_max = max(self.abs_err_max, phi_abs)
                where = f"s={snap['s']!r}"
                if not phi_rel <= PHI_REL_TOL:
                    reasons.append(f"{where}: phi off the oracle by {phi_rel:.3%}")
                if not boundary_rel <= BOUNDARY_REL_TOL:
                    reasons.append(f"{where}: boundary radius off by {boundary_rel:.3%}")
                if not phi_abs <= ORACLE_TOL:
                    reasons.append(f"{where}: phi_analytic misses the oracle by {phi_abs:.3g}")
                if not analytic_rel <= ORACLE_TOL:
                    reasons.append(f"{where}: boundary_radius_analytic misses the "
                                   f"oracle by {analytic_rel:.3g}")
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            reasons.append(f"malformed report.json ({exc!r})")
        return reasons

    def summary(self):
        return {
            "phi_rel_err_max": (self.phi_rel_err_max, "1", None),
            "boundary_rel_err_max": (self.boundary_rel_err_max, "1", None),
            "phi_abs_err_max": (self.abs_err_max, "1", None),
        }


# -- measuring -------------------------------------------------------------


def comparable(outputs):
    """What must be identical between two passes: values, or file digests."""
    return [
        repr(out) if not isinstance(out, dict)
        else (out["code"], sorted(out["digests"].items()))
        for out in outputs
    ]


def run_passes(workload, seconds, traced, problems, between=None):
    """Closed-loop passes for about ``seconds``; with ``traced`` every second
    pass runs under a fresh Tracer.  A pass starts only if the typical pass
    still fits in the time left, once each kind has its minimum count.
    ``between(fraction_of_time_used)`` runs after each pass, untimed.
    Returns a list of pass records."""
    min_each = 2 if traced else (3 if isinstance(workload, PhiWorkload) else 2)
    passes, walls = [], []
    reference = None
    start = perf_counter()
    while True:
        untraced = sum(p["tracer"] is None for p in passes)
        is_traced = traced and untraced > len(passes) - untraced
        enough = untraced >= min_each and (not traced or len(passes) - untraced >= min_each)
        if enough and perf_counter() - start + statistics.median(walls) > seconds:
            break
        tracer = Tracer() if is_traced else None
        first_op = len(passes) * len(workload.ops)
        pass_start = perf_counter()
        if tracer:
            with tracer:
                latencies, outputs = workload.run_pass(tracer, first_op)
        else:
            latencies, outputs = workload.run_pass(None, first_op)
        workload.check(outputs, problems)
        seen = comparable(outputs)
        if reference is None:
            reference = seen
        elif seen != reference:
            problems.broken(f"pass {len(passes)} ({'traced' if tracer else 'untraced'}) "
                            "gave other outputs than pass 0")
        passes.append({"tracer": tracer, "latencies": latencies,
                       "outputs": outputs, "first_op": first_op})
        if between is not None:
            between((perf_counter() - start) / seconds)
        walls.append(perf_counter() - pass_start)
    return passes


class SetupTimer:
    """Import-and-warm time of fresh interpreters.  Children are spread over
    the run (see ``maybe_run``) so that their median samples the host the
    way the passes do, not one moment of it."""

    def __init__(self):
        self.times = []

    def child(self):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or not fields[1].startswith(SRC):
            fail(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        self.times.append(float(fields[0]))

    def maybe_run(self, fraction):
        while len(self.times) < min(SETUP_CHILDREN, math.ceil(SETUP_CHILDREN * fraction)):
            self.child()

    def median(self):
        while len(self.times) < SETUP_CHILDREN:
            self.child()
        return statistics.median(self.times)


def best_pass_seconds(passes):
    """Sum over a pass's ops of each op's fastest latency in the run."""
    return float(np.array([p["latencies"] for p in passes]).min(axis=0).sum())


def median_time(fn):
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def probes(ripening, workdir, seed, problems):
    """One-call layer timings, untraced: CLI commands and distribution set-up."""
    out = {}
    for name, argv in CLI_PROBES.items():
        path = os.path.join(workdir, f"cli-{name}.out")

        def call(argv=argv, path=path, name=name):
            code = ripening.cli.main([*argv, "--out", path])
            if code != 0:
                problems.broken(f"cli {name} exited with {code}")
        out[f"cli.{name}.s"] = median_time(call)

    regimes = [ripening.get_regime(kind) for kind in REGIMES]

    def moments():
        for regime in regimes:
            fresh = ripening.SizeDistribution(regime)
            for k in range(4):
                fresh.moment(k)

    def tables():
        for regime in regimes:
            ripening.SizeDistribution(regime).cdf_table

    def samples():
        for regime in regimes:
            ripening.size_distribution(regime).sample(SIM_N, seed)

    out["distribution.moment.s"] = median_time(moments)
    out["distribution.cdf_table.s"] = median_time(tables)
    out["distribution.sample.s"] = median_time(samples)
    return out


def pass_seconds(record):
    return math.fsum(record["latencies"])


# -- per-layer metrics -----------------------------------------------------


def span_totals(tracers, ops_kind=None):
    """Per span name: calls, outermost inclusive seconds, self seconds.
    ``ops_kind`` maps op id -> regime and restricts to ensemble ops."""
    calls, inclusive, self_s = {}, {}, {}
    for tracer in tracers:
        by_id = {span[0]: span for span in tracer.spans}
        for span_id, name, start, end, parent, op, self_time in tracer.spans:
            key = name if ops_kind is None else (ops_kind.get(op), name)
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + self_time
            outer = parent
            while outer is not None and by_id[outer][1] != name:
                outer = by_id[outer][4]
            if outer is None:
                inclusive[key] = inclusive.get(key, 0.0) + (end - start)
    return calls, inclusive, self_s


def layer_metrics(workload, passes, probe_values):
    traced = [p for p in passes if p["tracer"] is not None]
    tracers = [p["tracer"] for p in traced]
    ops = sum(len(p["outputs"]) for p in traced)
    missing = set().union(*(t.missing for t in tracers))
    calls, inclusive, self_s = span_totals(tracers)
    leaf_calls, leaf_s = {}, {}
    for tracer in tracers:
        for name, n in tracer.calls.items():
            leaf_calls[name] = leaf_calls.get(name, 0) + n
        for name, s in tracer.leaf_s.items():
            leaf_s[name] = leaf_s.get(name, 0.0) + s

    def per_op(value):
        return value / ops

    fr, ig = "numerics.find_root", "numerics.integrate"
    values = {
        "regime.tau_evals": (per_op(leaf_calls.get("regime._tau_closed_form", 0)),
                             ["regime._tau_closed_form"]),
        f"{fr}.calls": (per_op(calls.get(fr, 0)), [fr]),
        f"{fr}.evals": (per_op(leaf_calls.get(f"{fr}.evals", 0)), [fr]),
        f"{fr}.evals_per_root": (leaf_calls.get(f"{fr}.evals", 0) / max(calls.get(fr, 0), 1),
                                 [fr]),
        f"{fr}.self_s": (per_op(self_s.get(fr, 0.0)), [fr]),
        f"{ig}.calls": (per_op(calls.get(ig, 0)), [ig]),
        f"{ig}.evals": (per_op(leaf_calls.get(f"{ig}.evals", 0)), [ig]),
        f"{ig}.self_s": (per_op(self_s.get(ig, 0.0)), [ig]),
        "distribution.density.calls": (per_op(leaf_calls.get("distribution.density", 0)),
                                       ["distribution.density"]),
        "distribution.density.s": (per_op(leaf_s.get("distribution.density", 0.0)),
                                   ["distribution.density"]),
    }
    for name in ("return_map.initial_size_for_ratio", "return_map.return_size",
                 "return_map.return_radius", "recrystallization.new_volume_fraction",
                 "recrystallization.fraction_from_start_size"):
        values[f"{name}.calls"] = (per_op(calls.get(name, 0)), [name])
        values[f"{name}.s"] = (per_op(inclusive.get(name, 0.0)), [name])
        values[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), [name])
    for name, value in probe_values.items():
        values[name] = (value, [])

    ensemble_values(values, workload, traced, tracers, missing)
    untraced = [p for p in passes if p["tracer"] is None]
    values["trace.overhead"] = (best_pass_seconds(traced) / best_pass_seconds(untraced), [])
    return {name: value for name, (value, needs) in values.items()
            if not missing.intersection(needs)}, sorted(missing)


def ensemble_values(values, workload, traced, tracers, missing):
    """Per-regime ensemble metrics; zero on workloads that run no simulation."""
    kinds = {}
    counts = {kind: {} for kind in REGIMES}
    if isinstance(workload, EnsembleWorkload):
        for record in traced:
            for n, (kind, _, _) in enumerate(workload.ops):
                kinds[record["first_op"] + n] = kind
                counts[kind] = record["outputs"][n]["counts"] or {}
    calls, inclusive, self_s = span_totals(tracers, kinds)
    per_regime = max(len(traced), 1)
    ens = "ensemble"
    compare = ("ensemble.measure_new_volume", "ensemble.empirical_return_radius",
               "recrystallization.new_volume_fraction", "return_map.return_radius")
    write = ("ensemble.write_snapshot_csv", "ensemble.write_series_csv", "cli._emit_json")
    compare_s = {kind: 0.0 for kind in REGIMES}
    for tracer in tracers:
        by_id = {span[0]: span for span in tracer.spans}
        for span_id, name, start, end, parent, op, _ in tracer.spans:
            if (op in kinds and name in compare and parent is not None
                    and by_id[parent][1] == "ensemble.simulate_late_stage"):
                compare_s[kinds[op]] += end - start
    for kind in REGIMES:
        c = counts[kind]
        for name in ("substeps", "deletions", "shrink_substeps", "particle_substeps",
                     "series_rows", "bytes_written"):
            values[f"{ens}.{kind}.{name}"] = (c.get(name, 0), [])
        run_s = inclusive.get((kind, "ensemble.Ensemble.run"), 0.0) / per_regime
        values[f"{ens}.{kind}.init_s"] = (
            inclusive.get((kind, "ensemble.init_ensemble"), 0.0) / per_regime,
            ["ensemble.init_ensemble"])
        values[f"{ens}.{kind}.run_s"] = (run_s, ["ensemble.Ensemble.run"])
        values[f"{ens}.{kind}.us_per_substep"] = (
            run_s / c["substeps"] * 1e6 if c.get("substeps") else 0.0,
            ["ensemble.Ensemble.run"])
        values[f"{ens}.{kind}.ns_per_particle_substep"] = (
            run_s / c["particle_substeps"] * 1e9 if c.get("particle_substeps") else 0.0,
            ["ensemble.Ensemble.run"])
        values[f"{ens}.{kind}.compare_s"] = (compare_s[kind] / per_regime,
                                            ["ensemble.simulate_late_stage"])
        values[f"{ens}.{kind}.write_s"] = (
            sum(inclusive.get((kind, name), 0.0) for name in write) / per_regime,
            [name for name in write if name in missing][:1])
    op_self = sum(self_s.get((kind, "op.simulate"), 0.0) for kind in REGIMES)
    values["cli.simulate.self_s"] = (op_self / max(len(kinds), 1), [])


def work_counts(passes):
    """Exact work counts of each traced pass, for the repeat check."""
    out = []
    for record in passes:
        tracer = record["tracer"]
        if tracer is None:
            continue
        counts = dict(sorted(tracer.calls.items()))
        counts.update(sorted((f"span:{n}", c) for n, c in span_totals([tracer])[0].items()))
        for n, output in enumerate(record["outputs"]):
            if isinstance(output, dict):
                counts[f"files:{n}"] = output["counts"]
        out.append(counts)
    return out


def check_repeats(workload_name, seed, counts, problems):
    """Work counts must be equal in every traced pass, and equal to those a
    previous run of the same sources and seed recorded."""
    for n, other in enumerate(counts[1:], start=1):
        if other != counts[0]:
            problems.broken(f"work counts of traced pass {n} differ from pass 0")
    path = os.path.join(RUNS, f"counts-{workload_name}-seed{seed}-{source_digest()}.json")
    if os.path.exists(path):
        if load_json(path) != json.loads(json.dumps(counts[0])):
            problems.broken(f"work counts differ from the earlier run in {path}")
    else:
        with open(f"{path}.{os.getpid()}", "w", encoding="utf-8") as fh:
            json.dump(counts[0], fh)
        os.replace(f"{path}.{os.getpid()}", path)


def write_spans(path, env, passes):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for record in passes:
            if record["tracer"] is not None:
                for span in record["tracer"].span_dicts():
                    fh.write(json.dumps(span) + "\n")


# -- main ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the ripening package.")
    parser.add_argument("--workload", required=True,
                        choices=("analytic", "tail", "ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def print_table(rows):
    print(f"{'metric':44} {'value':>16} {'unit':8} samples")
    for name, (value, unit, samples) in rows.items():
        shown = "-" if samples is None else samples
        print(f"{name:44} {value:16.6g} {unit:8} {shown}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    oracle = load_json(os.path.join(HERE, "oracle.json"))
    ripening = import_ripening()
    env = environment(args.seed)
    os.makedirs(RUNS, exist_ok=True)
    # A relative work directory of fixed length: the simulate outputs record
    # it, and their sizes are work counts that must repeat between runs.
    os.chdir(ROOT)
    workdir = os.path.join(os.path.relpath(RUNS, ROOT),
                           f"work-{args.workload}-{os.getpid():07d}")
    os.makedirs(workdir)
    problems = Problems()
    try:
        if args.workload == "ensemble":
            workload = EnsembleWorkload(ripening, oracle, args.seed, workdir)
        else:
            workload = PhiWorkload(args.workload, ripening, oracle)
        for kind in REGIMES:  # what set-up warms, so passes measure steady state
            dist = ripening.size_distribution(ripening.get_regime(kind))
            for k in range(4):
                dist.moment(k)
            dist.cdf_table

        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env " + json.dumps(env))
        rows = {}
        if args.trace:
            passes = run_passes(workload, args.seconds, True, problems)
            probe_values = probes(ripening, workdir, args.seed, problems)
            check_repeats(args.workload, args.seed, work_counts(passes), problems)
            values, absent = layer_metrics(workload, passes, probe_values)
            spans_path = os.path.join(RUNS, f"spans-{args.workload}.jsonl")
            write_spans(spans_path, env, passes)
            traced = sum(p["tracer"] is not None for p in passes)
            for metric in spec["per_layer"]:
                if metric["name"] in values:
                    rows[metric["name"]] = (values[metric["name"]], metric["unit"], traced)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}; "
                  f"traced passes {traced} of {len(passes)}")
            if absent:
                print("absent (wrapped name no longer exists): " + ", ".join(absent))
        else:
            setup = SetupTimer()
            passes = run_passes(workload, args.seconds, False, problems, setup.maybe_run)
            latencies = [t for p in passes for t in p["latencies"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            rows["pass_best_s"] = (best_pass_seconds(passes), units["pass_best_s"],
                                   len(passes))
            rows["pass_s"] = (statistics.median(pass_seconds(p) for p in passes), "s",
                              len(passes))
            rows["setup_s"] = (setup.median(), units["setup_s"], len(setup.times))
            rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   units["peak_rss_mb"], 1)
            if isinstance(workload, PhiWorkload):
                rows["op_ms_p50"] = (1e3 * float(np.percentile(latencies, 50)), "ms",
                                     len(latencies))
                rows["op_ms_p99"] = (1e3 * float(np.percentile(latencies, 99)), "ms",
                                     len(latencies))
        attempted = sum(len(p["outputs"]) for p in passes)
        rows["fail_frac"] = (problems.failed / attempted, "1", attempted)
        rows.update(workload.summary())
        print_table(rows)
        for note in problems.notes:
            print(f"note: {note}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]}
               for m in wanted if m["name"] in rows}
    print(json.dumps({"correct": problems.wrong == 0, "attempted": attempted,
                      "failed": problems.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
