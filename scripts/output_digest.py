"""Print one SHA-256 per output family of the ``ripening`` tree it runs in.

    python3 scripts/output_digest.py > digests.txt

Two trees that print the same lines give bit-identical outputs.  The first
line names what the bits depend on besides the tree: numpy's version and
the SIMD target numpy runs each float64 ufunc in ``UFUNCS`` on; two files
whose first lines differ are not comparable.  Run the script in each tree
from the same relative working directory: the command line files go under
``output-digest/`` there, and ``report.json`` and every CSV comment record
the invocation, output path included.  The package is imported from the
``src`` directory next to this script.

Families, each in both regimes:

* ``phi``: ``new_volume_fraction`` on both perfbench grids and on
  ``1 + geomspace(1e-15, 1e-2, 50)``, as scalar calls and as one array call;
* ``solve_return_point``, ``fraction_from_start_size`` (both ``complement``
  values) on 2 000 ``z0`` from 1 to ``z_max - 1e-9``, and ``return_radius``
  (``r_c0`` 0 and 0.7) on 2 000 times from 1 to 1e300, as scalar and as
  array calls;
* every file of ``simulate --seed {1,2}`` and of six table commands
  (``TABLE_COMMANDS``); CI checks the CSV fields of all of them.  Each
  ``simulate`` line also prints its run's work counts from ``report.json``
  (substeps, re-sorts, flowed and dissolved particles).

Floats are hashed as ``float.hex``, files as their bytes.
"""

import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ripening import (  # noqa: E402
    REGIMES,
    fraction_from_start_size,
    new_volume_fraction,
    return_radius,
    solve_return_point,
)
from ripening.cli import main  # noqa: E402

OUT = "output-digest"
POINTS = 2000
PHI_GRIDS = {
    "analytic": np.geomspace(1.0, 1e3, 200),
    "tail": np.geomspace(1e3, 1e300, 200),
    "near-one": 1.0 + np.geomspace(1e-15, 1e-2, 50),
}
TIMES = np.geomspace(1.0, 1e300, POINTS)
UFUNCS = ("log", "log1p", "exp", "expm1", "cbrt", "power")
TABLE_COMMANDS = {
    "tau-dl": ["tau", "--regime", "dl", "--min", "0.1", "--max", "1.4",
               "--count", "50"],
    "return-al": ["return", "--regime", "al", "--min", "1.0", "--max", "1.9",
                  "--count", "50"],
    "return-cutoff-dl": ["return", "--regime", "dl", "--min", "1.0", "--max",
                         "1.499999999", "--count", "200"],
    "return-s-al": ["return", "--regime", "al", "--var", "s", "--min", "1",
                    "--max", "1e300", "--count", "200", "--log"],
    "phi-dl": ["phi", "--regime", "dl"],
    "dist-al": ["dist", "--regime", "al"],
}


def kernels():
    """A comment line: numpy's version and the target of each of ``UFUNCS``
    in numpy's dispatch report."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 has no dispatch report
        return f"# numpy {np.__version__}"
    targets = []
    for name in UFUNCS:
        (info,) = opt_func_info(func_name=f"^{name}$",
                                signature="float64")[name].values()
        targets.append(f"{name}={info['current']}")
    return f"# numpy {np.__version__} " + " ".join(targets)


def digest_floats(*arrays):
    """SHA-256 of the ``float.hex`` of every entry, in order."""
    h = hashlib.sha256()
    for values in arrays:
        for x in np.asarray(values, dtype=float).ravel().tolist():
            h.update(x.hex().encode() + b"\n")
    return h.hexdigest()


def digest_files(directory):
    """SHA-256 of the names and bytes of the files under ``directory``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\n")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def scalar_and_array(f, grid):
    """``f`` on each entry of ``grid`` as a float, then on the whole grid."""
    return [f(float(x)) for x in grid], f(grid)


def families():
    """Yield (name, digest) for every output family."""
    for kind, regime in REGIMES.items():
        for grid_name, grid in PHI_GRIDS.items():
            yield (f"phi/{kind}/{grid_name}", digest_floats(*scalar_and_array(
                lambda s: new_volume_fraction(regime, s), grid)))
        z0 = np.linspace(1.0, regime.z_max - 1e-9, POINTS)
        points = scalar_and_array(lambda z: solve_return_point(regime, z), z0)
        yield (f"solve_return_point/{kind}", digest_floats(
            [(p.z0, p.z_return, p.s) for p in points[0]],
            points[1].z0, points[1].z_return, points[1].s))
        for complement in (False, True):
            yield (f"fraction_from_start_size/{kind}/complement={complement}",
                   digest_floats(*scalar_and_array(
                       lambda z: fraction_from_start_size(regime, z, complement),
                       z0)))
        for r_c0 in (0.0, 0.7):
            yield (f"return_radius/{kind}/r_c0={r_c0}", digest_floats(
                *scalar_and_array(lambda t: return_radius(regime, t, 1.0, r_c0),
                                  TIMES)))
    for kind in REGIMES:
        for seed in (1, 2):
            out_dir = os.path.join(OUT, f"sim-{kind}-{seed}")
            run(["simulate", "--regime", kind, "--seed", str(seed),
                 "--out-dir", out_dir])
            with open(os.path.join(out_dir, "report.json"),
                      encoding="utf-8") as fh:
                work = json.load(fh)["work"]
            counts = " ".join(f"{k}={v}" for k, v in work.items())
            yield f"simulate/{kind}/seed={seed}  {counts}", digest_files(out_dir)
    for name, argv in TABLE_COMMANDS.items():
        out_dir = os.path.join(OUT, name)
        os.makedirs(out_dir, exist_ok=True)
        run(argv + ["--out", os.path.join(out_dir, f"{argv[0]}.csv")])
        yield name, digest_files(out_dir)


def run(argv):
    if main(argv) != 0:
        raise SystemExit(f"ripening {' '.join(argv)} failed")


if __name__ == "__main__":
    print(kernels(), flush=True)
    for name, digest in families():
        print(f"{digest}  {name}", flush=True)
