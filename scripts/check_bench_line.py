"""Check the result line of a ``perfbench/run.py`` run.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 5 --trace 1 > out.txt
    python3 scripts/check_bench_line.py --trace 1 out.txt

The last line of the run's standard output must be strict JSON (``NaN`` and
``Infinity`` are refused) with ``correct`` true, ``failed`` 0, and every
metric that ``BENCHMARK.json`` lists for the mode (``end_to_end`` for
``--trace 0``, ``per_layer`` for ``--trace 1``) with a finite number as its
value.  No traced name may be reported absent.  Prints the problems and
exits 1 when any is found, 0 otherwise.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ABSENT = "absent (wrapped name no longer exists)"


def _refuse(name):
    raise ValueError(f"non-finite constant {name} in the result line")


def problems(text, spec, trace):
    """The reasons the run output ``text`` breaks the result-line
    contract of ``spec`` (BENCHMARK.json) for the ``trace`` mode."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["no output"]
    found = [line for line in lines if line.startswith(ABSENT)]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse)
    except ValueError as exc:
        return found + [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return found + ["last line is not a JSON object"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    for metric in spec["per_layer" if trace else "end_to_end"]:
        entry = metrics.get(metric["name"])
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            found.append(f"metric {metric['name']} missing or not a number")
        elif not math.isfinite(value):
            found.append(f"metric {metric['name']} is {value!r}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("output", help="the run's standard output, saved")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(args.output, encoding="utf-8") as fh:
        text = fh.read()
    found = problems(text, spec, args.trace)
    for reason in found:
        print(f"check_bench_line: {reason}", file=sys.stderr)
    if not found:
        print(f"check_bench_line: {args.output} ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
