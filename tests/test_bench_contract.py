"""What the benchmark needs of the package: every function its tracer wraps
stays bound under its name with the same parameters, and its result line
is checked strictly."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
CHECK = _load(ROOT / "scripts" / "check_bench_line.py", "check_bench_line")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The parameters of every traced function.  The tracer wraps the first
# argument of find_root and integrate by name ("f") to count evaluations,
# and the benchmark calls the rest as the package's callers do.
PARAMETERS = {
    "regime._tau_closed_form": ["regime", "z"],
    "numerics.find_root": ["f", "lo", "hi", "max_iter"],
    "numerics.integrate": ["f", "a", "b", "tol"],
    "return_map.initial_size_for_ratio": ["regime", "s"],
    "return_map.return_size": ["regime", "z0"],
    "return_map.return_radius": ["regime", "t", "t0", "r_c0"],
    "distribution.density": ["regime", "z"],
    "recrystallization.new_volume_fraction": ["regime", "s"],
    "recrystallization.fraction_from_start_size": ["regime", "z0", "complement"],
    "ensemble.simulate_late_stage": ["regime", "n", "t0", "t_end",
                                     "snapshot_times", "seed",
                                     "step_fraction"],
    "ensemble.init_ensemble": ["regime", "n", "r_c0", "seed",
                               "step_fraction"],
    "ensemble.Ensemble.run": ["self", "t_end", "snapshot_times"],
    "ensemble.measure_new_volume": ["before", "after"],
    "ensemble.empirical_return_radius": ["before", "after"],
    "ensemble.write_snapshot_csv": ["snapshot", "path", "comment"],
    "ensemble.write_series_csv": ["series", "path", "comment"],
    "cli._emit_json": ["stream", "payload"],
}


@pytest.mark.parametrize("target", SPANS.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_traced_names_stay_bound(target):
    module, attr, _, counted_arg = target
    owner = importlib.import_module(f"ripening.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    params = list(inspect.signature(owner).parameters)
    assert params == PARAMETERS[f"{module}.{attr}"]
    if counted_arg is not None:
        assert params[0] == counted_arg


def _line(trace, **changes):
    names = SPEC["per_layer" if trace else "end_to_end"]
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                          for m in names}}
    result.update(changes)
    return "perfbench ...\n" + json.dumps(result) + "\n"


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_check(trace):
    assert CHECK.problems(_line(trace), SPEC, trace) == []
    text = _line(trace)
    name = SPEC["per_layer" if trace else "end_to_end"][0]["name"]
    for bad, why in [
        (text.replace('"value": 1.5', '"value": NaN', 1), "not strict JSON"),
        (text.replace('"value": 1.5', '"value": Infinity', 1), "not strict JSON"),
        (text.replace(f'"{name}"', '"renamed"', 1), f"metric {name} missing"),
        (_line(trace, correct=False), "correct is False"),
        (_line(trace, failed=1), "failed is 1"),
        (CHECK.ABSENT + ": numerics.find_root\n" + text, CHECK.ABSENT),
        (text + "trailing words\n", "not strict JSON"),
        ("", "no output"),
    ]:
        found = CHECK.problems(bad, SPEC, trace)
        assert any(why in reason for reason in found), (why, found)
