"""Tests for the command line front end.

Most cases drive ``main(argv)`` in-process and inspect the captured output;
one subprocess test checks the module entry point end to end.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np
import pytest

import ripening
import ripening.cli as cli
from ripening import __version__
from ripening.cli import _comment, main
from ripening.distribution import density, size_distribution
from ripening.ensemble import simulate_late_stage
from ripening.recrystallization import initial_growth_rate, new_volume_fraction
from ripening.regime import (
    DIFFUSION_LIMITED,
    flow_time,
    get_regime,
    growth_rate_scaled,
    return_invariant,
)
from ripening.return_map import solve_return_point


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0][2:], columns, rows


class TestTau:
    def test_csv_stdout(self, capsys):
        rc, out, err = run_cli(
            capsys, "tau", "--regime", "dl", "--z", "0.5", "--z", "1.0"
        )
        assert rc == 0 and err == ""
        comment, columns, rows = parse_csv(out)
        assert comment == (
            f"ripening tau --regime dl --z 0.5 --z 1.0 | "
            f"version={__version__} | seed=-"
        )
        assert columns == ["z", "tau", "alpha", "dz_dtau"]
        assert len(rows) == 2
        z, tau, alpha, rate = map(float, rows[1])
        assert z == 1.0
        assert tau == flow_time(DIFFUSION_LIMITED, 1.0)  # 17g round-trips
        assert alpha == return_invariant(DIFFUSION_LIMITED, 1.0)
        assert rate == -1.0

    def test_json(self, capsys):
        rc, out, _ = run_cli(
            capsys, "tau", "--regime", "al", "--z", "1.0", "--format", "json"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "tau"
        assert payload["version"] == __version__
        assert payload["regime"] == "al"
        assert payload["seed"] is None
        assert payload["rows"][0]["tau"] == -2.0

    def test_grid_flags(self, capsys):
        rc, out, _ = run_cli(
            capsys, "tau", "--regime", "dl",
            "--min", "0.5", "--max", "1.4", "--count", "10",
        )
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 10
        zs = [float(r[0]) for r in rows]
        assert zs == pytest.approx(list(np.linspace(0.5, 1.4, 10)))

    def test_log_grid(self, capsys):
        rc, out, _ = run_cli(
            capsys, "tau", "--regime", "dl",
            "--min", "0.1", "--max", "1.0", "--count", "5", "--log",
        )
        assert rc == 0
        _, _, rows = parse_csv(out)
        zs = [float(r[0]) for r in rows]
        assert zs == pytest.approx(list(np.geomspace(0.1, 1.0, 5)))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "tau.csv"
        rc, out, _ = run_cli(
            capsys, "tau", "--regime", "dl", "--z", "1.0", "--out", path
        )
        assert rc == 0 and out == ""
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text


class TestGridErrors:
    def test_no_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--regime", "dl"])
        assert exc.value.code == 2

    def test_mixed_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--regime", "dl", "--z", "1.0", "--min", "0.5"])
        assert exc.value.code == 2

    def test_partial_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--regime", "dl", "--min", "0.5", "--max", "1.0"])
        assert exc.value.code == 2

    def test_count_one_needs_equal_bounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--regime", "dl",
                  "--min", "0.5", "--max", "1.0", "--count", "1"])
        assert exc.value.code == 2
        rc, out, _ = run_cli(
            capsys, "tau", "--regime", "dl",
            "--min", "1.0", "--max", "1.0", "--count", "1",
        )
        assert rc == 0

    def test_count_bounded(self, capsys, monkeypatch):
        # The oversized grid must be refused before numpy is asked for it.
        for name in ("geomspace", "linspace"):
            def guarded(start, stop, num=50, *a, _real=getattr(np, name), **kw):
                assert num <= 1_000_000, f"a {num}-point grid was built"
                return _real(start, stop, num, *a, **kw)

            monkeypatch.setattr(np, name, guarded)
        with pytest.raises(SystemExit) as exc:
            main(["phi", "--regime", "dl", "--min", "1", "--max", "1000",
                  "--count", "100000000", "--log"])
        assert exc.value.code == 2
        assert "--count must be <= 1000000" in capsys.readouterr().err

    def test_particle_count_bounded(self, capsys, monkeypatch, tmp_path):
        # An oversized ensemble is refused before anything is allocated;
        # the largest allowed --n reaches the simulator.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("ripening.cli.simulate_late_stage", reached)
        out_dir = tmp_path / "run"
        argv = ["simulate", "--regime", "dl", "--out-dir", str(out_dir)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", "1000001"])
        assert exc.value.code == 2
        assert "--n must be <= 1000000" in capsys.readouterr().err
        with pytest.raises(Reached):
            main([*argv, "--n", "1000000"])
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv,usage", [
        pytest.param(("simulate", "--regime", "dl", "--n", "1000001"),
                     "usage: ripening simulate", id="simulate"),
        pytest.param(("phi", "--regime", "dl", "--min", "1", "--max", "2"),
                     "usage: ripening phi", id="phi"),
    ])
    def test_usage_names_the_subcommand(self, capsys, tmp_path, argv, usage):
        # A handler's own checks print its subcommand's usage line, as the
        # parser does for the errors it finds itself.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir" if argv[0] == "simulate" else "--out",
                  str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage + " ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bounds", [
        pytest.param(("--min", "0.0", "--max", "1.0", "--log"), id="log-zero-min"),
        pytest.param(("--min", "0.1", "--max", "0", "--log"), id="log-zero-max"),
        pytest.param(("--min", "0.1", "--max", "-1", "--log"),
                     id="log-negative-max"),
        pytest.param(("--min", "0.1", "--max", "1e400"), id="overflowing-max"),
        pytest.param(("--min=-inf", "--max", "1.0"), id="infinite-min"),
        pytest.param(("--min", "nan", "--max", "1.0"), id="nan-min"),
    ])
    def test_log_needs_positive_min(self, capsys, bounds):
        # Bounds are refused by the parser (exit 2, a usage message) before
        # numpy builds a grid from them.
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--regime", "dl", "--count", "4", *bounds])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_regime(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--z", "1.0"])
        assert exc.value.code == 2


class TestReturn:
    def test_by_initial_size(self, capsys):
        rc, out, _ = run_cli(capsys, "return", "--regime", "dl", "--z0", "1.25")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["z0", "rho", "s"]
        z0, rho, s = map(float, rows[0])
        p = solve_return_point(DIFFUSION_LIMITED, 1.25)
        assert (z0, rho, s) == (p.z0, p.z_return, p.s)

    def test_by_time_ratio(self, capsys):
        rc, out, _ = run_cli(
            capsys, "return", "--regime", "al", "--s", "2.0", "--s", "3.0"
        )
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert [float(r[2]) for r in rows] == pytest.approx([2.0, 3.0], rel=1e-10)

    def test_grid_over_s(self, capsys):
        rc, out, _ = run_cli(
            capsys, "return", "--regime", "dl", "--var", "s",
            "--min", "1.0", "--max", "4.0", "--count", "4",
        )
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert [float(r[2]) for r in rows] == pytest.approx(
            [1.0, 2.0, 3.0, 4.0], rel=1e-10
        )

    def test_both_variables_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["return", "--regime", "dl", "--z0", "1.2", "--s", "2.0"])
        assert exc.value.code == 2

    def test_json_records_variable(self, capsys):
        rc, out, _ = run_cli(
            capsys, "return", "--regime", "dl", "--s", "2.0", "--format", "json"
        )
        assert rc == 0
        assert json.loads(out)["variable"] == "s"

    def test_json_spells_infinite_ratio(self, capsys):
        # z0 = 1.4995 never returns (s = inf); JSON (RFC 8259) has no
        # Infinity, so the field is the string the CSV prints.
        rc, out, _ = run_cli(
            capsys, "return", "--regime", "dl", "--z0", "1.4995", "--format", "json"
        )
        assert rc == 0

        def refuse(name):
            raise AssertionError(f"non-JSON constant {name} in the output")

        row, = json.loads(out, parse_constant=refuse)["rows"]
        assert row == {"z0": 1.4995, "s": "inf", "rho": 0.0}


class TestPhi:
    def test_explicit_values(self, capsys):
        rc, out, _ = run_cli(
            capsys, "phi", "--regime", "dl", "--s", "1.5", "--s", "2.0"
        )
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["s", "phi"]
        assert float(rows[0][1]) == new_volume_fraction(DIFFUSION_LIMITED, 1.5)
        assert float(rows[1][1]) == new_volume_fraction(DIFFUSION_LIMITED, 2.0)

    def test_default_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "phi", "--regime", "al")
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 200
        assert float(rows[0][0]) == 1.0 and float(rows[0][1]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(1e3)

    def test_json_summary(self, capsys):
        rc, out, _ = run_cli(
            capsys, "phi", "--regime", "dl", "--s", "2.0", "--format", "json"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["summary"]["initial_rate"] == initial_growth_rate(
            DIFFUSION_LIMITED
        )


class TestDist:
    def test_default_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "dist", "--regime", "dl")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["z", "h", "cdf"]
        assert len(rows) == 257
        assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0
        assert float(rows[-1][2]) == 1.0

    def test_values(self, capsys):
        rc, out, _ = run_cli(capsys, "dist", "--regime", "al", "--z", "1.0")
        assert rc == 0
        _, _, rows = parse_csv(out)
        from ripening.regime import ATTACHMENT_LIMITED

        assert float(rows[0][1]) == density(ATTACHMENT_LIMITED, 1.0)

    def test_json_moments(self, capsys):
        rc, out, _ = run_cli(
            capsys, "dist", "--regime", "dl", "--z", "1.0", "--format", "json"
        )
        assert rc == 0
        moments = json.loads(out)["summary"]["moments"]
        d = size_distribution(DIFFUSION_LIMITED)
        assert set(moments) == {"0", "1", "2", "3"}
        assert moments["3"] == d.moment(3)


class TestErrorPaths:
    def test_domain_error_exit_code(self, capsys):
        rc, out, err = run_cli(capsys, "tau", "--regime", "dl", "--z", "2.5")
        assert rc == 2
        assert out == ""
        assert "error" in err

    def test_io_error_exit_code(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "tau", "--regime", "dl", "--z", "1.0",
            "--out", tmp_path / "missing_dir" / "x.csv",
        )
        assert rc == 2
        assert "i/o error" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


TABLE_CASES = {
    # command: (argv of a good grid, argv of a value outside the domain)
    "tau": (["--regime", "dl", "--z", "0.5", "--z", "1.0"],
            ["--regime", "dl", "--z", "2.5"]),
    "return": (["--regime", "al", "--s", "2", "--s", "3"],
               ["--regime", "al", "--z0", "0.5"]),
    "phi": (["--regime", "dl", "--s", "1.5", "--s", "2"],
            ["--regime", "dl", "--s", "0.5"]),
    "dist": (["--regime", "al", "--z", "0.5", "--z", "1.0"],
             ["--regime", "al", "--z", "-1"]),
}


@pytest.mark.parametrize("command", sorted(TABLE_CASES))
def test_table_commands_agree(capsys, tmp_path, command):
    good, bad = TABLE_CASES[command]
    rc, text, _ = run_cli(capsys, command, *good)
    assert rc == 0
    _, columns, csv_rows = parse_csv(text)
    rc, text, _ = run_cli(capsys, command, *good, "--format", "json")
    assert rc == 0
    payload = json.loads(text)
    keys = {"command", "invocation", "version", "seed", "regime", "rows"}
    keys |= {"return": {"variable"}, "phi": {"summary"},
             "dist": {"summary"}}.get(command, set())
    assert set(payload) == keys
    assert payload["command"] == command
    assert [[row[c] for c in columns] for row in payload["rows"]] == [
        [float(v) for v in row] for row in csv_rows
    ]
    path = tmp_path / "out.csv"
    rc, _, err = run_cli(capsys, command, *bad, "--out", path)
    assert rc == 2 and "error" in err
    assert not path.exists()


# The per-row build the column functions replaced: one scalar call per
# grid value, rows formatted by "%.17g".
PER_ROW = {
    "tau": lambda r, x: (x, flow_time(r, x), return_invariant(r, x),
                         growth_rate_scaled(r, x)),
    "return": lambda r, x: astuple(solve_return_point(r, x)),
    "phi": lambda r, x: (x, new_volume_fraction(r, x)),
    "dist": lambda r, x: (x, density(r, x),
                          float(size_distribution(r).cdf(x))),
}
GRIDS = {
    "tau": ["--min", "0.1", "--max", "1.4", "--count", "50"],
    "return": ["--min", "1.0", "--max", "1.45", "--count", "20"],
    "phi": ["--min", "1", "--max", "100", "--count", "50", "--log"],
    "dist": [],  # the default grid, 0 to z_max
}


@pytest.mark.parametrize("regime", ["dl", "al"])
@pytest.mark.parametrize("command", sorted(PER_ROW))
def test_columns_match_per_row_build(capsys, command, regime):
    argv = [command, "--regime", regime, *GRIDS[command]]
    rc, text, _ = run_cli(capsys, *argv)
    assert rc == 0
    comment, header, _ = text.split("\n", 2)
    grid = [float(row[0]) for row in parse_csv(text)[2]]
    reg = get_regime(regime)
    rows = [PER_ROW[command](reg, x) for x in grid]
    assert text == "\n".join([comment, header, ""]) + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)
    rc, text, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    columns = header.split(",")
    assert json.loads(text)["rows"] == [dict(zip(columns, r)) for r in rows]


@pytest.mark.parametrize("argv", [
    ["phi", "--regime", "dl", "--s", "1.5", "--s", "0.5", "--s", "2"],
    ["dist", "--regime", "al", "--z", "0.5", "--z", "-1", "--z", "1.0"],
    ["tau", "--regime", "dl", "--z", "0.5", "--z", "2.5", "--z", "1.0"],
    ["return", "--regime", "dl", "--z0", "1.2", "--z0", "0.5", "--z0", "1.3"],
], ids=["phi", "dist", "tau", "return"])
def test_failing_grid_point_leaves_no_file(capsys, tmp_path, argv):
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        rc, _, err = run_cli(capsys, *argv, "--format", fmt, "--out", path)
        assert rc == 2 and "error" in err
        assert not path.exists()


class TestCommentLine:
    def test_newline_in_out_path(self, tmp_path):
        path = tmp_path / "t\nq.csv"
        assert main(["tau", "--regime", "dl", "--z", "0.5",
                     "--out", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0].startswith("# ripening tau ")
        assert "\\nq.csv | version=" in lines[0]
        assert lines[1] == "z,tau,alpha,dz_dtau"
        assert sum(line.startswith("#") for line in lines) == 1

    def test_newline_in_out_dir(self, tmp_path):
        out_dir = tmp_path / "run\r\nx"
        assert main(["simulate", "--regime", "dl", "--n", "200", "--t0", "225",
                     "--snapshot", "300", "--out-dir", str(out_dir)]) == 0
        for name in ("snapshot_00.csv", "snapshot_01.csv", "series.csv"):
            lines = (out_dir / name).read_bytes().split(b"\n")
            assert lines[0].endswith(b"run\\r\\nx | version=%s | seed=1"
                                     % __version__.encode())
            assert b"\r" not in lines[0]
            assert not lines[1].startswith(b"#")

    def test_backslash_is_escaped_and_plain_argv_kept(self):
        assert _comment("ripening tau --out a\\nb", None) == (
            f"ripening tau --out a\\\\nb | version={__version__} | seed=-")
        plain = "ripening phi --regime dl --out /data/phi.csv"
        assert _comment(plain, 3) == f"{plain} | version={__version__} | seed=3"


class TestDeterminism:
    def test_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["phi", "--regime", "dl", "--min", "1", "--max", "10",
                "--count", "25", "--log", "--out"]
        assert main([*argv, str(a)]) == 0
        assert main([*argv, str(b)]) == 0
        # the recorded invocation differs (different --out), the data must not
        assert a.read_bytes().split(b"\n", 1)[1] == b.read_bytes().split(b"\n", 1)[1]


class TestOneParserPerProcess:
    """The parser is built once per process; repeated calls of main must
    not see what an earlier call parsed."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_flags_do_not_accumulate(self, capsys):
        argv = ["tau", "--regime", "dl", "--z", "0.5", "--z", "1.0"]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert len(parse_csv(first[1])[2]) == 2
        # a later call without the flag gets the default grid, not the
        # earlier values
        rc, out, _ = run_cli(capsys, "phi", "--regime", "al")
        assert rc == 0 and len(parse_csv(out)[2]) == 200

    def test_repeated_snapshots_do_not_accumulate(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        argv = ["simulate", "--regime", "dl", "--n", "200", "--t0", "225",
                "--snapshot", "300", "--snapshot", "337.5",
                "--out-dir", str(out_dir)]
        files = []
        for _ in range(2):
            assert main(argv) == 0
            files.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert files[0] == files[1]
        assert sorted(files[0]) == ["report.json", "series.csv",
                                    "snapshot_00.csv", "snapshot_01.csv",
                                    "snapshot_02.csv"]


class TestSimulate:
    def test_small_run(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, _ = run_cli(
            capsys, "simulate", "--regime", "dl", "--n", "300",
            "--t0", "225", "--snapshot", "337.5", "--seed", "3",
            "--out-dir", out_dir,
        )
        assert rc == 0
        for name in ("snapshot_00.csv", "snapshot_01.csv", "series.csv",
                     "report.json"):
            assert (out_dir / name).exists()

        report = json.loads((out_dir / "report.json").read_text())
        assert report["command"] == "simulate"
        assert report["n"] == 300 and report["seed"] == 3
        assert report["rc_power_slope_expected"] == pytest.approx(4.0 / 9.0)
        (entry,) = report["snapshots"]
        assert entry["file"] == "snapshot_01.csv"
        assert entry["s"] == pytest.approx(1.5)
        assert entry["phi_analytic"] == new_volume_fraction(
            DIFFUSION_LIMITED, entry["s"]
        )
        assert 0.0 < entry["phi_empirical"] < 1.0

        base_lines = (out_dir / "snapshot_00.csv").read_text().splitlines()
        assert base_lines[1] == "id,radius"
        assert len(base_lines) == 2 + 300

    @pytest.mark.parametrize("regime", ("dl", "al"))
    def test_report_entries_are_the_comparisons(self, capsys, tmp_path, regime):
        # Each snapshot entry is its file name and the fields of the same
        # run's comparison, by the same names and with the same values.
        rc, _, _ = run_cli(
            capsys, "simulate", "--regime", regime, "--n", "300",
            "--t0", "0.3", "--snapshot", "0.45", "--snapshot", "0.9",
            "--seed", "2", "--out-dir", tmp_path,
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        res = simulate_late_stage(get_regime(regime), 300, 0.3, 0.9,
                                  [0.45, 0.9], seed=2)
        assert report["snapshots"] == [
            {"file": f"snapshot_{i:02d}.csv", **asdict(c)}
            for i, c in enumerate(res.comparisons, start=1)]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        argv = ["simulate", "--regime", "al", "--n", "200", "--t0", "200",
                "--snapshot", "300", "--seed", "7", "--out-dir", str(out_dir)]
        assert main(argv) == 0
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("snapshot_00.csv", "snapshot_01.csv", "series.csv",
                         "report.json")
        }
        assert main(argv) == 0
        for name, blob in first.items():
            assert (out_dir / name).read_bytes() == blob

    @pytest.mark.parametrize("regime", ["dl", "al"])
    def test_work_counts(self, capsys, tmp_path, regime):
        out_dir = tmp_path / "run"
        t0 = 225 if regime == "dl" else 200
        rc, _, _ = run_cli(
            capsys, "simulate", "--regime", regime, "--n", "1000",
            "--t0", t0, "--seed", "1", "--out-dir", out_dir,
        )
        assert rc == 0
        work = json.loads((out_dir / "report.json").read_text())["work"]
        assert sorted(work) == ["dissolved", "flowed", "resorts", "substeps"]
        n = np.loadtxt(out_dir / "series.csv", delimiter=",", skiprows=2,
                       usecols=(1,), dtype=np.int64)
        assert work["substeps"] == n.size - 1
        # every particle that leaves dissolves inside a substep
        assert work["dissolved"] == 1000 - n[-1] > 0
        # the prefix below R_c/2 is moved by the flow on every substep
        assert work["substeps"] <= work["flowed"] <= n[:-1].sum()
        # Only the flowed prefix and the seam can invert (see the ensemble
        # module docstring), and only volumes within the flow's rounding of
        # each other: drawn volumes are far apart, in either regime.
        assert work["resorts"] == 0

    @pytest.mark.parametrize("times, message", [
        pytest.param(("--snapshot", "inf"),
                     "snapshot times must be finite, got inf",
                     id="inf-snapshot"),
        pytest.param(("--snapshot", "300", "--t-end", "inf"),
                     "t_end must be finite, got inf", id="inf-t-end"),
        pytest.param(("--snapshot", "nan"),
                     "snapshot times must be finite, got nan",
                     id="nan-snapshot"),
        pytest.param(("--snapshot", "300", "--snapshot", "nan"),
                     "snapshot times must be finite, got nan",
                     id="nan-second-snapshot"),
    ])
    def test_non_finite_times(self, capsys, tmp_path, monkeypatch, times,
                              message):
        # Refused before any particle is drawn, and no run directory made.
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr("ripening.ensemble.init_ensemble", no_draw)
        out_dir = tmp_path / "run"
        rc, _, err = run_cli(
            capsys, "simulate", "--regime", "dl", "--n", "200",
            "--t0", "225", *times, "--out-dir", out_dir,
        )
        assert rc == 2
        assert message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("regime", ["dl", "al"])
    @pytest.mark.parametrize("t0", ["1e-300", "1e300"])
    def test_t0_out_of_range(self, capsys, tmp_path, regime, t0):
        # Outside [1e-150, 1e150] the run's products of times and radii
        # leave the normal floats (a ZeroDivisionError, a singular slope
        # fit or a collapsed ensemble at the parent): one error line, exit
        # 2, nothing written.
        out_dir = tmp_path / "run"
        rc, out, err = run_cli(capsys, "simulate", "--regime", regime,
                               "--t0", t0, "--out-dir", out_dir)
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [
            f"ripening: error: t0 must lie in [1e-150, 1e+150], got {float(t0)!r}"
        ]
        assert not out_dir.exists()

    def test_negative_seed(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, err = run_cli(
            capsys, "simulate", "--regime", "dl", "--n", "100",
            "--seed", "-1", "--out-dir", out_dir,
        )
        assert rc == 2
        assert "seed must be >= 0, got -1" in err
        assert not out_dir.exists()

    def test_bad_snapshot_time(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "simulate", "--regime", "dl", "--n", "100",
            "--t0", "225", "--t-end", "300", "--snapshot", "500",
            "--out-dir", tmp_path / "x",
        )
        assert rc == 2
        assert "error" in err


def test_module_entry_point(tmp_path):
    # Run from tmp_path, so a relative PYTHONPATH (such as "src") would no
    # longer resolve; put the imported package's parent in front, absolute.
    import_root = str(Path(ripening.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [import_root] + ([pythonpath] if pythonpath else [])
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "ripening.cli", "tau", "--regime", "dl",
         "--z", "1.0"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "z,tau,alpha,dz_dtau"
