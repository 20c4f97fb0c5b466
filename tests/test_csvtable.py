"""The vectorized CSV writer against the per-row ``%`` writer it replaced.

``%d`` and ``%.17g`` of each value are the reference: every case below
compares the writer's text with them byte for byte, over values chosen
where a digit-by-digit formatter goes wrong (exact decimal ties, powers of
ten, the ends of fixed notation, zero ids) and over whole simulation runs.
The hypothesis searches over all floats and int64 values are in
``test_properties.py``.
"""

import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from ripening import csvtable
from ripening.csvtable import BLOCK_ROWS, format_rows, write_table
from ripening.ensemble import (simulate_late_stage, write_series_csv,
                               write_snapshot_csv)
from ripening.regime import ATTACHMENT_LIMITED, DIFFUSION_LIMITED


ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_csv_rows", ROOT / "scripts" / "check_csv_rows.py")
CHECK = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(CHECK)


def _reference_write_table(stream, header, template, columns, comment=None):
    # The writer this module replaced: one %-template per row over Python
    # scalars, a block of rows at a time.
    columns = [np.asarray(c) for c in columns]
    if comment is not None:
        stream.write(f"# {comment}\n")
    stream.write(header + "\n")
    for start in range(0, columns[0].size, 256):
        block = [c[start:start + 256].tolist() for c in columns]
        stream.write("".join([template % row for row in zip(*block)]))


def _reference_rows(columns):
    template = ",".join(
        "%d" if np.asarray(c).dtype.kind in "iu" else "%.17g" for c in columns
    ) + "\n"
    out = io.StringIO()
    _reference_write_table(out, "h", template, columns)
    return out.getvalue()[2:]


def _check(*columns):
    assert format_rows(columns) == _reference_rows(columns)


def _odd(rng, lo, hi, n):
    """n odd integers in [lo, hi)."""
    return rng.integers(lo // 2, hi // 2, n) * 2 + 1


class TestFloats:
    def test_exact_decimal_ties(self):
        # x = m / 2**(k+1) with m odd has x 10**k = m 5**k / 2: exactly
        # half an integer, so %.17g rounds it half to even.  k = 1 holds
        # the m/4 with m in [2**52, 2**53).
        rng = np.random.default_rng(20)
        for k in range(1, 8):
            lo = 10 ** (16 - k) * 2 ** (k + 1)
            hi = min(10 ** (17 - k) * 2 ** (k + 1), 2**53)
            m = np.concatenate([_odd(rng, lo, hi, 20_000), [lo + 1, hi - 1]])
            x = m / 2.0 ** (k + 1)
            assert np.array_equal(x * 2.0 ** (k + 1), m)  # exact, as built
            _check(x)
            _check(-x)
        m = _odd(rng, 2**52, 2**53, 20_000)
        _check(m / 4.0)

    def test_powers_of_ten_and_their_neighbours(self):
        # floor(log10(x)) can be one off here, and fixed notation starts
        # at 1e-4 and ends below 1e17.
        powers = np.array([float(f"1e{e}") for e in range(-8, 22)])
        x = [powers]
        for steps in (1, 2, 3):
            x.append(powers)
            for _ in range(steps):
                x[-1] = np.nextafter(x[-1], 0.0)
            x.append(powers)
            for _ in range(steps):
                x[-1] = np.nextafter(x[-1], np.inf)
        x = np.concatenate(x)
        _check(x)
        _check(-x)
        _check(x * 9.999999999999999)  # next to the following power

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      2.2250738585072014e-308, 1.7976931348623157e308,
                      1e-4, 9.9999999999999991e-5, 99999999999999984.0, 1e17,
                      0.1, 0.5, 1.0, 1.5, 2.0 / 3.0])
        _check(x)
        _check(np.arange(x.size), x, -x)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)
        _check(x)
        _check(np.exp(rng.uniform(-12.0, 40.0, 50_000)))


class TestIntegers:
    def test_edge_ids(self):
        # The first vectorized draft printed id 0 as sixteen zeros.
        ids = np.array([0, 1, 9, 10, 99, 10**16 - 1, 10**16, 10**17 - 1,
                        10**17, 2**40, 2**62, 2**63 - 1, -1, -10**17 + 1,
                        -10**17, -2**63], dtype=np.int64)
        _check(ids)
        _check(ids, np.linspace(0.0, 1.0, ids.size), ids)

    def test_powers_of_ten(self):
        p = 10 ** np.arange(19, dtype=np.int64)
        _check(np.concatenate([p, p - 1, p + 1, -p, 1 - p]))

    def test_unsigned_that_int64_cannot_hold(self):
        with pytest.raises(TypeError):
            format_rows([np.array([2**63], dtype=np.uint64)])


class TestBlocks:
    def test_fallback_rows_keep_their_place(self):
        # Rows printed by the template sit between blocks of vectorized
        # rows, at the first and last row and in runs.
        x = np.linspace(0.5, 2.0, 3 * BLOCK_ROWS + 7)
        x[[0, 5, 6, 7, BLOCK_ROWS - 1, BLOCK_ROWS, x.size - 1]] = [
            1e-300, np.nan, 1e300, -np.inf, 5e-324, 1e20, 1e-5]
        ids = np.arange(x.size)
        out = io.StringIO()
        write_table(out, "id,x", (ids, x), comment="c")
        want = io.StringIO()
        _reference_write_table(want, "id,x", "%d,%.17g\n", (ids, x), "c")
        assert out.getvalue() == want.getvalue()

    def test_empty_table(self):
        out = io.StringIO()
        write_table(out, "id,radius", (np.array([], np.int64), np.array([])))
        assert out.getvalue() == "id,radius\n"


class TestNarrowLayout:
    """Each block's fields are as wide as its own values need: 7-row
    blocks, so the widths change from block to block and, with the rows
    shuffled, mix within one."""

    @staticmethod
    def _check_table(monkeypatch, *columns):
        monkeypatch.setattr(csvtable, "BLOCK_ROWS", 7)
        template = ",".join("%d" if np.asarray(c).dtype.kind in "iu"
                            else "%.17g" for c in columns) + "\n"
        out, want = io.StringIO(), io.StringIO()
        write_table(out, "h", columns, comment="c")
        _reference_write_table(want, "h", template, columns, "c")
        assert out.getvalue() == want.getvalue()

    @staticmethod
    def _orders(x):
        """x ascending (widths grow block by block), then shuffled."""
        x = np.asarray(x)
        return [np.sort(x), np.random.default_rng(22).permutation(x)]

    def test_integer_widths(self, monkeypatch):
        d = np.arange(1, 18)
        first, last = 10 ** (d - 1), 10**d - 1
        ids = np.concatenate([first, last, -first, -last, [0, 10**17 - 1]])
        for v in self._orders(ids):
            self._check_table(monkeypatch, v)
            self._check_table(monkeypatch, v, np.linspace(0.5, 2.0, v.size), v)

    def test_every_k(self, monkeypatch):
        # k = 16 - X runs 0 to 20 over the decimal exponents X of fixed
        # notation; next to each power of ten floor(log10) may be one off
        # and the significand moves k.
        powers = np.array([float(f"1e{e}") for e in range(-4, 17)])
        near = [powers, powers * 9.999999999999999, powers * 1.2345678901234567]
        for steps in (1, 2):
            for toward in (0.0, np.inf):
                x = powers
                for _ in range(steps):
                    x = np.nextafter(x, toward)
                near.append(x)
        x = np.concatenate(near)
        x = x[(x >= 1e-4) & (x < 1e17)]
        for v in self._orders(np.concatenate([x, -x, [0.0, -0.0]])):
            self._check_table(monkeypatch, v)
            self._check_table(monkeypatch, np.arange(v.size), v)

    def test_integer_parts(self, monkeypatch):
        # 1 to 17 digits before the point, with and without decimals.
        d = np.arange(17)
        x = np.concatenate([10.0**d, 10.0**d + 0.5, 10.0**d * 1.75,
                            10.0 ** (d + 1) - 1.0, [0.0, -0.0, 0.1]])
        for v in self._orders(np.concatenate([x, -x])):
            self._check_table(monkeypatch, v, -v)

    def test_fallback_rows_interleaved(self, monkeypatch):
        special = [5e-324, -2.5e-320, 2.2250738585072014e-308, np.inf,
                   -np.inf, np.nan, 1e17, 1.0000000000000002e17, -3e20,
                   1.7976931348623157e308, 9.9999999999999991e-5, -1e-5,
                   1e-300]
        x = np.concatenate([special, np.linspace(-3.0, 1234.5, 40),
                            [0.0, -0.0, 1e-4, 99999999999999984.0]])
        for v in self._orders(x):
            self._check_table(monkeypatch, np.arange(v.size) - 20, v)
            self._check_table(monkeypatch, v, np.arange(v.size) * 10**15, v)


@pytest.mark.parametrize("regime, n, t0", [
    (DIFFUSION_LIMITED, 20_000, 225.0),  # the default runs
    (ATTACHMENT_LIMITED, 20_000, 200.0),
    (DIFFUSION_LIMITED, 500, 1e-12),  # radii on both sides of 1e-4
], ids=["dl-default", "al-default", "dl-tiny"])
def test_runs_match_per_row_writer(tmp_path, regime, n, t0):
    result = simulate_late_stage(regime, n, t0, 3 * t0,
                                 [1.5 * t0, 2 * t0, 3 * t0], seed=1)
    snapshots = [result.base, *result.snapshots]
    series = result.series
    tables = [(write_snapshot_csv, s, "id,radius", "%d,%.17g\n",
               (s.ids, s.radii)) for s in snapshots]
    tables.append((write_series_csv, series,
                   "t,n,rc_estimate,total_r3", "%.17g,%d,%.17g,%.17g\n",
                   (series.t, series.n, series.rc_estimate, series.total_r3)))
    path = tmp_path / "table.csv"
    for writer, table, header, template, columns in tables:
        writer(table, path, "c")
        want = io.StringIO()
        _reference_write_table(want, header, template, columns, "c")
        assert path.read_bytes() == want.getvalue().encode()
    if t0 < 1e-6:  # both paths were taken
        radii = np.concatenate([s.radii for s in snapshots])
        assert (radii < 1e-4).any() and (radii >= 1e-4).any()


class TestCheckScript:
    def test_accepts_written_tables(self):
        out = io.StringIO()
        x = np.array([0.0, -0.0, 1e-300, 0.1, np.nan, -np.inf, 2.0 / 3.0])
        write_table(out, "id,x", (np.arange(x.size) - 3, x), comment="c")
        assert CHECK.problems(out.getvalue()) == []

    def test_refuses(self):
        assert CHECK.problems("# c\nid,x\n1,1.50\n007,2\n1,2,3\n") == [
            "line 3: field '1.50' is not %d or %.17g",
            "line 4: field '007' is not %d or %.17g",
            "line 5: 3 fields, header has 2",
        ]
        # a newline in the comment splits it: a second line before the header
        assert CHECK.problems("# tau --out /t\nq.csv | seed=-\nz,tau\n"
                              "0.5,1\n")[:3] == [
            "line 3: 2 fields, header has 1",
            "line 3: field 'z' is not %d or %.17g",
            "line 3: field 'tau' is not %d or %.17g",
        ]
        assert CHECK.problems("# c\n# d\nz\n1\n") == [
            "want one '# ' comment line, then the header line"]
        assert CHECK.problems("# c\nz\n1") == ["the last line has no newline"]
