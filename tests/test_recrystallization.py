"""Tests for the new-volume fraction curve.

Reference values come from a 40-digit evaluation of the window integral
(1/m3) * int_{rho}^{z0} h x^3 dx; the volume-weighted cumulative used as an
in-test cross-check is built by trapezoid quadrature directly from the
density, independent of the Gauss-Legendre table in the library.
"""

import gc
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ripening.return_map as return_map
from ripening.distribution import density, size_distribution
from ripening.errors import DomainError
from ripening.recrystallization import (
    fraction_from_start_size,
    initial_growth_rate,
    new_volume_fraction,
)
from ripening.regime import ATTACHMENT_LIMITED, DIFFUSION_LIMITED
from ripening.return_map import (
    initial_size_for_ratio,
    return_point_for_ratio,
    return_size,
)

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)

# Pinned at 40-digit precision.
PHI_DL = {1.5: 0.20344622143362935, 2.0: 0.33812665008669509, 3.0: 0.50464073647515974}
PHI_AL = {1.5: 0.24813134913346398, 2.0: 0.40857541697205284, 3.0: 0.59805368439157347}
RATE_DL = 0.50945222687401116
RATE_AL = 0.62450040571117575


def _volume_cdf(regime):
    # Independent cumulative of h(x) x^3 / m3 on a fine trapezoid grid.
    zs = np.linspace(0.0, regime.z_max, 60001)
    w = density(regime, zs) * zs**3
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(zs))))
    return zs, cum / cum[-1]


def _mp_oracle(mp, regime):
    """The density of test_distribution's mpmath oracle, the closed-form
    alpha = ln z + tau(z), and m3, all in mpmath."""
    zm = mp.mpf(regime.z_max)
    if regime.kind == "dl":
        h = lambda z: (81 * mp.e * mp.power(2, mp.mpf(-5) / 3) * z**2
                       * mp.power(z + 3, mp.mpf(-7) / 3)
                       * mp.power(zm - z, mp.mpf(-11) / 3)
                       * mp.exp(-3 / (3 - 2 * z)))
        alpha = lambda z: (mp.log(z) + 1 / (2 * z - 3)
                           - mp.mpf(5) / 9 * mp.log(3 - 2 * z)
                           - mp.mpf(4) / 9 * mp.log(z + 3))
    else:
        h = lambda z: 24 * z * mp.power(2 - z, -5) * mp.exp(-3 * z / (2 - z))
        alpha = lambda z: mp.log(z) + 2 / (z - 2) - mp.log(2 - z)
    return h, alpha, mp.quad(lambda z: h(z) * z**3, [0, 1, zm])


class TestPinnedValues:
    @pytest.mark.parametrize("s,want", sorted(PHI_DL.items()))
    def test_dl(self, s, want):
        assert new_volume_fraction(DIFFUSION_LIMITED, s) == pytest.approx(
            want, abs=1e-9
        )

    @pytest.mark.parametrize("s,want", sorted(PHI_AL.items()))
    def test_al(self, s, want):
        assert new_volume_fraction(ATTACHMENT_LIMITED, s) == pytest.approx(
            want, abs=1e-9
        )

    def test_initial_rates(self):
        assert initial_growth_rate(DIFFUSION_LIMITED) == pytest.approx(
            RATE_DL, abs=1e-9
        )
        assert initial_growth_rate(ATTACHMENT_LIMITED) == pytest.approx(
            RATE_AL, abs=1e-9
        )


class TestPinnedToRounding:
    # One matching equation, bisected to adjacent floats: phi meets the
    # 40-digit references to rounding.
    @pytest.mark.parametrize(
        "regime,pinned", ((DIFFUSION_LIMITED, PHI_DL), (ATTACHMENT_LIMITED, PHI_AL))
    )
    def test_forty_digit_values(self, regime, pinned):
        # Each reference computed here at 40 digits: z0 bisected on
        # alpha(z0) = alpha(z0 s**(-1/gamma)), which is positive at z0 = 1
        # and falls to -inf at the cutoff, then the window integrated.  The
        # pinned literals are those references, rounded.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            h, alpha, m3 = _mp_oracle(mp, regime)
            for s, pinned_value in pinned.items():
                shrink = mp.power(s, mp.mpf(-1) / regime.coarsening_exponent)
                lo, hi = mp.mpf(1), mp.mpf(regime.z_max) - mp.mpf(10) ** -30
                for _ in range(140):
                    mid = (lo + hi) / 2
                    if alpha(mid) > alpha(mid * shrink):
                        lo = mid
                    else:
                        hi = mid
                want = mp.quad(lambda x: h(x) * x**3, [lo * shrink, lo]) / m3
                assert abs(mp.mpf(pinned_value) - want) <= 1e-16, s
                got = new_volume_fraction(regime, s)
                assert abs(mp.mpf(got) - want) <= 1e-13, s


def _dispatch(ufunc):
    """The SIMD target numpy runs ``ufunc`` on for float64, as its
    dispatch report names it ("X86_V4", "baseline(X86_V2)", ...)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        pytest.fail(f"numpy {np.__version__} has no dispatch report")
    (kernels,) = opt_func_info(func_name=f"^{ufunc}$",
                               signature="float64")[ufunc].values()
    return kernels["current"]


# The dl analytic grid's bits, differing in points 1 and 29, under numpy's
# baseline kernels: log and exp on X86_V3, log1p, expm1, cbrt and power on
# baseline(X86_V2), as NPY_DISABLE_CPU_FEATURES="AVX512F ... X86_V4" leaves
# them on an AVX-512 host.
_DL_ANALYTIC_BASELINE = (
    "0x0.0p+0", "0x1.21b4dc2e8c600p-6", "0x1.e0de2c67eb9f4p-2",
    "0x1.8ae2e0849618ep-1", "0x1.de9b0a118394bp-1", "0x1.f709daedb9373p-1",
    "0x1.fda80a1594b79p-1", "0x1.fecedbcce7249p-1")


class TestPinnedBits:
    # The exact bits of phi at 8 points of each perfbench grid, scalar calls:
    # a change that moves any of them is a change of value, not of speed.
    # numpy's SIMD kernels round a few last bits differently, so the bits
    # are pinned per kernel set, named by the targets of log and log1p.
    GRIDS = {
        "analytic": (np.geomspace(1.0, 1e3, 200), (0, 1, 29, 59, 99, 139, 179, 199)),
        "tail": (np.geomspace(1e3, 1e300, 200), (0, 1, 2, 3, 4, 5, 99, 199)),
    }
    BITS = {
        ("dl", "analytic"): (
            "0x0.0p+0", "0x1.21b4dc2e8c601p-6", "0x1.e0de2c67eb9f5p-2",
            "0x1.8ae2e0849618ep-1", "0x1.de9b0a118394bp-1", "0x1.f709daedb9373p-1",
            "0x1.fda80a1594b79p-1", "0x1.fecedbcce7249p-1"),
        ("dl", "tail"): (
            "0x1.fecedbcce7249p-1", "0x1.fff58fde82c61p-1", "0x1.ffffa6da3b129p-1",
            "0x1.fffffd0fb92fap-1", "0x1.ffffffe75ee83p-1", "0x1.ffffffff32731p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("al", "analytic"): (
            "0x0.0p+0", "0x1.631de197c5d29p-6", "0x1.1e58c4ca99f51p-1",
            "0x1.b99a5de9ded11p-1", "0x1.f47d8e9327b31p-1", "0x1.fe56d520e4714p-1",
            "0x1.ffc5d626b91f8p-1", "0x1.ffeab985c5f81p-1"),
        ("al", "tail"): (
            "0x1.ffeab985c5f81p-1", "0x1.ffffdc9307df8p-1", "0x1.ffffffc7d5ff7p-1",
            "0x1.ffffffffa9046p-1", "0x1.ffffffffff7b1p-1", "0x1.ffffffffffff6p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    }
    BITS_BY_KERNELS = {
        ("X86_V4", "X86_V4"): BITS,
        ("X86_V3", "baseline(X86_V2)"): {
            **BITS, ("dl", "analytic"): _DL_ANALYTIC_BASELINE},
    }

    @pytest.mark.parametrize("regime", BOTH)
    @pytest.mark.parametrize("grid", ("analytic", "tail"))
    def test_perfbench_grid_bits(self, regime, grid):
        kernels = _dispatch("log"), _dispatch("log1p")
        if kernels not in self.BITS_BY_KERNELS:
            pytest.fail(f"no bits pinned for log and log1p on {kernels}")
        values, picks = self.GRIDS[grid]
        got = tuple(new_volume_fraction(regime, float(values[i])).hex()
                    for i in picks)
        assert got == self.BITS_BY_KERNELS[kernels][regime.kind, grid]


class TestAgainstOracle:
    # perfbench/oracle.json: phi at 30 digits on both perfbench grids, from
    # mpmath with a different root equation and no ripening import.
    # Measured: at most 4.0e-15 (dl) and 2.6e-15 (al) relative on
    # "analytic", 1.3e-15 and 3.3e-16 absolute on "tail", on both kernel
    # sets of TestPinnedBits.
    ORACLE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "oracle.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("regime", BOTH)
    @pytest.mark.parametrize("grid, rel, abs_", [
        pytest.param("analytic", 8e-15, 0.0, id="analytic"),
        pytest.param("tail", 0.0, 3e-15, id="tail"),
    ])
    def test_phi_on_perfbench_grid(self, regime, grid, rel, abs_):
        table = self.ORACLE["grids"][grid][regime.kind]
        want = np.array([float(p) for p in table["phi"]])
        got = new_volume_fraction(regime, np.array(table["s"]))
        assert got.shape == want.shape == (200,)
        assert np.all(np.abs(got - want) <= rel * want + abs_)


class TestShape:
    @pytest.mark.parametrize("regime", BOTH)
    def test_zero_at_unit_ratio(self, regime):
        assert new_volume_fraction(regime, 1.0) == 0.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_strictly_increasing(self, regime):
        ss = np.geomspace(1.0, 500.0, 60)
        fs = [new_volume_fraction(regime, s) for s in ss]
        assert all(b > a for a, b in zip(fs, fs[1:]))
        assert all(0.0 <= f < 1.0 for f in fs)

    @pytest.mark.parametrize("regime", BOTH)
    def test_saturates(self, regime):
        assert new_volume_fraction(regime, 1e6) > 0.99

    @pytest.mark.parametrize("regime", BOTH)
    def test_initial_slope_finite_difference(self, regime):
        # eps well above the double-precision floor of the matching peak
        # (z0 - 1 below ~1e-8 is unresolvable in alpha), small enough that
        # the curve is still linear to a few permille.
        eps = 1e-4
        fd = new_volume_fraction(regime, 1.0 + eps) / eps
        assert fd == pytest.approx(initial_growth_rate(regime), rel=2e-3)

    @pytest.mark.parametrize("regime", BOTH)
    def test_window_against_trapezoid_cdf(self, regime):
        zs, vcdf = _volume_cdf(regime)
        for s in (1.3, 2.0, 4.0):
            z0 = initial_size_for_ratio(regime, s)
            rho = return_size(regime, z0)
            want = np.interp(z0, zs, vcdf) - np.interp(rho, zs, vcdf)
            assert new_volume_fraction(regime, s) == pytest.approx(want, abs=5e-7)


class TestNearUnitRatio:
    # rho = z0 s**(-1/gamma) carries the exact ln(s) into the window, so the
    # curve keeps relative precision where z0 - 1 is below the root
    # tolerance of the s -> z0 solve.
    @pytest.mark.parametrize("regime", BOTH)
    def test_nondecreasing(self, regime):
        # From windows inside one table panel, integrated directly, across
        # the switch to the difference of two table reads (near s - 1 =
        # 1.5e-3 in both regimes).
        ss = 1.0 + np.geomspace(1e-15, 1e-2, 600)
        fs = [new_volume_fraction(regime, s) for s in ss]
        assert all(b >= a for a, b in zip(fs, fs[1:]))
        dist = size_distribution(regime)
        inside = []
        for s in (ss[0], ss[-1]):
            z0 = initial_size_for_ratio(regime, s)
            width = -z0 * math.expm1(-math.log(s) / regime.coarsening_exponent)
            inside.append(not math.isnan(dist.panel_moment(3, z0, width)))
        assert inside == [True, False]

    @pytest.mark.parametrize("regime", BOTH)
    def test_initial_rate_next_to_one(self, regime):
        # The window z0 - rho is taken to relative precision, so phi keeps
        # its digits where the two table values it used to subtract agree
        # to all but a few.
        rate = initial_growth_rate(regime)
        for e in np.geomspace(1e-15, 1e-10, 11):
            s = 1.0 + e
            ratio = new_volume_fraction(regime, s) / (rate * (s - 1.0))
            assert abs(ratio - 1.0) <= 1e-6, (e, ratio)

    @pytest.mark.parametrize("regime", BOTH)
    def test_initial_rate(self, regime):
        rate = initial_growth_rate(regime)
        for eps in np.geomspace(1e-10, 1e-6, 9):
            ratio = new_volume_fraction(regime, 1.0 + eps) / (rate * eps)
            assert abs(ratio - 1.0) <= 1e-5, (eps, ratio)

    @pytest.mark.parametrize("regime", BOTH)
    def test_pair_keeps_requested_ratio(self, regime):
        for s in (1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.25, 2.0, 1e3, 1e300):
            p = return_point_for_ratio(regime, s)
            assert p.s == s
            assert p.z_return <= 1.0 <= p.z0


class TestWindowForms:
    @pytest.mark.parametrize("regime", BOTH)
    def test_direct_and_complement_agree(self, regime):
        for z0 in (1.1, 1.3, regime.z_max - 0.05):
            direct = fraction_from_start_size(regime, z0, complement=False)
            comp = fraction_from_start_size(regime, z0, complement=True)
            assert direct == pytest.approx(comp, abs=1e-8)

    @pytest.mark.parametrize("regime", BOTH)
    def test_complement_used_at_cutoff(self, regime):
        # At the edge of the admissible window the whole volume has turned
        # over; the complement form must not lose that to cancellation.
        f = fraction_from_start_size(regime, regime.z_max - 1e-6, complement=True)
        assert f > 0.99
        auto = fraction_from_start_size(regime, regime.z_max - 1e-9)
        assert auto > 0.99

    NEAR_ONE = (1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.2)

    @pytest.mark.parametrize("regime", BOTH)
    def test_window_keeps_relative_precision(self, regime):
        # The window (z0 e^-a, z0) of the solved a = ln(z0/rho), integrated
        # at 40 digits: its width -z0 expm1(-a) keeps relative precision
        # next to z0 = 1, where the difference of two table reads erred by
        # up to 3.7e-5 relative.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            h, _, m3 = _mp_oracle(mp, regime)
            for z0 in self.NEAR_ONE:
                _, a = return_map._log_ratio(regime, z0)
                z = mp.mpf(z0)
                want = mp.quad(lambda x: h(x) * x**3,
                               [z * mp.exp(-mp.mpf(float(a))), z]) / m3
                for complement in (False, True):
                    got = fraction_from_start_size(regime, z0, complement)
                    assert abs(mp.mpf(got) - want) <= 1e-12 * want, (z0, complement)

    @pytest.mark.parametrize("regime", BOTH)
    def test_against_matching_condition(self, regime):
        # Against the true return pair, alpha(rho) = alpha(z0) at 40 digits.
        # Near z0 = 1 the matching equation Phi(z0, a) is a difference of
        # two O(z0 - 1) terms with slope about nu (z0 - 1) in a, so rounding
        # alone moves the solved a by about 2**-52 / (z0 - 1) relative
        # (5e-6 to 8e-6 at z0 = 1 + 1e-12); from z0 = 1.01 on, 1e-12.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            h, alpha, m3 = _mp_oracle(mp, regime)
            for z0 in self.NEAR_ONE:
                z = mp.mpf(z0)
                target = alpha(z)
                # alpha rises on (0, 1], and 1 - 2 (z0 - 1) lies below rho.
                lo, hi = 1 - 2 * (z - 1), mp.mpf(1)
                assert alpha(lo) < target
                for _ in range(160):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if alpha(mid) < target else (lo, mid)
                want = mp.quad(lambda x: h(x) * x**3, [lo, z]) / m3
                bound = 1e-12 + 2.0**-52 / (z0 - 1.0)
                for complement in (False, True):
                    got = fraction_from_start_size(regime, z0, complement)
                    assert abs(mp.mpf(got) - want) <= bound * want, (z0, complement)

    def test_start_size_domain(self):
        with pytest.raises(DomainError):
            fraction_from_start_size(DIFFUSION_LIMITED, 0.9)
        with pytest.raises(DomainError):
            fraction_from_start_size(DIFFUSION_LIMITED, 1.5)

    def test_ratio_domain(self):
        with pytest.raises(DomainError):
            new_volume_fraction(DIFFUSION_LIMITED, 0.9)
        with pytest.raises(DomainError):
            new_volume_fraction(DIFFUSION_LIMITED, math.inf)


class TestCurve:
    @pytest.mark.parametrize("regime", BOTH)
    def test_one_solve_per_grid(self, regime, monkeypatch):
        # The whole grid is one array solve, with the scalar values.
        solve, brackets = return_map.find_root, []

        def counting(f, lo, *args, **kwargs):
            brackets.append(np.shape(lo))
            return solve(f, lo, *args, **kwargs)

        s = np.geomspace(1.0, 1e3, 200)
        monkeypatch.setattr(return_map, "find_root", counting)
        phi = new_volume_fraction(regime, s)
        monkeypatch.undo()
        assert brackets == [(200,)]
        assert phi.tolist() == [new_volume_fraction(regime, v) for v in s]
        assert phi[0] == 0.0
        assert np.all(np.diff(phi) > 0.0)

    def test_saturated_grid(self):
        # phi rounds to exactly 1.0 from s ~ 9e11 (al) and never exceeds it.
        phi = new_volume_fraction(ATTACHMENT_LIMITED, np.geomspace(1.0, 1e12, 200))
        assert 1.0 - 1e-12 < phi[-1] <= 1.0


class TestCrossRegime:
    def test_al_recrystallizes_faster_early(self):
        for s in (1.2, 1.5, 2.0, 3.0):
            assert new_volume_fraction(ATTACHMENT_LIMITED, s) > new_volume_fraction(
                DIFFUSION_LIMITED, s
            )

    def test_rate_ordering(self):
        assert initial_growth_rate(ATTACHMENT_LIMITED) > initial_growth_rate(
            DIFFUSION_LIMITED
        )


def test_scalar_calls_keep_no_memory():
    # 400 scalar phi calls, the perfbench analytic pass, after one warm-up
    # pass: whatever the calls allocate is freed when their results drop.
    grid = np.geomspace(1.0, 1e3, 200).tolist()

    def one_pass():
        for regime in BOTH:
            for s in grid:
                new_volume_fraction(regime, s)

    tracemalloc.start()
    try:
        one_pass()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        one_pass()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096
