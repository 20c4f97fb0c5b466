"""Tests for the return map.

The matching identity is checked against flow-time formulas re-typed inline
here (not imported), so a transcription slip in the library would not cancel
out of these tests.
"""

import math

import numpy as np
import pytest

from ripening.errors import DomainError
from ripening.numerics import solve_ode
from ripening.regime import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    coarsening_slope,
    critical_radius,
    growth_rate_physical,
)
from ripening.return_map import (
    NEAR_CUTOFF,
    ReturnPoint,
    initial_size_for_ratio,
    return_point_for_ratio,
    return_radius,
    return_radius_rate,
    return_size,
    return_time_ratio,
    solve_return_point,
)

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)


def _tau_oracle(regime, z):
    # Independent transcription of the closed-form flow times.
    if regime.kind == "dl":
        return (1.0 / (2.0 * z - 3.0)
                - (5.0 / 9.0) * math.log(3.0 - 2.0 * z)
                - (4.0 / 9.0) * math.log(z + 3.0))
    return 2.0 / (z - 2.0) - math.log(2.0 - z)


def _alpha_oracle(regime, z):
    return math.log(z) + _tau_oracle(regime, z)


# Pinned by a 40-digit solve of the matching condition.
RHO_DL_1_25 = 0.55523766806390057
S_DL_1_25 = 11.41020045871448
RHO_AL_1_25 = 0.70164052733709347
S_AL_1_25 = 3.1738813942230296
Z0_DL_S2 = 1.1020102568514794
Z0_AL_S2 = 1.1604461199440347


class TestReturnSize:
    def test_pinned_values(self):
        assert return_size(DIFFUSION_LIMITED, 1.25) == pytest.approx(
            RHO_DL_1_25, abs=1e-12
        )
        assert return_size(ATTACHMENT_LIMITED, 1.25) == pytest.approx(
            RHO_AL_1_25, abs=1e-12
        )

    def test_fixed_point(self):
        assert return_size(DIFFUSION_LIMITED, 1.0) == 1.0
        assert return_size(ATTACHMENT_LIMITED, 1.0) == 1.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_matching_identity(self, regime):
        # alpha(rho) = alpha(z0) with alpha written out independently above.
        for z0 in np.linspace(1.01, regime.z_max - 5e-3, 80):
            rho = return_size(regime, z0)
            assert 0.0 < rho < 1.0
            assert _alpha_oracle(regime, rho) == pytest.approx(
                _alpha_oracle(regime, z0), abs=1e-10
            )

    @pytest.mark.parametrize("regime", BOTH)
    def test_strictly_decreasing(self, regime):
        zs = np.linspace(1.0, regime.z_max - 1e-6, 120)
        rhos = [return_size(regime, z) for z in zs]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    @pytest.mark.parametrize("regime", BOTH)
    def test_vanishes_at_cutoff(self, regime):
        assert return_size(regime, regime.z_max - 1e-7) < 1e-3

    @pytest.mark.parametrize("regime", BOTH)
    def test_slope_at_fixed_point(self, regime):
        h = 1e-6
        fd = (return_size(regime, 1.0 + h) - 1.0) / h
        assert fd == pytest.approx(-1.0, abs=1e-4)

    @pytest.mark.parametrize("regime", BOTH)
    def test_just_above_fixed_point(self, regime):
        # Below z0 - 1 ~ 1e-8, alpha(z0) rounds onto the peak alpha(1); the
        # map must still answer, on its slope -1 line through (1, 1).
        for z0 in 1.0 + np.geomspace(1e-16, 1e-6, 200):
            rho = return_size(regime, z0)
            assert 0.0 < rho <= 1.0
            assert abs(rho - (2.0 - z0)) <= 1e-7
            p = solve_return_point(regime, z0)
            assert p.z_return == rho
            assert p.s == return_time_ratio(regime, z0) >= 1.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_pinned_bits(self, regime):
        # The exact bits of rho on 8 z0 from 1 to z_max - 1e-9 (where rho
        # underflows): a change that moves any of them changes values.
        want = {
            "dl": ("0x1.0000000000000p+0", "0x1.d5eea53182b08p-1",
                   "0x1.9d4750e3c30f8p-1", "0x1.4ea7ee9ea5bf8p-1",
                   "0x1.c315b281dfd44p-2", "0x1.6e8aae7b9d163p-3",
                   "0x1.0fec802d0302dp-7", "0x0.0p+0"),
            "al": ("0x1.0000000000000p+0", "0x1.af3a0c1c6274fp-1",
                   "0x1.4cde111606352p-1", "0x1.b15a2e0354174p-2",
                   "0x1.81d8f8b28d778p-3", "0x1.e765c39703350p-6",
                   "0x1.ecfc8a92560eep-15", "0x0.0p+0"),
        }[regime.kind]
        z0 = np.linspace(1.0, regime.z_max - 1e-9, 8).tolist()
        assert tuple(return_size(regime, z).hex() for z in z0) == want

    def test_domain(self):
        with pytest.raises(DomainError):
            return_size(DIFFUSION_LIMITED, 0.99)
        with pytest.raises(DomainError):
            return_size(DIFFUSION_LIMITED, 1.5)
        with pytest.raises(DomainError):
            return_size(ATTACHMENT_LIMITED, 2.0 - 1e-12)
        with pytest.raises(DomainError):
            return_size(DIFFUSION_LIMITED, math.nan)


class TestTimeRatio:
    def test_pinned_values(self):
        assert return_time_ratio(DIFFUSION_LIMITED, 1.25) == pytest.approx(
            S_DL_1_25, rel=1e-12
        )
        assert return_time_ratio(ATTACHMENT_LIMITED, 1.25) == pytest.approx(
            S_AL_1_25, rel=1e-12
        )

    @pytest.mark.parametrize("regime", BOTH)
    def test_power_of_size_ratio(self, regime):
        g = regime.coarsening_exponent
        for z0 in (1.05, 1.2, 1.35):
            rho = return_size(regime, z0)
            assert return_time_ratio(regime, z0) == pytest.approx(
                (z0 / rho) ** g, rel=1e-12
            )

    @pytest.mark.parametrize("regime", BOTH)
    def test_increasing_from_one(self, regime):
        assert return_time_ratio(regime, 1.0) == 1.0
        # s leaves float64 range ~1e-3 before the cutoff; stay clear of that
        zs = np.linspace(1.0, regime.z_max - 1e-2, 120)
        ss = [return_time_ratio(regime, z) for z in zs]
        assert all(b > a for a, b in zip(ss, ss[1:]))

    @pytest.mark.parametrize("regime", BOTH)
    def test_slope_at_fixed_point(self, regime):
        # ds/dz0 at z0 = 1 is 2*gamma (size ratio opens at rate 2).
        h = 1e-6
        fd = (return_time_ratio(regime, 1.0 + h) - 1.0) / h
        assert fd == pytest.approx(2.0 * regime.coarsening_exponent, abs=1e-3)

    @pytest.mark.parametrize("regime", BOTH)
    def test_extremes_at_the_cutoff(self, regime):
        # rho underflows to 0.0 and s overflows to inf at the admissible
        # edge; both are the correctly rounded values, not failures.
        z0 = regime.z_max - NEAR_CUTOFF
        assert return_size(regime, z0) == 0.0
        assert return_time_ratio(regime, z0) == math.inf
        # a little further in, both sit comfortably inside float64
        s = return_time_ratio(regime, regime.z_max - 0.05)
        assert math.isfinite(s) and s > 100.0


class TestInverse:
    def test_pinned_values(self):
        assert initial_size_for_ratio(DIFFUSION_LIMITED, 2.0) == pytest.approx(
            Z0_DL_S2, abs=1e-12
        )
        assert initial_size_for_ratio(ATTACHMENT_LIMITED, 2.0) == pytest.approx(
            Z0_AL_S2, abs=1e-12
        )

    @pytest.mark.parametrize("regime", BOTH)
    def test_round_trip(self, regime):
        for z0 in np.linspace(1.0, regime.z_max - 1e-2, 40):
            s = return_time_ratio(regime, z0)
            assert initial_size_for_ratio(regime, s) == pytest.approx(
                z0, abs=1e-10
            )

    @pytest.mark.parametrize("regime", BOTH)
    def test_unit_ratio(self, regime):
        assert initial_size_for_ratio(regime, 1.0) == 1.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_large_ratio(self, regime):
        # Ratios far beyond any rho the floats can hold still invert cleanly.
        z0 = initial_size_for_ratio(regime, 1e12)
        assert 1.0 < z0 <= regime.z_max - NEAR_CUTOFF
        assert return_time_ratio(regime, z0) == pytest.approx(1e12, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            initial_size_for_ratio(DIFFUSION_LIMITED, 0.5)
        with pytest.raises(DomainError):
            initial_size_for_ratio(DIFFUSION_LIMITED, math.inf)


class TestReturnPointBundles:
    def test_solve_return_point(self):
        p = solve_return_point(DIFFUSION_LIMITED, 1.25)
        assert p.z0 == 1.25
        assert p.z_return == pytest.approx(RHO_DL_1_25, abs=1e-12)
        assert p.s == pytest.approx(S_DL_1_25, rel=1e-12)

    def test_for_ratio(self):
        p = return_point_for_ratio(ATTACHMENT_LIMITED, 2.0)
        assert p.s == pytest.approx(2.0, rel=1e-10)
        assert p.z0 == pytest.approx(Z0_AL_S2, abs=1e-10)
        assert _alpha_oracle(ATTACHMENT_LIMITED, p.z_return) == pytest.approx(
            _alpha_oracle(ATTACHMENT_LIMITED, p.z0), abs=1e-10
        )

    def test_validation(self):
        ReturnPoint(1.3, 0.5, 4.0)
        with pytest.raises(DomainError):
            ReturnPoint(0.9, 0.5, 4.0)
        with pytest.raises(DomainError):
            ReturnPoint(1.3, 1.1, 4.0)
        with pytest.raises(DomainError):
            ReturnPoint(1.3, 0.5, 0.5)


class TestNearUnitPair:
    @pytest.mark.parametrize("regime", BOTH)
    def test_pair_next_to_one(self, regime):
        # z0 resolves to adjacent floats, so the pair sits on the slope -1
        # line through (1, 1), z0 - 1 = ln(s)/(2 gamma), to 4 ulps of 1, and
        # rho = z0 s**(-1/gamma) stays at or below 1 without a cap.
        g = regime.coarsening_exponent
        for e in np.geomspace(1e-15, 1e-10, 11):
            s = 1.0 + e
            p = return_point_for_ratio(regime, s)
            assert p.z_return <= 1.0 <= p.z0
            assert abs(p.z0 - 1.0 - math.log(s) / (2.0 * g)) <= 8.9e-16, e

    @pytest.mark.parametrize("regime", BOTH)
    def test_array_solve_matches_scalar(self, regime):
        # One bisection serves a whole grid, entry for entry.
        s = np.concatenate(([1.0, 1.0 + 1e-15], np.geomspace(1.001, 1e300, 40)))
        z0 = initial_size_for_ratio(regime, s)
        assert z0.shape == s.shape
        assert z0.tolist() == [initial_size_for_ratio(regime, x) for x in s]
        with pytest.raises(DomainError):
            initial_size_for_ratio(regime, np.array([2.0, 0.5]))


class TestReturnRadius:
    def test_baseline_at_t0(self):
        # At t = t0 the boundary sits exactly on the critical radius.
        rc = critical_radius(DIFFUSION_LIMITED, 0.0, 5.0)
        assert return_radius(DIFFUSION_LIMITED, 5.0, 5.0) == rc

    @pytest.mark.parametrize("regime", BOTH)
    def test_scaling_form(self, regime):
        t0 = 7.0
        rc = critical_radius(regime, 0.0, t0)
        for s in (1.5, 2.0, 3.0):
            want = initial_size_for_ratio(regime, s) * rc
            assert return_radius(regime, s * t0, t0) == pytest.approx(
                want, rel=1e-14
            )

    @pytest.mark.parametrize("regime", BOTH)
    @pytest.mark.parametrize("r_c0", [0.0, 1.0])
    def test_array_of_times(self, regime, r_c0):
        # One solve for an array of t, each entry the scalar call's bit for
        # bit; a scalar t still gives a float.
        t0 = 5.0
        t = t0 * np.array([1.0, 1.0001, 1.5, 2.0, 3.0, 1e3])
        got = return_radius(regime, t, t0, r_c0)
        assert got.shape == t.shape
        scalar = [return_radius(regime, ts, t0, r_c0) for ts in t.tolist()]
        assert all(type(r) is float for r in scalar)
        assert got.tolist() == scalar
        with pytest.raises(DomainError):
            return_radius(regime, np.array([2.0 * t0, 0.5 * t0]), t0)
        with pytest.raises(DomainError):
            return_radius(regime, np.array([2.0 * t0, math.inf]), t0)

    def test_nonzero_baseline_radius(self):
        # r_c0 enters through the critical radius and through the clock
        # ratio s = (R_c(t)/R_c(t0))**gamma = (t + c)/(t0 + c).
        t0 = 5.0
        got = return_radius(DIFFUSION_LIMITED, 2.0 * t0, t0, r_c0=1.0)
        c = 1.0 / coarsening_slope(DIFFUSION_LIMITED)
        want = initial_size_for_ratio(
            DIFFUSION_LIMITED, (2.0 * t0 + c) / (t0 + c)
        ) * critical_radius(DIFFUSION_LIMITED, 1.0, t0)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("regime", BOTH)
    def test_physical_round_trip(self, regime):
        # Integrate the physical growth law against the coarsening clock:
        # the particle at the boundary radius must come back to its t0 size.
        t0, s = 5.0, 2.0
        r0 = return_radius(regime, s * t0, t0)
        slope = coarsening_slope(regime)
        g = regime.coarsening_exponent

        def rate(t, r):
            return growth_rate_physical(regime, r, (slope * t) ** (1.0 / g))

        r_end = solve_ode(rate, r0, t0, s * t0)
        assert r_end == pytest.approx(r0, rel=1e-3)

    @pytest.mark.parametrize("regime", BOTH)
    def test_physical_round_trip_offset_clock(self, regime):
        # Same check with R_c(0) = 1, where t/t0 is not the clock ratio: a
        # boundary radius built from t/t0 misses its start size by 4-5%.
        t0, t, r_c0 = 5.0, 10.0, 1.0
        r0 = return_radius(regime, t, t0, r_c0=r_c0)

        def rate(time, r):
            return growth_rate_physical(
                regime, r, critical_radius(regime, r_c0, time)
            )

        r_end = solve_ode(rate, r0, t0, t)
        assert r_end == pytest.approx(r0, rel=1e-8)

    def test_rate_formula(self):
        t0 = 5.0
        for regime in BOTH:
            rc = critical_radius(regime, 0.0, t0)
            want = rc / (2.0 * regime.coarsening_exponent * t0)
            assert return_radius_rate(regime, t0) == pytest.approx(want)

    @pytest.mark.parametrize("regime", BOTH)
    def test_rate_matches_finite_difference(self, regime):
        # h can't be tiny here: resolving z0(s) for s barely above 1 runs
        # into the double-precision floor of the quadratic matching peak
        # (|alpha(z0) - alpha(1)| drops below one ulp for z0 - 1 ~ 1e-8).
        t0 = 5.0
        h = 1e-4 * t0
        fd = (return_radius(regime, t0 + h, t0) - return_radius(regime, t0, t0)) / h
        assert fd == pytest.approx(return_radius_rate(regime, t0), rel=5e-3)

    @pytest.mark.parametrize("regime", BOTH)
    def test_rate_matches_finite_difference_offset_clock(self, regime):
        # The boundary radius written from its definition, with the clock
        # ratio (R_c(t)/R_c(t0))**gamma in place of t/t0.
        t0, h, r_c0 = 5.0, 5e-4, 1.0
        g = regime.coarsening_exponent
        rc = critical_radius(regime, r_c0, t0)
        s = (critical_radius(regime, r_c0, t0 + h) / rc) ** g
        fd = (initial_size_for_ratio(regime, s) - 1.0) * rc / h
        assert fd == pytest.approx(return_radius_rate(regime, t0, r_c0), rel=5e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            return_radius(DIFFUSION_LIMITED, 4.0, 5.0)  # t < t0
        with pytest.raises(DomainError):
            return_radius(DIFFUSION_LIMITED, 5.0, 0.0)
        with pytest.raises(DomainError):
            return_radius_rate(DIFFUSION_LIMITED, -1.0)
