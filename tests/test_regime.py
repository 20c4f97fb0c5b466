"""Tests for the regime constants, growth laws and the closed-form flow time."""

import math
import re

import numpy as np
import pytest

from ripening.errors import DomainError
from ripening.numerics import integrate, solve_ode
from ripening.regime import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    REGIMES,
    Regime,
    _flow_time_down,
    _lifetime_drop,
    coarsening_slope,
    critical_radius,
    evolve_scaled,
    flow_time,
    get_regime,
    growth_rate_physical,
    growth_rate_scaled,
    return_invariant,
)

import mp_oracle

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)


class TestRegimeConstants:
    def test_dl_tuple(self):
        r = DIFFUSION_LIMITED
        assert (r.growth_exponent, r.rate_constant, r.coarsening_exponent,
                r.z_max) == (2, 27.0 / 4.0, 3, 1.5)

    def test_al_tuple(self):
        r = ATTACHMENT_LIMITED
        assert (r.growth_exponent, r.rate_constant, r.coarsening_exponent,
                r.z_max) == (1, 4.0, 2, 2.0)

    def test_lookup(self):
        assert get_regime("dl") is DIFFUSION_LIMITED
        assert get_regime("al") is ATTACHMENT_LIMITED
        assert set(REGIMES) == {"dl", "al"}
        with pytest.raises(DomainError):
            get_regime("xx")

    def test_no_mix_and_match(self):
        # The constants come with the kind; no other tuple is constructible.
        assert Regime("dl") == DIFFUSION_LIMITED
        assert Regime("al") == ATTACHMENT_LIMITED
        with pytest.raises(TypeError):
            Regime("dl", 1, 4.0, 2, 2.0)
        with pytest.raises(TypeError):
            Regime("al", z_max=1.5)
        with pytest.raises(DomainError, match="unknown regime kind 'other'"):
            Regime("other")

    def test_slope(self):
        assert coarsening_slope(DIFFUSION_LIMITED) == pytest.approx(4.0 / 9.0)
        assert coarsening_slope(ATTACHMENT_LIMITED) == pytest.approx(0.5)


class TestGrowthRates:
    @pytest.mark.parametrize("regime", BOTH)
    def test_fixed_points(self, regime):
        assert growth_rate_scaled(regime, 1.0) == pytest.approx(-1.0, abs=1e-15)
        assert growth_rate_scaled(regime, regime.z_max) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("regime", BOTH)
    def test_always_negative_inside(self, regime):
        # Every rescaled size below the cutoff drifts down.
        for z in np.linspace(0.01, regime.z_max - 0.01, 150):
            assert growth_rate_scaled(regime, z) < 0.0

    def test_scaled_domain(self):
        with pytest.raises(DomainError):
            growth_rate_scaled(DIFFUSION_LIMITED, 0.0)
        with pytest.raises(DomainError):
            growth_rate_scaled(ATTACHMENT_LIMITED, -0.5)

    def test_rate_beyond_float_range(self):
        # -nu/z**lam leaves the float range near z = 0: -inf, with no warning.
        assert growth_rate_scaled(DIFFUSION_LIMITED, 1e-300) == -math.inf
        assert growth_rate_scaled(ATTACHMENT_LIMITED, 5e-324) == -math.inf

    def test_physical_values(self):
        # At R = R_c a particle is stationary in both regimes.
        assert growth_rate_physical(DIFFUSION_LIMITED, 2.0, 2.0) == 0.0
        assert growth_rate_physical(ATTACHMENT_LIMITED, 2.0, 2.0) == 0.0
        # dl: (R/R_c - 1)/R^2 ; al: (R/R_c - 1)/R
        assert growth_rate_physical(DIFFUSION_LIMITED, 2.0, 1.0) == pytest.approx(0.25)
        assert growth_rate_physical(ATTACHMENT_LIMITED, 2.0, 1.0) == pytest.approx(0.5)
        # Where radius**lam is a normal float: the plain float formula, bit
        # for bit.
        for regime in BOTH:
            lam = regime.growth_exponent
            for radius in np.geomspace(1e-150, 1e150, 61).tolist():
                for r_c in (1e-3, 0.7, 1.0, 3.0, 1e4):
                    assert growth_rate_physical(regime, radius, r_c) == (
                        (radius / r_c - 1.0) / radius**lam)
        # Beyond it the rate rounds, with no exception: -inf near 0 (dl's
        # radius**2 underflows; al's radius stays a normal float), and a
        # finite value >= 0 for a huge radius.
        assert growth_rate_physical(DIFFUSION_LIMITED, 1e-200, 1.0) == -math.inf
        assert growth_rate_physical(ATTACHMENT_LIMITED, 1e-200, 1.0) == -1e200
        for regime in BOTH:
            assert 0.0 <= growth_rate_physical(regime, 1e200, 1.0) < math.inf
        # Where radius / r_c overflows, 1/(r_c R**(lam-1)) - 1/R**lam does not.
        assert growth_rate_physical(DIFFUSION_LIMITED, 1e200, 1e-200) == 1.0
        assert growth_rate_physical(ATTACHMENT_LIMITED, 1e200, 1e-200) == 1e200

    def test_physical_domain(self):
        with pytest.raises(DomainError):
            growth_rate_physical(DIFFUSION_LIMITED, 0.0, 1.0)
        with pytest.raises(DomainError):
            growth_rate_physical(DIFFUSION_LIMITED, 1.0, 0.0)


class TestCriticalRadius:
    def test_known_values(self):
        assert critical_radius(DIFFUSION_LIMITED, 1.0, 0.0) == 1.0
        assert critical_radius(ATTACHMENT_LIMITED, 1.0, 6.0) == pytest.approx(2.0)
        # late-stage baseline: R_c**gamma = (gamma/nu) t from zero
        assert critical_radius(DIFFUSION_LIMITED, 0.0, 9.0) == pytest.approx(
            4.0 ** (1.0 / 3.0)
        )

    @pytest.mark.parametrize("regime", BOTH)
    def test_rate_constant_recovered(self, regime):
        # nu = 1/(R_c**(lam) * ... ) reduces to 1/(R_c^{gamma-1} dR_c/dt);
        # recover it by finite differences of the closed form.
        t, h = 7.0, 1e-6
        rc = critical_radius(regime, 1.0, t)
        drc = (critical_radius(regime, 1.0, t + h)
               - critical_radius(regime, 1.0, t - h)) / (2.0 * h)
        nu = 1.0 / (rc ** (regime.coarsening_exponent - 1) * drc)
        assert nu == pytest.approx(regime.rate_constant, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_radius(DIFFUSION_LIMITED, -1.0, 1.0)
        with pytest.raises(DomainError):
            critical_radius(DIFFUSION_LIMITED, 1.0, -1.0)


# Pinned by a 40-digit evaluation of the closed forms.
FLOW_TIME_DL_AT_1 = -1.6161308271643958  # = -1 - (8/9) ln 2
FLOW_TIME_DL_AT_1_25 = -2.2579933365495084
INVARIANT_DL_AT_1_25 = -2.0348497852352986


class TestFlowTime:
    def test_pinned_values(self):
        assert flow_time(DIFFUSION_LIMITED, 1.0) == pytest.approx(
            FLOW_TIME_DL_AT_1, abs=1e-14
        )
        assert flow_time(DIFFUSION_LIMITED, 1.0) == pytest.approx(
            -1.0 - (8.0 / 9.0) * math.log(2.0), abs=1e-14
        )
        assert flow_time(ATTACHMENT_LIMITED, 1.0) == pytest.approx(-2.0, abs=1e-14)
        assert flow_time(DIFFUSION_LIMITED, 1.25) == pytest.approx(
            FLOW_TIME_DL_AT_1_25, abs=1e-14
        )

    @pytest.mark.parametrize("regime", BOTH)
    def test_strictly_decreasing(self, regime):
        zs = np.linspace(1e-3, regime.z_max - 1e-3, 300)
        taus = [flow_time(regime, z) for z in zs]
        assert np.all(np.diff(taus) < 0.0)

    @pytest.mark.parametrize("regime", BOTH)
    def test_derivative_identity(self, regime):
        # d(flow_time)/dz must invert the flow: FD slope * dz/dtau = 1.
        h = 1e-6
        for z in np.linspace(0.05, regime.z_max - 0.05, 60):
            slope = (flow_time(regime, z + h) - flow_time(regime, z - h)) / (2.0 * h)
            assert slope * growth_rate_scaled(regime, z) == pytest.approx(
                1.0, rel=1e-6
            )

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_quadrature_of_inverse_rate(self, regime):
        # Independent route: integrate 1/(dz/dtau) with the rate written out
        # inline, not taken from the module under test.
        nu, lam = regime.rate_constant, regime.growth_exponent
        rate = lambda z: nu * (z - 1.0) / z**lam - z
        got = flow_time(regime, 1.2) - flow_time(regime, 0.5)
        want = integrate(lambda z: 1.0 / rate(z), 0.5, 1.2)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("regime", BOTH)
    def test_dissolution_end_against_mpmath(self, regime):
        # tau(0) = -1/3 - ln 3 (dl) or -1 - ln 2 (al) at 40 digits; tau at
        # z = 1e-300 differs from it by far less than an ulp, and the
        # closed form gives the nearest float to it (1.7e-17 and 8.8e-17
        # away).
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            want = (-mp.mpf(1) / 3 - mp.log(3) if regime.kind == "dl"
                    else -1 - mp.log(2))
            assert flow_time(regime, 1e-300) == float(want)

    @pytest.mark.parametrize("regime", BOTH)
    def test_domain_edges(self, regime):
        with pytest.raises(DomainError):
            flow_time(regime, 0.0)
        with pytest.raises(DomainError):
            flow_time(regime, regime.z_max)
        with pytest.raises(DomainError):
            flow_time(regime, regime.z_max - 1e-13)  # inside the guard band


class TestLifetimeAgainstMpmath:
    """The lifetime L(z) = tau(0) - tau(z), the flow time from z down to
    dissolution, against a 40-digit oracle: below z = 0.5 from its power
    series (``_lifetime_drop``), above it from the differenced closed forms
    (``_flow_time_down``), each with ``d = z``."""

    # The largest errors on 300-point grids: 2.9e-16 (series, both
    # regimes), 4.2e-15 (closed forms, dl, near z = 0.5) and 6.4e-16 (al).
    @pytest.mark.parametrize("regime, series_bound, closed_bound", [
        (DIFFUSION_LIMITED, 4e-16, 5e-15),
        (ATTACHMENT_LIMITED, 4e-16, 1e-15),
    ])
    def test_lifetime(self, regime, series_bound, closed_bound):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            for drop, zs, bound in (
                    (_lifetime_drop, np.geomspace(1e-60, 0.499, 60),
                     series_bound),
                    (_flow_time_down, np.linspace(0.5, 1.4, 40),
                     closed_bound)):
                for z in zs:
                    want = mp_oracle.lifetime(mp, regime, z)
                    got = mp.mpf(float(drop(regime, z, z)))
                    assert abs(got - want) <= bound * want, (drop, z)


class TestReturnInvariant:
    def test_pinned_value(self):
        assert return_invariant(DIFFUSION_LIMITED, 1.25) == pytest.approx(
            INVARIANT_DL_AT_1_25, abs=1e-14
        )

    @pytest.mark.parametrize("regime", BOTH)
    def test_unique_maximum_at_one(self, regime):
        zs = np.linspace(0.05, regime.z_max - 0.01, 400)
        vals = np.array([return_invariant(regime, z) for z in zs])
        peak = return_invariant(regime, 1.0)
        assert np.all(vals[np.abs(zs - 1.0) > 1e-12] < peak)
        # flat top: derivative vanishes at z = 1
        h = 1e-6
        slope = (return_invariant(regime, 1.0 + h)
                 - return_invariant(regime, 1.0 - h)) / (2.0 * h)
        assert slope == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("regime", BOTH)
    def test_curvature_at_peak_is_minus_nu(self, regime):
        h = 1e-4
        second = (
            return_invariant(regime, 1.0 + h)
            - 2.0 * return_invariant(regime, 1.0)
            + return_invariant(regime, 1.0 - h)
        ) / h**2
        assert second == pytest.approx(-regime.rate_constant, rel=1e-5)


class TestEvolveScaled:
    @pytest.mark.parametrize("regime", BOTH)
    def test_zero_offset_is_identity(self, regime):
        assert evolve_scaled(regime, 1.2, 0.0) == 1.2

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_ode_integration(self, regime):
        f = lambda tau, z: growth_rate_scaled(regime, z)
        for z0, dt in ((1.25, 0.5), (0.8, 0.04), (1.4, 0.8)):
            want = solve_ode(f, z0, 0.0, dt)
            assert evolve_scaled(regime, z0, dt) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("regime", BOTH)
    def test_monotone_in_offset(self, regime):
        zs = [evolve_scaled(regime, 1.3, d) for d in (0.0, 0.2, 0.4, 0.8)]
        assert all(b < a for a, b in zip(zs, zs[1:]))

    @pytest.mark.parametrize("regime", BOTH)
    def test_against_mpmath(self, regime):
        # The z with tau(z) = tau(z_start) + delta_tau, from the closed form
        # solved at 40 digits, for every offset below the lifetime.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            tau = mp_oracle.tau(mp, regime)
            for z_start in (0.3, 1.0, 1.3, 1.45):
                lifetime = tau(mp.mpf(0)) - tau(mp.mpf(z_start))
                for delta in (1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.3):
                    if delta >= lifetime:
                        continue
                    target = tau(mp.mpf(z_start)) + delta
                    want = mp.findroot(lambda z: tau(z) - target,
                                       (mp.mpf(0), mp.mpf(z_start)),
                                       solver="anderson")
                    got = evolve_scaled(regime, z_start, delta)
                    assert abs(got - want) <= 4e-15 * want, (z_start, delta)
        # Small z_start, where the closed forms' O(d) terms cancel: the
        # lifetime L(z) = int_0^z x^lam / (nu (1 - x) + x^(lam+1)) dx by
        # quadrature at 50 digits over x = z u, solved in the scale of
        # z_start.  An offset beyond L(z_start) must be refused, naming
        # L(z_start).
        small = {"dl": ((1e-60, 1e-78), (1e-10, 1e-33)),
                 "al": ((1e-60, 1e-78), (1e-10, 1e-21))}[regime.kind]
        with mp.workdps(50):
            life = lambda z: mp_oracle.lifetime(mp, regime, z)
            for z_start, delta in small:
                total = life(mp.mpf(z_start))
                if delta < total:
                    want = z_start * mp.findroot(
                        lambda u: (life(u * z_start) - (total - delta)) / total,
                        (mp.mpf(0), mp.mpf(1)), solver="anderson")
                    got = evolve_scaled(regime, z_start, delta)
                    assert abs(got - want) <= 1e-12 * want, (z_start, delta)
                    continue
                with pytest.raises(DomainError) as refused:
                    evolve_scaled(regime, z_start, delta)
                named = float(re.search(r"dissolves after delta_tau=(\S+) <",
                                        str(refused.value)).group(1))
                assert abs(named - total) <= 1e-12 * total, (z_start, delta)
        # A zero offset is the identity, also where the lifetime rounds to 0.
        for z_start in (1e-60, 1e-200):
            assert evolve_scaled(regime, z_start, 0.0) == z_start
            assert (evolve_scaled(regime, z_start, np.zeros(2)).tolist()
                    == [z_start] * 2)

    def test_array_start_refused(self):
        # One trajectory per call: an array of offsets is one bisection,
        # an array of starts is refused by name.
        with pytest.raises(DomainError,
                           match=re.escape("z_start must be a scalar, got shape (2,)")):
            evolve_scaled(DIFFUSION_LIMITED, np.array([0.5, 0.6]), 0.1)
        assert evolve_scaled(DIFFUSION_LIMITED, np.array(0.5), 0.0) == 0.5

    def test_dissolution_detected(self):
        # A sub-critical size reaches zero in finite flow time.
        with pytest.raises(DomainError):
            evolve_scaled(DIFFUSION_LIMITED, 0.5, 0.05)
        with pytest.raises(DomainError):
            evolve_scaled(ATTACHMENT_LIMITED, 1.25, 5.0)
