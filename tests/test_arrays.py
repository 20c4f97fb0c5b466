"""One code path for scalars and arrays.

Every closed-form function takes a float or a numpy array: an array call
equals the list of scalar calls bit for bit, a float in gives a float out,
and a bad entry anywhere in an array raises DomainError naming it.  The
grids reach both ends of the return map: z0 = 1, and z0 = z_max -
NEAR_CUTOFF, where rho underflows to 0 and s overflows to inf.
"""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from ripening.errors import DomainError
from ripening.recrystallization import fraction_from_start_size
from ripening.regime import (
    ATTACHMENT_LIMITED,
    CUTOFF_GUARD,
    DIFFUSION_LIMITED,
    critical_radius,
    evolve_scaled,
    flow_time,
    growth_rate_scaled,
    return_invariant,
)
from ripening.return_map import (
    NEAR_CUTOFF,
    return_point_for_ratio,
    return_radius,
    return_radius_rate,
    return_size,
    return_time_ratio,
    solve_return_point,
)

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)


def _z0_grid(regime):
    top = regime.z_max - NEAR_CUTOFF
    return np.concatenate(([1.0, 1.0 + 1e-15], np.linspace(1.0, top, 30),
                           [regime.z_max - 1e-3, top]))


def _z_grid(regime):
    return np.concatenate(([1e-300, 1e-100, 1e-3, 0.5], _z0_grid(regime),
                           [regime.z_max - 2.0 * CUTOFF_GUARD]))


# name -> (function of (regime, array), grid, a bad value for the grid)
CASES = {
    "flow_time": (flow_time, _z_grid, lambda r: r.z_max),
    "return_invariant": (return_invariant, _z_grid, lambda r: 0.0),
    "growth_rate_scaled": (growth_rate_scaled, _z_grid, lambda r: -0.5),
    "evolve_scaled": (
        lambda r, d: evolve_scaled(r, 1.3, d),
        lambda r: np.array([0.0, 1e-300, 1e-9, 0.1, 0.3, 0.0, 0.7, 0.999 * (
            flow_time(r, 1e-300) - flow_time(r, 1.3))]),
        lambda r: -1.0,
    ),
    "return_size": (return_size, _z0_grid, lambda r: 0.5),
    "return_time_ratio": (return_time_ratio, _z0_grid, lambda r: r.z_max),
    "fraction_from_start_size": (fraction_from_start_size, _z0_grid,
                                 lambda r: 0.5),
    "fraction_complement": (
        lambda r, z0: fraction_from_start_size(r, z0, complement=True),
        _z0_grid, lambda r: math.nan,
    ),
}


@pytest.mark.parametrize("regime", BOTH)
@pytest.mark.parametrize("name", sorted(CASES))
def test_array_equals_scalar_calls(regime, name):
    f, grid, _ = CASES[name]
    x = grid(regime)
    got = f(regime, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    scalars = [f(regime, v) for v in x.tolist()]
    assert all(type(v) is float for v in scalars)
    assert got.tolist() == scalars


@pytest.mark.parametrize("regime", BOTH)
@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_entry_is_named(regime, name):
    f, grid, bad = CASES[name]
    x = grid(regime)
    x[len(x) // 2] = bad(regime)
    with pytest.raises(DomainError, match=re.escape(f"got {bad(regime)!r}")):
        f(regime, x)


@pytest.mark.parametrize("regime", BOTH)
def test_return_points(regime):
    # Both directions of the return map bundle arrays in one ReturnPoint.
    z0 = _z0_grid(regime)
    got = solve_return_point(regime, z0)
    want = [astuple(solve_return_point(regime, v)) for v in z0.tolist()]
    assert [c.tolist() for c in astuple(got)] == [list(c) for c in zip(*want)]
    assert got.z_return[-1] == 0.0 and got.s[-1] == math.inf
    assert all(type(v) is float for v in want[0])
    s = np.concatenate(([1.0, 1.0 + 1e-15], np.geomspace(1.001, 1e300, 30)))
    got = return_point_for_ratio(regime, s)
    want = [astuple(return_point_for_ratio(regime, v)) for v in s.tolist()]
    assert [c.tolist() for c in astuple(got)] == [list(c) for c in zip(*want)]
    assert all(type(v) is float for v in want[0])
    for f, bad in ((solve_return_point, 0.75), (return_point_for_ratio, 0.75)):
        with pytest.raises(DomainError, match=r"got 0\.75"):
            f(regime, np.array([1.2, bad, 1.3]))


class TestClockOverflow:
    """R_c**gamma = r_c0**gamma + (gamma/nu) t must stay a finite float."""

    @pytest.mark.parametrize("regime", BOTH)
    def test_initial_power_overflows(self, regime):
        for f in (lambda: critical_radius(regime, 1e200, 1.0),
                  lambda: return_radius(regime, 2.0, 1.0, 1e200),
                  lambda: return_radius_rate(regime, 1.0, 1e200)):
            with pytest.raises(DomainError, match="1.7976931348623157e"):
                f()

    @pytest.mark.parametrize("regime, r_c0, r_c0_clock", [
        (DIFFUSION_LIMITED, 5.6e102, 3.5e102),
        (ATTACHMENT_LIMITED, 1.3e154, 7e153),
    ])
    def test_sum_overflows(self, regime, r_c0, r_c0_clock):
        with pytest.raises(DomainError, match="must be <="):
            critical_radius(regime, r_c0, 1e308)
        with pytest.raises(DomainError, match="must be <="):
            return_radius_rate(regime, 1e308, r_c0)
        # The return radius reads the clock t + r_c0**gamma nu/gamma, about
        # 1e308 at r_c0_clock: t = 1e308 leaves the float range.
        t = np.array([2.0, 1e308, 3.0])
        with pytest.raises(DomainError, match=r"got t=1e\+308"):
            return_radius(regime, t, 1.0, r_c0_clock)
        assert np.isfinite(return_radius(regime, t[[0, 2]], 1.0, r_c0_clock)).all()

    @pytest.mark.parametrize("regime", BOTH)
    def test_late_stage_clock_unchanged(self, regime):
        # The baseline clock the simulator uses keeps its closed form.
        gamma = regime.coarsening_exponent
        for t in (1e-300, 1.0, 225.0, 1e150, 1e308):
            want = (regime.coarsening_exponent / regime.rate_constant * t) ** (
                1.0 / gamma)
            assert critical_radius(regime, 0.0, t) == want
