"""Return map: when does a growing particle shrink back to its old size?

A particle that is super-critical at time t0 (z0 = R/R_c(t0) > 1) first
grows, but the critical radius grows faster; the particle eventually goes
sub-critical, shrinks, and passes its original *physical* radius R on the
way down.  Because R is the same at both moments while R_c has moved, the
two rescaled sizes z0 and rho satisfy

    z0 * R_c(t0) = rho * R_c(t),

and eliminating R_c through the rescaled flow turns this into the matching
condition alpha(rho) = alpha(z0) with alpha = ln z + tau(z).  alpha is
unimodal with its peak at z = 1, so rho(z0) is the unique sub-critical
partner of z0; the elapsed-time ratio follows from the coarsening law as a
pure power of the size ratio, s = (R_c(t)/R_c(t0))**gamma = (z0/rho)**gamma,
independent of t0 and of R_c(t0).  On the late-stage clock R_c**gamma
proportional to t, s is t/t0 (see return_radius for any R_c(0)).

Both directions solve one matching equation in a = ln(z0/rho) = ln(s)/gamma:

    Phi(z0, a) = a + tau(z0) - tau(z0 e^-a) = alpha(z0) - alpha(rho) = 0,

solved for a given z0 (_log_ratio, which solve_return_point, return_size,
return_time_ratio and fraction_from_start_size read) or for z0 given s
(initial_size_for_ratio), each query by one bisection to adjacent floats.
Every function takes a scalar or a numpy array: an array is one elementwise
solve, each entry equal to the scalar call's value.  tau(z0) - tau(rho)
comes from the closed forms differenced in d = z0 - rho = -z0 expm1(-a),
so Phi keeps relative precision as s -> 1 and stays exact where rho
underflows the smallest positive float (z0 extremely close to z_max): tau
tends to the finite tau(0) there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_entries
from .numerics import find_root, float_if_0d
from .regime import Regime, _flow_time_down, coarsening_slope, critical_radius

__all__ = [
    "ReturnPoint",
    "return_size",
    "return_size_slope_at_one",
    "return_time_ratio",
    "initial_size_for_ratio",
    "solve_return_point",
    "return_point_for_ratio",
    "return_radius",
    "return_radius_rate",
]

# z0 this close to z_max is rejected: tau diverges and s blows up like
# 1/(z_max - z0)**gamma, so there is nothing meaningful to resolve beyond it.
NEAR_CUTOFF = 1e-9


@dataclass(frozen=True)
class ReturnPoint:
    """A matched pair on the return map: grow from z0, return at z_return,
    elapsed-time ratio s = t/t0.  Floats, or numpy arrays of pairs."""

    z0: float
    z_return: float
    s: float

    def __post_init__(self):
        z0, rho = self.z0, self.z_return
        if not np.all((0.0 <= rho) & (rho <= 1.0) & (1.0 <= z0)):
            raise DomainError(
                f"return pair must satisfy z_return <= 1 <= z0, got "
                f"({rho!r}, {z0!r})"
            )
        if not np.all(self.s >= 1.0):
            raise DomainError(f"time ratio must be >= 1, got {self.s!r}")


def _mismatch(regime: Regime, z0, a):
    """Phi(z0, a) = alpha(z0) - alpha(z0 e^-a); arrays elementwise."""
    return a - _flow_time_down(regime, z0, -z0 * np.expm1(-a))


def return_size(regime: Regime, z0):
    """Sub-critical return size: the rho in (0, 1] with alpha(rho) = alpha(z0).

    Strictly decreasing in z0, with rho(1) = 1 and rho -> 0 as z0 -> z_max.
    For z0 within about 1e-3 of the cutoff the true value underflows float64
    and 0.0 is returned; the matching is still exact in a = ln(z0/rho)
    through :func:`return_time_ratio`.
    """
    return solve_return_point(regime, z0).z_return


def return_size_slope_at_one(regime: Regime) -> float:
    """Slope of the return map at the fixed point: exactly -1.

    alpha is smooth with a quadratic maximum at z = 1, so matched pairs are
    symmetric about it to first order regardless of regime.
    """
    return -1.0


def return_time_ratio(regime: Regime, z0):
    """Elapsed-time ratio s = t/t0 = (z0/rho(z0))**gamma for the return.

    Computed as exp(gamma * a) from the solved a = ln(z0/rho), so the
    matching stays exact even where rho itself underflows; ratios beyond
    float64 range come back as inf.
    """
    return solve_return_point(regime, z0).s


def initial_size_for_ratio(regime: Regime, s):
    """Invert the time ratio: the z0 in [1, z_max) with s = (z0/rho(z0))**gamma.

    The ratio is strictly increasing in z0 (from 1 at z0 = 1 to +inf at the
    cutoff), so the root is unique; s < 1 is rejected.  Accepts a scalar or
    a numpy array: every entry is solved in the same bisection.
    """
    s = np.asarray(s, dtype=float)
    check_entries(s, (s >= 1.0) & np.isfinite(s),
                  "time ratio must be >= 1 and finite, got %r")
    a = np.log(s) / regime.coarsening_exponent
    return find_root(
        lambda z0: _mismatch(regime, z0, a),
        np.ones_like(a),
        regime.z_max - NEAR_CUTOFF,
    )


def _log_ratio(regime: Regime, z0):
    """(z0, a) with a = ln(z0/rho) the root of Phi(z0, a) = 0, z0 checked
    and read as a numpy scalar or array.

    Solves on [ln z0, tau(0) - tau(z0) + 1]: Phi is alpha(z0) - alpha(1)
    <= 0 at the lower end and at least 1 at the upper one.
    """
    # [()] turns a 0-d input into a numpy scalar, whose arithmetic in the
    # bisection costs about half that of a 0-d array.
    z0 = np.asarray(z0, dtype=float)[()]
    check_entries(z0, (1.0 <= z0) & (z0 <= regime.z_max - NEAR_CUTOFF),
                  f"initial scaled size must lie in [1, z_max - {NEAR_CUTOFF:g}] "
                  f"= [1, {regime.z_max - NEAR_CUTOFF!r}], got %r")
    a = find_root(
        lambda a: _mismatch(regime, z0, a),
        np.log(z0),
        _flow_time_down(regime, z0, z0) + 1.0,
    )
    return z0, a


def solve_return_point(regime: Regime, z0) -> ReturnPoint:
    """Bundle rho(z0) and the time ratio into a :class:`ReturnPoint`: one
    solve of Phi(z0, a) = 0 for a = ln(z0/rho)."""
    z0, a = _log_ratio(regime, z0)
    # s grows like exp(gamma/(2*(z_max - z0))) near the cutoff, which leaves
    # float64 range while z0 is still ~1e-3 away from it; the correctly
    # rounded answer there is inf.
    with np.errstate(over="ignore"):
        s = np.exp(regime.coarsening_exponent * a)
    return ReturnPoint(*map(float_if_0d, (z0, z0 * np.exp(-a), s)))


def return_point_for_ratio(regime: Regime, s) -> ReturnPoint:
    """The :class:`ReturnPoint` whose elapsed-time ratio is ``s``: one
    s -> z0 solve, then rho = z0 s**(-1/gamma) from z0 R_c(t0) = rho R_c(t)."""
    s = np.asarray(s, dtype=float)
    z0 = initial_size_for_ratio(regime, s)
    rho = z0 * np.exp(-np.log(s) / regime.coarsening_exponent)
    return ReturnPoint(*map(float_if_0d, (z0, rho, s)))


def return_radius(regime: Regime, t, t0: float, r_c0: float = 0.0):
    """Radius of the particle that returns to its initial size at time ``t``.

    Among all particles present at ``t0``, one boundary radius separates
    "still larger than at t0" from "already smaller again": the particle
    that is passing its original size right now.  Its radius is

        R(t; t0) = initial_size_for_ratio(s) * R_c(t0),

    with s = (R_c(t)/R_c(t0))**gamma = (t + c)/(t0 + c) and
    c = r_c0**gamma * nu/gamma the clock offset of the critical radius.  The
    rescaled flow is autonomous in ln R_c, so this is exact for every
    ``r_c0``; with the default ``r_c0 = 0`` the ratio is t/t0.  Accepts a
    scalar ``t`` or a numpy array of them: an array makes one solve for all
    of its entries, each equal to the scalar call's value.
    """
    t = np.asarray(t, dtype=float)
    t0 = float(t0)
    if not (t0 > 0.0 and math.isfinite(t0)):
        raise DomainError(f"t0 must be positive and finite, got {t0!r}")
    check_entries(t, (t >= t0) & np.isfinite(t),
                  f"t must be >= t0, got t=%r, t0={t0!r}")
    r_c = critical_radius(regime, r_c0, t0)
    c = float(r_c0) ** regime.coarsening_exponent / coarsening_slope(regime)
    with np.errstate(over="ignore"):
        clock = t + c
    check_entries(t, clock < math.inf,
                  f"t + r_c0**gamma nu/gamma must be <= {sys.float_info.max!r}, "
                  f"got t=%r, r_c0={float(r_c0)!r}")
    return initial_size_for_ratio(regime, clock / (t0 + c)) * r_c


def return_radius_rate(regime: Regime, t0: float, r_c0: float = 0.0) -> float:
    """Initial growth rate of the return radius at t = t0.

    d(return_radius)/dt at t = t0 is R_c(t0)**(1 - gamma) / (2 nu): the
    time-ratio derivative ds/dz0 equals 2 gamma at the fixed point, and the
    clock ratio s opens at ds/dt = (gamma/nu) / R_c(t0)**gamma.  With
    ``r_c0 = 0`` this is R_c(t0) / (2 gamma t0).
    """
    t0 = float(t0)
    if not (t0 > 0.0 and math.isfinite(t0)):
        raise DomainError(f"t0 must be positive and finite, got {t0!r}")
    r_c = critical_radius(regime, r_c0, t0)
    return r_c ** (1 - regime.coarsening_exponent) / (2.0 * regime.rate_constant)
