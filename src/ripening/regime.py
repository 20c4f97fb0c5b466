"""Coarsening regimes and single-particle growth laws.

Late-stage ripening of a dilute particle population comes in two limiting
kinetics.  When growth is limited by solute diffusion ("dl") a particle of
radius R obeys

    dR/dt = (1/R^2) (R/R_c - 1),

and when it is limited by interface attachment ("al")

    dR/dt = (1/R)   (R/R_c - 1),

where R_c is the critical radius separating shrinking from growing
particles.  In the scaling state R_c itself coarsens so that a power of it
grows linearly in time, R_c(t)^gamma = R_c(0)^gamma + (gamma/nu) t, with
(gamma, nu) = (3, 27/4) for dl and (2, 4) for al.

In rescaled variables z = R/R_c and tau = gamma * ln(R_c/R_c(t0)) both laws
collapse onto the autonomous flow

    dz/dtau = nu (z - 1) / z**lam - z,      lam = 2 (dl) or 1 (al),

whose right-hand side factors with a double root at z_max = 3/2 (dl) or
2 (al): every trajectory started below z_max drifts down to z = 0 in finite
"time" tau.  The flow separates, and the antiderivative tau(z) of
1/(dz/dtau) has the closed forms implemented here; alpha(z) = ln z + tau(z)
is the combination that is conserved between a radius and its later return
to the same physical size (see return_map).  The flow functions take a
scalar or a numpy array: a float in, a float out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_entries
from .numerics import find_root, float_if_0d

__all__ = [
    "Regime",
    "DIFFUSION_LIMITED",
    "ATTACHMENT_LIMITED",
    "REGIMES",
    "get_regime",
    "growth_rate_scaled",
    "growth_rate_physical",
    "critical_radius",
    "coarsening_slope",
    "flow_time",
    "return_invariant",
    "evolve_scaled",
]

# tau(z) diverges at the distribution cutoff z_max; stay this far below it.
CUTOFF_GUARD = 1e-12

# Each regime's (growth_exponent, rate_constant, coarsening_exponent, z_max):
# the one tuple a Regime of that kind accepts, and the singletons' constants.
_EXPECTED = {
    "dl": (2, 27.0 / 4.0, 3, 1.5),
    "al": (1, 4.0, 2, 2.0),
}


@dataclass(frozen=True)
class Regime:
    """One of the two coarsening kinetics, with its fixed constants.

    The four numbers are not independent knobs: for each ``kind`` only the
    single tuple realised by the physics is accepted, so a ``Regime`` cannot
    be constructed in a mix-and-match state.

    Attributes
    ----------
    kind:
        ``"dl"`` (diffusion limited) or ``"al"`` (attachment limited).
    growth_exponent:
        Power of z dividing ``nu (z - 1)`` in the rescaled flow (2 or 1).
    rate_constant:
        nu, the late-stage rate constant (27/4 or 4).
    coarsening_exponent:
        gamma: ``R_c**gamma`` grows linearly in time (3 or 2).
    z_max:
        Upper cutoff of the scaled size distribution (3/2 or 2).
    """

    kind: str
    growth_exponent: int
    rate_constant: float
    coarsening_exponent: int
    z_max: float

    def __post_init__(self):
        expected = _EXPECTED.get(self.kind)
        if expected is None:
            raise DomainError(f"unknown regime kind {self.kind!r} (use 'dl' or 'al')")
        got = (
            self.growth_exponent,
            self.rate_constant,
            self.coarsening_exponent,
            self.z_max,
        )
        if got != expected:
            raise DomainError(
                f"constants {got!r} are inconsistent with regime {self.kind!r}; "
                f"expected {expected!r}"
            )


REGIMES = {kind: Regime(kind, *constants) for kind, constants in _EXPECTED.items()}
DIFFUSION_LIMITED, ATTACHMENT_LIMITED = REGIMES["dl"], REGIMES["al"]


def get_regime(kind: str) -> Regime:
    """Look up a regime singleton by its ``kind`` string."""
    try:
        return REGIMES[kind]
    except KeyError:
        raise DomainError(
            f"unknown regime kind {kind!r} (use 'dl' or 'al')"
        ) from None


def growth_rate_scaled(regime: Regime, z):
    """Right-hand side ``nu (z - 1)/z**lam - z`` of the rescaled flow.

    Negative for every z in (0, z_max) except the double root at z_max
    itself, which is why all rescaled sizes eventually shrink.  Below z of
    about 1.9e-154 (dl) or 2.2e-308 (al) the rate leaves the float range and
    rounds to -inf.
    """
    z = np.asarray(z, dtype=float)
    check_entries(z, (z > 0.0) & np.isfinite(z),
                  "scaled size must be positive and finite, got %r")
    z = z[()]
    with np.errstate(divide="ignore", over="ignore"):
        rate = regime.rate_constant * (z - 1.0) / z**regime.growth_exponent
    return float_if_0d(rate - z)


def growth_rate_physical(regime: Regime, radius: float, r_c: float) -> float:
    """Unscaled growth law dR/dt for a particle of ``radius`` at critical
    radius ``r_c`` (both in the units where the rate constants above hold);
    in float64, so a radius**lam beyond the float range rounds, not raises.
    Where ``radius / r_c`` overflows, the rate is taken as
    ``1/(r_c radius**(lam-1)) - 1/radius**lam``, which does not."""
    radius = float(radius)
    r_c = float(r_c)
    if not (radius > 0.0 and math.isfinite(radius)):
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    if not (r_c > 0.0 and math.isfinite(r_c)):
        raise DomainError(f"critical radius must be positive and finite, got {r_c!r}")
    lam = regime.growth_exponent
    radius = np.float64(radius)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = radius / r_c
        if ratio == math.inf:
            rate = 1.0 / (r_c * radius ** (lam - 1)) - 1.0 / radius**lam
        else:
            rate = (ratio - 1.0) / radius**lam
    return float(rate)


def coarsening_slope(regime: Regime) -> float:
    """Rate ``d(R_c**gamma)/dt = gamma/nu`` (4/9 for dl, 1/2 for al)."""
    return regime.coarsening_exponent / regime.rate_constant


def critical_radius(regime: Regime, r_c0: float, t: float) -> float:
    """Critical radius at time ``t`` given its value ``r_c0`` at ``t = 0``.

    ``R_c(t) = (r_c0**gamma + (gamma/nu) t)**(1/gamma)``.  ``r_c0 = 0`` is
    accepted: it selects the pure late-stage baseline ``R_c**gamma =
    (gamma/nu) t``, which is the natural clock for everything downstream.
    ``R_c**gamma`` must stay a finite float.
    """
    r_c0 = float(r_c0)
    t = float(t)
    if not (r_c0 >= 0.0 and math.isfinite(r_c0)):
        raise DomainError(f"initial critical radius must be >= 0, got {r_c0!r}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"time must be >= 0, got {t!r}")
    gamma = regime.coarsening_exponent
    try:
        power = r_c0**gamma + coarsening_slope(regime) * t
    except OverflowError:  # r_c0**gamma alone
        power = math.inf
    if power == math.inf:
        raise DomainError(
            f"R_c**{gamma} = r_c0**{gamma} + (gamma/nu) t must be <= "
            f"{sys.float_info.max!r}, got r_c0={r_c0!r}, t={t!r}"
        )
    return power ** (1.0 / gamma)


def _tau_closed_form(regime: Regime, z):
    # Antiderivative of 1/(dz/dtau); valid on [0, z_max), finite at z = 0.
    if regime.kind == "dl":
        # dz/dtau = -(2z - 3)^2 (z + 3) / (4 z^2); partial fractions give
        # coefficients (-10/9, -2, -4/9) on 1/(3-2z), 1/(3-2z)^2, 1/(z+3).
        return (
            1.0 / (2.0 * z - 3.0)
            - (5.0 / 9.0) * np.log(3.0 - 2.0 * z)
            - (4.0 / 9.0) * np.log(z + 3.0)
        )
    # al: dz/dtau = -(z - 2)^2 / z.
    return 2.0 / (z - 2.0) - np.log(2.0 - z)


def _flow_time_down(regime: Regime, z, d):
    """tau(z - d) - tau(z): the rescaled time the flow takes from z down to
    z - d, for 0 < z < z_max and 0 <= d <= z; numpy arrays elementwise.

    The closed forms are differenced in d: reciprocal differences, and
    log1p of the ratios of the log arguments.  The result keeps the
    relative precision of d as d -> 0, and it is the lifetime
    tau(0) - tau(z) where z - d is 0.  Below z of about 0.3 the O(d) terms
    cancel; evolve_scaled takes :func:`_lifetime_drop` there.
    """
    if regime.kind == "dl":
        cut = 3.0 - 2.0 * z  # exact for z in [1, 3/2]
        d2 = 2.0 * d
        q = d2 / cut
        return (
            q / (cut + d2)
            - (5.0 / 9.0) * np.log1p(q)
            - (4.0 / 9.0) * np.log1p(d / (-3.0 - z))
        )
    cut = 2.0 - z  # exact for z in [1, 2]
    q = d / cut
    return 2.0 * q / (cut + d) - np.log1p(q)


# Below z = _SERIES_BELOW, _flow_time_down's O(d) terms cancel, and flow
# times are summed from the power series of the lifetime instead.  Its
# radius of convergence is z_max; 40 terms reach 2e-16 relative at 0.5.
_SERIES_BELOW = 0.5
_SERIES_TERMS = 40


def _lifetime_series(regime: Regime) -> tuple:
    """Taylor coefficients of the lifetime
    L(z) = int_0^z x^lam / (nu (1 - x) + x^(lam+1)) dx = tau(0) - tau(z),
    highest degree first for Horner.

    With 1/(1 - x + x^(lam+1)/nu) = sum_n c_n x^n, c_0 = 1 and
    c_n = c_(n-1) - c_(n-lam-1)/nu, every c_n > 0, and L(z) is
    sum_n c_n z^(n+lam+1) / (nu (n+lam+1)): z**3/(3 nu) + ... in dl and
    z**2/(2 nu) + ... in al.  Run in floats, the recurrence gives every
    coefficient within 3 ulps of its exact value.
    """
    lam, nu = regime.growth_exponent, regime.rate_constant
    c = [1.0]
    for n in range(1, _SERIES_TERMS):
        c.append(c[-1] - (c[n - lam - 1] / nu if n > lam else 0.0))
    terms = [cn / (nu * (n + lam + 1)) for n, cn in enumerate(c)]
    return tuple(reversed([0.0] * (lam + 1) + terms))


_LIFETIME_SERIES = {kind: _lifetime_series(r) for kind, r in REGIMES.items()}


def _lifetime_drop(regime: Regime, z: float, d):
    """L(z) - L(z - d) = tau(z - d) - tau(z), for 0 < z < _SERIES_BELOW and
    0 <= d <= z, from the series of the lifetime L; d a numpy scalar or
    array.

    Horner's rule run at z gives L(z), and alongside it at z and w = z - d
    the divided difference (L(z) - L(w)) / d; every term of both is >= 0,
    so the result keeps the relative precision of d, and it is L(z) where
    w is 0.
    """
    coeffs = _LIFETIME_SERIES[regime.kind]
    w = z - d
    p, q = coeffs[0], 0.0
    for c in coeffs[1:]:
        q = q * w + p
        p = p * z + c
    return d * q


def _check_below_cutoff(regime: Regime, z, name: str):
    z = np.asarray(z, dtype=float)
    check_entries(z, (0.0 < z) & (z < regime.z_max - CUTOFF_GUARD),
                  f"{name} must lie in (0, {regime.z_max} - {CUTOFF_GUARD:g}), "
                  "got %r")
    # A numpy scalar for a 0-d z: the closed forms then skip the 0-d array
    # machinery, which costs more than their arithmetic.
    return z[()]


def flow_time(regime: Regime, z):
    """Closed-form rescaled time tau(z) at which a trajectory passes ``z``.

    tau is strictly decreasing on (0, z_max), diverges to -inf at the cutoff
    and stays finite (tau(0) = -1/3 - ln 3 for dl, -1 - ln 2 for al) at the
    dissolution end.  Defined up to a constant; this branch is the one used
    consistently across the package.
    """
    z = _check_below_cutoff(regime, z, "z")
    return float_if_0d(_tau_closed_form(regime, z))


def return_invariant(regime: Regime, z):
    """Return-condition potential ``alpha(z) = ln z + tau(z)``.

    Unimodal with its maximum at z = 1 (where alpha'' = -nu), so each
    super-critical size has exactly one sub-critical partner with equal
    alpha.
    """
    z = _check_below_cutoff(regime, z, "z")
    return float_if_0d(np.log(z) + _tau_closed_form(regime, z))


def evolve_scaled(regime: Regime, z_start: float, delta_tau):
    """Advance the rescaled flow: the z reached ``delta_tau`` after ``z_start``.

    Bisects z in [0, z_start] to adjacent floats for
    tau(z) - tau(z_start) = delta_tau, from :func:`_flow_time_down`, or
    below ``z_start`` = 0.5 from the lifetime series of
    :func:`_lifetime_drop`, where the closed forms' O(d) terms cancel; an
    array of offsets is one bisection, and a zero offset returns
    ``z_start`` exactly.  Within 6e-16 of mpmath, relative, for every
    ``z_start`` from 1e-60 up and offsets to 0.7 lifetimes; closer to the
    lifetime L(z_start) the root is ill-conditioned, and the rounding of
    ``delta_tau`` alone moves it by about L(z_start)/L(z) ulps.  Raises
    ``DomainError`` for a ``z_start`` that is not a scalar, and when the
    trajectory dissolves (reaches z = 0) before ``delta_tau`` elapses,
    naming the lifetime.
    """
    if np.ndim(z_start):
        raise DomainError(f"z_start must be a scalar, got shape {np.shape(z_start)}")
    z_start = float(_check_below_cutoff(regime, z_start, "z_start"))
    delta_tau = np.asarray(delta_tau, dtype=float)
    check_entries(delta_tau, (delta_tau >= 0.0) & np.isfinite(delta_tau),
                  "delta_tau must be >= 0, got %r")
    drop = _lifetime_drop if z_start < _SERIES_BELOW else _flow_time_down
    lifetime = float(drop(regime, z_start, z_start))
    check_entries(delta_tau, (delta_tau < lifetime) | (delta_tau == 0.0),
                  f"trajectory from z={z_start!r} dissolves after delta_tau="
                  f"{lifetime!r} < %r")
    z = find_root(
        lambda z: delta_tau - drop(regime, z_start, z_start - z),
        np.zeros_like(delta_tau),
        z_start,
    )
    # Where the lifetime rounds to 0 (z_start = 1e-200), a zero offset is an
    # exact zero at both ends, and find_root keeps the lower one.
    return float_if_0d(np.where(delta_tau == 0.0, z_start, z))
