"""Recrystallized volume fraction: how much of the solid phase formed late.

Between a reference time t0 and a later time t = s*t0, the material that
precipitated after t0 sits exactly in the particles that are still larger
than they were at t0.  With z0 = initial_size_for_ratio(s) and rho its
return pair, those are the particles that started above z0 at t0; at t they
lie above rho.  The pair has one physical radius, z0 R_c(t0) = rho R_c(t),
so rho = z0 s**(-1/gamma) follows from the clock ratio without a second
solve.  Their new volume, sum R(t)^3 - R(t0)^3, is the
volume-weighted tail above rho at t minus the volume-weighted tail above z0
at t0.  Total volume is conserved and both times share the stationary
density h, so against the whole population the difference is

    fraction(s) = (1 / m3) * integral_{rho(z0)}^{z0} h(x) x^3 dx,

with m3 the third moment of the size density.  It depends on t and t0 only
through the clock ratio s = (R_c(t)/R_c(t0))**gamma, which is t/t0 in the
late stage, exactly so for R_c(0) = 0 (see return_map.return_radius for
any R_c(0)).  It starts at 0 with slope h(1)/(gamma*m3), and saturates at 1
as the window (rho, z0) grows to the full support.  It is evaluated as
(M3(z0) - M3(rho)) / M3(z_max), a difference of one nondecreasing table of
the cumulative moment M3(z) = int_0^z h x^3 dx, so it lies in [0, 1] and
grows with s by construction, up to the largest finite s.  A window inside
one table panel (s - 1 below about 1.5e-3) is integrated directly over its
width -z0 expm1(-ln(s)/gamma) instead: the two table values would cancel
to a few digits there, while the direct panel keeps phi's relative
precision down to s = 1 + 1e-15.

z0 is the root of the return map's single matching equation, bisected to
adjacent floats, so phi meets its 40-digit references to about 1e-15.
new_volume_fraction takes a numpy array of ratios as well as a scalar: a
grid is one elementwise solve and one table read per window edge.
"""

from __future__ import annotations

import numpy as np

from .distribution import density, size_distribution
from .numerics import float_if_0d
from .regime import Regime
from .return_map import _log_ratio, initial_size_for_ratio

__all__ = [
    "new_volume_fraction",
    "fraction_from_start_size",
    "initial_growth_rate",
]


def _window(regime: Regime, z0, a, complement: bool = False):
    """Volume fraction in the window (rho, z0), rho = z0 e^-a; arrays
    elementwise.  A window within one table panel is integrated directly
    over its width -z0 expm1(-a), which keeps relative precision as a -> 0:
    near s = 1 the two table values would cancel to a few digits."""
    dist = size_distribution(regime)
    m3 = dist.moment(3)
    # Both edges in one table read: one density evaluation, not two.
    upper, lower = dist.cumulative_moment(3, np.stack((z0, z0 * np.exp(-a))))
    if complement:
        phi = 1.0 - (lower + (m3 - upper)) / m3
    else:
        phi = (upper - lower) / m3
    narrow = dist.panel_moment(3, z0, -z0 * np.expm1(-a))
    return float_if_0d(np.where(np.isnan(narrow), phi, narrow / m3))


def fraction_from_start_size(regime: Regime, z0, complement: bool = False):
    """New-volume fraction for the window whose upper edge is ``z0``; a
    scalar or a numpy array.

    Both forms read the one cumulative table M3 of the size distribution:
    the direct window ``(M3(z0) - M3(rho)) / m3`` (``complement=False``)
    and one minus the two leftover tails,
    ``1 - (M3(rho) + m3 - M3(z0)) / m3`` (True).  They agree to rounding.
    One solve gives a = ln(z0/rho), from which the window takes its lower
    edge and its width.
    """
    return _window(regime, *_log_ratio(regime, z0), complement)


def new_volume_fraction(regime: Regime, s):
    """Fraction of the solid volume at t = s*t0 that formed after t0.

    Zero at s = 1, strictly increasing, tends to 1 as s grows; a function
    of the time ratio alone.  One s -> z0 solve gives the window's upper
    edge, and a = ln(z0/rho) = ln(s)/gamma its lower edge and width, since
    z0 R_c(t0) = rho R_c(t).  Accepts a scalar or a numpy array: an array
    makes one solve for all of its entries.
    """
    return _window(regime, initial_size_for_ratio(regime, s),
                   np.log(s) / regime.coarsening_exponent)


def initial_growth_rate(regime: Regime) -> float:
    """Slope of the fraction at s = 1, in units of 1/t0: h(1)/(gamma*m3).

    About 0.51 for dl and 0.62 for al; the attachment-limited regime
    recrystallizes faster at first.
    """
    m3 = size_distribution(regime).moment(3)
    return density(regime, 1.0) / (regime.coarsening_exponent * m3)
