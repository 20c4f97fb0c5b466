"""Small numerical kernels: bracketed root finding, adaptive quadrature and
an embedded Runge-Kutta integrator.

Root solves and trajectory integrations go through here; the quadrature is
the Gauss-Legendre table of ``distribution.SizeDistribution``, and
:func:`integrate` is kept as an independent reference for the tests.  The
routines are deliberately plain: bisection is slow but cannot be fooled by
the nearly-flat functions this package inverts, and the quadrature/ODE
kernels are classic textbook schemes with defensive checks for non-finite
values.  :func:`find_root` bisects elementwise over numpy arrays, so a
whole grid of roots is one solve, and it has one stop rule for every
root: an exact zero, or a bracket closed to two adjacent floats.  The
same loop serves a single root: its bracket is a 0-d array, and ``f``
gets the midpoint as a numpy scalar, so the function being inverted runs
numpy scalar arithmetic rather than 0-d array calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    IntegrationError,
)

__all__ = [
    "Tolerance",
    "DEFAULT_QUAD_TOL",
    "DEFAULT_ODE_TOL",
    "find_root",
    "integrate",
    "solve_ode",
]


@dataclass(frozen=True)
class Tolerance:
    """Convergence budget of :func:`integrate` and :func:`solve_ode`.

    Attributes
    ----------
    abs_tol, rel_tol:
        Absolute and relative parts of the acceptance test; at least one
        is > 0.
    max_iter:
        Hard cap on iterations (subdivision depth, or accepted+rejected ODE
        steps, depending on the consumer).
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise DomainError("tolerances must be finite")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("at least one of abs_tol/rel_tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be a positive integer")

    def gate(self, scale: float) -> float:
        """Acceptance width for a quantity of magnitude ``scale``."""
        return self.abs_tol + self.rel_tol * abs(scale)


DEFAULT_QUAD_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_iter=60)
DEFAULT_ODE_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-10, max_iter=1_000_000)


def float_if_0d(x):
    """A 0-d result as a float, any other array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def find_root(
    f: Callable,
    lo,
    hi,
    max_iter: int = 200,
):
    """Locate a root of ``f`` inside the bracket ``[lo, hi]`` by bisection.

    Elementwise over numpy arrays: ``lo`` and ``hi`` broadcast to one shape,
    ``f`` maps an array of that shape to its values there, and every entry
    is bisected at once.  A 0-d bracket hands ``f`` a ``np.float64``, whose
    arithmetic costs a fraction of a 0-d array's, and gives a float.  The
    endpoints must straddle a sign change.  An entry stops only at an exact
    zero, or when its bracket closes to two adjacent floats; its lower end
    is returned.  ``max_iter`` is the step budget: closing a bracket takes
    about ``log2((hi - lo) / ulp(root))`` steps.
    The functions inverted in this package are monotone but extremely flat
    near their roots, which rules out secant-type accelerations that assume
    a usable local slope.

    A closed bracket is a fixed point of the update, so no step masks the
    closed entries out, and closure is tested only every 8th step (and on
    the last one).  An exact zero puts both ends on it; otherwise
    ``f(lo) * sign < 0 < f(hi) * sign`` holds strictly, and the midpoint of
    two adjacent floats is one of them, whose sign moves that end onto
    itself.  Each entry therefore gets the value a scalar call would, at
    the cost of up to 7 more evaluations of ``f``.

    Raises
    ------
    DomainError
        If ``max_iter < 1``, a bracket is empty/inverted or ``f`` returns a
        NaN.
    BracketError
        If ``f(lo)`` and ``f(hi)`` have the same sign.
    ConvergenceError
        If ``max_iter`` bisections do not close every bracket.
    """
    if max_iter < 1:
        raise DomainError("max_iter must be a positive integer")
    lo, hi = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    bad = ~(lo < hi)
    if bad.any():
        raise DomainError(
            f"invalid bracket: lo={float(lo[bad][0])!r} must be < "
            f"hi={float(hi[bad][0])!r}"
        )
    # x[()] is a numpy scalar for a 0-d x and x itself otherwise.
    flo = np.broadcast_to(f(lo[()]), lo.shape)
    fhi = np.broadcast_to(f(hi[()]), hi.shape)
    if np.isnan(flo).any() or np.isnan(fhi).any():
        raise DomainError("f is NaN at a bracket endpoint")
    at_lo, at_hi = flo == 0.0, fhi == 0.0
    bad = ~(at_lo | at_hi) & ((flo > 0.0) == (fhi > 0.0))
    if bad.any():
        raise BracketError(
            f"no sign change on [{float(lo[bad][0])!r}, {float(hi[bad][0])!r}]: "
            f"f(lo)={float(flo[bad][0])!r}, f(hi)={float(fhi[bad][0])!r}"
        )
    # An entry with an exact zero at an endpoint starts closed on it.
    np.copyto(lo, hi, where=at_hi & ~at_lo)
    np.copyto(hi, lo, where=at_lo | at_hi)
    sign = np.sign(fhi)  # f * sign is positive above each root
    mid = np.empty_like(lo)
    last = max_iter - 1
    for step in range(max_iter):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        if ((step % 8 == 0 or step == last)
                and not np.count_nonzero((lo < mid) & (mid < hi))):
            return float_if_0d(lo)
        above = f(mid[()]) * sign
        # An exact zero moves both ends onto it; a NaN moves neither, so its
        # entry never closes (see below).
        np.copyto(hi, mid, where=above >= 0.0)
        np.copyto(lo, mid, where=above <= 0.0)
    if np.isnan(f(mid[()])).any():
        raise DomainError(f"f is NaN inside the bracket, near x={mid!r}")
    raise ConvergenceError(
        f"bisection did not converge in {max_iter} iterations "
        f"(bracket [{lo!r}, {hi!r}])"
    )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_QUAD_TOL,
) -> float:
    """Integrate ``f`` over ``[a, b]`` with adaptive Simpson quadrature.

    Panels are split until the classic ``|S2 - S1|/15`` estimate passes the
    local error budget, which is halved on every split; accepted panels use
    the Richardson-extrapolated value.  ``tol.max_iter`` bounds the recursion
    depth.

    Raises ``DomainError`` for an inverted interval or a non-finite
    integrand value, ``ConvergenceError`` if the depth limit is hit.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if a > b:
        raise DomainError(f"inverted interval: a={a!r} > b={b!r}")
    if a == b:
        return 0.0

    def _eval(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise DomainError(f"integrand is not finite at x={x!r} (got {y!r})")
        return y

    m = 0.5 * (a + b)
    fa, fm, fb = _eval(a), _eval(m), _eval(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = tol.gate(whole)

    def _adapt(a, m, b, fa, fm, fb, whole, eps, depth):
        if depth > tol.max_iter:
            raise ConvergenceError(
                f"adaptive quadrature exceeded depth {tol.max_iter} near x={m!r}"
            )
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = _eval(lm), _eval(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return _adapt(a, lm, m, fa, flm, fm, left, 0.5 * eps, depth + 1) + _adapt(
            m, rm, b, fm, frm, fb, right, 0.5 * eps, depth + 1
        )

    return _adapt(a, m, b, fa, fm, fb, whole, budget, 1)


# Dormand-Prince 5(4) tableau.  The last stage row doubles as the 5th-order
# weights (FSAL); _DP_ERR holds b5 - b4 for the embedded error estimate.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B5 = _DP_A[6] + (0.0,)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


def _dp_step(f, x, y, h, k1):
    """One Dormand-Prince step; returns (y5, err_term, k_last)."""
    k = [k1]
    for i in range(1, 7):
        yi = y + h * math.fsum(aij * kj for aij, kj in zip(_DP_A[i], k))
        k.append(f(x + _DP_C[i] * h, yi))
    y5 = y + h * math.fsum(b * kj for b, kj in zip(_DP_B5, k))
    err = h * math.fsum(e * kj for e, kj in zip(_DP_ERR, k))
    return y5, err, k[6]


def solve_ode(
    f: Callable[[float, float], float],
    y0: float,
    x0: float,
    x1: float,
    tol: Tolerance = DEFAULT_ODE_TOL,
) -> float:
    """Integrate the scalar ODE ``dy/dx = f(x, y)`` from ``x0`` to ``x1``.

    Uses the Dormand-Prince 5(4) embedded pair with standard proportional
    step control; returns ``y(x1)``.  Only forward integration
    (``x1 >= x0``) is supported.

    Raises ``IntegrationError`` if the state or a stage derivative becomes
    non-finite, and ``ConvergenceError`` if the step budget runs out (for
    example when the controller grinds to a halt on a singularity).
    """
    x0 = float(x0)
    x1 = float(x1)
    y = float(y0)
    if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(y)):
        raise DomainError("solve_ode requires finite x0, x1, y0")
    if x1 < x0:
        raise DomainError(f"backward integration not supported (x0={x0!r}, x1={x1!r})")
    if x1 == x0:
        return y

    x = x0
    span = x1 - x0
    h = span / 64.0
    k1 = f(x, y)
    if not math.isfinite(k1):
        raise IntegrationError(f"derivative not finite at x={x!r}, y={y!r}")

    for _ in range(tol.max_iter):
        h = min(h, x1 - x)
        y5, err, k_last = _dp_step(f, x, y, h, k1)
        if not math.isfinite(y5) or not math.isfinite(err):
            # Retry on a shorter step before giving up.
            h *= 0.25
            if h < 1e-14 * span:
                raise IntegrationError(
                    f"solution blew up near x={x!r} (y={y!r})"
                )
            continue
        scale = tol.gate(max(abs(y), abs(y5)))
        ratio = abs(err) / scale if scale > 0.0 else math.inf
        if ratio <= 1.0:
            x += h
            y = y5
            k1 = k_last  # FSAL: last stage is next step's first stage
            if x >= x1:
                return y
        grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
        h *= min(5.0, max(0.2, grow))
        if x + h == x:
            raise ConvergenceError(
                f"step size underflow at x={x!r} (h={h!r})"
            )
    raise ConvergenceError(
        f"ODE solver exceeded {tol.max_iter} steps (reached x={x!r} of {x1!r})"
    )


def _fixed_step_rk45(f, y0, x0, x1, n_steps):
    # Fixed-step driver over the same tableau; used by the order-of-accuracy
    # tests, which need the error to scale with a known power of h.
    h = (x1 - x0) / n_steps
    x, y = x0, y0
    for _ in range(n_steps):
        y, _, _ = _dp_step(f, x, y, h, f(x, y))
        x += h
    return y
