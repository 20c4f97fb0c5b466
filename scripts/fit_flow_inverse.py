"""Fit the inverse lifetime of the ensemble's exact flow by one polynomial.

    python3 scripts/fit_flow_inverse.py

A particle at ``x = u R < 1`` dissolves under the frozen field ``u`` after
``u**-p g_p(x)``, with ``g3 = -(log1p(-x) + x + x**2/2)`` (dl, p = 3) and
``g2 = -(log1p(-x) + x)`` (al, p = 2).  In ``w = (p g_p)**(1/p)``, which is
``x`` to first order, the inverse ``x(w)`` is analytic on the flow's range
``0 <= x <= 0.75``, so ``x/w`` is fitted there by mpmath ``chebyfit`` with
16 terms and evaluated by Horner: ``x = w * Q_p(w)``.

Prints, per regime, the fit interval, the coefficients as the literal
``ripening.ensemble._INVERSE`` holds them (highest degree first), the error
``chebyfit`` reports, the largest error of the float coefficients on a dense
grid of the interval, and the largest relative error of
``ripening.ensemble._inverse_lifetime`` against the exact inverse for ``x``
from 1e-90 to 0.75 (when ``ripening`` is importable from ``src``).  Needs
mpmath; takes about half a minute on one core.
"""

import os
import sys

import mpmath
from mpmath import mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The flow's largest x: a prefix particle has u R < 1/2, and the mid-step
# field is capped at 1.5 u (see ripening.ensemble).
X_TOP = 0.75
TERMS = 16
DPS = 50


def lifetime(x, p):
    """g_p(x) to DPS digits; the extra digits cover the cancellation of
    about p log10(1/x) digits in the closed form."""
    extra = int(p * max(0.0, -float(mpmath.log10(x)))) if x > 0 else 0
    with mp.workdps(DPS + extra):
        x = mp.mpf(x)
        return +(-(mp.log1p(-x) + x + (x * x / 2 if p == 3 else 0)))


def w_of_x(x, p):
    return mp.root(p * lifetime(x, p), p)


def x_of_w(w, p):
    """The x with w_p(x) = w, by bisection on [w/2, w]: g_p(x) >= x**p/p,
    so x <= w, and x >= w/2 on the fit interval."""
    lo, hi = w / 2, w
    for _ in range(mp.prec + 8):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if w_of_x(mid, p) < w else (lo, mid)
    return (lo + hi) / 2


def fit(p):
    mp.dps = DPS
    top = w_of_x(mp.mpf(X_TOP), p)
    coeffs, err = mpmath.chebyfit(lambda w: x_of_w(w, p) / w, [0, top],
                                  TERMS, error=True)
    return top, coeffs, err


def dense_error(coeffs, top, p, points=400):
    """Largest |x/w - Q(w)| over a dense grid, Q with the float coefficients
    evaluated exactly."""
    floats = [mp.mpf(float(c)) for c in coeffs]
    worst = mp.zero
    for i in range(1, points + 1):
        w = top * i / points
        worst = max(worst, abs(x_of_w(w, p) / w - mpmath.polyval(floats, w)))
    return worst


def package_error(p):
    """Largest relative error of _inverse_lifetime for x in [1e-90, 0.75],
    against the exact inverse of the float lifetime it is given."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy as np
        from ripening.ensemble import _inverse_lifetime
    except ImportError:
        return None
    xs = np.concatenate([np.geomspace(1e-90, X_TOP, 150),
                         np.linspace(0.7, X_TOP, 11)])
    tau = np.array([float(lifetime(mp.mpf(float(x)), p)) for x in xs])
    got = _inverse_lifetime(tau, p)
    worst = 0.0
    for t, x in zip(tau, got):
        exact = x_of_w(mp.root(p * mp.mpf(float(t)), p), p)
        worst = max(worst, float(abs(mp.mpf(float(x)) - exact) / exact))
    return worst


def main():
    for kind, p in (("dl", 3), ("al", 2)):
        top, coeffs, err = fit(p)
        print(f"{kind} (p = {p}): w on [0, {mpmath.nstr(top, 17)}], "
              f"{TERMS} terms")
        print("    (" + "\n     ".join(f"{float(c)!r}," for c in coeffs) + ")")
        print(f"  chebyfit error {mpmath.nstr(err, 3)}; float coefficients "
              f"{mpmath.nstr(dense_error(coeffs, top, p), 3)} on a dense grid")
        worst = package_error(p)
        if worst is not None:
            print(f"  _inverse_lifetime: largest relative error {worst:.2g}")


if __name__ == "__main__":
    main()
