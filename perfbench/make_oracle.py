"""Generate perfbench/oracle.json: reference values of the new-volume fraction.

The oracle is independent of the ``ripening`` package.  It is written from
the closed forms of the rescaled flow and the stationary densities, evaluated
in mpmath at 50 significant digits, and it uses a different formulation of the
return map than the package does: for a time ratio s the pair (z0, rho) has
rho = z0 * s**(-1/gamma), so z0 is the single root of

    F(z0) = alpha(z0) - alpha(z0 * s**(-1/gamma)),   alpha(z) = ln z + tau(z),

on (1, z_max).  F is positive at z0 = 1 and tends to -inf at the cutoff.
Roots are found by plain bracketing bisection; secant-type solvers stall on
the double root of alpha - alpha(1) at z = 1.  The fraction is then

    phi(s) = integral_rho^z0 h(x) x^3 dx / integral_0^z_max h(x) x^3 dx

by tanh-sinh quadrature.  The script checks its own inputs before writing:
tau' equals 1/(dz/dtau), each density integrates to 1, and the first moments
are 1 (dl) and 8/9 (al).

Run from the repository root (takes a few minutes):

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import os

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DIGITS = 30

GRIDS = {
    "analytic": np.geomspace(1.0, 1e3, 200),
    "tail": np.geomspace(1e3, 1e300, 200),
    # snapshot ratios of the CLI's default simulate run (1.5, 2 and 3 x t0)
    "ensemble": np.array([1.5, 2.0, 3.0]),
}


class Kinetics:
    def __init__(self, kind):
        self.kind = kind
        if kind == "dl":
            self.gamma, self.nu, self.lam, self.z_max = 3, mp.mpf(27) / 4, 2, mp.mpf(3) / 2
        else:
            self.gamma, self.nu, self.lam, self.z_max = 2, mp.mpf(4), 1, mp.mpf(2)
        self._m3 = None

    def rate(self, z):
        """dz/dtau of the rescaled flow."""
        return self.nu * (z - 1) / z**self.lam - z

    def tau(self, z):
        """An antiderivative of 1/(dz/dtau) on (0, z_max)."""
        if self.kind == "dl":
            # 1/rate = -4z^2 / ((2z-3)^2 (z+3))
            #        = (-10/9)/(2z-3) - 2/(2z-3)^2 - (4/9)/(z+3)
            return (1 / (2 * z - 3) - mp.mpf(5) / 9 * mp.log(3 - 2 * z)
                    - mp.mpf(4) / 9 * mp.log(z + 3))
        # 1/rate = -z/(z-2)^2 = -1/(z-2) - 2/(z-2)^2
        return 2 / (z - 2) - mp.log(2 - z)

    def alpha(self, z):
        return mp.log(z) + self.tau(z)

    def density(self, z):
        if z <= 0 or z >= self.z_max:
            return mp.mpf(0)
        if self.kind == "dl":
            return (81 * mp.e * mp.power(2, mp.mpf(-5) / 3) * z**2
                    * mp.power(z + 3, mp.mpf(-7) / 3)
                    * mp.power(mp.mpf(3) / 2 - z, mp.mpf(-11) / 3)
                    * mp.exp(-3 / (3 - 2 * z)))
        return 24 * z * mp.power(2 - z, -5) * mp.exp(-3 * z / (2 - z))

    def moment_integral(self, k, a, b):
        points = [a] + [p for p in (mp.mpf(1) / 2, mp.mpf(1)) if a < p < b] + [b]
        value, err = mp.quad(lambda x: self.density(x) * x**k, points, error=True)
        if err > mp.mpf(10) ** -(DIGITS + 2):
            raise RuntimeError(f"{self.kind}: quadrature error {err} on [{a}, {b}]")
        return value

    @property
    def m3(self):
        if self._m3 is None:
            self._m3 = self.moment_integral(3, mp.mpf(0), self.z_max)
        return self._m3

    def start_size(self, s):
        """z0 with (z0/rho)**gamma = s and alpha(rho) = alpha(z0)."""
        c = mp.power(s, mp.mpf(-1) / self.gamma)
        f = lambda z0: self.alpha(z0) - self.alpha(c * z0)
        lo, hi = mp.mpf(1), self.z_max - mp.mpf(10) ** -3
        while f(hi) >= 0:
            hi = (hi + self.z_max) / 2
        if not f(lo) > 0:
            raise RuntimeError(f"{self.kind}: no bracket for s={s}")
        for _ in range(mp.mp.prec + 20):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2, c

    def fraction(self, s):
        s = mp.mpf(float(s))
        if s == 1:
            return mp.mpf(1), mp.mpf(0)
        z0, c = self.start_size(s)
        return z0, self.moment_integral(3, c * z0, z0) / self.m3

    def self_check(self):
        for z in (mp.mpf("0.3"), mp.mpf("0.9"), mp.mpf("1.2"), self.z_max - mp.mpf("0.01")):
            if abs(mp.diff(self.tau, z) * self.rate(z) - 1) > mp.mpf(10) ** -30:
                raise RuntimeError(f"{self.kind}: tau'(z) != 1/rate(z) at {z}")
        m0 = self.moment_integral(0, mp.mpf(0), self.z_max)
        m1 = self.moment_integral(1, mp.mpf(0), self.z_max)
        want_m1 = mp.mpf(1) if self.kind == "dl" else mp.mpf(8) / 9
        if abs(m0 - 1) > mp.mpf(10) ** -DIGITS or abs(m1 - want_m1) > mp.mpf(10) ** -DIGITS:
            raise RuntimeError(f"{self.kind}: moments {m0}, {m1} off (1, {want_m1})")


def main():
    out = {
        "about": "phi(s) and z0(s) from perfbench/make_oracle.py "
                 f"(mpmath {mp.__version__}, {mp.mp.dps} digits, bisection)",
        "digits": DIGITS,
        "grids": {},
    }
    for kind in ("dl", "al"):
        kin = Kinetics(kind)
        kin.self_check()
        for name, grid in GRIDS.items():
            rows = {"s": [], "z0": [], "phi": []}
            for s in grid:
                z0, phi = kin.fraction(s)
                if not 0 <= phi <= 1:
                    raise RuntimeError(f"{kind}: phi({s}) = {phi} outside [0, 1]")
                rows["s"].append(float(s))
                rows["z0"].append(mp.nstr(z0, DIGITS, strip_zeros=False))
                rows["phi"].append(mp.nstr(phi, DIGITS, strip_zeros=False))
            out["grids"].setdefault(name, {})[kind] = rows
            print(f"{kind} {name}: {len(grid)} points", flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
