"""The closed forms the tests check the package against, in mpmath.

Each function takes the ``mpmath.mp`` context, so importing this module
needs no mpmath; the caller sets the working precision.  A regime is read
for its kind and constants alone: nothing is imported from ``ripening``.
"""


def density(mp, regime):
    """The stationary density h(z) of the scaled size z."""
    zm = mp.mpf(regime.z_max)
    if regime.kind == "dl":
        return lambda z: (81 * mp.e * mp.power(2, mp.mpf(-5) / 3) * z**2
                          * mp.power(z + 3, mp.mpf(-7) / 3)
                          * mp.power(zm - z, mp.mpf(-11) / 3)
                          * mp.exp(-3 / (3 - 2 * z)))
    return lambda z: 24 * z * mp.power(2 - z, -5) * mp.exp(-3 * z / (2 - z))


def tau(mp, regime):
    """The flow time tau(z) in closed form."""
    if regime.kind == "dl":
        return lambda z: (1 / (2 * z - 3) - mp.mpf(5) / 9 * mp.log(3 - 2 * z)
                          - mp.mpf(4) / 9 * mp.log(z + 3))
    return lambda z: 2 / (z - 2) - mp.log(2 - z)


def alpha(mp, regime):
    """alpha(z) = ln z + tau(z)."""
    flow = tau(mp, regime)
    return lambda z: mp.log(z) + flow(z)


def lifetime(mp, regime, z):
    """The lifetime L(z) = int_0^z x^lam / (nu (1 - x) + x^(lam+1)) dx,
    the flow time from z down to dissolution, by quadrature over x = z u so
    that it sees [0, 1] at every z; over [0, z] itself mp.quad misreads
    z = 1e-60 by 5e-11 relative (dl)."""
    lam, nu = regime.growth_exponent, regime.rate_constant
    z = mp.mpf(z)
    return z ** (lam + 1) * mp.quad(
        lambda u: u**lam / (nu * (1 - z * u) + (z * u) ** (lam + 1)),
        [0, 1])
