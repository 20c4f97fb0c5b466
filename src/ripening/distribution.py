"""Scaled particle size distributions of the two coarsening regimes.

In the self-similar late stage the rescaled sizes z = R/R_c are distributed
with the stationary densities

    dl:  h(z) = 81 e 2^(-5/3) z^2 (z+3)^(-7/3) (3/2 - z)^(-11/3) e^(-3/(3-2z))
    al:  h(z) = 24 z (2 - z)^(-5) e^(-3z/(2-z))

on (0, z_max), identically zero beyond the cutoff.  The essential
singularity in the exponent beats the diverging power prefactor, so h goes
to zero smoothly at z_max; numerically that fight overflows long before the
exponential wins, which is why evaluation happens in log space with an
underflow-to-zero policy.

Both densities integrate to exactly 1 as written (confirmed by quadrature
to full precision), so nothing here renormalizes.  The first moment is 1 in
the dl regime (the critical radius equals the mean radius) and 8/9 in the
al regime.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_entries
from .numerics import float_if_0d
from .regime import Regime

__all__ = ["density", "SizeDistribution", "size_distribution"]

# log of the dl normalization constant 81 e 2^(-5/3)
_LOG_PREF_DL = math.log(81.0) + 1.0 - (5.0 / 3.0) * math.log(2.0)
_LOG_24 = math.log(24.0)
# exp() underflows to subnormal/zero around -745; below this the density is
# zero to double precision anyway.
_LOG_FLOOR = -740.0
# 7-point Gauss-Legendre abscissae and weights on [-1, 1], the float64 values
# of numpy.polynomial.legendre.leggauss(7), written out so that importing
# the package loads no numpy.polynomial.
_GX = np.array([-0.9491079123427586, -0.7415311855993945, -0.4058451513773972,
                0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_GW = np.array([0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
                0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
                0.12948496616886973])


def _log_density_dl(z, cut):
    # cut = 3/2 - z > 0; note 3 - 2z = 2*cut.
    return (
        _LOG_PREF_DL
        + 2.0 * np.log(z)
        - (7.0 / 3.0) * np.log(z + 3.0)
        - (11.0 / 3.0) * np.log(cut)
        - 1.5 / cut
    )


def _log_density_al(z, cut):
    # cut = 2 - z > 0.
    return _LOG_24 + np.log(z) - 5.0 * np.log(cut) - 3.0 * z / cut


def density(regime: Regime, z):
    """Scaled size density h(z); accepts a scalar or a numpy array.

    Zero at z = 0, zero for z >= z_max, positive in between; the exponent is
    evaluated in log space and flushed to 0.0 on underflow so the deep tail
    never produces inf/nan.  A scalar goes through the same array code (as
    a 0-d array) and comes back as a float.

    Raises ``DomainError`` for any negative or non-finite z.
    """
    log_f = _log_density_dl if regime.kind == "dl" else _log_density_al
    z = np.asarray(z, dtype=float)
    check_entries(z, (z >= 0.0) & np.isfinite(z),
                  "scaled sizes must be >= 0 and finite, got %r")
    out = np.zeros(z.shape)
    inside = (z > 0.0) & (z < regime.z_max)
    zi = z[inside]
    logs = log_f(zi, regime.z_max - zi)
    out[inside] = np.where(logs > _LOG_FLOOR, np.exp(logs), 0.0)
    return float_if_0d(out)


class SizeDistribution:
    """Moments, CDF and inverse-CDF sampling for one regime's density, all
    read from one table: the cumulative moments M_k(z) = int_0^z h x^k dx on
    a fixed Gauss-Legendre grid.  Each M_k is built once, lazily; the CDF is
    M_0 / M_0(z_max).  Use :func:`size_distribution` to share instances.
    """

    #: number of nodes in the tabulated CDF
    CDF_POINTS = 4096

    def __init__(self, regime: Regime):
        self.regime = regime
        # Chebyshev-style cosine spacing: nodes cluster at both endpoints,
        # where the density is flattest and steepest respectively.
        theta = np.linspace(0.0, math.pi, self.CDF_POINTS)
        self._grid = 0.5 * regime.z_max * (1.0 - np.cos(theta))
        self._moments: dict[int, np.ndarray] = {}  # k -> M_k at the nodes
        self._cdf: tuple[np.ndarray, np.ndarray] | None = None

    def _panels(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # 7-point Gauss-Legendre integral of h x^k on each panel [a, b]
        # (exact to ~1e-15 for these smooth panels at this resolution).
        return self._gauss(k, 0.5 * (b + a), 0.5 * (b - a))

    def _gauss(self, k: int, mid: np.ndarray, half: np.ndarray) -> np.ndarray:
        # The same rule on the panels mid - half to mid + half.
        x = mid[..., None] + half[..., None] * _GX
        return (density(self.regime, x) * x**k * _GW).sum(axis=-1) * half

    def _cumulative(self, k: int) -> np.ndarray:
        if not (k >= 0 and float(k).is_integer()):
            raise DomainError(f"moment order must be an integer >= 0, got {k!r}")
        k = int(k)
        if k not in self._moments:
            mass = self._panels(k, self._grid[:-1], self._grid[1:])
            self._moments[k] = np.concatenate(([0.0], np.cumsum(mass)))
        return self._moments[k]

    def moment(self, k: int) -> float:
        """k-th moment of the density over its full support, for an integer
        order ``k >= 0`` (3 or 3.0; any other k raises ``DomainError``)."""
        return float(self._cumulative(k)[-1])

    def cumulative_moment(self, k: int, z):
        """M_k(z): the table at the node below z plus one panel up to z.

        Nondecreasing in z, 0 at z = 0 and ``moment(k)`` from z_max on.
        Accepts a scalar or a numpy array, like :func:`density`.
        """
        table = self._cumulative(k)
        z = np.asarray(z, dtype=float)
        check_entries(z, z >= 0.0, "scaled sizes must be >= 0, got %r")
        i = self._node_below(z)
        j = np.minimum(i, self._grid.size - 2)  # the panel that holds z
        part = self._panels(k, self._grid[j], np.minimum(z, self._grid[j + 1]))
        # The partial panel may round past the whole one by an ulp.
        out = np.where(j < i, table[-1], np.minimum(table[j] + part, table[j + 1]))
        return float_if_0d(out)

    def panel_moment(self, k: int, z, width):
        """int_{z - width}^z h x^k dx by one 7-point panel, where the window
        lies within one table panel; otherwise NaN.  Accepts scalars or
        numpy arrays, like :func:`density`.

        The result has the relative precision of ``width``, where the
        difference of two :meth:`cumulative_moment` reads keeps only the
        digits that survive their cancellation.
        """
        z, width = np.broadcast_arrays(np.asarray(z, dtype=float),
                                       np.asarray(width, dtype=float))
        half = 0.5 * width
        i = self._node_below(z)
        inside = ((0.0 <= half) & (i < self._grid.size - 1)
                  & (z - width >= self._grid[i]))
        out = np.full(z.shape, np.nan)
        if inside.any():
            out[inside] = self._gauss(k, (z - half)[inside], half[inside])
        return float_if_0d(out)

    def _node_below(self, z):
        """Index of the last table node at or below each ``z``."""
        return np.searchsorted(self._grid, z, side="right") - 1

    @property
    def cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Strictly increasing table (z, H(z)) with H(0) = 0, H(z_max) = 1."""
        if self._cdf is not None:
            return self._cdf
        cdf = self._cumulative(0) / self._cumulative(0)[-1]
        # The deep tail can produce zero-mass panels at double precision;
        # drop repeated ordinates so the table stays strictly increasing.
        # The ratio is exactly 0.0 at the first node and exactly 1.0 at the
        # last, and the last node kept is the first to reach 1.0: it moves
        # to the cutoff.
        keep = np.concatenate(([True], np.diff(cdf) > 0.0))
        z_tab = self._grid[keep]
        h_tab = cdf[keep]
        z_tab[-1] = self.regime.z_max
        z_tab.setflags(write=False)
        h_tab.setflags(write=False)
        self._cdf = (z_tab, h_tab)
        return self._cdf

    def cdf(self, z):
        """Cumulative distribution H(z), by monotone interpolation of the
        table; accepts a scalar or array, clamps finite sizes outside the
        support.  Raises ``DomainError`` for a non-finite z."""
        z = np.asarray(z, dtype=float)
        check_entries(z, np.isfinite(z), "scaled sizes must be finite, got %r")
        z_tab, h_tab = self.cdf_table
        return float_if_0d(np.interp(z, z_tab, h_tab))

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n independent draws from the density via inverse-CDF lookup.

        n and the seed must be integers, n >= 1 and seed >= 0; draws are
        deterministic for a fixed seed and every one lies in (0, z_max).
        """
        if not isinstance(n, (int, np.integer)):
            raise DomainError(f"sample size must be an integer, got {n!r}")
        n = int(n)
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n!r}")
        if not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed!r}")
        z_tab, h_tab = self.cdf_table
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        # np.interp starts each search at the last one's index, so sorted
        # draws take about a third of the time; each value is the same.
        order = np.argsort(u)
        z = np.empty(n)
        z[order] = np.interp(u[order], h_tab, z_tab)
        return z


@lru_cache(maxsize=None)
def size_distribution(regime: Regime) -> SizeDistribution:
    """Shared :class:`SizeDistribution` instance for ``regime`` (moment and
    CDF caches are per-regime, so reuse them)."""
    return SizeDistribution(regime)
