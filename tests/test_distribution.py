"""Tests for the stationary size densities, their moments, CDF and sampling.

Point values and moments are pinned from a 40-digit quadrature of the
closed-form densities; the density itself is cross-checked against a direct
(non-log-space) transcription of the formulas.
"""

import math
import re

import numpy as np
import pytest

from ripening.distribution import (
    _GW,
    _GX,
    SizeDistribution,
    density,
    size_distribution,
)
from ripening.errors import DomainError
from ripening.regime import ATTACHMENT_LIMITED, DIFFUSION_LIMITED

import mp_oracle

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)

# Pinned at 40-digit precision.
H_DL = {0.5: 0.2080027245566515, 1.0: 1.7264316929508425, 1.25: 1.4805682798601593}
H_AL = {0.5: 0.58134035148079774, 1.0: 1.1948896408287346, 1.25: 0.85180959593376769}
M_DL = {0: 1.0, 1: 1.0, 2: 1.0462503345309491, 3: 1.1295999911801959}
M_AL = {0: 1.0, 1: 8.0 / 9.0, 2: 8.0 / 9.0, 3: 0.95667643279431058}


def _density_oracle(regime, z):
    # Naive transcription, fine away from the cutoff where nothing overflows.
    if regime.kind == "dl":
        return (81.0 * math.e * 2.0 ** (-5.0 / 3.0) * z**2
                * (z + 3.0) ** (-7.0 / 3.0) * (1.5 - z) ** (-11.0 / 3.0)
                * math.exp(-3.0 / (3.0 - 2.0 * z)))
    return 24.0 * z * (2.0 - z) ** (-5.0) * math.exp(-3.0 * z / (2.0 - z))


class TestDensity:
    @pytest.mark.parametrize("z,want", sorted(H_DL.items()))
    def test_pinned_dl(self, z, want):
        assert density(DIFFUSION_LIMITED, z) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("z,want", sorted(H_AL.items()))
    def test_pinned_al(self, z, want):
        assert density(ATTACHMENT_LIMITED, z) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_direct_formula(self, regime):
        for z in np.linspace(0.02, regime.z_max - 0.05, 120):
            assert density(regime, z) == pytest.approx(
                _density_oracle(regime, z), rel=1e-12
            )

    @pytest.mark.parametrize("regime", BOTH)
    def test_support(self, regime):
        assert density(regime, 0.0) == 0.0
        assert density(regime, regime.z_max) == 0.0
        assert density(regime, regime.z_max + 1.0) == 0.0
        assert density(regime, 1.0) > 0.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_tail_underflows_to_zero(self, regime):
        # Very close to the cutoff the essential singularity wins; the
        # log-space evaluation must flush to 0.0 instead of overflowing.
        z = regime.z_max - 1e-14
        val = density(regime, z)
        assert val == 0.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_array_matches_scalar(self, regime):
        zs = np.linspace(0.0, regime.z_max + 0.25, 97)
        arr = density(regime, zs)
        assert arr.shape == zs.shape
        for z, v in zip(zs, arr):
            assert v == density(regime, float(z))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            density(DIFFUSION_LIMITED, -0.1)
        with pytest.raises(DomainError):
            density(DIFFUSION_LIMITED, np.array([0.5, -0.1]))
        with pytest.raises(DomainError):
            density(DIFFUSION_LIMITED, math.nan)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_nonfinite_array_entry_rejected(self, bad):
        # A scalar and an array entry take the same path.
        with pytest.raises(DomainError):
            density(DIFFUSION_LIMITED, bad)
        with pytest.raises(DomainError):
            density(DIFFUSION_LIMITED, np.array([1.0, bad, 0.5]))

    def test_scalar_is_float(self):
        assert type(density(DIFFUSION_LIMITED, 1.0)) is float
        assert type(density(DIFFUSION_LIMITED, np.float64(1.0))) is float
        assert type(density(DIFFUSION_LIMITED, np.array(1.0))) is float

    @pytest.mark.parametrize("regime", BOTH)
    def test_unimodal(self, regime):
        zs = np.linspace(1e-3, regime.z_max - 1e-3, 2000)
        h = density(regime, zs)
        d = np.diff(h)
        # one sign change: rises to the mode, falls after it
        flips = np.sum(np.diff(np.sign(d[d != 0.0])) != 0)
        assert flips == 1


class TestMoments:
    @pytest.mark.parametrize("k,want", sorted(M_DL.items()))
    def test_dl(self, k, want):
        d = size_distribution(DIFFUSION_LIMITED)
        assert d.moment(k) == pytest.approx(want, abs=2e-10)

    @pytest.mark.parametrize("k,want", sorted(M_AL.items()))
    def test_al(self, k, want):
        d = size_distribution(ATTACHMENT_LIMITED)
        assert d.moment(k) == pytest.approx(want, abs=2e-10)

    def test_normalized_tightly(self):
        # The closed-form prefactors are exact normalizers.
        for regime in BOTH:
            assert size_distribution(regime).moment(0) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_mean_sizes(self):
        # dl: critical radius = mean radius; al: critical radius = (9/8) mean.
        assert size_distribution(DIFFUSION_LIMITED).moment(1) == pytest.approx(
            1.0, abs=1e-9
        )
        assert size_distribution(ATTACHMENT_LIMITED).moment(1) == pytest.approx(
            8.0 / 9.0, abs=1e-9
        )

    def test_cached(self):
        d = SizeDistribution(DIFFUSION_LIMITED)
        assert d.moment(3) is d.moment(3) or d.moment(3) == d.moment(3)
        assert 3 in d._moments

    def test_negative_order_rejected(self):
        d = size_distribution(DIFFUSION_LIMITED)
        with pytest.raises(DomainError):
            d.moment(-1)
        # A non-integer order is refused, not truncated to the integer below.
        for k in (2.5, 2.999, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="integer >= 0"):
                d.moment(k)
            with pytest.raises(DomainError, match="integer >= 0"):
                d.cumulative_moment(k, 1.0)
        # An integral float is the integer order.
        assert d.moment(3.0) == d.moment(3)
        assert d.cumulative_moment(3.0, 1.0) == d.cumulative_moment(3, 1.0)

    @pytest.mark.parametrize("regime", BOTH)
    def test_against_mpmath(self, regime):
        # Independent 30-digit tanh-sinh quadrature of the closed forms.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(30):
            zm = mp.mpf(regime.z_max)
            h = mp_oracle.density(mp, regime)
            d = size_distribution(regime)
            for k in range(4):
                want = mp.quad(lambda z: h(z) * z**k, [0, 1, zm])
                assert d.moment(k) == pytest.approx(float(want), abs=1e-13), k

    @pytest.mark.parametrize("regime", BOTH)
    def test_panel_moment(self, regime):
        # Inside one table panel it is the difference of two cumulative
        # reads; a window across a node is left to that difference.
        d = size_distribution(regime)
        for z, width in ((1.0, 1e-4), (0.3, 1e-6), (1.0, 0.0)):
            want = d.cumulative_moment(3, z) - d.cumulative_moment(3, z - width)
            assert d.panel_moment(3, z, width) == pytest.approx(want, abs=1e-15)
        assert math.isnan(d.panel_moment(3, 1.0, 0.1))
        assert math.isnan(d.panel_moment(3, regime.z_max, 1e-9))

    @pytest.mark.parametrize("regime", BOTH)
    def test_arrays_match_scalars(self, regime):
        # Arrays read the table entry by entry, with the scalar results;
        # a window wider than a panel is a NaN entry.
        d = size_distribution(regime)
        z = np.array([0.0, 0.6, 0.3, 1.0, 1.2, regime.z_max, regime.z_max + 1.0])
        width = np.array([0.0, 1e-6, 1e-6, 0.1, 1e-9, 1e-9, 1e-3])
        for k in range(4):
            m = d.cumulative_moment(k, z)
            assert m.shape == z.shape
            assert m.tolist() == [d.cumulative_moment(k, x) for x in z]
            p = d.panel_moment(k, z, width)
            want = [d.panel_moment(k, x, w) for x, w in zip(z, width)]
            assert np.array_equal(p, want, equal_nan=True)
            assert sum(map(math.isnan, want)) == 3


class TestCdf:
    @pytest.mark.parametrize("regime", BOTH)
    def test_endpoints(self, regime):
        d = size_distribution(regime)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(regime.z_max) == 1.0
        assert d.cdf(-1.0) == 0.0  # clamped
        assert d.cdf(regime.z_max + 1.0) == 1.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_scalar_query_is_float(self, regime):
        # As every other scalar query; an array stays an array.
        d = size_distribution(regime)
        assert type(d.cdf(0.5)) is float
        assert type(d.cdf(np.float64(0.5))) is float
        assert d.cdf(np.array([0.5])).shape == (1,)

    @pytest.mark.parametrize("regime", BOTH)
    def test_table_strictly_increasing(self, regime):
        z_tab, h_tab = size_distribution(regime).cdf_table
        assert np.all(np.diff(z_tab) > 0.0)
        assert np.all(np.diff(h_tab) > 0.0)
        assert h_tab[0] == 0.0 and h_tab[-1] == 1.0
        assert z_tab[0] == 0.0 and z_tab[-1] == regime.z_max

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_quadrature(self, regime):
        # Independent check: trapezoid-integrate the density on a fine grid.
        d = size_distribution(regime)
        zs = np.linspace(0.0, regime.z_max, 40001)
        h = density(regime, zs)
        ref = np.concatenate(([0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(zs))))
        for z in (0.3, 0.7, 1.0, 1.3):
            assert d.cdf(z) == pytest.approx(np.interp(z, zs, ref), abs=5e-7)

    @pytest.mark.parametrize("regime", BOTH)
    def test_derivative_recovers_density(self, regime):
        d = size_distribution(regime)
        h_fd = (d.cdf(1.0 + 5e-5) - d.cdf(1.0 - 5e-5)) / 1e-4
        assert h_fd == pytest.approx(density(regime, 1.0), rel=1e-4)

    @pytest.mark.parametrize("regime", BOTH)
    def test_non_finite_refused(self, regime):
        # Finite sizes clamp; a NaN or infinite one is an input error, as
        # in density, named in the message.
        d = size_distribution(regime)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"got {bad!r}"):
                d.cdf(bad)
        with pytest.raises(DomainError, match="got nan"):
            d.cdf(np.array([0.5, 1e300, math.nan, math.inf]))


class TestSampling:
    @pytest.mark.parametrize("regime", BOTH)
    def test_deterministic(self, regime):
        d = size_distribution(regime)
        a = d.sample(1000, seed=42)
        b = d.sample(1000, seed=42)
        assert np.array_equal(a, b)
        c = d.sample(1000, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("regime", BOTH)
    def test_in_support(self, regime):
        x = size_distribution(regime).sample(5000, seed=7)
        assert np.all(x > 0.0) and np.all(x < regime.z_max)

    @pytest.mark.parametrize("regime", BOTH)
    def test_moments_converge(self, regime):
        # 200k draws pin the first three moments to a few permille.
        d = size_distribution(regime)
        x = d.sample(200_000, seed=11)
        for k in (1, 2, 3):
            assert np.mean(x**k) == pytest.approx(d.moment(k), rel=5e-3)

    @pytest.mark.parametrize("regime", BOTH)
    def test_kolmogorov_distance(self, regime):
        d = size_distribution(regime)
        n = 100_000
        x = np.sort(d.sample(n, seed=3))
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(emp - d.cdf(x)))
        # ~1.6/sqrt(n) is a lenient 3-sigma-ish band for the KS statistic
        assert ks < 1.6 / math.sqrt(n)

    @pytest.mark.parametrize("regime", BOTH)
    def test_sorted_interpolation_is_plain_interp(self, regime):
        # The draws are interpolated in sorted order and scattered back:
        # the same values as np.interp on them as drawn.
        d = size_distribution(regime)
        z_tab, h_tab = d.cdf_table
        for seed in (0, 1, 2, 3, 12345):
            u = np.random.default_rng(seed).random(5000)
            assert np.array_equal(d.sample(5000, seed), np.interp(u, h_tab, z_tab))

    def test_bad_sample_size(self):
        with pytest.raises(DomainError):
            size_distribution(DIFFUSION_LIMITED).sample(0, seed=1)

    def test_negative_seed(self):
        # numpy's generator refuses it with a ValueError; the package's
        # input errors are DomainErrors.
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            size_distribution(DIFFUSION_LIMITED).sample(10, seed=-1)

    @pytest.mark.parametrize("n", [2.7, 3.0, "3"])
    def test_non_integer_sample_size(self, n):
        # int(2.7) used to draw 2 samples without a word.
        with pytest.raises(DomainError, match=re.escape(
                f"sample size must be an integer, got {n!r}")):
            size_distribution(DIFFUSION_LIMITED).sample(n, seed=1)

    def test_numpy_integer_sample_size(self):
        d = size_distribution(DIFFUSION_LIMITED)
        assert np.array_equal(d.sample(np.int64(5), seed=1), d.sample(5, seed=1))

    @pytest.mark.parametrize("seed", [1.5, "1"])
    def test_non_integer_seed(self, seed):
        # numpy's generator refuses these with a TypeError.
        with pytest.raises(DomainError, match=re.escape(f"got {seed!r}")):
            size_distribution(DIFFUSION_LIMITED).sample(10, seed=seed)


def test_gauss_rule_is_leggauss():
    # The written-out 7-point rule is numpy's, bit for bit.
    x, w = np.polynomial.legendre.leggauss(7)
    assert _GX.tobytes() == x.tobytes()
    assert _GW.tobytes() == w.tobytes()


def test_shared_instances():
    assert size_distribution(DIFFUSION_LIMITED) is size_distribution(
        DIFFUSION_LIMITED
    )
    assert size_distribution(DIFFUSION_LIMITED) is not size_distribution(
        ATTACHMENT_LIMITED
    )
