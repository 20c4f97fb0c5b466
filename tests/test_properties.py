"""Property tests: invariants of the return map, the size distribution,
the new-volume fraction and the cumulative moments over their whole domain,
searched by hypothesis.

phi(s) is a difference of one nondecreasing table divided by its last
entry, so it must lie in [0, 1] and grow with s up to the largest float.
The ensemble stepper's narrowed pass, the step cap read from the first
particles of a window, must equal the pass over the whole suffix bit for
bit.  The searches are derandomized so that every run checks the same
examples.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ripening.distribution import density, size_distribution
from ripening.ensemble import Ensemble
from ripening.recrystallization import new_volume_fraction
from ripening.regime import ATTACHMENT_LIMITED, DIFFUSION_LIMITED, return_invariant
from ripening.return_map import (
    NEAR_CUTOFF,
    initial_size_for_ratio,
    return_size,
    return_time_ratio,
)

regimes = st.sampled_from((DIFFUSION_LIMITED, ATTACHMENT_LIMITED))
ratios = st.floats(min_value=1.0, max_value=1.7e308, allow_nan=False)
orders = st.integers(min_value=0, max_value=3)
fractions = st.floats(min_value=0.0, max_value=1.0)


def _start_size(regime, u):
    """z0 in [1, z_max - NEAR_CUTOFF], placed by u in [0, 1]."""
    lo, hi = 1.0, regime.z_max - NEAR_CUTOFF
    return min(lo + u * (hi - lo), hi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(regimes, fractions)
def test_return_size_matches_invariant(regime, u):
    z0 = _start_size(regime, u)
    rho = return_size(regime, z0)
    assume(rho > 0.0)
    target = return_invariant(regime, z0)
    assert abs(return_invariant(regime, rho) - target) <= 1e-10 * max(
        1.0, abs(target)
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(regimes, fractions)
def test_time_ratio_round_trip(regime, u):
    z0 = _start_size(regime, u)
    s = return_time_ratio(regime, z0)
    assume(math.isfinite(s))
    assert abs(initial_size_for_ratio(regime, s) - z0) <= 1e-10 * z0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(regimes, st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_density_nonnegative(regime, z):
    assert density(regime, z) >= 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(regimes, fractions, fractions)
def test_cdf_monotone(regime, u1, u2):
    d = size_distribution(regime)
    z1, z2 = sorted((u1 * regime.z_max, u2 * regime.z_max))
    assert 0.0 <= d.cdf(z1) <= d.cdf(z2) <= 1.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(regimes, st.integers(min_value=1, max_value=2000),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_samples_inside_support(regime, n, seed):
    z = size_distribution(regime).sample(n, seed)
    assert z.shape == (n,)
    assert ((z > 0.0) & (z < regime.z_max)).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(regimes, ratios)
def test_phi_within_unit_interval(regime, s):
    phi = new_volume_fraction(regime, s)
    assert 0.0 <= phi <= 1.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(regimes, ratios, st.floats(min_value=1.001, max_value=1e6))
def test_phi_nondecreasing(regime, s1, factor):
    s2 = min(s1 * factor, 1.7e308)
    assume(s2 >= 1.001 * s1)
    assert new_volume_fraction(regime, s2) >= new_volume_fraction(regime, s1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(regimes, orders, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_cumulative_moment_nondecreasing(regime, k, u1, u2):
    d = size_distribution(regime)
    z1, z2 = sorted((u1 * regime.z_max, u2 * regime.z_max))
    assert d.cumulative_moment(k, z1) <= d.cumulative_moment(k, z2)


@pytest.mark.parametrize("regime", (DIFFUSION_LIMITED, ATTACHMENT_LIMITED))
@pytest.mark.parametrize("k", range(4))
def test_cumulative_moment_endpoints(regime, k):
    d = size_distribution(regime)
    assert d.cumulative_moment(k, 0.0) == 0.0
    assert d.cumulative_moment(k, regime.z_max) == d.moment(k)


def _nudge(value, steps):
    """``value`` moved by ``steps`` floats up (positive) or down."""
    toward = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


# Bands of R/R_c the particles are drawn from: anywhere; none in the step
# cap's window [0.5, 0.75); every watched particle near R_c; just above the
# deletion cut (R = 1e-4 R_c).
_BANDS = (
    ((1e-6, 3.0),),
    ((1e-6, 0.5), (0.75, 3.0)),
    ((1e-6, 0.5), (0.99, 1.01)),
    ((1e-4, 1.0001e-4), (0.5, 2.0)),
)


@st.composite
def sorted_states(draw):
    """A sorted state ``y`` with a mean field ``u``: volumes drawn from one
    band of ``_BANDS``, or a few floats from an edge that the step cap
    reads (R_c/2, 0.75 R_c, R_c, the maxima of |k1|/y above it, the
    deletion cut), with ties."""
    regime = draw(regimes)
    u = 1.0 / draw(st.floats(min_value=1e-3, max_value=1e3))
    r_c = 1.0 / u
    edges = [(x * r_c) ** 3 for x in (1e-4, 0.5, 0.75, 1.0, 1.5, 2.0)]
    near_edge = st.builds(_nudge, st.sampled_from(edges),
                          st.integers(min_value=-3, max_value=3))
    in_band = st.one_of(*(
        st.floats(min_value=lo, max_value=hi).map(lambda x: (x * r_c) ** 3)
        for lo, hi in draw(st.sampled_from(_BANDS))
    ))
    y = draw(st.lists(st.one_of(in_band, near_edge), min_size=1,
                      max_size=80))
    y += draw(st.lists(st.sampled_from(y), max_size=10))  # ties
    y = np.sort(np.array(y))
    assume(y[0] > 0.0)
    return regime, y, u


def _full_rates(regime, r, u):
    if regime.kind == "dl":
        return 3.0 * (r * u - 1.0)
    return 3.0 * (r * r * u - r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sorted_states())
# In al, rounding puts the window's maximum one float above its first
# particle (R_c = 100): the band above the first particle is read.
@example((ATTACHMENT_LIMITED,
          np.array([125000.00000000007, 125000.00000000009, 1e6]), 0.01))
def test_narrowed_passes_match_full_passes(state):
    regime, y, u = state
    ens = Ensemble(regime, [1.0, 2.0])
    r, n, r_c = np.cbrt(y), y.size, 1.0 / u
    k1 = _full_rates(regime, r, u)

    # The step cap: max |k1|/y over the suffix y >= (R_c/2)**3, read in
    # O(1) from the window's first particles when the bound settles it.
    # A real state's largest particle is at or above R_c, so its suffix is
    # never empty.
    j = int(np.searchsorted(y, (0.5 * r_c) ** 3))
    if j < n:
        fastest = float(np.max(np.abs(k1[j:]) / y[j:]))
        assert ens._fastest(y[j:], r[j:], u, np.empty(n - j)) == fastest
