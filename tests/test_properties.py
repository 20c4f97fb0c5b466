"""Property tests: invariants of the return map, the size distribution,
the new-volume fraction and the cumulative moments over their whole domain,
searched by hypothesis.

phi(s) is a difference of one nondecreasing table divided by its last
entry, so it must lie in [0, 1] and grow with s up to the largest float.
The CSV writer prints every float as ``%.17g`` does and every int64
as ``%d`` does, ``nan``, infinities, subnormals and signed zeros included.
The searches are derandomized so that every run checks the same examples.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ripening.csvtable import format_rows
from ripening.distribution import density, size_distribution
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_floats_match_percent_g(values):
    assert format_rows([np.array(values)]) == "".join(
        "%.17g\n" % v for v in values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.floats()),
                min_size=1, max_size=40))
def test_csv_rows_match_percent_template(rows):
    ids = np.array([i for i, _ in rows], dtype=np.int64)
    x = np.array([v for _, v in rows])
    assert format_rows([ids, x]) == "".join("%d,%.17g\n" % r for r in rows)
