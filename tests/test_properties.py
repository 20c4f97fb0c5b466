"""Property tests: invariants of the new-volume fraction and of the
cumulative moments over their whole domain, searched by hypothesis.

phi(s) is a difference of one nondecreasing table divided by its last
entry, so it must lie in [0, 1] and grow with s up to the largest float.
The searches are derandomized so that every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ripening.distribution import size_distribution
from ripening.recrystallization import new_volume_fraction
from ripening.regime import ATTACHMENT_LIMITED, DIFFUSION_LIMITED

regimes = st.sampled_from((DIFFUSION_LIMITED, ATTACHMENT_LIMITED))
ratios = st.floats(min_value=1.0, max_value=1.7e308, allow_nan=False)
orders = st.integers(min_value=0, max_value=3)


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
