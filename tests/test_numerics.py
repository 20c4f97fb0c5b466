"""Unit tests for the root/quadrature/ODE kernels.

Expected values here are produced by independent in-test oracles (closed
forms, fixed-point iteration, composite Gauss-Legendre) rather than by the
routines under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ripening.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    IntegrationError,
)
from ripening.numerics import (
    DEFAULT_QUAD_TOL,
    Tolerance,
    _fixed_step_rk45,
    find_root,
    integrate,
    solve_ode,
)

# Dottie number: the unique fixed point of cos, via plain fixed-point
# iteration (which is independent of any root finder).
_COS_FIXED_POINT = 0.7390851332151607


def test_cos_fixed_point_oracle():
    x = 1.0
    for _ in range(200):
        x = math.cos(x)
    assert x == pytest.approx(_COS_FIXED_POINT, abs=1e-15)


class TestFindRoot:
    def test_simple_quadratic(self):
        # The default tol closes the bracket to adjacent floats: r and the
        # next float bracket sqrt(2), checked in exact rationals.
        r = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert Fraction(r) ** 2 < 2 < Fraction(math.nextafter(r, math.inf)) ** 2

    def test_matches_fixed_point_oracle(self):
        r = find_root(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert r == pytest.approx(_COS_FIXED_POINT, abs=1e-12)

    def test_exact_zero_at_endpoint(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_result_brackets_sign_change(self):
        f = lambda x: (x - 0.3) ** 3 + 1e-3 * (x - 0.3)
        r = find_root(f, -1.0, 1.0)
        w = 1e-11
        assert f(r - w) < 0.0 < f(r + w)

    def test_flat_function_converges(self):
        # Extremely flat near the root; secant-type methods stall here.
        r = find_root(lambda x: (x - 0.5) ** 9, 0.0, 1.2)
        assert r == pytest.approx(0.5, abs=1e-3)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_inverted_bracket_raises(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 1.0, -1.0)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            find_root(lambda x: math.nan, -1.0, 1.0)

    def test_elementwise_arrays(self):
        # Every entry is bisected at once, to the root each scalar call finds.
        c = np.array([[0.25, 2.0], [3.0, 9.0]])
        r = find_root(lambda x: x * x - c, 0.0, np.full(c.shape, 4.0))
        assert r.shape == c.shape
        assert np.allclose(r, np.sqrt(c), rtol=1e-12, atol=0.0)
        for i, ci in np.ndenumerate(c):
            assert r[i] == find_root(lambda x: x * x - ci, 0.0, 4.0)

    def test_elementwise_exact_zeros_and_signs(self):
        # Exact zeros at either end or at a midpoint, with f falling
        # through its root.
        lo, hi = np.array([0.0, -1.0, -1.0]), np.array([1.0, 0.0, 1.0])
        r = find_root(lambda x: -x, lo, hi)
        assert r.tolist() == [0.0, 0.0, 0.0]
        r = find_root(lambda x: 0.5 - x, 0.0, np.array([1.0, 0.5, 2.0]))
        assert r.tolist() == [0.5, 0.5, 0.5]

    def test_elementwise_errors(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x - np.array([0.5, 2.0]), np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            find_root(lambda x: x, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        # NaN inside the bracket, where the endpoints are finite.
        with pytest.raises(DomainError):
            find_root(lambda x: np.where(abs(x - 0.5) < 0.2, np.nan, x - 0.5),
                      0.0, 1.0)

    def test_scalar_is_float(self):
        assert type(find_root(lambda x: x - 0.25, 0.0, 1.0)) is float

    def test_iteration_budget(self):
        tight = Tolerance(abs_tol=1e-14, rel_tol=0.0, max_iter=3)
        with pytest.raises(ConvergenceError):
            find_root(lambda x: x - math.pi / 6.0, 0.0, 1e6, tol=tight)


class TestToleranceValidation:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=-1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(DomainError):
            Tolerance(max_iter=0)


def _gauss_legendre(f, a, b, panels=24, order=12):
    # Independent composite quadrature oracle.
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))
    return total


class TestIntegrate:
    def test_polynomial_exact(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-13
        )

    def test_empty_interval(self):
        assert integrate(math.sin, 2.0, 2.0) == 0.0

    def test_against_gauss_legendre(self):
        f = lambda x: math.exp(-x) * math.sin(3.0 * x)
        want = _gauss_legendre(f, 0.0, 4.0)
        assert integrate(f, 0.0, 4.0) == pytest.approx(want, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            c1, c2 = rng.normal(size=2)
            f = lambda x: math.cos(2.0 * x)
            g = lambda x: x**3 - x
            combined = integrate(lambda x: c1 * f(x) + c2 * g(x), -1.0, 2.0)
            split = c1 * integrate(f, -1.0, 2.0) + c2 * integrate(g, -1.0, 2.0)
            assert combined == pytest.approx(split, abs=1e-9)

    def test_inverted_interval_raises(self):
        with pytest.raises(DomainError):
            integrate(math.sin, 1.0, 0.0)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(DomainError):
            integrate(lambda x: math.inf if x == 0.0 else 1.0 / x, -1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: math.nan, 0.0, 1.0)

    def test_depth_budget(self):
        shallow = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_iter=3)
        with pytest.raises(ConvergenceError):
            integrate(lambda x: math.sqrt(abs(x)), -1.0, 1.0, tol=shallow)

    def test_tolerance_is_respected(self):
        f = lambda x: math.exp(x)
        want = math.e - 1.0
        loose = integrate(f, 0.0, 1.0, Tolerance(abs_tol=1e-4, rel_tol=1e-4, max_iter=60))
        tight = integrate(f, 0.0, 1.0, DEFAULT_QUAD_TOL)
        assert abs(tight - want) <= abs(loose - want) + 1e-12
        assert abs(tight - want) < 1e-10


class TestSolveOde:
    def test_exponential_decay(self):
        y = solve_ode(lambda x, y: -y, 1.0, 0.0, 1.0)
        assert y == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_quadrature_problem(self):
        y = solve_ode(lambda x, y: math.cos(x), 0.0, 0.0, 2.0)
        assert y == pytest.approx(math.sin(2.0), rel=1e-8)

    def test_zero_span(self):
        assert solve_ode(lambda x, y: y, 3.5, 1.0, 1.0) == 3.5

    def test_backward_raises(self):
        with pytest.raises(DomainError):
            solve_ode(lambda x, y: y, 1.0, 1.0, 0.0)

    def test_blowup_raises(self):
        with pytest.raises((IntegrationError, ConvergenceError)):
            solve_ode(lambda x, y: y * y, 1.0, 0.0, 2.0)

    def test_tolerance_scaling(self):
        f = lambda x, y: -2.0 * x * y
        want = math.exp(-4.0)
        loose = solve_ode(f, 1.0, 0.0, 2.0, Tolerance(1e-5, 1e-5, 100000))
        tight = solve_ode(f, 1.0, 0.0, 2.0, Tolerance(1e-12, 1e-12, 1000000))
        assert abs(tight - want) < abs(loose - want)
        assert tight == pytest.approx(want, rel=1e-9)

    def test_fixed_step_order(self):
        # The embedded pair propagates the 5th-order solution: halving the
        # step should shrink the error by about 2^5.
        f = lambda x, y: y * math.sin(x)
        exact = math.exp(1.0 - math.cos(3.0))
        e1 = abs(_fixed_step_rk45(f, 1.0, 0.0, 3.0, 24) - exact)
        e2 = abs(_fixed_step_rk45(f, 1.0, 0.0, 3.0, 48) - exact)
        assert 20.0 < e1 / e2 < 48.0
