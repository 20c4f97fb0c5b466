"""End-to-end acceptance checks.

One test per agreed criterion; each prints a single ``[PASS]``/``[FAIL]``
line (run with ``-s`` to see them all) and then asserts, listing every
sub-check that missed its tolerance together with the measured value.
Budgets are wall-clock seconds and are part of the criterion.
"""

import time

import numpy as np
import pytest

from ripening.cli import main
from ripening.distribution import density, size_distribution
from ripening.ensemble import simulate_late_stage
from ripening.numerics import solve_ode
from ripening.recrystallization import (
    fraction_from_start_size,
    initial_growth_rate,
    new_volume_fraction,
)
from ripening.regime import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    coarsening_slope,
    flow_time,
    growth_rate_physical,
    growth_rate_scaled,
    return_invariant,
)
from ripening.return_map import (
    initial_size_for_ratio,
    return_radius,
    return_size,
    return_time_ratio,
)

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)


def _finish(number, title, checks, elapsed, budget):
    checks = list(checks) + [
        (elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget:g}s")
    ]
    failures = [msg for ok, msg in checks if not ok]
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {number}: {title} "
          f"({len(checks) - len(failures)}/{len(checks)} checks, "
          f"{elapsed:.2f}s / {budget:g}s)")
    assert not failures, "\n".join(failures)


def test_criterion_1_initial_rate():
    start = time.perf_counter()
    checks = []
    for regime, expected in ((DIFFUSION_LIMITED, 0.51), (ATTACHMENT_LIMITED, 0.62)):
        rate = initial_growth_rate(regime)
        checks.append((
            abs(rate - expected) <= 0.01,
            f"{regime.kind}: initial rate {rate:.6f} not within "
            f"{expected} +/- 0.01",
        ))
        eps = 1e-4
        fd = new_volume_fraction(regime, 1.0 + eps) / eps
        rel = abs(fd - rate) / rate
        checks.append((
            rel <= 0.01,
            f"{regime.kind}: finite-difference slope {fd:.6f} off the "
            f"closed form {rate:.6f} by {rel:.2%}",
        ))
    _finish(1, "initial recrystallization rate", checks,
            time.perf_counter() - start, budget=1.0)


def test_criterion_2_return_map_fixed_points():
    start = time.perf_counter()
    checks = []
    for regime in BOTH:
        r1 = return_size(regime, 1.0)
        checks.append((
            abs(r1 - 1.0) <= 1e-10,
            f"{regime.kind}: rho(1) = {r1!r}, not 1 within 1e-10",
        ))
        edge = return_size(regime, regime.z_max - 1e-7)
        checks.append((
            edge < 1e-3,
            f"{regime.kind}: rho(z_max - 1e-7) = {edge!r}, not < 1e-3",
        ))
        # alpha-matching on a 100-point grid; the top end stays 5e-3 away
        # from the cutoff so rho itself remains a normal float and alpha can
        # be re-evaluated at it in z-space.
        worst = 0.0
        for z0 in np.linspace(1.0, regime.z_max - 5e-3, 100):
            rho = return_size(regime, float(z0))
            diff = abs(return_invariant(regime, rho)
                       - return_invariant(regime, float(z0)))
            worst = max(worst, diff)
        checks.append((
            worst <= 1e-10,
            f"{regime.kind}: worst alpha-matching defect {worst:.3e} > 1e-10",
        ))
    _finish(2, "return-map fixed points and matching", checks,
            time.perf_counter() - start, budget=1.0)


def test_criterion_3_derivative_identities():
    start = time.perf_counter()
    checks = []
    h = 1e-6
    for regime in BOTH:
        worst = 0.0
        for z in np.linspace(0.05, regime.z_max - 0.05, 60):
            slope = (flow_time(regime, z + h) - flow_time(regime, z - h)) / (2 * h)
            worst = max(worst, abs(slope * growth_rate_scaled(regime, z) - 1.0))
        checks.append((
            worst <= 1e-6,
            f"{regime.kind}: worst |dtau/dz * dz/dtau - 1| = {worst:.3e} > 1e-6",
        ))
        rho_slope = (return_size(regime, 1.0 + h) - 1.0) / h
        checks.append((
            abs(rho_slope + 1.0) <= 1e-3,
            f"{regime.kind}: numerical rho'(1) = {rho_slope:.6f}, not -1 +/- 1e-3",
        ))
        s_slope = (return_time_ratio(regime, 1.0 + h) - 1.0) / h
        expected = 2.0 * regime.coarsening_exponent
        checks.append((
            abs(s_slope - expected) <= 1e-3,
            f"{regime.kind}: numerical ds/dz0 at 1 = {s_slope:.6f}, "
            f"not {expected} +/- 1e-3",
        ))
    _finish(3, "derivative identities", checks,
            time.perf_counter() - start, budget=1.0)


def test_criterion_4_distribution_moments():
    start = time.perf_counter()
    checks = []
    rate_constants = {"dl": 0.51, "al": 0.62}
    means = {"dl": 1.0, "al": 8.0 / 9.0}
    for regime in BOTH:
        dist = size_distribution(regime)
        m0 = dist.moment(0)
        checks.append((
            abs(m0 - 1.0) <= 1e-8,
            f"{regime.kind}: integral of h = {m0!r}, not 1 within 1e-8",
        ))
        m1 = dist.moment(1)
        checks.append((
            abs(m1 - means[regime.kind]) <= 1e-6,
            f"{regime.kind}: mean scaled size {m1!r}, "
            f"not {means[regime.kind]} within 1e-6",
        ))
        implied = density(regime, 1.0) / (
            regime.coarsening_exponent * dist.moment(3)
        )
        rel = abs(implied - rate_constants[regime.kind]) / rate_constants[regime.kind]
        checks.append((
            rel <= 0.02,
            f"{regime.kind}: h(1)/(gamma*m3) = {implied:.5f} off "
            f"{rate_constants[regime.kind]} by {rel:.2%}",
        ))
    _finish(4, "distribution moments", checks,
            time.perf_counter() - start, budget=1.0)


def test_criterion_5_boundary_value_round_trip():
    start = time.perf_counter()
    checks = []
    t0 = 1.0
    for regime in BOTH:
        slope = coarsening_slope(regime)
        g = regime.coarsening_exponent

        def rate(t, r):
            return growth_rate_physical(regime, r, (slope * t) ** (1.0 / g))

        for s in (1.5, 2.0, 3.0, 10.0):
            r0 = return_radius(regime, s * t0, t0)
            r_end = solve_ode(rate, r0, t0, s * t0)
            rel = abs(r_end - r0) / r0
            checks.append((
                rel <= 1e-3,
                f"{regime.kind} s={s}: round trip returned {r_end:.8f} vs "
                f"{r0:.8f} ({rel:.2e} relative)",
            ))
    _finish(5, "physical boundary-value round trip", checks,
            time.perf_counter() - start, budget=5.0)


def test_criterion_6_fraction_curve_shape():
    start = time.perf_counter()
    checks = []
    for regime in BOTH:
        checks.append((
            new_volume_fraction(regime, 1.0) == 0.0,
            f"{regime.kind}: phi(1) is not exactly 0",
        ))
        grid = np.geomspace(1.0, 100.0, 40)
        vals = [new_volume_fraction(regime, float(s)) for s in grid]
        checks.append((
            all(b > a for a, b in zip(vals, vals[1:])),
            f"{regime.kind}: phi not strictly increasing on [1, 100]",
        ))
        comp = fraction_from_start_size(
            regime, regime.z_max - 1e-6, complement=True
        )
        checks.append((
            comp > 0.99,
            f"{regime.kind}: complement-form phi at the cutoff = {comp!r}, "
            f"not > 0.99",
        ))
    # 40-digit evaluation of (1/m3) * int_{rho}^{z0} h x^3 dx, the same
    # reference as PHI_DL[1.5] in test_recrystallization.py.
    val = new_volume_fraction(DIFFUSION_LIMITED, 1.5)
    ref = 0.20344622143362935
    checks.append((
        abs(val - ref) <= 1e-9,
        f"dl: phi(1.5) = {val:.12f}, off the 40-digit window-integral "
        f"reference {ref:.12f} by {abs(val - ref):.1e} (> 1e-9)",
    ))
    _finish(6, "fraction curve shape", checks,
            time.perf_counter() - start, budget=5.0)


def test_criterion_7_ensemble_agreement():
    checks = []
    total = 0.0
    for regime in BOTH:
        t0 = 225.0 if regime.kind == "dl" else 200.0
        tick = time.perf_counter()
        res = simulate_late_stage(
            regime, 20_000, t0, 3.0 * t0,
            [1.5 * t0, 2.0 * t0, 3.0 * t0], seed=1,
        )
        elapsed = time.perf_counter() - tick
        total += elapsed
        checks.append((
            elapsed < 60.0,
            f"{regime.kind}: run took {elapsed:.1f}s, budget 60s",
        ))
        checks.append((
            res.conservation_residual < 1e-5,
            f"{regime.kind}: conservation residual "
            f"{res.conservation_residual:.2e} not < 1e-5",
        ))
        slope_rel = abs(res.rc_power_slope - res.rc_power_slope_expected) \
            / res.rc_power_slope_expected
        checks.append((
            slope_rel <= 0.10,
            f"{regime.kind}: rc^gamma growth slope {res.rc_power_slope:.5f} "
            f"off {res.rc_power_slope_expected:.5f} by {slope_rel:.2%}",
        ))
        for c in res.comparisons:
            checks.append((
                c.phi_rel_err <= 0.10,
                f"{regime.kind} s={c.s:g}: empirical fraction "
                f"{c.phi_empirical:.4f} off analytic "
                f"{c.phi_analytic:.4f} by {c.phi_rel_err:.2%}",
            ))
            checks.append((
                c.boundary_rel_err <= 0.02,
                f"{regime.kind} s={c.s:g}: boundary radius "
                f"{c.boundary_radius_empirical:.4f} off analytic "
                f"{c.boundary_radius_analytic:.4f} by {c.boundary_rel_err:.2%}",
            ))
    _finish(7, "ensemble vs analytics (N=20000)", checks, total, budget=120.0)


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    checks = []
    table_commands = {
        "tau": ["tau", "--regime", "dl", "--min", "0.1", "--max", "1.4",
                "--count", "50"],
        "return": ["return", "--regime", "al", "--min", "1.0", "--max", "1.9",
                   "--count", "50"],
        "phi": ["phi", "--regime", "dl", "--min", "1", "--max", "100",
                "--count", "50", "--log"],
        "dist": ["dist", "--regime", "al", "--format", "json"],
    }
    for name, argv in table_commands.items():
        out = tmp_path / f"{name}.out"
        full = [*argv, "--out", str(out)]
        assert main(full) == 0
        first = out.read_bytes()
        assert main(full) == 0  # identical flags, overwrite in place
        checks.append((out.read_bytes() == first, f"{name}: reruns differ"))

    sim_dir = tmp_path / "sim"
    argv = ["simulate", "--regime", "dl", "--n", "500", "--t0", "225",
            "--snapshot", "337.5", "--seed", "11", "--out-dir", str(sim_dir)]
    assert main(argv) == 0
    first = {
        f.name: f.read_bytes() for f in sim_dir.iterdir()
    }
    assert main(argv) == 0
    for f in sorted(sim_dir.iterdir()):
        checks.append((
            f.read_bytes() == first[f.name],
            f"simulate: {f.name} differs between identical reruns",
        ))
    _finish(8, "CLI determinism", checks,
            time.perf_counter() - start, budget=30.0)
