"""Run a mid-sized particle ensemble and compare it with the closed forms.

For each regime this simulates 5000 particles from the stationary size
density and prints, at a few multiples of the reference time, the measured
new-volume fraction and grown/shrunk boundary radius against their analytic
values, plus the fitted coarsening-law slope and the volume-conservation
residual of the run.
"""

import time

from ripening import ATTACHMENT_LIMITED, DIFFUSION_LIMITED, simulate_late_stage

N = 5000
SEED = 42


def main():
    for regime in (DIFFUSION_LIMITED, ATTACHMENT_LIMITED):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        tick = time.perf_counter()
        res = simulate_late_stage(
            regime, N, t0, 3.0 * t0, [1.5 * t0, 2.0 * t0, 3.0 * t0], seed=SEED
        )
        elapsed = time.perf_counter() - tick

        print(f"=== {regime.kind}: N = {N}, t0 = {t0:g}, seed = {SEED} "
              f"({elapsed:.1f}s) ===")
        print(f"  conservation residual: {res.conservation_residual:.2e}")
        print(f"  R_c^gamma slope: {res.rc_power_slope:.5f} "
              f"(analytic {res.rc_power_slope_expected:.5f})")
        print(f"  survivors: {res.snapshots[-1].n} of {res.n_init}")
        print(f"  {'s':>4} | {'phi sim':>9} {'phi theory':>10} {'err':>7} "
              f"| {'r_bnd sim':>9} {'r_bnd theory':>12} {'err':>7}")
        for c in res.comparisons:
            print(f"  {c.s:4.1f} | {c.phi_empirical:9.4f} "
                  f"{c.phi_analytic:10.4f} "
                  f"{c.phi_rel_err:7.2%} "
                  f"| {c.boundary_radius_empirical:9.4f} "
                  f"{c.boundary_radius_analytic:12.4f} "
                  f"{c.boundary_rel_err:7.2%}")
        print()


if __name__ == "__main__":
    main()
