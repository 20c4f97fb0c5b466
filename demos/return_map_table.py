"""Print the return map of both regimes side by side.

For a few initial scaled sizes z0 this tabulates the sub-critical return
size rho (same alpha = ln z + tau value), the elapsed-time ratio s at which
the particle is back to its starting radius, and the alpha value itself —
showing the peak at z0 = 1 where rho = z0 and s = 1.
"""

import numpy as np

from ripening import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    return_invariant,
    solve_return_point,
)


def main():
    # Every z0 lies below both cutoffs; each regime is one array solve.
    z0s = np.array([1.0, 1.05, 1.1, 1.2, 1.3, 1.4, 1.45, 1.49])
    columns = []
    for regime in (DIFFUSION_LIMITED, ATTACHMENT_LIMITED):
        p = solve_return_point(regime, z0s)
        columns.append([f"{rho:10.6f} {s:10.4g} {alpha:11.6f}" for rho, s, alpha
                        in zip(p.z_return, p.s, return_invariant(regime, z0s))])
    print(f"{'z0':>6} | {'rho (dl)':>10} {'s (dl)':>10} {'alpha (dl)':>11} "
          f"| {'rho (al)':>10} {'s (al)':>10} {'alpha (al)':>11}")
    print("-" * 78)
    for z0, dl, al in zip(z0s, *columns):
        print(f"{z0:6.2f} | {dl} | {al}")
    print()
    print("rho(1) = 1 and s(1) = 1: a critical particle is already 'back'.")
    print("As z0 approaches the cutoff, rho collapses and s blows up:")
    for regime in (DIFFUSION_LIMITED, ATTACHMENT_LIMITED):
        p = solve_return_point(regime, regime.z_max - 1e-4)
        print(f"  {regime.kind}: z0 = z_max - 1e-4  ->  rho = {p.z_return:.3e},"
              f"  s = {p.s:.3e}")


if __name__ == "__main__":
    main()
