"""New-volume fraction over the time ratio for both regimes.

Writes fraction_curves.csv next to this script and, when matplotlib is
available, saves fraction_curves.png with the two curves on a log-x axis:
nearly linear take-off with slopes 0.51 (dl) and 0.62 (al), then slow
saturation toward 1.
"""

import csv
import os

import numpy as np

from ripening import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    initial_growth_rate,
    new_volume_fraction,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    s_grid = np.geomspace(1.0, 200.0, 120)
    curves = {
        regime.kind: new_volume_fraction(regime, s_grid)
        for regime in (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)
    }

    out_csv = os.path.join(HERE, "fraction_curves.csv")
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "phi_dl", "phi_al"])
        for row in zip(s_grid, curves["dl"], curves["al"]):
            writer.writerow([f"{v:.12g}" for v in row])
    print(f"wrote {out_csv}")

    for regime in (DIFFUSION_LIMITED, ATTACHMENT_LIMITED):
        print(f"  {regime.kind}: initial slope {initial_growth_rate(regime):.4f} "
              f"per unit of s - 1")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
        return

    fig, ax = plt.subplots(figsize=(6, 4))
    for kind, phi in curves.items():
        ax.plot(s_grid, phi, label=kind)
    ax.set_xscale("log")
    ax.set_xlabel("t / t0")
    ax.set_ylabel("new-volume fraction")
    ax.set_title("Share of the solid phase formed after t0")
    ax.legend()
    ax.grid(alpha=0.3)
    out_png = os.path.join(HERE, "fraction_curves.png")
    fig.savefig(out_png, dpi=150, bbox_inches="tight")
    print(f"wrote {out_png}")


if __name__ == "__main__":
    main()
