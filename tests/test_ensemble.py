"""Tests for the N-particle mean-field simulator.

Small seeded ensembles keep this fast; the quantitative comparisons against
the analytic late-stage results run at reduced N with tolerances widened
accordingly (the acceptance suite runs the full-size version).
"""

import math
import re

import numpy as np
import pytest

from ripening.distribution import size_distribution
from ripening.ensemble import (
    _INVERSE,
    _SERIES_MAX,
    FOUR_THIRDS_PI,
    _align,
    _inverse_lifetime,
    _lifetime,
    Ensemble,
    NewVolume,
    Snapshot,
    TimeSeries,
    empirical_return_radius,
    init_ensemble,
    measure_new_volume,
    simulate_late_stage,
    write_series_csv,
    write_snapshot_csv,
)
from ripening.errors import DataError, DomainError, StateError
from ripening.recrystallization import new_volume_fraction
from ripening.regime import (
    ATTACHMENT_LIMITED,
    DIFFUSION_LIMITED,
    coarsening_slope,
    critical_radius,
)
from ripening.return_map import return_radius

BOTH = (DIFFUSION_LIMITED, ATTACHMENT_LIMITED)


class TestConstruction:
    def test_needs_two_particles(self):
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0])

    def test_positive_radii(self):
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, 0.0])
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, -1.0])
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, math.nan])
        # The state is y = R**3: 1e-103 cubes to a subnormal and 1e103
        # overflows; 2.9e-103, just above the cube root of the smallest
        # normal float, is accepted.
        for radius in (1e-103, 1e103):
            with pytest.raises(DomainError, match="normal floats"):
                Ensemble(DIFFUSION_LIMITED, [1.0, radius])
        Ensemble(DIFFUSION_LIMITED, [1.0, 2.9e-103])

    def test_option_ranges(self):
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, 2.0], step_fraction=0.0)
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, 2.0], step_fraction=0.2)

    def test_initial_state(self):
        # The clock counts the time since the state was given.
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 2.0, 3.0])
        snap = ens.snapshot()
        assert snap.t == 0.0
        assert snap.n == 3
        assert list(snap.ids) == [0, 1, 2]
        assert snap.radii == pytest.approx([1.0, 2.0, 3.0])


class TestMeanField:
    # A run's first series row holds R_c = 1/u of the state it was given.
    def test_dl_is_mean_radius(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 2.0, 3.0])
        u = ens._field(np.cbrt(ens._y))
        _, series = ens.run(1e-6)
        assert series.rc_estimate[0] == pytest.approx(2.0)
        assert u == pytest.approx(0.5)

    def test_al_is_moment_ratio(self):
        ens = Ensemble(ATTACHMENT_LIMITED, [1.0, 2.0, 3.0])
        _, series = ens.run(1e-6)
        assert series.rc_estimate[0] == pytest.approx(14.0 / 6.0)

    @pytest.mark.parametrize("regime", BOTH)
    def test_rates_sum_to_zero(self, regime):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.2, 2.0, size=400)
        ens = Ensemble(regime, r)
        rates = _rates(regime, r, ens._field(r))
        assert float(np.sum(rates)) == pytest.approx(0.0, abs=1e-12 * r.size)


class TestStepping:
    def test_uniform_population_is_stationary(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 1.0, 1.0])
        ens.run(2.0)
        snap = ens.snapshot()
        assert snap.radii == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
        assert snap.t == 2.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_volume_conserved_with_deletions(self, regime):
        ens = init_ensemble(regime, 600, 1.0, seed=2)
        _, series = ens.run(3.0)
        assert ens.work["dissolved"] == 600 - ens.snapshot().n > 0
        start, end = series.total_r3[[0, -1]]
        drift = abs(end - start) / start
        assert drift < 1e-12

    @pytest.mark.parametrize("tiny", [1e-9, 2.9e-103])
    @pytest.mark.parametrize("regime", BOTH)
    def test_particle_far_below_critical_radius_dissolves(self, regime, tiny):
        # Its lifetime is far shorter than a substep, so the flow dissolves
        # it in the first one and its volume goes to the survivors.
        ens = Ensemble(regime, [tiny, 1.0, 1.0, 2.0])
        _, series = ens.run(1e-3)
        assert ens.work["dissolved"] == 1
        snap = ens.snapshot()
        assert snap.n == 3 and list(snap.ids) == [1, 2, 3]
        start, end = series.total_r3[[0, -1]]
        assert abs(end - start) <= 4e-16 * start

    @pytest.mark.parametrize("regime", BOTH)
    def test_big_grow_small_shrink(self, regime):
        ens = Ensemble(regime, [0.5, 1.0, 2.0])
        ens.run(1e-2)
        snap = ens.snapshot()
        assert list(snap.ids) == [0, 1, 2]
        r = snap.radii
        assert r[0] < 0.5 and r[2] > 2.0

    def test_two_particle_collapse(self):
        # The substep that would leave one particle is refused before it
        # writes: both particles stay, none counts as dissolved, and the
        # next run is refused again from the same state.
        ens = Ensemble(DIFFUSION_LIMITED, [0.5, 2.0])
        with pytest.raises(StateError, match="collapses to 1 particle"):
            ens.run(5.0)
        snap = ens.snapshot()
        t, radii = snap.t, snap.radii
        assert 0.0 < t < 5.0
        assert snap.n == 2 and ens.work["dissolved"] == 0
        with pytest.raises(StateError, match=f"after t={t!r}"):
            ens.run(6.0)
        snap = ens.snapshot()
        assert snap.t == t
        assert np.array_equal(snap.radii, radii)

    def test_step_that_does_not_advance_is_refused(self):
        # h = step_fraction / (4 u**3) is about 1e-302 here, below half an
        # ulp of t = 1: the stepper would loop without advancing time.
        # (From t = 0 a run reaches it only after about 1e16 substeps.)
        ens = Ensemble(DIFFUSION_LIMITED, [1e-100, 2e-100])
        ens._t = 1.0
        radii = ens.snapshot().radii
        with pytest.raises(StateError, match="does not advance t=1.0"):
            ens.run(2.0)
        snap = ens.snapshot()
        assert snap.t == 1.0
        assert np.array_equal(snap.radii, radii)

    def test_substeps_shrink_with_step_fraction(self):
        radii = init_ensemble(DIFFUSION_LIMITED, 200, 1.0, seed=3).snapshot().radii
        counts = []
        for frac in (1e-2, 1e-3):
            ens = Ensemble(DIFFUSION_LIMITED, radii, step_fraction=frac)
            _, series = ens.run(0.5)
            counts.append(series.t.size)
        assert counts[1] > 5 * counts[0]


def _ref_lifetime(x, p):
    """g_p(x) with a new array per operation: the closed form, and below
    x = 0.05 the series x**p sum_k x**k/(k + p) to 12 terms."""
    closed = -(np.log1p(-x) + (x * (1.0 + 0.5 * x) if p == 3 else x))
    acc = np.full_like(x, 1.0 / (11 + p))
    for k in range(10, -1, -1):
        acc = acc * x + 1.0 / (k + p)
    return np.where(x < 0.05, acc * x**p, closed)


def _ref_inverse_lifetime(tau, p):
    """x with g_p(x) = tau: w Q_p(w) in w = (p tau)**(1/p), with the fixed
    polynomial Q_p of the package by Horner, a new array per operation."""
    w = np.cbrt(3.0 * tau) if p == 3 else np.sqrt(2.0 * tau)
    coeffs = _INVERSE[p]
    x = w * coeffs[0]
    for c in coeffs[1:]:
        x = (x + c) * w
    return x


def _ref_stage(r, u, h3, al):
    """The folded stage increment h k (h3 = 3h): r (3hu) - 3h in dl, the
    completed square (3hu) (r - 1/(2u))**2 - (3h)/(4u) in al."""
    if al:
        d = r - 0.5 / u
        return d * d * (h3 * u) - 0.25 * h3 / u
    return r * (h3 * u) - h3


def _rates(regime, r, u):
    """Volume rates dy/dt of the radii ``r`` under the field ``u``."""
    if regime.kind == "dl":
        return 3.0 * (r * u - 1.0)
    return 3.0 * (r * r * u - r)


def _reference_run(regime, radii, duration, step_fraction=1.6e-2,
                   folded=True):
    """The stepper on id-ordered state with masks for every set: the prefix
    below R_c/2 moved by the exact flow under the predicted mid-step field,
    its dissolving particles, and the suffix's Heun step under the
    volume-conserving multiplier.  Returns (substeps, ids, radii).

    With ``folded`` the suffix's stages take the folded arithmetic of the
    package: the increments ``h k`` of :func:`_ref_stage`, the update
    ``y + (h k1 + h k2)/2``, the multiplier from
    ``sum(h k2) = 3h (u S1 - m)`` (dl) or ``3h (u S2 - S1)`` (al), and the
    flowed volume ``x' x' x'`` of ``x' = x (1/u)``.  Without, they take
    the arithmetic from before h and the rate constants were folded in:
    ``h k`` with ``k = 3 (r u - 1)`` (dl) or ``3 (r r u - r)`` (al), the
    update ``y + (h/2) (k1 + k2)``, the multiplier from
    ``sum(k2) = 3 (u S1 - m)`` or ``3 (u S2 - S1)``, and ``(x/u)**3``.

    Its sums run over the particles in ascending volume, as the sorted
    state's do, so the two steppers round alike."""
    al = regime.kind == "al"
    p = 2 if al else 3
    y = np.asarray(radii, dtype=float) ** 3
    ids = np.arange(y.size)
    t = 0.0
    rate = 0.0
    substeps = 0

    def ordered_sum(a, y):
        return float(np.sum(a[np.argsort(y, kind="stable")]))

    def field(r, y):
        if regime.kind == "dl":
            return r.size / ordered_sum(r, y)
        return ordered_sum(r, y) / ordered_sum(r * r, y)

    while t < duration:
        remaining = duration - t
        r = np.cbrt(y)
        u = field(r, y)
        prefix = y < (0.5 / u) ** 3
        ys, rs = y[~prefix], r[~prefix]
        k1 = _rates(regime, rs, u)
        h = min(step_fraction / (2.0 * u**2 if al else 4.0 * u**3),
                remaining)
        h3 = 3.0 * h
        hk1 = _ref_stage(rs, u, h3, al) if folded else h * k1
        stage = np.cbrt(ys + hk1)
        s1 = ordered_sum(stage, ys)
        s2 = ordered_sum(stage * stage, ys)
        dy = 0.0
        dissolved = np.zeros(y.size, dtype=bool)
        flowed = y.copy()
        if prefix.any():
            ub = min(u + 0.5 * h * rate, 1.5 * u)
            c = ub**p * h
            life = _ref_lifetime(r[prefix] * ub, p)
            dying = life <= c
            x = _ref_inverse_lifetime(np.maximum(life[~dying] - c, 0.0), p)
            survivors = np.flatnonzero(prefix)[~dying]
            if folded:
                x = x * (1.0 / ub)
                flowed[survivors] = x * x * x
            else:
                flowed[survivors] = (x / ub) ** 3
            dissolved[np.flatnonzero(prefix)[dying]] = True
            dy = (ordered_sum(flowed[survivors], y[survivors])
                  - ordered_sum(y[prefix], y[prefix]))
        a, b = (s1, s2) if al else (ys.size, s1)
        if folded:
            um = (h3 * a - ordered_sum(hk1, ys) - 2.0 * dy) / (h3 * b)
        else:
            # sum((h/2) (k1 + k2)) = -dy, with sum(k2) linear in the field
            um = ((-2.0 * dy / h - ordered_sum(k1, ys)) / 3.0 + a) / b
        if h < remaining:
            rate = (um - u) / h
        if folded:
            flowed[~prefix] = ys + 0.5 * (hk1 + _ref_stage(stage, um, h3, al))
        else:
            flowed[~prefix] = ys + (0.5 * h) * (k1 + _rates(regime, stage, um))
        y, ids = flowed[~dissolved], ids[~dissolved]
        t = duration if h >= remaining else t + h
        substeps += 1
    return substeps, ids, np.cbrt(y)


class _AllocatingEnsemble(Ensemble):
    """The sorted stepper as the bitwise reference: every array operation
    makes a new array, the flow's sets are masks over the prefix, every
    drop copies the survivors, the order check reads the whole state, and
    a re-sort builds new arrays."""

    def _ref_field(self, r):
        if self.regime.kind == "dl":
            return r.size / float(np.sum(r))
        return float(np.sum(r)) / float(np.sum(r * r))

    def _ref_drop(self, keep):
        self._y = self._y[keep].copy()
        self._ids = self._ids[keep].copy()

    def _advance(self, t_target, recorder):
        al = self.regime.kind == "al"
        p = 2 if al else 3
        r = np.cbrt(self._y)
        u = self._ref_field(r)
        while self._t < t_target:
            remaining = t_target - self._t
            y = self._y
            prefix = y < (0.5 / u) ** 3
            ys, rs = y[~prefix], r[~prefix]
            h = min(self.step_fraction / (2.0 * u**2 if al else 4.0 * u**3),
                    remaining)
            h3 = 3.0 * h
            hk1 = _ref_stage(rs, u, h3, al)
            stage = np.cbrt(ys + hk1)
            s1 = float(np.sum(stage))
            s2 = float(np.sum(stage * stage)) if al else 0.0
            sum_hk1 = float(np.sum(hk1))
            new = y.copy()
            keep = np.ones(y.size, dtype=bool)
            dy = 0.0
            if prefix.any():
                ub = min(u + 0.5 * h * self._field_rate, 1.5 * u)
                c = ub**p * h
                life = _ref_lifetime(r[prefix] * ub, p)
                dying = np.arange(life.size) < np.searchsorted(
                    life, c, side="right")
                if y.size - np.count_nonzero(dying) < 2:
                    raise StateError("collapses")
                x = _ref_inverse_lifetime(
                    np.maximum(life[~dying] - c, 0.0), p)
                x = x * (1.0 / ub)
                flowed = x * x * x
                dy = float(np.sum(flowed)) - float(np.sum(y[prefix]))
                new[np.flatnonzero(prefix)[~dying]] = flowed
                keep[np.flatnonzero(prefix)[dying]] = False
                self._work["dissolved"] += int(np.count_nonzero(dying))
                self._work["flowed"] += int(np.count_nonzero(~dying))
            if al:
                um = (h3 * s1 - sum_hk1 - 2.0 * dy) / (h3 * s2)
            else:
                um = (h3 * ys.size - sum_hk1 - 2.0 * dy) / (h3 * s1)
            if h < remaining:
                self._field_rate = (um - u) / h
            new[~prefix] = ys + (hk1 + _ref_stage(stage, um, h3, al)) * 0.5
            self._y = new
            t_next = t_target if h >= remaining else self._t + h
            if not keep.all():
                self._ref_drop(keep)
            y = self._y
            if (y[1:] < y[:-1]).any():
                order = np.argsort(y, kind="stable")
                self._y = y[order]
                self._ids = self._ids[order]
                self._work["resorts"] += 1
            self._t = t_next
            self._work["substeps"] += 1
            r = np.cbrt(self._y)
            u = self._ref_field(r)
            recorder(t_next, self._y.size, 1.0 / u, float(np.sum(self._y)))


class TestSortedState:
    @pytest.mark.parametrize("regime", BOTH)
    def test_views_in_id_order(self, regime):
        ens = Ensemble(regime, [3.0, 1.0, 2.0])
        for _ in range(2):
            snap = ens.snapshot()
            assert list(snap.ids) == [0, 1, 2]
            r = snap.radii
            assert r[0] > r[2] > r[1]
            ens.run(snap.t + 0.01)
        assert ens.snapshot().n == 3
        assert Ensemble(regime, [3.0, 1.0, 2.0]).snapshot().radii == (
            pytest.approx([3.0, 1.0, 2.0])
        )

    # The base times, and the smallest t0 that simulate_late_stage accepts:
    # there R_c is about 1e-50 (dl) or 1e-75 (al), and a flowed survivor's
    # volume must still be a positive normal float.
    @pytest.mark.parametrize("regime, t0", [
        pytest.param(DIFFUSION_LIMITED, 225.0, id="regime0"),
        pytest.param(ATTACHMENT_LIMITED, 200.0, id="regime1"),
        pytest.param(DIFFUSION_LIMITED, 1e-150, id="regime0-t0_min"),
        pytest.param(ATTACHMENT_LIMITED, 1e-150, id="regime1-t0_min"),
    ])
    def test_state_sorted_after_every_substep(self, regime, t0):
        ens = init_ensemble(regime, 2000, critical_radius(regime, 0.0, t0), seed=1)
        checked = []

        def check(t, n, rc, total_r3):
            checked.append(bool(np.all(ens._y[1:] >= ens._y[:-1])))
            assert ens._y[0] >= np.finfo(float).tiny

        ens._advance(0.5 * t0, check)
        assert len(checked) == ens.work["substeps"] > 100
        assert all(checked)
        assert ens.snapshot().n + ens.work["dissolved"] == 2000

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_reference_stepper(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 1000, critical_radius(regime, 0.0, t0), seed=1)
        substeps, ids, radii = _reference_run(
            regime, ens.snapshot().radii, t0, step_fraction=ens.step_fraction
        )
        ens.run(t0)
        snap = ens.snapshot()
        assert ens.work["substeps"] == substeps
        assert np.array_equal(snap.ids, ids)
        assert ens.work["dissolved"] == 1000 - ids.size > 0
        assert np.max(np.abs(snap.radii - radii) / radii) <= 1e-12
        # Only the flowed prefix and the seam can invert (see the module
        # docstring), and only volumes within the flow's rounding of each
        # other; drawn volumes are far apart, in either regime.
        assert ens.work["resorts"] == 0

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_unfolded_stepper(self, regime):
        # Folding h into the stage arithmetic moves only rounding: the
        # stepper with the former formulas takes the same substeps and
        # drops the same particles.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 1000, critical_radius(regime, 0.0, t0), seed=1)
        substeps, ids, radii = _reference_run(
            regime, ens.snapshot().radii, t0, step_fraction=ens.step_fraction,
            folded=False,
        )
        ens.run(t0)
        snap = ens.snapshot()
        assert ens.work["substeps"] == substeps
        assert np.array_equal(snap.ids, ids)
        assert np.max(np.abs(snap.radii - radii) / radii) <= 1e-12

    @staticmethod
    def _assert_bitwise_equal(regime, radii, t0):
        new, ref = Ensemble(regime, radii), _AllocatingEnsemble(regime, radii)
        (snaps, series), (ref_snaps, ref_series) = (
            e.run(t0, [0.5 * t0, t0]) for e in (new, ref)
        )
        assert np.array_equal(new._ids, ref._ids)
        assert np.array_equal(new._y, ref._y)
        assert new.work == ref.work
        for name in ("t", "n", "rc_estimate", "total_r3"):
            assert np.array_equal(getattr(series, name),
                                  getattr(ref_series, name)), name
        assert len(snaps) == len(ref_snaps) == 2
        for snap, ref_snap in zip(snaps, ref_snaps):
            assert snap.t == ref_snap.t
            assert np.array_equal(snap.ids, ref_snap.ids)
            assert np.array_equal(snap.radii, ref_snap.radii)
        return new.work

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("regime", BOTH)
    def test_bitwise_equal_to_allocating_stepper(self, regime, seed):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        radii = init_ensemble(
            regime, 2000, critical_radius(regime, 0.0, t0), seed=seed
        ).snapshot().radii
        work = self._assert_bitwise_equal(regime, radii, t0)
        assert work["dissolved"] > 0 and work["flowed"] > 0

    @pytest.mark.parametrize("regime", BOTH)
    def test_bitwise_equal_through_resorts(self, regime):
        # Volumes one ulp apart: the flow's rounding swaps some of them as
        # they fall through the prefix, so the re-sort path runs.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        r_c = critical_radius(regime, 0.0, t0)
        z = np.linspace(0.05, 0.7, 300) * r_c
        radii = np.concatenate([
            init_ensemble(regime, 2000, r_c, seed=1).snapshot().radii,
            z, np.nextafter(z, np.inf),
        ])
        work = self._assert_bitwise_equal(regime, radii, t0)
        assert work["resorts"] > 0  # the re-sort path ran

    @pytest.mark.parametrize("regime", BOTH)
    def test_ties_in_any_order(self, regime):
        # The initial sort may order equal volumes either way; a run from
        # 5 200 radii with 2 200 exact ties gives the same ids, radii,
        # snapshots, series and work as the same state sorted stably.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        drawn = init_ensemble(regime, 3000, critical_radius(regime, 0.0, t0),
                              seed=1).snapshot().radii
        radii = np.concatenate([drawn, drawn[:2200]])
        ens, ref = Ensemble(regime, radii), Ensemble(regime, radii)
        y = radii**3
        ref._ids = np.argsort(y, kind="stable").astype(np.int64)
        ref._y = y[ref._ids]
        assert np.array_equal(ens._y, ref._y)
        assert not np.array_equal(ens._ids, ref._ids)  # the ties differ
        (snaps, series), (ref_snaps, ref_series) = (
            e.run(t0, [0.5 * t0, t0]) for e in (ens, ref)
        )
        snap, ref_snap = ens.snapshot(), ref.snapshot()
        assert np.array_equal(snap.ids, ref_snap.ids)
        assert np.array_equal(snap.radii, ref_snap.radii)
        assert ens.work == ref.work and ens.work["dissolved"] > 0
        for name in ("t", "n", "rc_estimate", "total_r3"):
            assert np.array_equal(getattr(series, name),
                                  getattr(ref_series, name)), name
        for snap, ref_snap in zip(snaps, ref_snaps):
            assert snap.t == ref_snap.t
            assert np.array_equal(snap.ids, ref_snap.ids)
            assert np.array_equal(snap.radii, ref_snap.radii)

    @pytest.mark.parametrize("regime", BOTH)
    def test_snapshot_order_matches_argsort(self, regime):
        # The ids left after dissolution, and in al after re-sorts, in the
        # order an argsort of the stored ids gives.
        ens = init_ensemble(regime, 2000, 1.0, seed=3)
        ens.run(1.0)
        assert ens.work["dissolved"] > 500
        order = np.argsort(ens._ids)
        snap = ens.snapshot()
        assert np.array_equal(snap.ids, ens._ids[order])
        assert np.array_equal(snap.radii, np.cbrt(ens._y[order]))

    def test_drop_takes_the_smallest(self):
        # A drop slices off the start of the sorted state and counts the
        # dissolved particles (a collapse is refused by the run before it;
        # see test_two_particle_collapse).
        ens = Ensemble(ATTACHMENT_LIMITED, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = ens._y.copy()
        ens._drop(2)
        assert list(ens._ids) == [2, 3, 4, 5]
        assert np.array_equal(ens._y, y[2:])
        ens._drop(1)
        assert list(ens._ids) == [3, 4, 5]
        assert ens.work["dissolved"] == 3


class TestStepRule:
    """The step is the closed form of the suffix's bound on |k1|/y at
    R_c/2: step_fraction / (4 u**3) in dl and step_fraction / (2 u**2) in
    al, cut short only at a snapshot time."""

    @staticmethod
    def _step(regime, sf, u):
        return sf / (4.0 * u**3) if regime.kind == "dl" else sf / (2.0 * u**2)

    @pytest.mark.parametrize("regime", BOTH)
    def test_no_particle_near_half_the_critical_radius(self, regime):
        # Both particles lie far above R_c/2, so the step does not come
        # from them (in dl the first alone would give a step of 11
        # step_fraction).
        ens = Ensemble(regime, [1.0, 1.2])
        u = ens._field(np.cbrt(ens._y))
        _, series = ens.run(1.0)
        assert series.t[1] == self._step(regime, ens.step_fraction, u)

    @pytest.mark.parametrize("regime", BOTH)
    def test_default_run_steps(self, regime):
        # The default simulate run, on the ensemble's own clock (the
        # result's series is t0 plus it; see test_results_on_one_clock).
        # The series holds R_c = 1/u after each substep, so the next step
        # follows from it; t itself rounds, by up to one ulp per row.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 20000, critical_radius(regime, 0.0, t0),
                            seed=1)
        times = [0.5 * t0, t0, 2.0 * t0]
        _, series = ens.run(2.0 * t0, times)
        t = series.t
        h = self._step(regime, 1.6e-2, 1.0 / series.rc_estimate[:-1])
        dt = np.diff(t)
        slack = 1e-14 * h + np.spacing(t[1:])
        cut = np.isin(t[1:], times)
        assert np.count_nonzero(cut) == 3
        assert np.all(np.abs(dt - h)[~cut] <= slack[~cut])
        assert np.all(dt[cut] <= h[cut] + slack[cut])


class TestDefaultStep:
    """At the default step fraction phi agrees with a run at a quarter of
    the step."""

    @pytest.mark.parametrize("regime", BOTH)
    def test_step_convergence(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        sf = Ensemble(regime, [1.0, 2.0]).step_fraction
        runs = [
            simulate_late_stage(regime, 2000, t0, 2.0 * t0, [2.0 * t0],
                                seed=1, step_fraction=frac)
            for frac in (sf, 0.25 * sf)
        ]
        assert runs[0].work["dissolved"] > 0
        phi, phi_fine = (r.comparisons[0].phi_empirical for r in runs)
        assert abs(phi - phi_fine) <= 5e-5 * phi_fine


def _phi_at_snapshots(ens, t0):
    """phi at s = 1.5 and 2 of a run over t0, started at the reference
    time t0."""
    base = ens.snapshot()
    snaps, _ = ens.run(t0, [0.5 * t0, t0])
    return np.array([measure_new_volume(base, s).fraction for s in snaps])


class TestExactFlow:
    """The prefix below R_c/2 moves by the exact flow of its growth law
    under the mid-step field; the suffix's Heun step takes the
    volume-conserving multiplier."""

    @staticmethod
    def _g(mp, x, p):
        # 50 digits beyond the p * log10(1/x) that the closed form cancels
        with mp.workdps(50 + int(p * max(0.0, -math.log10(float(x))))):
            x = mp.mpf(x)
            return +(-(mp.log1p(-x) + x + (x * x / 2 if p == 3 else 0)))

    # x spans the series (below 0.05), its edge and the closed form up to
    # the flow's top, x = 0.75 (a prefix particle starts below 1/2 under
    # a field capped at 1.5 u), ascending as _flow passes it.
    X = np.sort(np.concatenate([np.geomspace(1e-90, 0.75, 150),
                                np.linspace(0.045, 0.055, 11),
                                np.linspace(0.7, 0.75, 6)]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_lifetime_against_mpmath(self, p):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        got = _lifetime(self.X, p)
        for x, g in zip(self.X, got):
            want = self._g(mp, float(x), p)
            assert abs(mp.mpf(float(g)) - want) <= 1e-12 * want, x

    def _assert_inverts(self, mp, tau, got, p):
        """Each ``got`` within 1e-15 relative of the x with g_p(x) = tau."""
        for t, x in zip(tau, got):
            # g rises: bisect a bracket of 2e-9 relative around x to 2e-18.
            lo, hi = mp.mpf(float(x)) * (1 - 1e-9), mp.mpf(float(x)) * (1 + 1e-9)
            assert self._g(mp, lo, p) < t < self._g(mp, hi, p)
            for _ in range(30):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if self._g(mp, mid, p) < t else (lo, mid)
            assert abs(mp.mpf(float(x)) - lo) <= 1e-15 * lo, t

    @pytest.mark.parametrize("p", [2, 3])
    def test_inverse_against_mpmath(self, p):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        tau = np.array([float(self._g(mp, float(x), p)) for x in self.X])
        self._assert_inverts(mp, tau, _inverse_lifetime(tau, p), p)
        assert _inverse_lifetime(np.zeros(1), p)[0] ** 3 == 0.0

    @pytest.mark.parametrize("p", [2, 3])
    def test_same_bits_as_references(self, p):
        # The flow's constants and in-place passes reorder no operation:
        # both functions equal the one-array-per-operation references bit
        # for bit, on X, series branch included.
        assert np.any(self.X < 0.05) and np.any(self.X >= 0.05)
        tau = _ref_lifetime(self.X, p)
        assert np.array_equal(_lifetime(self.X, p), tau)
        assert np.array_equal(_inverse_lifetime(tau, p),
                              _ref_inverse_lifetime(tau, p))

    @pytest.mark.parametrize("regime", BOTH)
    @pytest.mark.parametrize("scale", [0.5, 1.0 - 2**-52, 1.0, 2.0])
    def test_series_skipped_only_when_all_dissolve(self, regime, scale):
        # A step c on the lifetime clock at least _SERIES_MAX ends every
        # lifetime below x = 0.05; the flow then gives them 0 instead of
        # the series.  On both sides of it the flow's dissolved count and
        # survivors equal the references' bit for bit.
        p = 2 if regime.kind == "al" else 3
        c = _SERIES_MAX[p] * scale
        x = self.X[self.X < 0.5]
        assert np.any(x < 0.05) and np.any(x >= 0.05)
        got = _lifetime(x, p, c)
        want = _ref_lifetime(x, p)
        below = x < 0.05
        if scale < 1.0:
            assert np.array_equal(got, want)
        else:
            assert np.all(want[below] <= c) and np.all(got[below] == 0.0)
            assert np.array_equal(got[~below], want[~below])
        k, y = Ensemble(regime, [1.0, 2.0])._flow(x, 1.0, c)
        dying = int(np.searchsorted(want, c, side="right"))
        assert k == dying
        # At half the threshold some series lifetimes outlast the step.
        assert np.any(x[k:] < 0.05) == (scale == 0.5)
        survivors = _ref_inverse_lifetime(np.maximum(want[dying:] - c, 0.0), p)
        assert np.array_equal(y, survivors * survivors * survivors)

    @pytest.mark.parametrize("p", [2, 3])
    def test_inverse_at_the_range_bound(self, p):
        # The polynomial is fitted up to x = 0.75; rounding can carry the
        # flow's x a few ulps past it, and the inverse holds there too.
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        x = 0.75 * (1.0 + np.array([-1e-15, 0.0, 1e-15, 1e-14]))
        tau = np.array([float(self._g(mp, float(v), p)) for v in x])
        got = _inverse_lifetime(tau, p)
        self._assert_inverts(mp, tau, got, p)
        assert np.all(np.abs(got - x) <= 1e-15 * x)

    @pytest.mark.parametrize("regime", BOTH)
    def test_flow_field_capped(self, regime, monkeypatch):
        # The predicted mid-step field is capped at 1.5 u, so the flow's
        # x = u R starts below 0.75 (the inverse's range) even under a
        # wild field rate; seeds 1-2 at N = 20 000 reach 1.00027 u.
        ens = init_ensemble(regime, 500, 1.0, seed=1)
        seen = []
        flow = Ensemble._flow

        def spy(self, r, u, h):
            u0 = self._field(np.cbrt(self._y))
            seen.append((u / u0, float(r.max()) * u))
            return flow(self, r, u, h)

        monkeypatch.setattr(Ensemble, "_flow", spy)
        ens._field_rate = 1e6
        _, series = ens.run(0.5)
        assert seen[0][0] == 1.5
        assert max(x for _, x in seen) <= 0.75 * (1.0 + 1e-15)
        assert np.all(ens._y[1:] >= ens._y[:-1])
        start, end = series.total_r3[[0, -1]]
        assert abs(end - start) <= 1e-13 * start

    @pytest.mark.parametrize("regime", BOTH)
    def test_second_order(self, regime):
        # phi against a run at 1e-3 from the same draws: an 8x step makes
        # the error about 64x larger (order 1.9-2.1 over seeds 1-4 at
        # N = 2 000; the Heun step over the unresolved prefix had 1.3).
        # At order 2 the 1e-3 run is within about 1/256 of the default's
        # error of the limit, so the default's gap to it is its step error:
        # 7.6e-7 (dl) and 3.7e-6 (al) here.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        radii = init_ensemble(
            regime, 2000, critical_radius(regime, 0.0, t0), seed=1
        ).snapshot().radii
        fine = _phi_at_snapshots(Ensemble(regime, radii, step_fraction=1e-3), t0)
        err = [
            float(np.max(np.abs(_phi_at_snapshots(
                Ensemble(regime, radii, step_fraction=frac), t0) - fine)))
            for frac in (4e-3, 3.2e-2)
        ]
        assert math.log(err[1] / err[0]) / math.log(8.0) >= 1.8
        default = _phi_at_snapshots(Ensemble(regime, radii), t0)
        assert float(np.max(np.abs(default - fine))) <= (
            2e-6 if regime.kind == "dl" else 5e-6)

    @pytest.mark.parametrize("regime", BOTH)
    def test_quantile_start_meets_closed_form(self, regime):
        # N = 5 000 particles at the midpoint quantiles of the stationary
        # density have no sampling spread, so phi at the default step meets
        # the closed form to within the step error and the finite-N bias:
        # signed errors -5.6e-7 to -1.3e-6 (dl) and -3.5e-6 to -1.0e-5 (al)
        # over s = 1.5-4.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        n = 5000
        z_tab, h_tab = size_distribution(regime).cdf_table
        radii = critical_radius(regime, 0.0, t0) * np.interp(
            (np.arange(n) + 0.5) / n, h_tab, z_tab)
        s = np.array([1.5, 2.0, 3.0, 4.0])
        ens = Ensemble(regime, radii)
        base = ens.snapshot()
        snaps, _ = ens.run(3.0 * t0, (s - 1.0) * t0)
        phi = np.array([measure_new_volume(base, x).fraction for x in snaps])
        gap = np.abs(phi - new_volume_fraction(regime, s))
        assert float(np.max(gap)) <= (4e-6 if regime.kind == "dl" else 3e-5)

    @pytest.mark.parametrize("regime", BOTH)
    def test_conserved_to_rounding(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        res = simulate_late_stage(regime, 2000, t0, 2.0 * t0, [1.5 * t0],
                                  seed=1)
        assert res.work["dissolved"] > 0
        assert res.conservation_residual <= 1e-15
        # The residual is read from the series' first and last rows.
        v0, v1 = FOUR_THIRDS_PI * res.series.total_r3[[0, -1]]
        assert res.conservation_residual == abs(v1 - v0) / v0


class TestRun:
    def test_series_shape_and_monotonicity(self):
        ens = init_ensemble(DIFFUSION_LIMITED, 400, 1.0, seed=4)
        _, series = ens.run(2.0)
        m = series.t.size
        assert all(
            arr.size == m
            for arr in (series.n, series.rc_estimate, series.total_r3)
        )
        assert series.t[0] == 0.0 and series.t[-1] == 2.0
        assert np.all(np.diff(series.t) > 0.0)
        assert np.all(np.diff(series.n) <= 0)
        # conservation holds at every recorded substep
        r3 = series.total_r3
        assert np.max(np.abs(r3 - r3[0])) / r3[0] < 1e-12

    @pytest.mark.parametrize("regime", BOTH)
    def test_first_row_is_the_given_state(self, regime):
        # Row 0 holds the state the run starts from, summed in the stored
        # (ascending volume) order, as every later row is.
        radii = np.random.default_rng(7).uniform(0.2, 2.0, size=300)
        y = np.sort(radii**3)
        ens = Ensemble(regime, radii)
        _, series = ens.run(0.1)
        assert series.t[0] == 0.0 and series.n[0] == 300
        assert series.rc_estimate[0] == 1.0 / ens._field(np.cbrt(y))
        assert series.total_r3[0] == float(np.sum(y))

    def test_snapshots_at_requested_times(self):
        ens = init_ensemble(DIFFUSION_LIMITED, 300, 1.0, seed=6)
        snaps, _ = ens.run(1.0, snapshot_times=[0.0, 0.5, 1.0])
        assert [s.t for s in snaps] == [0.0, 0.5, 1.0]
        assert snaps[0].n == 300
        assert ens.snapshot().t == 1.0

    def test_snapshot_time_validation(self):
        ens = init_ensemble(DIFFUSION_LIMITED, 300, 1.0, seed=6)
        with pytest.raises(DomainError):
            ens.run(1.0, snapshot_times=[0.5, 0.2])
        with pytest.raises(DomainError):
            ens.run(1.0, snapshot_times=[1.5])
        with pytest.raises(DomainError):
            ens.run(0.0)

    @pytest.mark.parametrize("t_end, times, message", [
        pytest.param(math.inf, (), "t_end must be finite, got inf",
                     id="inf-t-end"),
        pytest.param(math.nan, (), "t_end must be finite, got nan",
                     id="nan-t-end"),
        pytest.param(1.0, (0.5, math.nan),
                     "snapshot times must be finite, got nan",
                     id="nan-snapshot"),
        pytest.param(1.0, (-math.inf,),
                     "snapshot times must be finite, got -inf",
                     id="inf-snapshot"),
    ])
    def test_non_finite_times(self, t_end, times, message):
        ens = init_ensemble(DIFFUSION_LIMITED, 300, 1.0, seed=6)
        with pytest.raises(DomainError, match=message):
            ens.run(t_end, snapshot_times=times)
        assert ens.snapshot().t == 0.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_coarsening_rate(self, regime):
        # R_c**gamma must grow linearly at gamma/nu once the population is
        # stationary; reduced N keeps this quick, so allow a few percent.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 2000, critical_radius(regime, 0.0, t0), seed=1)
        _, series = ens.run(t0)  # out to s = 2
        g = regime.coarsening_exponent
        slope = np.polyfit(t0 + series.t, series.rc_estimate**g, 1)[0]
        assert slope == pytest.approx(coarsening_slope(regime), rel=0.05)


class TestSnapshotType:
    def test_validation(self):
        with pytest.raises(DataError):
            Snapshot(0.0, np.array([0, 0]), np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            Snapshot(0.0, np.array([0, 1]), np.array([1.0, 0.0]))
        with pytest.raises(DataError):
            Snapshot(0.0, np.array([0, 1]), np.array([1.0]))

    @pytest.mark.parametrize("t, radii", [
        pytest.param(0.0, [1.0, math.inf], id="inf-radius"),
        pytest.param(0.0, [math.nan, 1.0], id="nan-radius"),
        pytest.param(0.0, [math.nan, math.nan], id="all-nan-radii"),
        pytest.param(math.nan, [1.0, 2.0], id="nan-t"),
        pytest.param(math.inf, [1.0, 2.0], id="inf-t"),
    ])
    def test_non_finite_refused(self, t, radii):
        # An inf radius used to pass, and measure_new_volume then reported
        # a fraction of 0.0 without a word.
        with pytest.raises(DataError, match="finite"):
            Snapshot(t, np.array([0, 1]), np.array(radii))

    @pytest.mark.parametrize("ids", [
        pytest.param([0.5, 1.7, 2.2], id="fractional"),
        pytest.param([0, 1, 1.5], id="one-fractional"),
        pytest.param([0, 1, math.nan], id="nan"),
        pytest.param([0, 1, 1e19], id="beyond-int64"),
        pytest.param(np.array([0, 1, 2**63], dtype=np.uint64),
                     id="uint64-past-int64"),
        pytest.param(np.array([0, 1, 2**64 - 1], dtype=np.uint64),
                     id="uint64-max"),
    ])
    def test_non_integer_ids_refused(self, ids):
        # The int64 cast used to truncate [0.5, 1.7, 2.2] to [0, 1, 2]
        # without a word, to refuse [0, 1, 1.5] as not increasing, and to
        # wrap unsigned ids past the int64 maximum to negative ones.
        with pytest.raises(DataError, match="ids must be integers"):
            Snapshot(0.0, ids, [1.0, 2.0, 3.0])

    def test_unsigned_ids(self):
        # An unsigned id past the int64 maximum is named exactly (it used
        # to become -2**63); one within it is kept.
        with pytest.raises(DataError, match=re.escape(
                "in the int64 range, got 9223372036854775808")):
            Snapshot(0.0, [2**63], [1.0])
        ids = np.array([0, 2**63 - 1], dtype=np.uint64)
        assert Snapshot(0.0, ids, [1.0, 2.0]).ids.tolist() == [0, 2**63 - 1]

    def test_whole_float_ids_kept(self):
        s = Snapshot(0.0, [0.0, 2.0], [1.0, 2.0])
        assert s.ids.dtype == np.int64 and s.ids.tolist() == [0, 2]

    def test_write_protected(self):
        s = Snapshot(0.0, np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.radii[0] = 5.0
        assert s.n == 2


def _pair(after_radii, after_ids=(0, 2, 3, 4)):
    before = Snapshot(1.0, np.arange(5), np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    after = Snapshot(
        2.0, np.array(after_ids), np.array(after_radii, dtype=float)
    )
    return before, after


class TestSnapshotComparators:
    def test_measure_new_volume(self):
        before, after = _pair([0.5, 3.5, 4.5, 5.5])
        got = measure_new_volume(before, after)
        vol = FOUR_THIRDS_PI * (
            (3.5**3 - 3.0**3) + (4.5**3 - 4.0**3) + (5.5**3 - 5.0**3)
        )
        total = FOUR_THIRDS_PI * (0.5**3 + 3.5**3 + 4.5**3 + 5.5**3)
        assert isinstance(got, NewVolume)
        assert got.volume == pytest.approx(vol)
        assert got.fraction == pytest.approx(vol / total)

    def test_boundary_radius(self):
        before, after = _pair([0.5, 3.5, 4.5, 5.5])
        # largest shrunk initial radius 1.0, smallest grown 3.0
        assert empirical_return_radius(before, after) == pytest.approx(2.0)

    def test_no_boundary(self):
        before, after = _pair([1.5, 3.5, 4.5, 5.5])  # everything grew
        with pytest.raises(DataError):
            empirical_return_radius(before, after)

    def test_alignment_errors(self):
        before, _ = _pair([0.5, 3.5, 4.5, 5.5])
        stranger = Snapshot(2.0, np.array([0, 9]), np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            measure_new_volume(before, stranger)
        earlier = Snapshot(0.5, np.array([0, 1]), np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            measure_new_volume(before, earlier)

    def test_alignment_paths_agree(self):
        # ids 0..n-1 in 'before' index themselves; any other 'before' takes
        # the searchsorted path, and both find the same positions.  Each
        # radius of 'before' is its position plus one, so the aligned r0
        # names the positions found.
        before = Snapshot(1.0, np.arange(6), np.arange(1.0, 7.0))
        for ids in ([0, 2, 5], [3], [0, 1, 2, 3, 4, 5], [1, 4]):
            after = Snapshot(2.0, np.array(ids), np.full(len(ids), 3.5))
            r0, r1, grown = _align(before, after)
            assert np.array_equal(
                r0, np.searchsorted(before.ids, after.ids) + 1.0)
            assert np.array_equal(r1, after.radii)
            assert np.array_equal(grown, r1 >= r0)
        subsets = [(np.array([0, 2, 3, 4]), [2, 4], [1, 3]),
                   (np.array([1, 2, 3]), [1, 3], [0, 2]),
                   (np.array([0, 1, 2, 5]), [0, 5], [0, 3])]
        for before_ids, ids, want in subsets:
            before = Snapshot(1.0, before_ids,
                              np.arange(1.0, before_ids.size + 1.0))
            after = Snapshot(2.0, np.array(ids), np.ones(len(ids)))
            assert (_align(before, after)[0] - 1.0).tolist() == want

    @pytest.mark.parametrize("after_radii", [[0.5, 3.5, 4.5, 5.5],
                                             [1.5, 2.9, 4.5, 5.5]])
    def test_comparators_on_offset_ids(self, after_radii):
        # 'before' ids 10..14 take _align's searchsorted path; every
        # comparator gives what it gives on the same pair with ids 0..4.
        pair = _pair(after_radii)
        offset = [Snapshot(s.t, s.ids + 10, s.radii) for s in pair]
        assert measure_new_volume(*offset) == measure_new_volume(*pair)
        assert (empirical_return_radius(*offset)
                == empirical_return_radius(*pair))

    @pytest.mark.parametrize("before_radii, after_radii", [
        pytest.param([1e200, 1.0], [1.1e200, 1.0], id="cube-overflows"),
        pytest.param([5e102, 5e102], [5e102, 5e102], id="sum-overflows"),
    ])
    def test_volume_overflow_refused(self, before_radii, after_radii):
        # The cubes or their sum pass the float maximum: this used to
        # return NewVolume(nan, nan) with a RuntimeWarning.
        before = Snapshot(1.0, [0, 1], before_radii)
        after = Snapshot(2.0, [0, 1], after_radii)
        with pytest.raises(DataError, match="total volume .* overflows"):
            measure_new_volume(before, after)

    @pytest.mark.parametrize("before_ids, after_ids", [
        pytest.param([0, 1, 2, 3], [2, 4], id="id-past-n"),
        pytest.param([0, 1, 2, 3], [-1, 2], id="negative-id"),
        pytest.param([0, 2, 3, 4], [1, 2], id="missing-id"),
        pytest.param([0, 2, 3, 4], [4, 5], id="missing-last-id"),
    ])
    def test_alignment_refuses_strangers(self, before_ids, after_ids):
        before = Snapshot(1.0, np.array(before_ids), np.ones(len(before_ids)))
        after = Snapshot(2.0, np.array(after_ids), np.ones(len(after_ids)))
        with pytest.raises(DataError, match="not a subset"):
            _align(before, after)

    def test_order_survives_a_real_run(self):
        t0 = 225.0
        ens = init_ensemble(
            DIFFUSION_LIMITED, 300, critical_radius(DIFFUSION_LIMITED, 0.0, t0),
            seed=9,
        )
        base = ens.snapshot()
        snaps, _ = ens.run(0.5 * t0, snapshot_times=[0.5 * t0])
        # The grown set is an up-set in initial radius: every grown
        # particle started above every shrunk one.
        r0, _, grown = _align(base, snaps[0])
        assert np.any(grown) and not np.all(grown)
        assert np.max(r0[~grown]) < np.min(r0[grown])


class TestInitEnsemble:
    def test_deterministic(self):
        a = init_ensemble(DIFFUSION_LIMITED, 100, 2.0, seed=5)
        b = init_ensemble(DIFFUSION_LIMITED, 100, 2.0, seed=5)
        assert np.array_equal(a.snapshot().radii, b.snapshot().radii)

    def test_scales_with_rc0(self):
        a = init_ensemble(DIFFUSION_LIMITED, 100, 1.0, seed=5)
        b = init_ensemble(DIFFUSION_LIMITED, 100, 3.0, seed=5)
        assert b.snapshot().radii == pytest.approx(3.0 * a.snapshot().radii)

    def test_mean_radius_matches_density(self):
        # dl mean scaled size is 1, al is 8/9.
        a = init_ensemble(DIFFUSION_LIMITED, 50_000, 1.0, seed=8)
        assert float(np.mean(a.snapshot().radii)) == pytest.approx(1.0, rel=5e-3)
        b = init_ensemble(ATTACHMENT_LIMITED, 50_000, 1.0, seed=8)
        assert float(np.mean(b.snapshot().radii)) == pytest.approx(8.0 / 9.0, rel=5e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            init_ensemble(DIFFUSION_LIMITED, 1, 1.0, seed=0)
        with pytest.raises(DomainError):
            init_ensemble(DIFFUSION_LIMITED, 10, 0.0, seed=0)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            init_ensemble(DIFFUSION_LIMITED, 10, 1.0, seed=-1)

    @pytest.mark.parametrize("n", [3.9, 10.0, "10"])
    def test_non_integer_count(self, n):
        # int(3.9) used to build 3 particles without a word.
        match = re.escape(f"n must be an integer, got {n!r}")
        with pytest.raises(DomainError, match=match):
            init_ensemble(DIFFUSION_LIMITED, n, 1.0, seed=0)
        with pytest.raises(DomainError, match=match):
            simulate_late_stage(DIFFUSION_LIMITED, n, 1.0, 2.0, [2.0], seed=0)

    def test_numpy_integer_count(self):
        a = init_ensemble(DIFFUSION_LIMITED, np.int64(10), 1.0, seed=5)
        b = init_ensemble(DIFFUSION_LIMITED, 10, 1.0, seed=5)
        assert np.array_equal(a.snapshot().radii, b.snapshot().radii)


class TestLateStage:
    @pytest.mark.parametrize("regime", BOTH)
    def test_reduced_size_run(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        res = simulate_late_stage(
            regime, 3000, t0, 2.0 * t0, [1.5 * t0, 2.0 * t0], seed=1
        )
        assert res.r_c0 == pytest.approx(
            (coarsening_slope(regime) * t0) ** (1.0 / regime.coarsening_exponent)
        )
        assert res.conservation_residual < 1e-12
        assert res.rc_power_slope == pytest.approx(
            res.rc_power_slope_expected, rel=0.05
        )
        assert [c.s for c in res.comparisons] == pytest.approx([1.5, 2.0])
        for c in res.comparisons:
            assert c.phi_analytic == pytest.approx(
                new_volume_fraction(regime, c.s), abs=1e-12
            )
            assert c.phi_rel_err < 0.08
            assert c.boundary_rel_err < 0.02
        assert res.base.n == 3000
        assert all(s.n < 3000 for s in res.snapshots)

    @pytest.mark.parametrize("regime", BOTH)
    def test_results_on_one_clock(self, regime):
        # Every time returned is on t0's clock, as the comparisons' are:
        # the base at t0, each snapshot at its requested time, and the
        # series from t0 to t_end, t0 plus the ensemble's own clock (which
        # these times keep exact: see test_series_rows_at_requested_times).
        t0 = 225.0 if regime.kind == "dl" else 200.0
        times = [1.5 * t0, 2.0 * t0]
        res = simulate_late_stage(regime, 500, t0, 3.0 * t0, times, seed=1)
        assert res.base.t == t0
        assert [s.t for s in res.snapshots] == times
        assert [c.t for c in res.comparisons] == times
        assert [s.t / res.base.t for s in res.snapshots] == [
            c.s for c in res.comparisons]
        assert res.series.t[0] == t0 and res.series.t[-1] == 3.0 * t0
        ens = init_ensemble(regime, 500, res.r_c0, seed=1)
        snaps, series = ens.run(2.0 * t0, [ts - t0 for ts in times])
        assert np.array_equal(res.series.t, t0 + series.t)
        assert np.array_equal(res.series.rc_estimate, series.rc_estimate)
        for snap, got in zip(snaps, res.snapshots):
            assert np.array_equal(got.radii, snap.radii)
        assert res.rc_power_slope == float(np.polyfit(
            t0 + series.t, series.rc_estimate**regime.coarsening_exponent,
            1)[0])

    @pytest.mark.parametrize("regime", BOTH)
    def test_series_rows_at_requested_times(self, regime):
        # The run stops exactly on ts - t0 and t_end - t0, and those series
        # rows hold ts and t_end themselves, where t0 + (ts - t0) may round
        # elsewhere: 0.3 + (0.9 - 0.3) is 0.9000000000000001.
        rng = np.random.default_rng(2026)
        t0s = rng.uniform(0.1, 10.0, 10).tolist()
        ratios = np.sort(rng.uniform(2.0, 4.0, (10, 2)), axis=1).tolist()
        cases = [(0.3, 0.9, 0.9)] + [
            (t0, t0 * a, t0 * b) for t0, (a, b) in zip(t0s, ratios)]
        for t0, ts, t_end in cases:
            res = simulate_late_stage(regime, 100, t0, t_end, [ts], seed=1)
            t = res.series.t
            assert t[0] == t0 and t[-1] == t_end, (t0, ts, t_end)
            assert ts in t.tolist(), (t0, ts, t_end)
            assert np.all(np.diff(t) > 0.0)

    @pytest.mark.parametrize("regime", BOTH)
    def test_snapshot_phis_in_one_call(self, regime, monkeypatch):
        # One array call for every snapshot's phi and one for its boundary
        # radius, each value the scalar call's bit for bit, so report.json
        # does not move.
        calls = []

        def counted(regime, s):
            calls.append(("phi", np.size(s)))
            return new_volume_fraction(regime, s)

        def counted_radius(regime, t, t0, r_c0):
            calls.append(("radius", np.size(t)))
            return return_radius(regime, t, t0, r_c0)

        monkeypatch.setattr("ripening.ensemble.new_volume_fraction", counted)
        monkeypatch.setattr("ripening.ensemble.return_radius", counted_radius)
        t0 = 225.0 if regime.kind == "dl" else 200.0
        times = [1.0001 * t0, 1.5 * t0, 2.0 * t0, 3.0 * t0]
        res = simulate_late_stage(regime, 300, t0, 3.0 * t0, times, seed=3)
        assert calls == [("phi", 4), ("radius", 4)]
        for c in res.comparisons:
            want = new_volume_fraction(regime, c.s)
            assert type(c.phi_analytic) is float
            assert c.phi_analytic == want
            assert type(c.boundary_radius_analytic) is float
            assert c.boundary_radius_analytic == return_radius(regime, c.t, t0)

    @pytest.mark.parametrize("t0, t_end, message", [
        (1e-300, 3e-300, "t0 must lie in [1e-150, 1e+150], got 1e-300"),
        (1e300, 3e300, "t0 must lie in [1e-150, 1e+150], got 1e+300"),
        (225.0, 1e151, "t_end must be at most 1e+150, got 1e+151"),
    ])
    def test_times_out_of_range(self, monkeypatch, t0, t_end, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr("ripening.ensemble.init_ensemble", no_draw)
        with pytest.raises(DomainError, match=re.escape(message)):
            simulate_late_stage(DIFFUSION_LIMITED, 100, t0, t_end, [], seed=1)

    @pytest.mark.parametrize("regime", BOTH)
    @pytest.mark.parametrize("t0, t_end", [(1e-150, 3e-150),
                                           (1e150 / 3.0, 1e150)])
    def test_time_range_ends(self, regime, t0, t_end):
        # A RuntimeWarning fails this suite: at both ends of the accepted
        # range the run overflows nowhere.
        res = simulate_late_stage(regime, 500, t0, t_end, [2.0 * t0], seed=1)
        assert res.conservation_residual < 1e-12
        assert res.rc_power_slope == pytest.approx(
            res.rc_power_slope_expected, rel=0.1)
        assert res.comparisons[0].phi_rel_err < 0.2

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_late_stage(DIFFUSION_LIMITED, 100, 0.0, 10.0, [], seed=1)
        with pytest.raises(DomainError):
            simulate_late_stage(DIFFUSION_LIMITED, 100, 10.0, 5.0, [], seed=1)
        with pytest.raises(DomainError):
            simulate_late_stage(
                DIFFUSION_LIMITED, 100, 10.0, 20.0, [10.0], seed=1
            )
        with pytest.raises(DomainError):
            simulate_late_stage(
                DIFFUSION_LIMITED, 100, 10.0, 20.0, [25.0], seed=1
            )

    @pytest.mark.parametrize("option", [{"start_time": 100.0},
                                        {"deletion_fraction": 0.1}])
    def test_only_step_fraction_passes_through(self, monkeypatch, option):
        # Neither is an Ensemble option (an ensemble's clock starts at 0,
        # and no particle is deleted but by dissolving); refused as unknown
        # keywords before any draw.
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr("ripening.ensemble.init_ensemble", no_draw)
        name = next(iter(option))
        with pytest.raises(TypeError, match=f"keyword argument '{name}'"):
            simulate_late_stage(DIFFUSION_LIMITED, 2000, 225.0, 675.0,
                                [337.5, 450.0, 675.0], 1, **option)

    @pytest.mark.parametrize("t_end, times, message", [
        pytest.param(math.inf, [300.0], "t_end must be finite, got inf",
                     id="inf-t-end"),
        pytest.param(math.inf, [math.inf],
                     "snapshot times must be finite, got inf",
                     id="inf-snapshot"),
        pytest.param(300.0, [300.0, math.nan],
                     "snapshot times must be finite, got nan",
                     id="nan-snapshot"),
    ])
    def test_non_finite_times(self, monkeypatch, t_end, times, message):
        # Refused before any particle is drawn.
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr("ripening.ensemble.init_ensemble", no_draw)
        with pytest.raises(DomainError, match=message):
            simulate_late_stage(DIFFUSION_LIMITED, 100, 225.0, t_end, times,
                                seed=1)


class TestCsvWriters:
    def test_snapshot_round_trip(self, tmp_path):
        snap = Snapshot(1.5, np.array([0, 3]), np.array([1.0, 2.0 / 3.0]))
        path = tmp_path / "snap.csv"
        write_snapshot_csv(snap, path, comment="hello")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "id,radius"
        assert lines[2] == "0,1"
        rid, radius = lines[3].split(",")
        assert rid == "3"
        assert float(radius) == 2.0 / 3.0  # 17 significant digits round-trip

    def test_series_round_trip(self, tmp_path):
        ens = init_ensemble(DIFFUSION_LIMITED, 200, 1.0, seed=3)
        _, series = ens.run(0.25)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,n,rc_estimate,total_r3"
        assert len(lines) == 1 + series.t.size
        t, n, rc, r3 = lines[1].split(",")
        assert float(t) == series.t[0]
        assert int(n) == series.n[0]
        assert float(rc) == series.rc_estimate[0]
        assert float(r3) == series.total_r3[0]

    def test_rows_match_per_value_formatting(self, tmp_path):
        ids = np.array([0, 7, 2**40], dtype=np.int64)
        radii = np.array([0.1, 1e-300, 2.0 / 3.0])
        snap = Snapshot(0.1, ids, radii)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(snap, path, comment="c")
        want = "# c\nid,radius\n" + "".join(
            f"{int(i)},{format(float(r), '.17g')}\n" for i, r in zip(ids, radii)
        )
        assert path.read_text(encoding="utf-8") == want

        series = TimeSeries(
            t=np.array([0.0, 0.1, 1e-300]),
            n=np.array([3, 2, 2], dtype=np.int64),
            rc_estimate=np.array([1.0 / 3.0, 1e300, 0.1]),
            total_r3=np.array([1.5, 1.5 - 2**-52, 5e-324]),
        )
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        columns = (series.t, series.n, series.rc_estimate, series.total_r3)
        want = "t,n,rc_estimate,total_r3\n" + "".join(
            ",".join(
                str(int(v)) if k == 1 else format(float(v), ".17g")
                for k, v in enumerate(row)
            ) + "\n"
            for row in zip(*columns)
        )
        assert path.read_text(encoding="utf-8") == want
