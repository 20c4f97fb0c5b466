"""Tests for the N-particle mean-field simulator.

Small seeded ensembles keep this fast; the quantitative comparisons against
the analytic late-stage results run at reduced N with tolerances widened
accordingly (the acceptance suite runs the full-size version).
"""

import math

import numpy as np
import pytest

from ripening.ensemble import (
    FOUR_THIRDS_PI,
    Ensemble,
    NewVolume,
    Snapshot,
    TimeSeries,
    empirical_return_radius,
    init_ensemble,
    initial_order_preserved,
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

    def test_option_ranges(self):
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, 2.0], deletion_fraction=0.0)
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, 2.0], deletion_fraction=0.5)
        with pytest.raises(DomainError):
            Ensemble(DIFFUSION_LIMITED, [1.0, 2.0], step_fraction=0.2)

    def test_initial_state(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 2.0, 3.0], start_time=5.0)
        assert ens.t == 5.0
        assert ens.n == 3
        assert list(ens.ids) == [0, 1, 2]
        assert ens.radii == pytest.approx([1.0, 2.0, 3.0])
        assert ens.lost_volume == 0.0


class TestMeanField:
    def test_dl_is_mean_radius(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 2.0, 3.0])
        u, rc = ens.mean_field()
        assert rc == pytest.approx(2.0)
        assert u == pytest.approx(0.5)

    def test_al_is_moment_ratio(self):
        ens = Ensemble(ATTACHMENT_LIMITED, [1.0, 2.0, 3.0])
        _, rc = ens.mean_field()
        assert rc == pytest.approx(14.0 / 6.0)

    def test_epsilon_tracks_critical_radius(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 3.0], deletion_fraction=1e-3)
        assert ens.epsilon == pytest.approx(2e-3)

    @pytest.mark.parametrize("regime", BOTH)
    def test_rates_sum_to_zero(self, regime):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.2, 2.0, size=400)
        ens = Ensemble(regime, r)
        rates = ens._volume_rates(r)
        assert float(np.sum(rates)) == pytest.approx(0.0, abs=1e-12 * r.size)


class TestStepping:
    def test_uniform_population_is_stationary(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 1.0, 1.0])
        ens.step(2.0)
        assert ens.radii == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
        assert ens.t == 2.0

    @pytest.mark.parametrize("regime", BOTH)
    def test_volume_conserved_with_deletions(self, regime):
        ens = init_ensemble(regime, 600, 1.0, seed=2)
        start = ens.conserved_total()
        ens.step(3.0)
        assert ens.work["deletions"] == 600 - ens.n > 0
        # the hand-off leaves the ledger small, of either sign
        assert abs(ens.lost_volume) <= 1e-4 * start
        drift = abs(ens.conserved_total() - start) / start
        assert drift < 1e-12

    @pytest.mark.parametrize("regime", BOTH)
    def test_big_grow_small_shrink(self, regime):
        ens = Ensemble(regime, [0.5, 1.0, 2.0])
        ens.step(0.01)
        r = ens.radii
        assert r[0] < 0.5 and r[2] > 2.0

    def test_two_particle_collapse(self):
        ens = Ensemble(DIFFUSION_LIMITED, [0.5, 2.0])
        with pytest.raises(StateError):
            ens.step(5.0)

    def test_dt_validation(self):
        ens = Ensemble(DIFFUSION_LIMITED, [1.0, 2.0])
        with pytest.raises(DomainError):
            ens.step(0.0)
        with pytest.raises(DomainError):
            ens.step(-1.0)

    def test_substeps_shrink_with_step_fraction(self):
        radii = init_ensemble(DIFFUSION_LIMITED, 200, 1.0, seed=3).radii
        counts = []
        for frac in (1e-2, 1e-3):
            ens = Ensemble(DIFFUSION_LIMITED, radii, step_fraction=frac)
            _, series = ens.run(0.5)
            counts.append(series.t.size)
        assert counts[1] > 5 * counts[0]


def _reference_run(regime, radii, duration, deletion_fraction=1e-4,
                   step_fraction=1e-3):
    """The mask-based stepper on id-ordered state that sorted storage
    replaced, with the hand-off of the dying particles and h folded into
    the stage arithmetic: returns (substeps, ids, radii, lost volume).

    Its mean-field sums run over the particles in ascending volume, as the
    sorted state's do, so the two steppers round alike.  The hand-off
    ledger sums ``(y + trial)/2`` of either sign over particles that shrank
    to almost nothing, and another summation order moves each term by a
    few ulps of the volume its particle started from: with id-order sums
    the ledgers differ by 2.7e-12 relative (dl, seed 1)."""
    y = np.asarray(radii, dtype=float) ** 3
    ids = np.arange(y.size)
    lost = 0.0
    t = 0.0
    substeps = 0

    def field(r, y):
        r = r[np.argsort(y, kind="stable")]
        if regime.kind == "dl":
            return r.size / float(np.sum(r))
        return float(np.sum(r)) / float(np.sum(r * r))

    def rates(r, u):
        if regime.kind == "dl":
            return 3.0 * (r * u - 1.0)
        return 3.0 * (r * r * u - r)

    def scaled_rates(r, h, u):
        # h k = r (3hu) - 3h in dl, r (r (3hu) - 3h) in al
        hk = r * (3.0 * h * u) - 3.0 * h
        return hk if regime.kind == "dl" else r * hk

    while True:
        dead = y < (deletion_fraction / field(np.cbrt(y), y)) ** 3
        lost += FOUR_THIRDS_PI * float(np.sum(y[dead]))
        y, ids = y[~dead], ids[~dead]
        remaining = duration - t
        if remaining <= 0.0:
            return substeps, ids, np.cbrt(y), lost
        u = field(np.cbrt(y), y)
        r_c = 1.0 / u
        k1 = rates(np.cbrt(y), u)
        watched = y >= (0.5 * r_c) ** 3
        fastest = float(np.max(np.abs(k1[watched]) / y[watched]))
        h = min(3.0 * step_fraction / fastest, remaining)
        hk1 = scaled_rates(np.cbrt(y), h, u)
        trial = y + hk1
        dying = trial <= (deletion_fraction * r_c) ** 3
        lost += FOUR_THIRDS_PI * float(np.sum(0.5 * (y[dying] + trial[dying])))
        keep = ~dying
        y, ids, hk1, trial = y[keep], ids[keep], hk1[keep], trial[keep]
        stage = np.cbrt(trial)
        hk2 = scaled_rates(stage, h, field(stage, y))
        y = y + 0.5 * (hk1 + hk2)
        t = duration if h >= remaining else t + h
        substeps += 1


def _unfolded_reference_run(regime, radii, duration, deletion_fraction=1e-4,
                   step_fraction=1e-3):
    """:func:`_reference_run` with the stage arithmetic before h and the
    rate constants were folded into it: ``k1 = 3 (r u - 1)`` (dl) or
    ``3 (r r u - r)`` (al), the trial ``y + h k1``, the ledger
    ``y + (h/2) k1`` and the update ``y + (h/2) (k1 + k2)``.  Returns
    (substeps, ids, radii, lost volume).

    Its mean-field sums run over the particles in ascending volume, as the
    sorted state's do, so the two steppers round alike.  The hand-off
    ledger sums ``y + (h/2) k1`` of either sign over particles that shrank
    to almost nothing, and another summation order moves each term by a
    few ulps of the volume its particle started from: with id-order sums
    the ledgers differ by 2.7e-12 relative (dl, seed 1)."""
    y = np.asarray(radii, dtype=float) ** 3
    ids = np.arange(y.size)
    lost = 0.0
    t = 0.0
    substeps = 0

    def field(r, y):
        r = r[np.argsort(y, kind="stable")]
        if regime.kind == "dl":
            return r.size / float(np.sum(r))
        return float(np.sum(r)) / float(np.sum(r * r))

    def rates(r, u):
        if regime.kind == "dl":
            return 3.0 * (r * u - 1.0)
        return 3.0 * (r * r * u - r)

    while True:
        dead = y < (deletion_fraction / field(np.cbrt(y), y)) ** 3
        lost += FOUR_THIRDS_PI * float(np.sum(y[dead]))
        y, ids = y[~dead], ids[~dead]
        remaining = duration - t
        if remaining <= 0.0:
            return substeps, ids, np.cbrt(y), lost
        u = field(np.cbrt(y), y)
        r_c = 1.0 / u
        k1 = rates(np.cbrt(y), u)
        watched = y >= (0.5 * r_c) ** 3
        fastest = float(np.max(np.abs(k1[watched]) / y[watched]))
        h = min(3.0 * step_fraction / fastest, remaining)
        trial = y + h * k1
        dying = trial <= (deletion_fraction * r_c) ** 3
        lost += FOUR_THIRDS_PI * float(np.sum(y[dying] + 0.5 * h * k1[dying]))
        keep = ~dying
        y, ids, k1, trial = y[keep], ids[keep], k1[keep], trial[keep]
        stage = np.cbrt(trial)
        k2 = rates(stage, field(stage, y))
        y = y + (0.5 * h) * (k1 + k2)
        t = duration if h >= remaining else t + h
        substeps += 1


class _AllocatingEnsemble(Ensemble):
    """The sorted stepper before it worked in place, as the bitwise
    reference: every array operation makes a new array, every drop copies
    the survivors, the step cap and the dying test read the whole state,
    and a re-sort sorts the whole state."""

    def _ref_field(self, r):
        if self.regime.kind == "dl":
            return r.size / float(np.sum(r))
        return float(np.sum(r)) / float(np.sum(r * r))

    def _ref_rates(self, r, u):
        if self.regime.kind == "dl":
            return 3.0 * (r * u - 1.0)
        return 3.0 * (r * r * u - r)

    def _ref_scaled_rates(self, r, h, u):
        hk = r * (3.0 * h * u) - 3.0 * h
        return hk if self.regime.kind == "dl" else r * hk

    def _drop(self, r, k, dying=None):
        keep = slice(k, None) if dying is None else ~dying
        gone = self._y[:k] if dying is None else self._y[dying]
        self._lost += FOUR_THIRDS_PI * float(np.sum(gone))
        self._deletions += k
        self._y = self._y[keep].copy()
        self._ids = self._ids[keep].copy()
        if self._y.size < 2:
            raise StateError("collapsed")
        return r[keep].copy()

    def _advance(self, t_target, recorder=None):
        r = np.cbrt(self._y)
        u = self._ref_field(r)
        while True:
            k = int(np.searchsorted(
                self._y, (self.deletion_fraction * (1.0 / u)) ** 3
            ))
            if k:
                r = self._drop(r, k)
                u = self._ref_field(r)
            remaining = t_target - self._t
            if remaining <= 0.0:
                break
            y = self._y
            r_c = 1.0 / u
            k1 = self._ref_rates(r, u)
            j = int(np.searchsorted(y, (0.5 * r_c) ** 3))
            if j == y.size:
                j = 0
            fastest = float(np.max(np.abs(k1[j:]) / y[j:]))
            h = remaining
            if fastest > 0.0:
                h = min(3.0 * self.step_fraction / fastest, remaining)
            hk1 = self._ref_scaled_rates(r, h, u)
            trial = y + hk1
            dying = trial <= (self.deletion_fraction * r_c) ** 3
            k = int(np.count_nonzero(dying))
            if k:
                self._lost += FOUR_THIRDS_PI * float(
                    np.sum((0.5 * (y + trial))[dying])
                )
                self._deletions += k
                keep = ~dying
                y, hk1, trial = y[keep], hk1[keep], trial[keep]
                self._ids = self._ids[keep]
                if y.size < 2:
                    raise StateError("collapsed")
            t_next = t_target if h >= remaining else self._t + h
            stage = np.cbrt(trial)
            hk2 = self._ref_scaled_rates(stage, h, self._ref_field(stage))
            y = y + 0.5 * (hk1 + hk2)
            if (y[1:] < y[:-1]).any():
                order = np.argsort(y, kind="stable")
                moved = np.flatnonzero(order != np.arange(y.size))
                y = y[order]
                self._ids = self._ids[order]
                self._resorts += 1
                # the particles from the first up to the last one moved
                self._resorted += int(moved[-1]) + 1
            self._y = y
            self._t = t_next
            self._substeps += 1
            r = np.cbrt(y)
            u = self._ref_field(r)
            if recorder is not None:
                recorder(t_next, y.size, 1.0 / u, float(np.sum(y)), self._lost)


class TestSortedState:
    @pytest.mark.parametrize("regime", BOTH)
    def test_views_in_id_order(self, regime):
        ens = Ensemble(regime, [3.0, 1.0, 2.0])
        for _ in range(2):
            assert list(ens.ids) == [0, 1, 2]
            snap = ens.snapshot()
            assert list(snap.ids) == [0, 1, 2]
            assert np.array_equal(snap.radii, ens.radii)
            r = ens.radii
            assert r[0] > r[2] > r[1]
            ens.step(0.01)
        assert ens.n == 3
        assert Ensemble(regime, [3.0, 1.0, 2.0]).radii == pytest.approx(
            [3.0, 1.0, 2.0]
        )

    @pytest.mark.parametrize("regime", BOTH)
    def test_state_sorted_after_every_substep(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 2000, critical_radius(regime, 0.0, t0), seed=1)
        checked = []

        def check(t, n, rc, total_r3, lost):
            checked.append(bool(np.all(ens._y[1:] >= ens._y[:-1])))

        ens._advance(0.5 * t0, check)
        assert len(checked) == ens.work["substeps"] > 100
        assert all(checked)
        assert ens.n + ens.work["deletions"] == 2000

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_reference_stepper(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 1000, critical_radius(regime, 0.0, t0), seed=1)
        substeps, ids, radii, lost = _reference_run(
            regime, ens.radii, t0, step_fraction=ens.step_fraction
        )
        ens.step(t0)
        assert ens.work["substeps"] == substeps
        assert np.array_equal(ens.ids, ids)
        assert ens.work["deletions"] == 1000 - ids.size > 0
        assert np.max(np.abs(ens.radii - radii) / radii) <= 1e-12
        assert ens.lost_volume == pytest.approx(lost, rel=1e-12)
        if regime.kind == "dl":
            assert ens.work["resorts"] == 0

    @pytest.mark.parametrize("regime", BOTH)
    def test_matches_unfolded_stepper(self, regime):
        # Folding h into the stage arithmetic moves only rounding: the
        # stepper with the former formulas takes the same substeps, drops
        # the same particles, and books the same ledger to within 1e-14 of
        # the conserved volume.
        t0 = 225.0 if regime.kind == "dl" else 200.0
        ens = init_ensemble(regime, 1000, critical_radius(regime, 0.0, t0), seed=1)
        total = ens.conserved_total()
        substeps, ids, radii, lost = _unfolded_reference_run(
            regime, ens.radii, t0, step_fraction=ens.step_fraction
        )
        ens.step(t0)
        assert ens.work["substeps"] == substeps
        assert np.array_equal(ens.ids, ids)
        assert np.max(np.abs(ens.radii - radii) / radii) <= 1e-12
        assert abs(ens.lost_volume - lost) <= 1e-14 * total

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("regime", BOTH)
    def test_bitwise_equal_to_allocating_stepper(self, regime, seed):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        radii = init_ensemble(
            regime, 2000, critical_radius(regime, 0.0, t0), seed=seed
        ).radii
        new, ref = Ensemble(regime, radii), _AllocatingEnsemble(regime, radii)
        (snaps, series), (ref_snaps, ref_series) = (
            e.run(t0, [0.5 * t0, t0]) for e in (new, ref)
        )
        assert np.array_equal(new._ids, ref._ids)
        assert np.array_equal(new._y, ref._y)
        assert new.lost_volume == ref.lost_volume
        assert new.work == ref.work
        for name in ("t", "n", "rc_estimate", "total_r3", "lost_volume"):
            assert np.array_equal(getattr(series, name),
                                  getattr(ref_series, name)), name
        assert len(snaps) == len(ref_snaps) == 2
        for snap, ref_snap in zip(snaps, ref_snaps):
            assert snap.t == ref_snap.t
            assert np.array_equal(snap.ids, ref_snap.ids)
            assert np.array_equal(snap.radii, ref_snap.radii)
        if regime.kind == "al":
            assert new.work["resorts"] > 0  # the re-sort path ran

    def test_drop_by_mask(self):
        # A dying set that is not a prefix of the sorted state: the
        # survivors keep their order and the ledger takes the exact volumes.
        ens = Ensemble(ATTACHMENT_LIMITED, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = ens._y.copy()
        r = np.cbrt(ens._y)
        dying = np.array([True, False, True, False])
        survivors = ens._drop(r, 2, dying)
        assert list(ens._ids) == [1, 3, 4, 5]
        assert np.array_equal(ens._y, y[[1, 3, 4, 5]])
        assert np.array_equal(survivors, np.cbrt(y[[1, 3, 4, 5]]))
        assert ens.lost_volume == FOUR_THIRDS_PI * float(np.sum(y[[0, 2]]))
        assert ens.work["deletions"] == 2

    def test_hand_off_by_mask(self):
        # The ledger takes the given volumes of the dropped particles, and
        # the carried arrays are compacted like the state.
        ens = Ensemble(ATTACHMENT_LIMITED, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = ens._y.copy()
        volumes = np.array([0.25, 9.0, -0.5, 9.0, 9.0, 9.0])
        k1, stage = np.arange(6.0), np.arange(10.0, 16.0)
        dying = np.array([True, False, True, False])
        ens._drop(np.cbrt(ens._y), 2, dying, volumes, (k1, stage))
        assert np.array_equal(ens._y, y[[1, 3, 4, 5]])
        assert list(k1[2:]) == [1.0, 3.0, 4.0, 5.0]
        assert list(stage[2:]) == [11.0, 13.0, 14.0, 15.0]
        assert ens.lost_volume == FOUR_THIRDS_PI * -0.25


class TestHandOff:
    """Dissolving particles hand their flux to the survivors within the
    substep, so the ledger holds no O(h) leak and phi is converged in the
    step at the default step fraction."""

    @pytest.mark.parametrize("regime", BOTH)
    def test_ledger_and_step_convergence(self, regime):
        t0 = 225.0 if regime.kind == "dl" else 200.0
        sf = Ensemble(regime, [1.0, 2.0]).step_fraction
        runs = [
            simulate_late_stage(regime, 2000, t0, 2.0 * t0, [2.0 * t0],
                                seed=1, step_fraction=frac)
            for frac in (sf, 0.25 * sf)
        ]
        series = runs[0].series
        total = FOUR_THIRDS_PI * series.total_r3[0] + series.lost_volume[0]
        assert runs[0].work["deletions"] > 0
        assert abs(series.lost_volume[-1]) <= 1e-4 * total
        phi, phi_fine = (r.comparisons[0].new_fraction_empirical for r in runs)
        assert abs(phi - phi_fine) <= 5e-5 * phi_fine


class TestRun:
    def test_series_shape_and_monotonicity(self):
        ens = init_ensemble(DIFFUSION_LIMITED, 400, 1.0, seed=4)
        _, series = ens.run(2.0)
        m = series.t.size
        assert all(
            arr.size == m
            for arr in (series.n, series.rc_estimate, series.total_r3,
                        series.lost_volume)
        )
        assert series.t[0] == 0.0 and series.t[-1] == 2.0
        assert np.all(np.diff(series.t) > 0.0)
        assert np.all(np.diff(series.n) <= 0)
        # each ledger entry is small: a hand-off books y + (h/2) k1 of the
        # dying particles, of either sign
        assert np.all(np.diff(series.lost_volume) >= -0.01)
        # conservation holds at every recorded substep
        total = FOUR_THIRDS_PI * series.total_r3 + series.lost_volume
        assert np.max(np.abs(total - total[0])) / total[0] < 1e-12

    def test_snapshots_at_requested_times(self):
        ens = init_ensemble(DIFFUSION_LIMITED, 300, 1.0, seed=6)
        snaps, _ = ens.run(1.0, snapshot_times=[0.0, 0.5, 1.0])
        assert [s.t for s in snaps] == [0.0, 0.5, 1.0]
        assert snaps[0].n == 300
        assert ens.t == 1.0

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
        assert ens.t == 0.0

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

    def test_order_preserved(self):
        before, after = _pair([0.5, 3.5, 4.5, 5.5])
        assert initial_order_preserved(before, after)
        before, after = _pair([1.5, 2.9, 4.5, 5.5])
        assert not initial_order_preserved(before, after)

    def test_no_boundary(self):
        before, after = _pair([1.5, 3.5, 4.5, 5.5])  # everything grew
        with pytest.raises(DataError):
            empirical_return_radius(before, after)
        assert initial_order_preserved(before, after)

    def test_alignment_errors(self):
        before, _ = _pair([0.5, 3.5, 4.5, 5.5])
        stranger = Snapshot(2.0, np.array([0, 9]), np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            measure_new_volume(before, stranger)
        earlier = Snapshot(0.5, np.array([0, 1]), np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            measure_new_volume(before, earlier)

    def test_order_survives_a_real_run(self):
        t0 = 225.0
        ens = init_ensemble(
            DIFFUSION_LIMITED, 300, critical_radius(DIFFUSION_LIMITED, 0.0, t0),
            seed=9,
        )
        base = ens.snapshot()
        snaps, _ = ens.run(0.5 * t0, snapshot_times=[0.5 * t0])
        assert initial_order_preserved(base, snaps[0])


class TestInitEnsemble:
    def test_deterministic(self):
        a = init_ensemble(DIFFUSION_LIMITED, 100, 2.0, seed=5)
        b = init_ensemble(DIFFUSION_LIMITED, 100, 2.0, seed=5)
        assert np.array_equal(a.radii, b.radii)

    def test_scales_with_rc0(self):
        a = init_ensemble(DIFFUSION_LIMITED, 100, 1.0, seed=5)
        b = init_ensemble(DIFFUSION_LIMITED, 100, 3.0, seed=5)
        assert b.radii == pytest.approx(3.0 * a.radii)

    def test_mean_radius_matches_density(self):
        # dl mean scaled size is 1, al is 8/9.
        a = init_ensemble(DIFFUSION_LIMITED, 50_000, 1.0, seed=8)
        assert float(np.mean(a.radii)) == pytest.approx(1.0, rel=5e-3)
        b = init_ensemble(ATTACHMENT_LIMITED, 50_000, 1.0, seed=8)
        assert float(np.mean(b.radii)) == pytest.approx(8.0 / 9.0, rel=5e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            init_ensemble(DIFFUSION_LIMITED, 1, 1.0, seed=0)
        with pytest.raises(DomainError):
            init_ensemble(DIFFUSION_LIMITED, 10, 0.0, seed=0)


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
            assert c.new_fraction_analytic == pytest.approx(
                new_volume_fraction(regime, c.s), abs=1e-12
            )
            assert c.fraction_rel_err < 0.08
            assert c.boundary_rel_err < 0.02
        assert res.base.n == 3000
        assert all(s.n < 3000 for s in res.snapshots)

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
        assert lines[0] == "t,n,rc_estimate,total_r3,lost_volume"
        assert len(lines) == 1 + series.t.size
        t, n, rc, r3, lost = lines[1].split(",")
        assert float(t) == series.t[0]
        assert int(n) == series.n[0]
        assert float(rc) == series.rc_estimate[0]
        assert float(r3) == series.total_r3[0]
        assert float(lost) == series.lost_volume[0]

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
            lost_volume=np.array([0.0, -1e-17, 0.1]),
        )
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        columns = (series.t, series.n, series.rc_estimate, series.total_r3,
                   series.lost_volume)
        want = "t,n,rc_estimate,total_r3,lost_volume\n" + "".join(
            ",".join(
                str(int(v)) if k == 1 else format(float(v), ".17g")
                for k, v in enumerate(row)
            ) + "\n"
            for row in zip(*columns)
        )
        assert path.read_text(encoding="utf-8") == want
