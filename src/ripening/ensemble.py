"""Direct N-particle mean-field coarsening simulator.

Every particle follows the physical growth law of its regime under a shared
mean field computed self-consistently from the population:

    dl:  u = n / sum(R)         (so R_c = 1/u is the arithmetic mean radius)
    al:  u = sum(R) / sum(R^2)

The state is integrated in the volume variable y = R^3, where the growth
laws become

    dl:  dy/dt = 3 (R u - 1)
    al:  dy/dt = 3 (R^2 u - R),

and the mean-field definitions make sum(dy/dt) vanish identically — total
particle volume is a linear first integral, so any Runge-Kutta step
conserves it to rounding, with no tolerance knob involved.  Particles whose
volume falls below the deletion threshold are removed and their volume
moved to an explicit ledger, keeping

    (4/3) pi sum(R^3) + lost_volume

constant to near machine precision over a whole run.

The stepper is Heun's method with an adaptive substep: the largest relative
volume change per substep is capped for all particles at least half the
critical radius.  Particles below that are in free fall toward dissolution
(their relative rates diverge as R -> 0, and nothing that shrinks past
R_c/2 ever comes back), so capping on them would grind the step size to
zero.  Instead, a particle that dissolves within a substep is handed off
to the survivors inside that substep:

* stage 1 (``k1``, the trial ``T = y + h k1``) and the step ``h`` are
  taken under the mean field of every particle present, the dying ones
  included;
* a particle whose trial is at or below the deletion cut leaves, and the
  ledger takes ``(y + T)/2`` of it, which is ``y + (h/2) k1``;
* the survivors finish the Heun step with the ``k1`` and trial stage they
  already have, under a stage-2 field of their own.

Each stage is taken as the increment ``h k``, with the step and the rate
constants folded into two scalars: ``h k = R (3hu) - 3h`` in dl and
``R (R (3hu) - 3h)`` in al.  The update is ``y += (h k1 + h k2)/2``, one
rounded increment per volume, so the volume stays conserved to the
rounding floor.

The survivors' stage-1 rates sum to ``-sum(k1)`` of the dying ones and
their stage-2 rates to 0, so particles plus ledger stay conserved to
rounding.  The trapezoid hands each dying particle's flux to the survivors
for half a substep, which matches its expected remaining lifetime.  So the
ledger is not the volume of the dissolved particles: it is what the
trapezoid books beyond their actual volume, noise of either sign (about
-1e-5 of the total in dl and 5e-5 in al at N = 20 000), plus the exact
volume of any particle that a later substep finds below the cut.  Removing
a dying particle with all its volume at the start of the substep would
leak an O(h) share of the volume into the ledger (2e-4 of the total in dl
at half the default step) and make the step error first order.

The volumes are stored sorted by radius, with particle ids carried in the
same order; ``Ensemble.ids``, ``Ensemble.radii`` and ``Ensemble.snapshot``
present them in id order, so outputs do not depend on the storage.  Sorted
storage makes every set the stepper needs a prefix or a suffix:

* the dissolved particles are the prefix below the deletion cut, found by
  ``searchsorted`` and dropped by slicing;
* the particles dying within a substep lie in a short prefix; in dl they
  are that prefix's start, dropped by slicing, and in al a set that is not
  a prefix is dropped by mask (a subsequence of a sorted array stays
  sorted);
* the particles the step cap watches are the suffix at or above R_c/2.

``R = cbrt(y)`` and the mean field are computed once per stage and shared
by the sweep, the rates, the step cap and the series recorder.

The state is updated in place.  ``_advance`` allocates its work arrays
(``R``, both stage increments, the trial stage and one mask) once per call,
at the current size and on cache-line boundaries, and every elementwise
operation writes into them in the order of the formulas, so each number is
bitwise what the allocating form gives.  Dropping the k smallest particles
is the view ``y[k:]``: the update ``y += dy`` writes into the buffer built
at construction, so no stale buffer exists for a view to pin.  (When each
update made a new array, views kept old ones alive and fragmented the
heap.)  The step cap reads one particle (dl) or a rounding band of them
(al), and the dying test a prefix (see :class:`Ensemble`); stage 1 is
taken once, over the whole state, after the step cap.

The exact dynamics preserve the order of radii (every particle obeys one
growth law, monotone in R, under one mean field), but the discrete step
need not.  In dl every operation of a substep is monotone in y under one
scalar field: ``cbrt``, ``R (3hu) - 3h``, the trial, the sum of two
monotone increments, its half and the update, and rounding is monotone.
The dying set is then a prefix, so the survivors' order is untouched, and
the order always survives; dl is not checked.  In al the update is not
monotone for small particles, whose step is not resolved (the step cap
watches only R >= R_c/2): at N = 20 000 the order broke on about 20% of
substeps (450 of 2 195 at seed 1), among particles up to about 0.04 R_c.
So each al update is checked and, when out of order, the prefix that holds
the inversions is re-sorted with a stable argsort, which gives the whole
array's stable argsort bit for bit (see ``Ensemble._resort``).  At seed 1
those prefixes hold 3 particles on average, against about 10 000 in the
whole state.  ``Ensemble.work`` counts the re-sorts and the particles they
pass through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import size_distribution
from .errors import DataError, DomainError, StateError
from .recrystallization import new_volume_fraction
from .regime import Regime, coarsening_slope, critical_radius
from .return_map import return_radius

__all__ = [
    "FOUR_THIRDS_PI",
    "Snapshot",
    "TimeSeries",
    "NewVolume",
    "Ensemble",
    "init_ensemble",
    "measure_new_volume",
    "empirical_return_radius",
    "initial_order_preserved",
    "LateStageComparison",
    "LateStageResult",
    "simulate_late_stage",
    "write_snapshot_csv",
    "write_series_csv",
]

FOUR_THIRDS_PI = 4.0 * math.pi / 3.0

# The step cap reads |k1|/y in the window R_c/2 <= R < _WINDOW_TOP R_c first,
# where its maximum sits at the window's first particles.  Above
# the window, |k1|/y <= bound * u**power (see the Ensemble docstring), with
# x = 0.75 (1 - 1e-6) covering the rounding of the window edge.
_WINDOW_TOP = 0.75
_X = _WINDOW_TOP * (1.0 - 1e-6)
_CAP_BOUND = {  # kind -> (power, bound)
    "dl": (3, 3.0 * max((1.0 - _X) / _X**3, 4.0 / 27.0)),
    "al": (2, 3.0 * max((1.0 - _X) / _X**2, 0.25)),
}
_sum = np.add.reduce
# In al the window's maximum of |k1|/y is read over y <= y_j * _BAND above
# its first particle j, a band far wider than the rounding of |k1|/y.
_BAND = 1.0 + 1e-9


@dataclass(frozen=True)
class Snapshot:
    """Radii by particle identity at one instant."""

    t: float
    ids: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        radii = np.asarray(self.radii, dtype=float)
        if ids.shape != radii.shape or ids.ndim != 1:
            raise DataError("ids and radii must be 1-d arrays of equal length")
        if ids.size and np.any(np.diff(ids) <= 0):
            raise DataError("ids must be strictly increasing")
        if radii.size and float(np.min(radii)) <= 0.0:
            raise DataError("snapshot radii must be positive")
        ids.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "radii", radii)

    @property
    def n(self) -> int:
        return int(self.ids.size)


@dataclass
class TimeSeries:
    """Per-substep diagnostics recorded during a run."""

    t: np.ndarray
    n: np.ndarray
    rc_estimate: np.ndarray
    total_r3: np.ndarray
    lost_volume: np.ndarray


@dataclass(frozen=True)
class NewVolume:
    """Volume formed since the reference snapshot, and its share of the
    current total."""

    volume: float
    fraction: float


class _SeriesRecorder:
    def __init__(self):
        self.rows = ([], [], [], [], [])

    def add(self, t, n, rc, total_r3, lost):
        for column, value in zip(self.rows, (t, n, rc, total_r3, lost)):
            column.append(value)

    def build(self) -> TimeSeries:
        t, n, rc, r3, lost = self.rows
        return TimeSeries(
            np.array(t, dtype=float),
            np.array(n, dtype=np.int64),
            np.array(rc, dtype=float),
            np.array(r3, dtype=float),
            np.array(lost, dtype=float),
        )


class Ensemble:
    """Mutable population of particle radii under one regime's dynamics.

    The volumes are stored sorted by radius, with the particle ids carried
    in the same order; ``ids``, ``radii`` and :meth:`snapshot` present them
    in id order.  Sorted storage turns every set the stepper needs into a
    prefix or a suffix: the dissolved particles are the prefix below the
    deletion cut (dropped by slicing), and the particles the step cap
    watches are the suffix at or above half the critical radius.  A
    particle that dissolves within a substep is handed off: it leaves after
    stage 1, the ledger takes ``(y + T)/2`` of it (``T = y + h k1``, its
    trial), and the survivors finish the step with the stage 1 they have
    (see the module docstring).  Each substep takes one step size and one
    stage 1; the sweep of the particles already below the cut may drop some
    before the hand-off drops the dying ones.  :attr:`lost_volume` is noise
    of either sign, not the volume of the dissolved particles.  An update
    that leaves the volumes out of order (al only, on about 20% of
    substeps) is mended by re-sorting the prefix that holds the
    inversions.  :attr:`work` counts substeps, deletions, re-sorts and the
    particles those re-sorts passed through.

    The state arrays are those built here: updates, re-sorts and the
    compaction of a drop by mask write into them, and a prefix drop takes
    the view ``y[k:]``.  Three passes read only part of the state, and each
    equals the full pass bit for bit:

    * **Step cap.**  With ``R = x R_c``, ``|k1|/y`` is
      ``3 |x - 1| / (x**3 R_c**3)`` in dl and ``3 |x - 1| / (x**2 R_c**2)``
      in al.  On ``x >= 0.75`` it is at most
      ``3 max((1 - x)/x**3, 4/27) / R_c**3`` (dl) or
      ``3 max((1 - x)/x**2, 1/4) / R_c**2`` (al), taken at ``x = 0.75``:
      ``(1 - x)/x**p`` falls on ``[0.75, 1]``, and above 1,
      ``(x - 1)/x**3`` peaks at 4/27 (``x = 3/2``) and ``(x - 1)/x**2`` at
      1/4 (``x = 2``).  The bound is evaluated at ``x = 0.75 (1 - 1e-6)``,
      which covers the rounding of the window edge.  So the maximum is
      read over the window ``R_c/2 <= R < 0.75 R_c``, and there it is read
      in O(1): ``|k1|/y`` falls with ``R`` over the window, so its first
      particle ``j`` holds the maximum.

      - In dl this holds bit for bit: ``R = cbrt(y)``, ``R u - 1 < 0``,
        its absolute value, the factor 3 and the division by the growing
        ``y`` are each monotone under rounding, so the computed ratio
        never rises along the window.
      - In al ``|k1| = 3 R (1 - R u)`` is a product of a rising and a
        falling factor, and rounding can lift a later particle's ratio a
        few ulps above ``j``'s.  Exactly, ``R (1 - R u)`` falls for
        ``R >= R_c/2`` (``j`` is below that by a few ulps at most, where
        the drop from the peak is quadratic), so the exact ratio at the
        computed ``R`` of a particle at ``y`` is at most ``j``'s times
        ``y_j / y``.  Each computed ratio is within about ten units of
        rounding (``2**-53``) of that exact one.  So a particle above
        ``y_j (1 + 1e-9)`` cannot reach ``j``'s computed ratio, and the
        particles up to there, the rounding band, are read.

      When the maximum exceeds the bound by the factor ``1 + 1e-9``, far
      above the rounding of ``|k1|/y``, no particle above the window can
      hold it, and the window's maximum is the suffix's.  Otherwise the
      rest of the suffix is read too.  The band may reach past the window:
      what it adds belongs to the suffix and is read by that pass anyway.
    * **Dying set.**  For ``R >= 0``, ``h k1 = R (3hu) - 3h >= -3h`` in dl,
      exactly also in floating point, and ``h k1 = 3h R (R u - 1) >=
      -0.75 R_c h`` in al (the minimum is at ``R = R_c/2``), to a few ulps.
      With ``reach`` that bound over ``h`` and ``d = reach h``, rounding is
      monotone, so the trial ``y + h k1`` is at least ``fl(y - d)`` (al:
      less a few ulps of ``d``).  A float ``y`` above the threshold
      ``T = fl(cut + 2 d)`` is at least ``T`` plus one float spacing ``s``,
      so ``y - d >= cut + d + s/2``, more than half a spacing above
      ``cut``.  So the trial stays above ``cut``, and only the prefix
      ``y <= T`` is tested.
    * **Re-sort.**  Past the last inversion ``y[i + 1] < y[i]`` the
      volumes are sorted; the prefix up to there grows to take in every
      later volume below the prefix's maximum.  The rest is then sorted
      and no smaller than the prefix, and its volumes equal to that
      maximum come later in the stable order too, so sorting the prefix
      stably moves every particle where the whole stable argsort does.

    Parameters
    ----------
    regime:
        Kinetic regime providing the growth law and mean-field closure.
    radii:
        Initial particle radii, all positive, at least two.
    start_time:
        Clock value of the initial state.
    deletion_fraction:
        A particle is removed once its radius falls, or its stage-1 trial
        would fall, below this fraction of the current critical radius.
    step_fraction:
        Cap on ``|dR|/R`` per substep for particles above half the critical
        radius; sets the adaptive substep.
    """

    def __init__(
        self,
        regime: Regime,
        radii,
        *,
        start_time: float = 0.0,
        deletion_fraction: float = 1e-4,
        step_fraction: float = 2e-3,
    ):
        radii = np.asarray(radii, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise DomainError("an ensemble needs at least two particles")
        if not np.all(np.isfinite(radii)) or float(np.min(radii)) <= 0.0:
            raise DomainError("all radii must be positive and finite")
        if not 0.0 < deletion_fraction < 0.5:
            raise DomainError("deletion_fraction must lie in (0, 0.5)")
        if not 0.0 < step_fraction <= 0.1:
            raise DomainError("step_fraction must lie in (0, 0.1]")
        self.regime = regime
        self.deletion_fraction = float(deletion_fraction)
        self.step_fraction = float(step_fraction)
        self._t = float(start_time)
        y = radii ** 3
        self._ids = np.argsort(y, kind="stable").astype(np.int64, copy=False)
        self._y = y[self._ids]
        self._lost = 0.0
        self._substeps = 0
        self._deletions = 0
        self._resorts = 0
        self._resorted = 0

    # -- read-only views ---------------------------------------------------

    @property
    def t(self) -> float:
        return self._t

    @property
    def n(self) -> int:
        return int(self._y.size)

    @property
    def ids(self) -> np.ndarray:
        return np.sort(self._ids)

    @property
    def radii(self) -> np.ndarray:
        """Radii in id order."""
        return np.cbrt(self._y[np.argsort(self._ids)])

    @property
    def lost_volume(self) -> float:
        return self._lost

    @property
    def work(self) -> dict:
        """Deterministic work counts since construction: substeps taken,
        particles deleted, re-sorts of the state after an update, and the
        particles those re-sorts passed through (the sorted prefixes'
        lengths)."""
        return {
            "substeps": self._substeps,
            "deletions": self._deletions,
            "resorts": self._resorts,
            "resorted": self._resorted,
        }

    @property
    def epsilon(self) -> float:
        """Current deletion threshold (a fraction of the critical radius)."""
        return self.deletion_fraction * self.mean_field()[1]

    def mean_field(self) -> tuple[float, float]:
        """Self-consistent mean field u and the critical radius R_c = 1/u."""
        if self._y.size == 0:
            raise StateError("mean field undefined for an empty ensemble")
        u = self._field(np.cbrt(self._y))
        return u, 1.0 / u

    def total_volume(self) -> float:
        """(4/3) pi sum(R^3) of the particles currently present."""
        return FOUR_THIRDS_PI * float(np.sum(self._y))

    def conserved_total(self) -> float:
        """Particle volume plus the deletion ledger; constant over a run."""
        return self.total_volume() + self._lost

    def snapshot(self) -> Snapshot:
        order = np.argsort(self._ids)
        return Snapshot(self._t, self._ids[order], np.cbrt(self._y[order]))

    # -- dynamics ----------------------------------------------------------

    def _field(self, r: np.ndarray, buf=None) -> float:
        """Mean field u of the radii ``r``; al writes ``r * r`` into
        ``buf`` (shaped like ``r``; a new array when None)."""
        # _sum is ndarray.sum without its Python wrapper (about 1 us a call,
        # three calls a substep); the result is the same.
        if self.regime.kind == "dl":
            return r.size / float(_sum(r))
        return float(_sum(r)) / float(_sum(np.multiply(r, r, out=buf)))

    def _rates(self, r: np.ndarray, u: float, out=None) -> np.ndarray:
        """Volume rates of the radii ``r`` under the mean field ``u``,
        written into ``out`` (shaped like ``r``; a new array when None)."""
        # The operations run in the order of 3.0 * (r * u - 1.0) and
        # 3.0 * (r * r * u - r), so the rates are bitwise those formulas.
        if self.regime.kind == "dl":
            out = np.multiply(r, u, out=out)
            out -= 1.0
        else:
            out = np.multiply(r, r, out=out)
            out *= u
            out -= r
        out *= 3.0
        return out

    def _volume_rates(self, r: np.ndarray) -> np.ndarray:
        return self._rates(r, self._field(r))

    def _fastest(self, y, r, u, buf) -> float:
        """Largest ``|k1|/y`` over the watched suffix ``y >= (R_c/2)**3``,
        read from the first particles of the window below ``0.75 R_c``
        alone when that suffices (see :class:`Ensemble`).  ``buf`` is
        overwritten over the rest of the suffix when that is read."""
        r_c = 1.0 / u
        n = y.size
        j = int(y.searchsorted((0.5 * r_c) ** 3))

        def largest(a, b):
            q = np.abs(self._rates(r[a:b], u, out=buf[a:b]), out=buf[a:b])
            q /= y[a:b]
            return float(q.max())

        if j == n:  # defensive; the largest particle always is watched
            return largest(0, n)
        # The window's maximum sits at its first particle in dl, and within
        # the rounding band above it in al.  The band's rates are taken in
        # the order of _rates, on Python floats, so they are bitwise its.
        dl = self.regime.kind == "dl"
        top = j + 1 if dl else int(y.searchsorted(y[j] * _BAND, side="right"))
        fastest = 0.0
        for ri, yi in zip(r[j:top].tolist(), y[j:top].tolist()):
            k1 = 3.0 * (ri * u - 1.0) if dl else 3.0 * (ri * ri * u - ri)
            fastest = max(fastest, abs(k1) / yi)
        power, bound = _CAP_BOUND[self.regime.kind]
        if not fastest > (1.0 + 1e-9) * bound * u**power:
            m = max(j, int(y.searchsorted((_WINDOW_TOP * r_c) ** 3)))
            if m < n:
                fastest = max(fastest, largest(m, n))
        return fastest

    def _dying_prefix(self, y, u, h) -> int:
        """Length of the only prefix whose trial ``y + h k1`` can reach the
        deletion cut (see :class:`Ensemble`); past it nobody dies."""
        r_c = 1.0 / u
        cut = (self.deletion_fraction * r_c) ** 3
        reach = 3.0 if self.regime.kind == "dl" else 0.75 * r_c
        return int(y.searchsorted(cut + 2.0 * reach * h, side="right"))

    def _drop(self, r: np.ndarray, k: int, dying=None, volumes=None,
              carry=()) -> np.ndarray:
        """Remove the ``k`` smallest particles, or the ``k`` flagged by
        ``dying`` (a mask over a prefix of the state) when they are not the
        smallest; return the survivors' radii.  The ledger takes their
        ``volumes`` (an array aligned with the state; their own volumes
        when None).  The arrays in ``carry``, aligned with the state too,
        are compacted alike: their survivors are their ``[k:]``."""
        y = self._y
        if volumes is None:
            volumes = y
        if dying is None:
            gone = volumes[:k]
        else:
            # Move the prefix's survivors up against the rest, in order, so
            # that the dropped particles become the first k.
            p = dying.size
            gone = volumes[:p][dying]
            keep = ~dying
            for a in (y, self._ids, r, *carry):
                a[k:p] = a[:p][keep]
        # Ledger the given volumes (a late overshoot may be slightly
        # negative) so the conservation identity stays exact.
        self._lost += FOUR_THIRDS_PI * float(_sum(gone))
        self._deletions += k
        # Views: the state is updated in place and never rebuilt, so a view
        # pins no stale buffer.
        self._y = y[k:]
        self._ids = self._ids[k:]
        if self._y.size < 2:
            raise StateError(
                f"ensemble collapsed to {self._y.size} particle(s) at "
                f"t={self._t!r}"
            )
        return r[k:]

    def _resort(self, inverted: np.ndarray):
        """Restore the radius order after an update; ``inverted`` flags
        ``y[i + 1] < y[i]``.  Only the prefix that holds the displaced
        particles is sorted, which gives the whole stable argsort bit for
        bit: past the last inversion the state is sorted, and the prefix
        grows to take in every later volume below its maximum."""
        y = self._y
        q = int(inverted.nonzero()[0][-1]) + 1
        q += int(y[q:].searchsorted(y[:q].max()))
        order = y[:q].argsort(kind="stable")
        y[:q] = y[:q][order]
        self._ids[:q] = self._ids[:q][order]
        self._resorts += 1
        self._resorted += q

    def _advance(self, t_target: float, recorder=None):
        # r = cbrt(y) and the mean field u are taken once per update and
        # reused by the sweep, the step cap, stage 1 and the recorder; a
        # sweep recomputes u from the surviving r without another cbrt.
        # Every array a substep writes is a buffer allocated here, at the
        # current size and on a cache-line boundary, and taken from its
        # start at the size of the moment: an out-of-place pass runs about
        # twice as long into an output that straddles cache lines.  Only a
        # re-sort (its permutation) and a drop by mask allocate.
        al = self.regime.kind == "al"
        n = self._y.size
        r_buf, hk1_buf, hk2_buf, trial_buf = (_aligned(n) for _ in range(4))
        mask = np.empty(n, dtype=bool)
        r = np.cbrt(self._y, out=r_buf)
        u = self._field(r, hk2_buf)
        while True:
            k = int(self._y.searchsorted(
                (self.deletion_fraction * (1.0 / u)) ** 3
            ))
            if k:
                r = self._drop(r, k)
                u = self._field(r, hk2_buf[:r.size])
            remaining = t_target - self._t
            if remaining <= 0.0:
                break
            y = self._y
            n = y.size
            hk1, hk2, trial = hk1_buf[:n], hk2_buf[:n], trial_buf[:n]
            # The step and stage 1 come from the field of every particle
            # present, the dying ones included, with h and the rate
            # constants folded into the stage: h k1 = r (3hu) - 3h, times r
            # in al.  hk2 is scratch until stage 2.
            fastest = self._fastest(y, r, u, hk2)
            h = remaining
            if fastest > 0.0:
                h = min(3.0 * self.step_fraction / fastest, remaining)
            h3 = 3.0 * h
            np.multiply(r, h3 * u, out=hk1)
            hk1 -= h3
            if al:
                hk1 *= r
            np.add(y, hk1, out=trial)
            p = self._dying_prefix(y, u, h)
            dying = np.less_equal(
                trial[:p], (self.deletion_fraction * (1.0 / u)) ** 3,
                out=mask[:p],
            )
            k = int(np.count_nonzero(dying))
            if k:
                # Hand the dying particles' flux to the survivors for half a
                # substep: the ledger takes (y + trial)/2 of each, and the
                # survivors keep their stage 1 and trial stage (see the
                # module docstring).
                volumes = np.add(y[:p], trial[:p], out=hk2[:p])
                volumes *= 0.5
                prefix = np.count_nonzero(dying[:k]) == k
                self._drop(r, k, None if prefix else dying, volumes,
                           (hk1, trial))
                y, hk1, trial = self._y, hk1[k:], trial[k:]
                n = y.size
            t_next = t_target if h >= remaining else self._t + h
            # Stage 2 writes its radii where r was, which is not read again.
            stage = np.cbrt(trial, out=r_buf[:n])
            hk2 = hk2_buf[:n]
            np.multiply(stage, h3 * self._field(stage, hk2), out=hk2)
            hk2 -= h3
            if al:
                hk2 *= stage
            hk2 += hk1
            hk2 *= 0.5
            y += hk2
            # The exact dynamics keep the radii in order, but the discrete
            # step does not always in al; in dl it does (see the module
            # docstring), so only al is checked.
            if al and np.less(y[1:], y[:-1], out=mask[:n - 1]).any():
                self._resort(mask[:n - 1])
            self._t = t_next
            self._substeps += 1
            r = np.cbrt(y, out=r_buf[:n])
            u = self._field(r, hk2)
            if recorder is not None:
                recorder(t_next, n, 1.0 / u, float(_sum(y)), self._lost)

    def step(self, dt: float):
        """Advance the ensemble by ``dt`` (internally substepped)."""
        dt = float(dt)
        if not (dt > 0.0 and math.isfinite(dt)):
            raise DomainError(f"dt must be positive and finite, got {dt!r}")
        self._advance(self._t + dt)

    def run(self, t_end: float, snapshot_times=()):
        """Advance to ``t_end``, returning snapshots at the requested times
        plus a per-substep :class:`TimeSeries` of diagnostics.

        ``snapshot_times`` must be sorted, within ``[current t, t_end]``; a
        snapshot requested at the current time is taken before stepping.
        """
        t_end = float(t_end)
        _require_finite("t_end", [t_end])
        if not t_end > self._t:
            raise DomainError(
                f"t_end must exceed the current time {self._t!r}, got {t_end!r}"
            )
        times = [float(ts) for ts in snapshot_times]
        _require_finite("snapshot times", times)
        if any(b < a for a, b in zip(times, times[1:])):
            raise DomainError("snapshot times must be sorted")
        if times and (times[0] < self._t or times[-1] > t_end):
            raise DomainError(
                f"snapshot times must lie within [{self._t!r}, {t_end!r}]"
            )
        recorder = _SeriesRecorder()
        recorder.add(self._t, self.n, self.mean_field()[1],
                     float(np.sum(self._y)), self._lost)
        snapshots = []
        for ts in times:
            if ts > self._t:
                self._advance(ts, recorder.add)
            snapshots.append(self.snapshot())
        if t_end > self._t:
            self._advance(t_end, recorder.add)
        return snapshots, recorder.build()


def _aligned(n: int) -> np.ndarray:
    """An uninitialized float64 array of length ``n`` that starts on a
    64-byte (cache-line) boundary."""
    buf = np.empty(n + 8)
    shift = (-buf.ctypes.data) % 64 // 8
    return buf[shift:shift + n]


def _require_finite(name: str, values):
    for value in values:
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def init_ensemble(
    regime: Regime, n: int, r_c0: float, seed: int, **ensemble_options
) -> Ensemble:
    """Draw ``n`` radii from the regime's stationary size density, scaled by
    the starting critical radius ``r_c0``; particle ids are 0..n-1."""
    n = int(n)
    if n < 2:
        raise DomainError(f"need at least two particles, got n={n!r}")
    r_c0 = float(r_c0)
    if not (r_c0 > 0.0 and math.isfinite(r_c0)):
        raise DomainError(f"r_c0 must be positive and finite, got {r_c0!r}")
    z = size_distribution(regime).sample(n, seed)
    return Ensemble(regime, r_c0 * z, **ensemble_options)


def _align(before: Snapshot, after: Snapshot) -> np.ndarray:
    if after.t < before.t:
        raise DataError(
            f"'after' snapshot precedes 'before' ({after.t!r} < {before.t!r})"
        )
    if after.ids.size == 0:
        raise DataError("'after' snapshot is empty")
    idx = np.searchsorted(before.ids, after.ids)
    if np.any(idx >= before.ids.size) or np.any(
        before.ids[np.minimum(idx, before.ids.size - 1)] != after.ids
    ):
        raise DataError("'after' ids are not a subset of 'before' ids")
    return idx


def measure_new_volume(before: Snapshot, after: Snapshot) -> NewVolume:
    """Volume formed between two snapshots: the sum of R(t)^3 - R(t0)^3 over
    particles that are at least as large as they started, as an absolute
    volume and as a fraction of the current total."""
    idx = _align(before, after)
    r0 = before.radii[idx]
    r1 = after.radii
    grown = r1 >= r0
    volume = FOUR_THIRDS_PI * float(np.sum(r1[grown] ** 3 - r0[grown] ** 3))
    total = FOUR_THIRDS_PI * float(np.sum(r1**3))
    return NewVolume(volume, volume / total)


def empirical_return_radius(before: Snapshot, after: Snapshot) -> float:
    """Boundary initial radius separating particles still above their
    starting size from those already below it again: the midpoint between
    the largest shrunk and the smallest grown initial radius."""
    idx = _align(before, after)
    r0 = before.radii[idx]
    grown = after.radii >= r0
    if not np.any(grown) or np.all(grown):
        raise DataError("no grown/shrunk boundary between these snapshots")
    return 0.5 * (float(np.max(r0[~grown])) + float(np.min(r0[grown])))


def initial_order_preserved(before: Snapshot, after: Snapshot) -> bool:
    """True when the grown set is an up-set in initial radius, i.e. the
    mean-field ordering survived: every grown particle started above every
    shrunk one."""
    idx = _align(before, after)
    r0 = before.radii[idx]
    grown = after.radii >= r0
    if not np.any(grown) or np.all(grown):
        return True
    return float(np.max(r0[~grown])) < float(np.min(r0[grown]))


@dataclass(frozen=True)
class LateStageComparison:
    """Simulation vs analytics at one snapshot time."""

    t: float
    s: float
    new_fraction_empirical: float
    new_fraction_analytic: float
    boundary_radius_empirical: float
    boundary_radius_analytic: float

    @property
    def fraction_rel_err(self) -> float:
        a = self.new_fraction_analytic
        return abs(self.new_fraction_empirical - a) / a

    @property
    def boundary_rel_err(self) -> float:
        a = self.boundary_radius_analytic
        return abs(self.boundary_radius_empirical - a) / a


@dataclass
class LateStageResult:
    """Everything produced by :func:`simulate_late_stage`."""

    regime: Regime
    n_init: int
    t0: float
    t_end: float
    seed: int
    r_c0: float
    conservation_residual: float
    rc_power_slope: float
    rc_power_slope_expected: float
    comparisons: list
    base: Snapshot
    snapshots: list
    series: TimeSeries
    work: dict


def simulate_late_stage(
    regime: Regime,
    n: int,
    t0: float,
    t_end: float,
    snapshot_times,
    seed: int,
    **ensemble_options,
) -> LateStageResult:
    """Run an ensemble against the analytic late-stage predictions.

    Times are on the coarsening clock where ``R_c**gamma = (gamma/nu) t``
    holds exactly: the run starts at ``t0`` with the critical radius the
    analytic law assigns to that instant and the population already at the
    stationary size density (its fixed point), so every particle is alive
    at the reference time and the elapsed-time ratio is exactly
    ``s = t/t0``.  Snapshot times are absolute (in ``(t0, t_end]``); at each
    one the measured new-volume fraction and grown/shrunk boundary radius
    are compared against their analytic values.
    """
    t0 = float(t0)
    t_end = float(t_end)
    if not (t0 > 0.0 and math.isfinite(t0)):
        raise DomainError(f"t0 must be positive and finite, got {t0!r}")
    # Snapshot times first: the CLI's default t_end is the last of them.
    times = sorted(float(ts) for ts in snapshot_times)
    _require_finite("snapshot times", times)
    _require_finite("t_end", [t_end])
    if not t_end > t0:
        raise DomainError(f"t_end must exceed t0, got {t_end!r}")
    if times and (times[0] <= t0 or times[-1] > t_end):
        raise DomainError(
            f"snapshot times must lie in ({t0!r}, {t_end!r}]"
        )

    r_c0 = critical_radius(regime, 0.0, t0)
    ens = init_ensemble(regime, n, r_c0, seed, **ensemble_options)
    base = ens.snapshot()
    start_total = ens.conserved_total()

    snapshots, series = ens.run(t_end - t0, [ts - t0 for ts in times])
    residual = abs(ens.conserved_total() - start_total) / start_total

    gamma = regime.coarsening_exponent
    slope = float(
        np.polyfit(t0 + series.t, series.rc_estimate**gamma, 1)[0]
    )

    comparisons = []
    for ts, snap in zip(times, snapshots):
        s = ts / t0
        measured = measure_new_volume(base, snap)
        comparisons.append(
            LateStageComparison(
                t=ts,
                s=s,
                new_fraction_empirical=measured.fraction,
                new_fraction_analytic=new_volume_fraction(regime, s),
                boundary_radius_empirical=empirical_return_radius(base, snap),
                boundary_radius_analytic=return_radius(regime, ts, t0, 0.0),
            )
        )

    return LateStageResult(
        regime=regime,
        n_init=int(n),
        t0=t0,
        t_end=t_end,
        seed=int(seed),
        r_c0=r_c0,
        conservation_residual=residual,
        rc_power_slope=slope,
        rc_power_slope_expected=coarsening_slope(regime),
        comparisons=comparisons,
        base=base,
        snapshots=snapshots,
        series=series,
        work=ens.work,
    )


def _write_table(stream, header, template, columns, comment=None):
    # One %-template per row over Python scalars: "%d" prints an int as
    # str(int(x)) and "%.17g" a float as format(x, ".17g").  Rows are
    # formatted a block at a time, so memory stays flat in the row count.
    columns = [np.asarray(c) for c in columns]
    if comment is not None:
        stream.write(f"# {comment}\n")
    stream.write(header + "\n")
    for start in range(0, columns[0].size, 256):
        block = [c[start:start + 256].tolist() for c in columns]
        stream.write("".join([template % row for row in zip(*block)]))


def write_snapshot_csv(snapshot: Snapshot, path, comment=None):
    """Write a snapshot as ``id,radius`` CSV (one leading # comment line)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_table(fh, "id,radius", "%d,%.17g\n",
                     (snapshot.ids, snapshot.radii), comment)


def write_series_csv(series: TimeSeries, path, comment=None):
    """Write a run's diagnostics as ``t,n,rc_estimate,total_r3,lost_volume``
    CSV (one leading # comment line)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_table(
            fh, "t,n,rc_estimate,total_r3,lost_volume",
            "%.17g,%d,%.17g,%.17g,%.17g\n",
            (series.t, series.n, series.rc_estimate, series.total_r3,
             series.lost_volume),
            comment,
        )
