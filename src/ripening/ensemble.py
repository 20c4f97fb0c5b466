"""Direct N-particle mean-field coarsening simulator.

Every particle follows the physical growth law of its regime under a shared
mean field computed self-consistently from the population:

    dl:  u = n / sum(R)         (so R_c = 1/u is the arithmetic mean radius)
    al:  u = sum(R) / sum(R^2)

The state is integrated in the volume variable y = R^3, where the growth
laws become

    dl:  dy/dt = 3 (R u - 1)
    al:  dy/dt = 3 (R^2 u - R),

and the mean-field definitions make sum(dy/dt) vanish identically: total
particle volume is a linear first integral, and the stepper below keeps
(4/3) pi sum(R^3) constant to rounding over a whole run.

Each substep splits the state, sorted by radius, at R_c/2 with one
``searchsorted``.

* **The suffix** (R >= R_c/2) takes a Heun step of the size the mean field
  sets alone.  With ``x = u R``, the relative volume rate ``|k1|/y`` is
  ``3 |x - 1| u**3 / x**3`` in dl and ``3 |x - 1| u**2 / x**2`` in al.
  Over ``x >= 1/2`` it is largest at ``x = 1/2``, ``12 u**3`` (dl) or
  ``6 u**2`` (al): ``(1 - x)/x**p`` falls on ``[1/2, 1]``, and above 1
  ``(x - 1)/x**p`` stays below 4/27 (dl) or 1/4 (al).  So the step
  ``h = step_fraction / (4 u**3)`` (dl) or ``step_fraction / (2 u**2)``
  (al) caps the largest relative volume change of the suffix at
  ``3 step_fraction``, with no particle read.
  Each stage is the increment ``h k`` with the step and the rate constants
  folded into two scalars: ``h k = R (3hu) - 3h`` in dl, and in al the
  completed square ``(3hu) (R - R_c/2)**2 - 3h R_c/4``.  The update is
  ``y += (h k1 + h k2)/2``, one rounded increment per volume.
* **The prefix** (R < R_c/2) is in free fall toward dissolution: its
  relative rates diverge as R -> 0, and nothing that shrinks past R_c/2
  ever comes back, so a step cap on it would grind the step to zero.  It
  moves instead by the exact flow of its growth law under a frozen field.
  With ``x = u R``, a particle dissolves after ``u**-3 g3(x)`` (dl) or
  ``u**-2 g2(x)`` (al), where ``g3 = -(log1p(-x) + x + x**2/2)`` and
  ``g2 = -(log1p(-x) + x)`` (``_lifetime``; a series below x = 0.05,
  where the closed forms cancel, skipped when ``u**p h`` exceeds its
  largest value, as in every full substep at the default step: every
  particle it would cover dissolves).  The particles with ``g(x) <= u**p h``
  dissolve inside the substep; the lifetimes rise along the sorted prefix,
  so they are its start, found with the one threshold ``u**p h`` and
  dropped by slicing.  The others solve ``g(x') = g(x) - u**p h`` by one
  fixed polynomial, with no iteration: ``x' = w Q_p(w)`` in
  ``w = (p g)**(1/p)``, which is ``x`` to first order
  (``_inverse_lifetime``).  On the flow's range ``0 <= x <= 0.75`` the
  inverse is analytic, so ``Q_p``, a 16-term Chebyshev fit of ``x/w``
  evaluated by Horner, meets it to rounding (Trefethen, *Approximation
  Theory and Approximation Practice*, 2013, ch. 8): within 1e-15 relative
  of 50-digit references for x from 1e-90 to 0.75.  The frozen field is
  the mid-step field ``u + (h/2) du/dt``, its rate taken from the last
  full substep: the stage-2 field below less the stage-1 one, over h.
  (The first substep freezes ``u``.)  A field exact to O(h**2) at
  mid-step makes the flow second order, as for exponential integrators
  (Hochbruck & Ostermann, Acta Numerica 19, 2010).  The field is capped
  at ``1.5 u``: a prefix particle has ``u R < 1/2``, so it starts below
  ``x = 0.75`` and the flow only shrinks it.  The cap does not bind in
  practice; over seeds 1–2 at N = 20 000 and ``step_fraction`` 1.6e-2 and
  0.1, the largest mid-step field is 1.00027 u.
* **The multiplier.**  The suffix's stage 2 is taken under the one field
  for which its increments sum to minus the prefix's volume change.  Both
  stage sums are linear in that field: ``sum(h k2) = 3h (u S1 - m)`` in dl
  and ``3h (u S2 - S1)`` in al, with ``S1``, ``S2`` the sums of the
  stage-2 radii and their squares over the ``m`` suffix particles.  So
  the particle volume stays conserved to rounding, and the multiplier is
  the field at the end of the step to O(h**2), as the field at a trial
  state is.

A particle leaves only by dissolving inside a substep, its volume going to
the survivors through the multiplier; no cut below some fraction of R_c is
needed.  A flowed survivor's remaining lifetime ``g_p(x) - u**p h`` is at
least about one ulp of ``u**p h``, so its ``x = u R`` is at least about
1e-6 (dl) or 1e-9 (al), and its volume stays a positive normal float at
every time ``simulate_late_stage`` accepts.  Such a particle, and one
given to the constructor far below R_c, has a lifetime shorter than a
full substep, so the flow dissolves it within the next one.  (From t0 to
2 t0 at N = 20 000, seed 1, the smallest survivor had x = 0.011 (dl) and
0.0011 (al).)

Against a run at ``step_fraction`` 5e-4 from the same draws (N = 20 000,
seeds 1–3, ``t0`` to ``3 t0``), the largest phi step error at s = 1.5, 2, 3
is 1.0e-8–1.2e-8 / 1.9e-7 / 7.7e-7–8.0e-7 / 3.0e-6–3.1e-6 in dl and
5.7e-8–5.8e-8 / 9.7e-7–9.9e-7 / 3.9e-6–4.0e-6 / 1.6e-5 in al at
``step_fraction`` 2e-3 / 8e-3 / 1.6e-2 / 3.2e-2: order 2.0 over 16x.  The
Heun step that also stepped the prefix, its dissolving particles handed to
the survivors inside the substep, was of order about 1.3, and at its
default 2e-3 erred by up to 1.6e-6–3.2e-6 (dl) and 1.0e-5 (al) against the
same fine runs, more than this scheme does at its default 1.6e-2 with an
eighth of the substeps.

The volumes are stored sorted by radius, with particle ids carried in the
same order; ``Ensemble.snapshot`` presents them in id order, so outputs do
not depend on the storage.  Sorted storage makes every set the stepper
needs a prefix or a suffix: the prefix below R_c/2 and its dissolving
start.  ``R = cbrt(y)`` and the mean field are computed once per update
and shared by the step size, the stages, the flow and the series
recorder.

The state is updated in place.  ``_advance`` allocates its full-size work
arrays once per call, at the current size and on cache-line boundaries, and
every elementwise operation on the suffix writes into them.  Dropping the k
smallest particles is the view ``y[k:]``: the update writes into the buffer
built at construction, so no stale buffer exists for a view to pin.  (When
each update made a new array, views kept old ones alive and fragmented the
heap.)  The prefix, a few percent of the state, is worked on in small
arrays of its own.

The exact dynamics preserve the order of radii (every particle obeys one
growth law, monotone in R, under one mean field), but the discrete step
need not.  The suffix update keeps the order: in dl every operation is
monotone in y under one scalar field (``cbrt``, ``R (3hu) - 3h``, the
trial, the sum of two monotone increments, its half and the update, and
rounding is monotone).  In al so is every operation of the completed
square ``(3hu) (R - a)**2 - b`` while ``R >= a``; stage 1 has
``a = R_c/2``, which holds over the suffix, and stage 2 ``a = 1/(2 u_m)``
of the multiplier ``u_m``, which fails for the few stage radii just below
it, a run at the start of the sorted stage.  (The product form
``R (R (3hu) - 3h)`` is not monotone under rounding below R_c, where a
rounded negative factor can repeat while ``R`` grows.)  The flowed prefix
is not proven in order (the rounding of its lifetimes and their inverse),
nor is the seam where the flow meets the Heun step.  So the prefix, the
seam and, in al, that run are checked, and when out of order the whole
state is re-sorted with a stable argsort.  This is a safety net: in the
default runs at N = 20 000, seeds 1–5, no update needed one.
``Ensemble.work`` counts the re-sorts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .csvtable import write_table
from .distribution import size_distribution
from .errors import DataError, DomainError, StateError, check_entries
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
    "LateStageComparison",
    "LateStageResult",
    "simulate_late_stage",
    "write_snapshot_csv",
    "write_series_csv",
]

FOUR_THIRDS_PI = 4.0 * math.pi / 3.0

_sum = np.add.reduce
_any = np.logical_or.reduce  # ndarray.any without its Python wrapper
# The dissolution times g_p are summed as a series below x = _SERIES_TOP,
# where their closed forms cancel; 12 terms reach 5e-17 relative there.
_SERIES_TOP = np.array(0.05)
_SERIES_TERMS = 12
# The flow's frozen field is at most _FIELD_CAP u, so a prefix particle,
# R < R_c/2, starts at x = u R < 0.5 _FIELD_CAP = 0.75 and only shrinks.
_FIELD_CAP = 1.5
# The inverse of the flow's lifetime, x(w) with w = (p g_p(x))**(1/p), is
# analytic on the flow's range 0 <= x <= 0.75 and is x = w Q_p(w): Q_p is
# the 16-term mpmath chebyfit of x/w on [0, w_p(0.75)] (w_3(0.75) = 1.0213,
# w_2(0.75) = 1.1281), fit error 6.4e-18 (dl) and 3.1e-19 (al), highest
# degree first for Horner.  scripts/fit_flow_inverse.py regenerates them.
_INVERSE = {
    3: (3.700149824010723e-08, -1.1958346196393741e-07,
        2.1819404674232536e-07, -3.91363437728776e-07,
        -1.4696636447491636e-07, -1.1863825200812704e-06,
        -1.832934451448381e-06, -9.177382887381298e-08,
        1.820925035196069e-05, 0.0001010660590097353,
        0.00037388395329998814, 0.0009970238097929743,
        0.0010416666665368614, -0.012499999999993688,
        -0.2500000000000001, 1.0),
    2: (3.205394768682721e-10, -2.511509340887335e-09,
        5.600458355281073e-09, -1.0744482715952881e-08,
        2.8386078489514556e-08, 6.361825655282877e-08,
        1.9280976341531357e-07, -2.462128514526957e-07,
        -4.89795792979984e-06, -2.5536713193874344e-05,
        -5.878890482102304e-05, 0.00023148147692502566,
        0.003703703703996148, 0.027777777777767933,
        -0.3333333333333332, 1.0),
}
# The flow's constants as 0-d float64 arrays, _SERIES_TOP above too.  A
# ufunc converts a Python float operand on every call, about 250 ns more
# than a 0-d array costs; the flow makes about 45 such calls per substep.
# The values, and so every result, are the same.
_HALF, _ONE, _ZERO = np.array(0.5), np.array(1.0), np.array(0.0)
_P_0D = {p: np.array(float(p)) for p in (2, 3)}
# The series coefficients 1/(k + p), k = _SERIES_TERMS - 1 down to 0.
_SERIES = {
    p: tuple(np.array(1.0 / (k + p)) for k in range(_SERIES_TERMS - 1, -1, -1))
    for p in (2, 3)
}
_INVERSE_0D = {p: tuple(map(np.array, c)) for p, c in _INVERSE.items()}
# simulate_late_stage's times lie in [_T_MIN, _T_MAX].  The slope fit sums
# t**2 over the series rows, and the multiplier divides by about
# 0.02 n R_c**4, with R_c**4 = (t/2)**2 in al and (4t/9)**(4/3) in dl; over
# this range both stay normal floats for n up to 1e6 and 1e5 rows.
_T_MIN, _T_MAX = 1e-150, 1e150
# The stepper works on the volumes y = R**3, each a positive normal float.
_Y_MIN, _Y_MAX = np.finfo(float).tiny, np.finfo(float).max
# The default step_fraction, shared by every entry to the ensemble.
_STEP_FRACTION = 1.6e-2


@dataclass(frozen=True)
class Snapshot:
    """Radii by particle identity at one instant."""

    t: float
    ids: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids)
        if ids.dtype.kind != "i":
            # Signed integer ids, as Ensemble.snapshot passes, skip this.
            if ids.dtype.kind == "u":
                bad = ids > np.iinfo(np.int64).max
            else:
                real = np.asarray(ids, dtype=float)
                bad = ~((np.trunc(real) == real) & (np.abs(real) < 2.0**63))
            if bad.any():
                raise DataError("ids must be integers in the int64 range, "
                                f"got {ids[bad][:1].tolist()[0]!r}")
        ids = np.asarray(ids, dtype=np.int64)
        radii = np.asarray(self.radii, dtype=float)
        if ids.shape != radii.shape or ids.ndim != 1:
            raise DataError("ids and radii must be 1-d arrays of equal length")
        if ids.size and np.any(np.diff(ids) <= 0):
            raise DataError("ids must be strictly increasing")
        if radii.size and not (float(np.min(radii)) > 0.0
                               and float(np.max(radii)) < math.inf):
            raise DataError("snapshot radii must be positive and finite")
        if not math.isfinite(self.t):
            raise DataError(f"snapshot time must be finite, got {self.t!r}")
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


@dataclass(frozen=True)
class NewVolume:
    """Volume formed since the reference snapshot, and its share of the
    current total."""

    volume: float
    fraction: float


class Ensemble:
    """Mutable population of particle radii under one regime's dynamics.

    :meth:`run` advances the state and :meth:`snapshot` reads it.  The
    volumes are stored sorted by radius, with the particle ids carried in
    the same order; :meth:`snapshot` presents them in id order.  Sorted
    storage turns every set the stepper needs into a prefix or a suffix.
    A substep (see the module docstring):

    1. splits the state at R_c/2, takes the step size from the mean field
       alone, ``step_fraction / (4 u**3)`` (dl) or
       ``step_fraction / (2 u**2)`` (al), and stage 1 of the Heun step of
       the suffix at or above R_c/2;
    2. moves the prefix below R_c/2 by the exact flow of its growth law
       under the predicted mid-step field, capped at ``1.5 u``: its first
       ``k`` particles, whose lifetime ``u**-p g_p(u R)`` ends within the
       step, dissolve and are dropped by slicing, and the rest invert
       ``g_p`` at their remaining lifetime by one fixed polynomial, within
       1e-15 relative on the flow's range ``u R <= 0.75``;
    3. finishes the suffix's step with stage 2 under the multiplier, the
       one field for which the suffix's increments sum to minus the
       prefix's volume change (dissolved volume included);
    4. checks the order over the flowed prefix and the seam, and re-sorts
       the whole state when it finds an inversion.

    A particle that dissolves inside a substep hands its whole volume to
    the survivors through the multiplier.  :attr:`work` counts substeps,
    re-sorts, the prefix particles moved by the flow and the particles
    that dissolved.

    The state arrays are those built here: updates and re-sorts write into
    them, and a drop takes the view ``y[k:]``.

    The initial sort is numpy's default argsort, which may order equal
    volumes either way (0.27 ms against 1.65 ms for a stable one at
    N = 20 000).  No output depends on that order: snapshots are in id
    order; equal volumes get equal updates; permuting
    equal values changes no pairwise sum; and every cut is a
    ``searchsorted``, which keeps ties together.  :meth:`_resort` stays
    stable.

    Parameters
    ----------
    regime:
        Kinetic regime providing the growth law and mean-field closure.
    radii:
        Initial particle radii, at least two, each with a cube that is a
        positive normal float (about 2.8e-103 to 5.6e102).
    step_fraction:
        The largest ``|dR|/R`` of a particle at or above half the critical
        radius in one substep.  Over ``R >= R_c/2`` the relative volume
        rate is largest at ``R = R_c/2``, ``12 u**3`` (dl) or ``6 u**2``
        (al), so the substep is ``step_fraction / (4 u**3)`` or
        ``step_fraction / (2 u**2)``, or the time left to the next
        snapshot when that is shorter.  The default 1.6e-2 keeps the
        step error of phi below 1e-6 (dl) and 4e-6 (al) at N = 20 000 in
        about 620 (dl) and 280 (al) substeps over ``t0`` to ``3 t0``; the
        error is second order in it (see the module docstring).
    """

    def __init__(
        self,
        regime: Regime,
        radii,
        *,
        step_fraction: float = _STEP_FRACTION,
    ):
        radii = np.asarray(radii, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise DomainError("an ensemble needs at least two particles")
        with np.errstate(over="ignore"):
            y = radii ** 3
        if not (float(y.min()) >= _Y_MIN and float(y.max()) <= _Y_MAX):
            raise DomainError(
                "all radii must be positive and finite, with cubes that are "
                "normal floats (radii about 2.8e-103 to 5.6e102)"
            )
        if not 0.0 < step_fraction <= 0.1:
            raise DomainError("step_fraction must lie in (0, 0.1]")
        self.regime = regime
        self.step_fraction = float(step_fraction)
        # The clock counts the time since the state was given.
        self._t = 0.0
        self._ids = np.argsort(y).astype(np.int64, copy=False)
        self._size = y.size  # the ids are a subset of 0.._size-1
        self._y = y[self._ids]
        self._work = dict.fromkeys(
            ("substeps", "resorts", "flowed", "dissolved"), 0)
        # du/dt over the last full substep: the mid-step field's predictor.
        self._field_rate = 0.0

    # -- read-only views ---------------------------------------------------

    @property
    def work(self) -> dict:
        """Deterministic work counts since construction: substeps taken,
        re-sorts of the state after an update, the prefix particles moved
        by the exact flow, and the particles that dissolved inside a
        substep."""
        return dict(self._work)

    def snapshot(self) -> Snapshot:
        """The current time, ids and radii, in id order."""
        # The volumes scattered to their ids and the present ids read back
        # in order: O(size), with no sort.
        present = np.zeros(self._size, bool)
        present[self._ids] = True
        ids = np.flatnonzero(present)
        y = np.empty(self._size)
        y[self._ids] = self._y
        return Snapshot(self._t, ids, np.cbrt(y[ids]))

    # -- dynamics ----------------------------------------------------------

    def _field(self, r: np.ndarray, buf=None) -> float:
        """Mean field u of the radii ``r``; al writes ``r * r`` into
        ``buf`` (shaped like ``r``; a new array when None)."""
        # _sum is ndarray.sum without its Python wrapper (about 1 us a call,
        # three calls a substep); the result is the same.
        if self.regime.kind == "dl":
            return r.size / float(_sum(r))
        return float(_sum(r)) / float(_sum(np.multiply(r, r, out=buf)))

    def _drop(self, k: int):
        """Remove the ``k`` smallest particles, dissolved inside a substep
        with their volume gone to the survivors."""
        self._work["dissolved"] += k
        # Views: the state is updated in place and never rebuilt, so a view
        # pins no stale buffer.
        self._y = self._y[k:]
        self._ids = self._ids[k:]

    def _resort(self):
        """Restore the radius order after an update: a stable argsort of
        the whole state, written into the state arrays."""
        order = self._y.argsort(kind="stable")
        self._y[:] = self._y[order]
        self._ids[:] = self._ids[order]
        self._work["resorts"] += 1

    def _flow(self, r, u, h):
        """Move the prefix of radii ``r`` (below R_c/2) by the exact flow
        of the growth law under the frozen field ``u`` for ``h``.  Returns
        the number ``k`` of particles that dissolve, the first ones, and
        the survivors' new volumes."""
        p = self.regime.growth_exponent + 1
        c = u**p * h  # the substep on the lifetime clock u**-p
        lifetime = _lifetime(r * u, p, c)
        k = int(lifetime.searchsorted(c, side="right"))
        remaining = lifetime[k:]
        remaining -= c
        np.maximum(remaining, _ZERO, out=remaining)
        x = _inverse_lifetime(remaining, p)
        x *= 1.0 / u
        y = np.multiply(x, x)
        y *= x
        return k, y

    def _advance(self, t_target: float, recorder):
        # r = cbrt(y) and the mean field u are taken once per update and
        # reused by the step size, the stages, the flow and the recorder.
        # Every full-size array a substep writes is a buffer allocated
        # here, at the current size and on a cache-line boundary, and taken
        # from its start at the size of the moment: an out-of-place pass
        # runs about twice as long into an output that straddles cache
        # lines.  The prefix below R_c/2 (a few percent of the state) and a
        # re-sort allocate.
        al = self.regime.kind == "al"
        # The suffix's relative volume rate peaks at R_c/2, 3 scale u**p: the
        # step step_fraction / (scale u**p) bounds its |dR|/R by
        # step_fraction (see the module docstring).
        p = self.regime.growth_exponent + 1
        scale = 2.0 ** (p - 1)
        y = self._y
        n = y.size
        r_buf, hk1_buf, hk2_buf = (_aligned(n) for _ in range(3))
        r = np.cbrt(y, out=r_buf)
        u = self._field(r, hk2_buf)
        while self._t < t_target:
            remaining = t_target - self._t
            # The prefix j below R_c/2 moves by its exact flow; the suffix
            # takes the Heun step, whose size the mean field alone sets.
            j = int(y.searchsorted((0.5 / u) ** 3))
            ys, rs = y[j:], r[j:]
            m = n - j
            hk1, hk2 = hk1_buf[:m], hk2_buf[:m]
            h = min(self.step_fraction / (scale * u**p), remaining)
            if not self._t + h > self._t:
                raise StateError(
                    f"substep {h!r} does not advance t={self._t!r}"
                )
            h3 = 3.0 * h
            # Stage 1 of the suffix, with h and the rate constants folded
            # in: h k1 = r (3hu) - 3h in dl, and in al the completed square
            # (3hu) (r - R_c/2)**2 - 3h R_c/4, each operation monotone in r
            # above R_c/2.
            _stage(rs, u, h3, al, hk1)
            trial = np.add(ys, hk1, out=hk2)
            stage = np.cbrt(trial, out=trial)
            s1 = float(_sum(stage))
            sum_hk1 = float(_sum(hk1))
            dissolved, dy = 0, 0.0
            if j:
                # The prefix flows under the mid-step field, the end of the
                # step's field predicted by an Euler step of the field at
                # the last full substep's rate (see the module docstring),
                # capped at 1.5 u so that u R stays within the inverse
                # lifetime's range.
                yp = y[:j]
                dissolved, flowed = self._flow(
                    r[:j], min(u + 0.5 * h * self._field_rate, _FIELD_CAP * u),
                    h)
                if n - dissolved < 2:  # refused before the substep writes
                    raise StateError(f"ensemble collapses to {n - dissolved} "
                                     f"particle(s) after t={self._t!r}")
                dy = float(_sum(flowed)) - float(_sum(yp))
                yp[dissolved:] = flowed
            # Stage 2 of the suffix takes the one field under which the
            # suffix's increments sum to minus the prefix's: conserved.
            seam = j - dissolved + 1
            if al:
                # r is not read again before the update: its buffer is free.
                s2 = float(_sum(np.multiply(stage, stage, out=r_buf[:m])))
                um = (h3 * s1 - sum_hk1 - 2.0 * dy) / (h3 * s2)
                # al's stage 2 falls with R below 1/(2 um): a run at the
                # start of the sorted stage, checked with the seam.
                seam += int(stage.searchsorted(0.5 / um))
            else:
                um = (h3 * m - sum_hk1 - 2.0 * dy) / (h3 * s1)
            if h < remaining:
                self._field_rate = (um - u) / h
            hk2 = _stage(stage, um, h3, al, stage)
            hk2 += hk1
            hk2 *= _HALF
            ys += hk2
            t_next = t_target if h >= remaining else self._t + h
            if dissolved:
                self._drop(dissolved)
            self._work["flowed"] += j - dissolved
            y = self._y
            n = y.size
            seam = min(seam, n)
            if _any(np.less(y[1:seam], y[:seam - 1])):
                self._resort()
            self._t = t_next
            self._work["substeps"] += 1
            r = np.cbrt(y, out=r_buf[:n])
            u = self._field(r, hk2_buf[:n])
            recorder(t_next, n, 1.0 / u, float(_sum(y)))

    def run(self, t_end: float, snapshot_times=()):
        """Advance to ``t_end``, returning snapshots at the requested times
        plus a per-substep :class:`TimeSeries` of diagnostics.

        ``snapshot_times`` must be sorted, within ``[current t, t_end]``; a
        snapshot requested at the current time is taken before stepping.
        """
        t_end = float(t_end)
        check_entries(np.asarray(t_end), np.isfinite(t_end),
                      "t_end must be finite, got %r")
        if not t_end > self._t:
            raise DomainError(
                f"t_end must exceed the current time {self._t!r}, got {t_end!r}"
            )
        times = [float(ts) for ts in snapshot_times]
        check_entries(np.array(times), np.isfinite(times),
                      "snapshot times must be finite, got %r")
        if any(b < a for a, b in zip(times, times[1:])):
            raise DomainError("snapshot times must be sorted")
        if times and (times[0] < self._t or times[-1] > t_end):
            raise DomainError(
                f"snapshot times must lie within [{self._t!r}, {t_end!r}]"
            )
        rows = [(self._t, self._y.size, 1.0 / self._field(np.cbrt(self._y)),
                 float(np.sum(self._y)))]
        record = lambda *row: rows.append(row)
        snapshots = []
        for ts in times:
            if ts > self._t:
                self._advance(ts, record)
            snapshots.append(self.snapshot())
        if t_end > self._t:
            self._advance(t_end, record)
        t, n, rc, r3 = zip(*rows)
        return snapshots, TimeSeries(
            np.array(t, dtype=float),
            np.array(n, dtype=np.int64),
            np.array(rc, dtype=float),
            np.array(r3, dtype=float),
        )


def _stage(r, u, h3, al, out=None):
    """The stage increment ``h k`` of the radii ``r`` under the field
    ``u``, with ``h3 = 3h`` folded in: ``r (3hu) - 3h`` in dl and the
    completed square ``(3hu) (r - 1/(2u))**2 - (3h)/(4u)`` in al, written
    into ``out`` (a new array when None)."""
    if al:
        out = np.subtract(r, 0.5 / u, out=out)
        out *= out
        out *= h3 * u
        out -= 0.25 * h3 / u
    else:
        out = np.multiply(r, h3 * u, out=out)
        out -= h3
    return out


def _lifetime(x, p: int, c: float = 0.0) -> np.ndarray:
    """``g_p(x)``, the time a particle at ``x = u R < 1`` takes to dissolve
    under the frozen field ``u``, in units of ``u**-p``:
    ``-(log1p(-x) + x + x**2/2)`` for ``p = 3`` (dl) and
    ``-(log1p(-x) + x)`` for ``p = 2`` (al), elementwise over an
    ascending 1-d array.  Below ``x = 0.05`` the terms cancel, and the
    series ``x**p sum_k x**k/(k + p)`` is summed instead: over the start
    of ``x``, the closed form over the rest.  When the step ``c`` on the
    lifetime clock is at least ``_SERIES_MAX[p]``, every lifetime below
    ``x = 0.05`` ends within it, and those are given as 0 instead."""
    i = int(x.searchsorted(_SERIES_TOP))
    g = np.empty_like(x)
    xc, gc = x[i:], g[i:]
    np.negative(xc, out=gc)
    np.log1p(gc, out=gc)
    if p == 3:
        # x * (1 + x/2), as x * (1.0 + 0.5 * x) rounds it
        t = np.multiply(xc, _HALF)
        t += _ONE
        t *= xc
        gc += t
    else:
        gc += xc
    np.negative(gc, out=gc)
    if i and c >= _SERIES_MAX[p]:
        g[:i] = 0.0
    elif i:
        xs = x[:i]
        gs = _horner(xs, _SERIES[p], g[:i])
        gs *= np.power(xs, _P_0D[p])
    return g


def _inverse_lifetime(tau, p: int) -> np.ndarray:
    """The ``x`` in ``[0, 0.75]`` with ``g_p(x) = tau``, for ``tau`` in
    ``[0, g_p(0.75)]``, elementwise over a 1-d array: ``x = w Q_p(w)`` in
    ``w = (p tau)**(1/p)``, which is ``x`` to first order, with the fixed
    polynomial ``Q_p`` of ``_INVERSE`` by Horner.  Within 1e-15 relative of
    the exact inverse (see ``_INVERSE``); ``tau = 0`` gives ``x = 0``."""
    w = np.multiply(tau, _P_0D[p])
    w = np.cbrt(w, out=w) if p == 3 else np.sqrt(w, out=w)
    x = _horner(w, _INVERSE_0D[p])
    x *= w
    return x


def _horner(x, coeffs, out=None) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest degree first, at least two)
    at ``x`` by Horner's rule, in place in ``out`` (a new array when
    None)."""
    acc = np.multiply(x, coeffs[0], out=out)
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


# The series' largest value, at x = 0.05, with a margin for its rounding:
# a step c on the lifetime clock at least this dissolves every particle
# the series would be summed for.  In a full substep c is about
# step_fraction/4 (dl) or /2 (al), 4e-3 or 8e-3 at the default step,
# above g_3(0.05) = 4.3e-5 and g_2(0.05) = 1.3e-3.
_SERIES_MAX = {
    p: float(_horner(_SERIES_TOP, _SERIES[p]) * np.power(_SERIES_TOP, _P_0D[p]))
    * (1.0 + 1e-9)
    for p in (2, 3)
}


def _aligned(n: int) -> np.ndarray:
    """An uninitialized float64 array of length ``n`` that starts on a
    64-byte (cache-line) boundary."""
    buf = np.empty(n + 8)
    shift = (-buf.ctypes.data) % 64 // 8
    return buf[shift:shift + n]


def init_ensemble(
    regime: Regime, n: int, r_c0: float, seed: int, *,
    step_fraction: float = _STEP_FRACTION,
) -> Ensemble:
    """Draw ``n`` radii from the regime's stationary size density, scaled by
    the starting critical radius ``r_c0``, into an :class:`Ensemble` of
    that ``step_fraction``; particle ids are 0..n-1."""
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise DomainError(f"need at least two particles, got n={n!r}")
    r_c0 = float(r_c0)
    if not (r_c0 > 0.0 and math.isfinite(r_c0)):
        raise DomainError(f"r_c0 must be positive and finite, got {r_c0!r}")
    z = size_distribution(regime).sample(n, seed)
    return Ensemble(regime, r_c0 * z, step_fraction=step_fraction)


def _align(before: Snapshot, after: Snapshot):
    """The particles of ``after`` matched by id to ``before``: their radii
    at ``before`` and at ``after``, and the mask of those that grew or kept
    their size, ``(r0, r1, r1 >= r0)``."""
    if after.t < before.t:
        raise DataError(
            f"'after' snapshot precedes 'before' ({after.t!r} < {before.t!r})"
        )
    if after.ids.size == 0:
        raise DataError("'after' snapshot is empty")
    ids, n = after.ids, before.ids.size
    if n and before.ids[0] == 0 and before.ids[-1] == n - 1:
        # Strictly increasing ids from 0 to n - 1 are exactly 0..n-1, so
        # each id is its own index; ids that increase too are a subset of
        # them when both ends lie in range.
        if ids[0] < 0 or ids[-1] >= n:
            raise DataError("'after' ids are not a subset of 'before' ids")
        idx = ids
    else:
        idx = np.searchsorted(before.ids, ids)
        if (np.any(idx >= n)
                or np.any(before.ids[np.minimum(idx, n - 1)] != ids)):
            raise DataError("'after' ids are not a subset of 'before' ids")
    r0, r1 = before.radii[idx], after.radii
    return r0, r1, r1 >= r0


def measure_new_volume(before: Snapshot, after: Snapshot) -> NewVolume:
    """Volume formed between two snapshots: the sum of R(t)^3 - R(t0)^3 over
    particles that are at least as large as they started, as an absolute
    volume and as a fraction of the current total.  A total volume past
    the float range is refused."""
    r0, r1, grown = _align(before, after)
    with np.errstate(over="ignore"):
        cubes = r1**3
        total = FOUR_THIRDS_PI * float(np.sum(cubes))
    if not math.isfinite(total):
        raise DataError(f"the total volume of the snapshot at t={after.t!r} "
                        "overflows a float")
    volume = FOUR_THIRDS_PI * float(np.sum(cubes[grown] - r0[grown] ** 3))
    return NewVolume(volume, volume / total)


def empirical_return_radius(before: Snapshot, after: Snapshot) -> float:
    """Boundary initial radius separating particles still above their
    starting size from those already below it again: the midpoint between
    the largest shrunk and the smallest grown initial radius."""
    r0, _, grown = _align(before, after)
    if not np.any(grown) or np.all(grown):
        raise DataError("no grown/shrunk boundary between these snapshots")
    return 0.5 * (float(np.max(r0[~grown])) + float(np.min(r0[grown])))


@dataclass(frozen=True)
class LateStageComparison:
    """Simulation vs analytics at one snapshot time ``t``, ``s = t/t0``:
    the new-volume fraction phi and the grown/shrunk boundary radius, each
    measured, predicted, and the relative error ``|measured - predicted| /
    predicted``.  The fields are the keys of a ``report.json`` snapshot
    entry, less ``file``: a field added here is a key there."""

    t: float
    s: float
    phi_empirical: float
    phi_analytic: float
    phi_rel_err: float
    boundary_radius_empirical: float
    boundary_radius_analytic: float
    boundary_rel_err: float


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
    *,
    step_fraction: float = _STEP_FRACTION,
) -> LateStageResult:
    """Run an ensemble against the analytic late-stage predictions.

    Times are on the coarsening clock where ``R_c**gamma = (gamma/nu) t``
    holds exactly: the run starts at ``t0`` with the critical radius the
    analytic law assigns to that instant and the population already at the
    stationary size density (its fixed point), so every particle is alive
    at the reference time and the elapsed-time ratio is exactly
    ``s = t/t0``.  Snapshot times are absolute (in ``(t0, t_end]``); at each
    one the measured new-volume fraction and grown/shrunk boundary radius
    are compared against their analytic values: one
    :class:`LateStageComparison` per snapshot, its relative errors set as
    it is built.  ``t0`` and ``t_end`` lie in [1e-150, 1e150], where the
    run's products of times and radii stay normal floats.
    ``step_fraction`` is the ensemble's (see :class:`Ensemble`).

    Every time returned is on that clock: ``base.t`` is ``t0``, each
    snapshot's ``t`` is its requested time, and ``series.t`` runs from
    ``t0`` to ``t_end``, its rows at the snapshot times and at ``t_end``
    holding those times exactly.  A :class:`StateError` raised inside the
    run names the ensemble's own clock instead, which counts from 0 at
    ``t0``.
    """
    t0 = float(t0)
    t_end = float(t_end)
    if not _T_MIN <= t0 <= _T_MAX:
        raise DomainError(
            f"t0 must lie in [{_T_MIN!r}, {_T_MAX!r}], got {t0!r}"
        )
    # Snapshot times first: the CLI's default t_end is the last of them.
    times = sorted(float(ts) for ts in snapshot_times)
    check_entries(np.array(times), np.isfinite(times),
                  "snapshot times must be finite, got %r")
    check_entries(np.asarray(t_end), np.isfinite(t_end),
                  "t_end must be finite, got %r")
    if not t_end > t0:
        raise DomainError(f"t_end must exceed t0, got {t_end!r}")
    if t_end > _T_MAX:
        raise DomainError(f"t_end must be at most {_T_MAX!r}, got {t_end!r}")
    if times and (times[0] <= t0 or times[-1] > t_end):
        raise DomainError(
            f"snapshot times must lie in ({t0!r}, {t_end!r}]"
        )

    r_c0 = critical_radius(regime, 0.0, t0)
    ens = init_ensemble(regime, n, r_c0, seed, step_fraction=step_fraction)
    # The ensemble's clock counts from 0 at t0; every result reads t0's.
    base = replace(ens.snapshot(), t=t0)

    offsets = [ts - t0 for ts in times]
    snapshots, series = ens.run(t_end - t0, offsets)
    # The series' first and last rows are the run's start and end states.
    v0, v1 = (FOUR_THIRDS_PI * series.total_r3[[0, -1]]).tolist()
    residual = abs(v1 - v0) / v0
    snapshots = [replace(snap, t=ts) for snap, ts in zip(snapshots, times)]
    # The run stops exactly on each offset and on t_end - t0, but
    # t0 + (ts - t0) need not round to ts: those rows take the times asked.
    stops = series.t.searchsorted(offsets)
    series.t += t0
    series.t[stops] = times
    series.t[-1] = t_end

    gamma = regime.coarsening_exponent
    slope = float(np.polyfit(series.t, series.rc_estimate**gamma, 1)[0])

    ratios = [ts / t0 for ts in times]
    # One solve for every snapshot's phi and one for its boundary radius;
    # each value is the scalar call's, bit for bit.
    phis = new_volume_fraction(regime, np.array(ratios)).tolist() if times else []
    radii = return_radius(regime, np.array(times), t0, 0.0).tolist() if times else []
    comparisons = []
    for ts, s, phi, radius, snap in zip(times, ratios, phis, radii, snapshots):
        phi_measured = measure_new_volume(base, snap).fraction
        radius_measured = empirical_return_radius(base, snap)
        comparisons.append(
            LateStageComparison(
                t=ts,
                s=s,
                phi_empirical=phi_measured,
                phi_analytic=phi,
                phi_rel_err=abs(phi_measured - phi) / phi,
                boundary_radius_empirical=radius_measured,
                boundary_radius_analytic=radius,
                boundary_rel_err=abs(radius_measured - radius) / radius,
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


def write_snapshot_csv(snapshot: Snapshot, path, comment=None):
    """Write a snapshot as ``id,radius`` CSV (one leading # comment line)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, "id,radius", (snapshot.ids, snapshot.radii), comment)


def write_series_csv(series: TimeSeries, path, comment=None):
    """Write a run's diagnostics as ``t,n,rc_estimate,total_r3`` CSV (one
    leading # comment line)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(
            fh, "t,n,rc_estimate,total_r3",
            (series.t, series.n, series.rc_estimate, series.total_r3),
            comment,
        )
