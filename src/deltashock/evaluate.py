"""Sampling of a Solution: u, the regular part of v, and the delta atoms
alive at given times with positions, strengths, and splits.

``fields`` takes one of two paths, chosen by ``len(ts)``.  A single time is
one row: one epoch lookup, the front positions as floats, one gather from
the epoch's per-region constants, and one call per other law on its own
points (a lone point as a float) with the time as a float.  A grid of two
or more times is evaluated with a handful of array operations per epoch,
one gather for all constant regions and one masked call per other law.
``atom_table`` evaluates every carrying front once on all the times at
which it is alive.  ``sample`` and ``atoms_at`` are the one-time cases, so
a row of the grid is bit-identical to the sample at that time.  A closed
form gets one time as a float and several as an array, whichever is
cheaper, with the same bits either way (see ``core``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConstLaw, Solution

_ON_FRONT_TOL = 1e-12


@dataclass(frozen=True)
class Atom:
    x: float
    alpha: float
    alpha0: float
    alpha1: float
    front_id: int


@dataclass(frozen=True)
class Sample:
    t: float
    xs: np.ndarray
    u_vals: np.ndarray
    v_regular_vals: np.ndarray
    atoms: tuple


def _times(ts):
    """The query times as a flat array and as a list of floats."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    tl = ts.tolist()
    if not all(0.0 < t < math.inf for t in tl):
        raise ValueError("sampling requires finite t > 0")
    return ts, tl


def _time(t) -> float:
    """A single query time as a float; a sequence of times is refused."""
    if not isinstance(t, float) and np.ndim(t) != 0:
        raise ValueError(f"expected a single time, got {t!r}")
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError("sampling requires finite t > 0")
    return t


def _row(sol: Solution, t: float, xs):
    """u and v at the one time t, as two rows of shape (1, len(xs))."""
    ep = sol.epoch_at(t)
    # k counts the fronts at or left of x, then points on the nearest of
    # them (pos[k], NaN when there is none) move to its left
    k = np.zeros(len(xs), dtype=np.intp)
    if ep.fronts:
        pos = np.array([math.nan] + [sol.fronts[f].geom.pos(t) for f in ep.fronts])
        snap = _ON_FRONT_TOL * (1.0 + np.abs(pos))
        k = (pos[1:, None] <= xs).sum(axis=0)
        k -= np.abs(xs - pos[k]) <= snap[k]
    # constant laws by one gather from the epoch's per-region values (as
    # floats: a state may hold ints), every other law once, on the points
    # of its region
    laws = ([sol.regions[r].u_law for r in ep.regions],
            [sol.regions[r].v_law for r in ep.regions])
    uv = np.array([[law.value if isinstance(law, ConstLaw) else 0.0 for law in row]
                   for row in laws], dtype=float).take(k, axis=1)
    for slot in np.bincount(k, minlength=len(ep.regions)).nonzero()[0]:
        calls = [(out, row[slot]) for out, row in zip(uv, laws)
                 if not isinstance(row[slot], ConstLaw)]
        if calls:
            i = (k == slot).nonzero()[0]
            x = xs[i] if len(i) > 1 else float(xs[i[0]])
            for out, law in calls:
                out[i] = law(x, t)
    return uv[:1], uv[1:]


def fields(sol: Solution, ts, xs):
    """u and the regular part of v on the grid ``ts`` x ``xs``.

    Returns two arrays of shape (len(ts), len(xs)), one row per time; a
    single time takes the one-row path, several the grid path, with the
    same bits.  Queries within 1e-12 of a front resolve to the left region
    (documented convention); x = -inf and +inf are in the outer states, and
    a NaN x raises ``ValueError``.  Points essentially on a singular
    profile boundary come back as signed infinities, never as silently huge
    finite numbers.
    """
    ts, tl = _times(ts)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if np.isnan(xs).any():
        raise ValueError("sampling requires x that is not NaN")
    if len(tl) == 1:
        return _row(sol, tl[0], xs)
    # the region of every point, located epoch by epoch
    rid = np.empty((len(ts), len(xs)), dtype=np.intp)
    epochs = {}
    for j, t in enumerate(tl):
        ep = sol.epoch_at(t)
        epochs.setdefault(id(ep), (ep, []))[1].append(j)
    for ep, rows in epochs.values():
        idx = np.zeros((len(rows), len(xs)), dtype=np.intp)
        if ep.fronts:
            # pos[j, 1 + f]: front f at time j, after a NaN column; idx
            # counts the fronts at or left of x, then points on the nearest
            # of them (pos[j, idx], NaN when there is none) move to its left
            t = ts[rows]
            pos = np.array([np.full(len(rows), math.nan)]
                           + [sol.fronts[f].geom.pos(t) for f in ep.fronts]).T
            idx = (pos[:, 1:, None] <= xs).sum(axis=1)
            prev = pos[np.arange(len(rows))[:, None], idx]
            idx -= np.abs(xs - prev) <= _ON_FRONT_TOL * (1.0 + np.abs(prev))
        rid[rows] = np.array(ep.regions)[idx]
    # constant laws by one gather from per-region values, every other law
    # once, on the points of its region
    u_of, v_of = np.zeros((2, max(sol.regions) + 1))
    for r, reg in sol.regions.items():
        for values, law in ((u_of, reg.u_law), (v_of, reg.v_law)):
            if isinstance(law, ConstLaw):
                values[r] = law.value
    u, v = u_of[rid], v_of[rid]
    for r in np.bincount(rid.ravel()).nonzero()[0]:
        reg = sol.regions[r]
        laws = [(out, law) for out, law in ((u, reg.u_law), (v, reg.v_law))
                if not isinstance(law, ConstLaw)]
        if laws:
            j, i = (rid == r).nonzero()
            for out, law in laws:
                out[j, i] = law(xs[i], ts[j])
    return u, v


def atom_table(sol: Solution, ts) -> list:
    """The delta atoms alive at each of ``ts``: one tuple of Atoms per time,
    sorted by position, ties in front order.

    Every strength-carrying front is evaluated once, on all the times at
    which it is alive; the split components come from the front's
    delta'-coefficient rule.
    """
    ts, tl = _times(ts)
    rows = []
    for f in sol.fronts.values():
        if f.strength is None:
            continue
        k = np.flatnonzero((ts >= f.birth) & (ts < f.death))   # Front.alive_at
        if len(k):
            t = ts[k]
            cols = (f.geom.pos(t), *f.atom(t))
            rows += zip(k.tolist(), *(c.tolist() for c in cols), [f.fid] * len(k))
    rows.sort(key=lambda r: r[:2])     # stable: ties keep front order
    table = [[] for _ in tl]
    for j, *atom in rows:
        table[j].append(Atom(*atom))
    return [tuple(atoms) for atoms in table]


def atoms_at(sol: Solution, t: float):
    """All delta atoms alive at time t, sorted by position, ties in front
    order: the one-time case of ``atom_table``, evaluated in floats.

    One entry per strength-carrying front; the split components come from
    the front's delta'-coefficient rule.
    """
    t = _time(t)
    atoms = [Atom(f.geom.pos(t), *f.atom(t), f.fid) for f in sol.fronts.values()
             if f.strength is not None and f.alive_at(t)]
    atoms.sort(key=lambda a: a.x)      # stable: ties keep front order
    return tuple(atoms)


def sample(sol: Solution, t: float, xs) -> Sample:
    """Evaluate u and the regular part of v at positions ``xs`` (the
    one-row case of ``fields``), with the atoms alive at t.  ``t`` is a
    single time; ``Sample.t`` holds it as a float."""
    t = _time(t)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    u, v = fields(sol, t, xs)
    return Sample(t, xs, u[0], v[0], atoms_at(sol, t))
