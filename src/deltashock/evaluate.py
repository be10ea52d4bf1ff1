"""Sampling of a Solution: u, the regular part of v, and the delta atoms
alive at given times with positions, strengths, and splits.

``fields`` samples by one rule, epoch by epoch: it groups the query times
by their epoch, locates each point among the epoch's fronts, fills the
constant regions by one gather from the epoch's per-region values and calls
every other law once, on the points of its region, a fan's v on the u just
found there.  A group of one time passes that time as a float, and a
region's only point too.  ``atom_rows`` evaluates every carrying front once
on all the times at which it is alive.  ``sample`` and ``atoms_at`` are the
one-time cases, at the cost of the epoch in force at t: ``sample`` evaluates
it as a group of one time, ``atoms_at`` reads only its fronts.  So a row of
the grid, and the atom rows of one time, are bit-identical to the sample
at that time.  A closed form gets one time as a float and several as an
array, whichever is cheaper, with the same bits either way (see ``core``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from .core import ConstLaw, FanExpV, Solution

_ON_FRONT_TOL = 1e-12
_BY_POSITION = attrgetter("x", "front_id")    # atoms: by x, ties by front id


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


def _xs(xs):
    """The query positions as a flat float array; a NaN is refused."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if np.isnan(xs).any():
        raise ValueError("sampling requires x that is not NaN")
    return xs


def _row(sol: Solution, ep, t, xs):
    """u and v in the epoch ``ep`` at the time t (a float, one row) or the
    times t (an array, a row each), stacked in shape (2, rows, len(xs))."""
    one = isinstance(t, float)
    # k counts the fronts at or left of x, then points on the nearest of
    # them (pos[near]; row 0 is NaN, for none) move to its left
    pos = np.array([math.nan * t]
                   + [sol.fronts[f].geom.pos(t) for f in ep.fronts])
    snap = _ON_FRONT_TOL * (1.0 + np.abs(pos))
    k = (pos[1:, ..., None] <= xs).sum(axis=0)
    near = k if one else (k, np.arange(len(t))[:, None])
    k -= np.abs(xs - pos[near]) <= snap[near]
    # constant laws by one gather from a per-region table (as floats: a
    # state may hold ints), every other law once, on the points of its
    # region (a region's only point, and its time, as floats)
    us, vs, calls = [], [], []
    for slot, rid in enumerate(ep.regions):
        u_law, v_law = sol.regions[rid].u_law, sol.regions[rid].v_law
        cu, cv = isinstance(u_law, ConstLaw), isinstance(v_law, ConstLaw)
        us.append(u_law.value if cu else 0.0)
        vs.append(v_law.value if cv else 0.0)
        if not (cu and cv):
            calls.append((slot, None if cu else u_law, None if cv else v_law))
    uv = np.array((us, vs), dtype=float).take(k, axis=1)
    for slot, u_law, v_law in calls:
        at = (k == slot).nonzero()          # (i,) at one time, (j, i) at several
        if not len(at[0]):
            continue
        x, s = xs[at[-1]], t if one else t[at[0]]
        if len(x) == 1:
            x, s = float(x[0]), s if one else float(s[0])
        if u_law is not None:
            uv[0][at] = u = u_law(x, s)
        if v_law is not None:
            # a fan's v from the u just written: its FanU has the same centre
            uv[1][at] = v_law.of_u(u) if isinstance(v_law, FanExpV) else v_law(x, s)
    return uv[:, None] if one else uv


def fields(sol: Solution, ts, xs):
    """u and the regular part of v on the grid ``ts`` x ``xs``.

    Returns two arrays of shape (len(ts), len(xs)), one row per time.  The
    rows are grouped by epoch, and each group is located and evaluated in
    one pass, a group of one time with that time as a float; a row has the
    same bits in any grid and alone.  Queries within 1e-12 of a front
    resolve to the left region (documented convention); x = -inf and +inf
    are in the outer states, and a NaN x raises ``ValueError``.  Points
    essentially on a singular profile boundary come back as signed
    infinities, never as silently huge finite numbers.
    """
    ts, tl = _times(ts)
    xs = _xs(xs)
    groups = {}
    for j, t in enumerate(tl):
        ep = sol.epoch_at(t)
        groups.setdefault(id(ep), (ep, []))[1].append(j)
    uv = np.empty((2, len(tl), len(xs))) if len(groups) != 1 else None
    for ep, rows in groups.values():
        part = _row(sol, ep, tl[rows[0]] if len(rows) == 1 else ts[rows], xs)
        if uv is None:                  # one epoch, its rows in order
            return part[0], part[1]
        uv[:, rows] = part
    return uv[0], uv[1]


def atom_rows(sol: Solution, ts) -> list:
    """The delta atoms alive at each of ``ts``: one tuple (j, front_id, x,
    alpha, alpha0, alpha1) per atom alive at ``ts[j]``, sorted by j, then
    position, ties in front order.

    Every strength-carrying front is evaluated once, on all the times at
    which it is alive; the split components come from the front's
    delta'-coefficient rule.
    """
    ts, _ = _times(ts)
    rows = []
    for f in sol.fronts.values():
        if f.strength is None:
            continue
        k = np.flatnonzero((ts >= f.birth) & (ts < f.death))   # Front.alive_at
        if len(k):
            t = ts[k]
            rows += zip(k.tolist(), [f.fid] * len(k),
                        *(c.tolist() for c in (f.geom.pos(t), *f.atom(t))))
    rows.sort(key=itemgetter(0, 2))     # stable: ties keep front order
    return rows


def atoms_at(sol: Solution, t: float):
    """All delta atoms alive at time t, sorted by position, ties in front
    order: the one-time case of ``atom_rows``, evaluated in floats.

    One entry per strength-carrying front; the split components come from
    the front's delta'-coefficient rule.
    """
    t = _time(t)
    # every birth and death is an epoch start: its fronts are those alive
    fronts = map(sol.fronts.__getitem__, sol.epoch_at(t).fronts)
    atoms = [Atom(f.geom.pos(t), *f.atom(t), f.fid) for f in fronts
             if f.strength is not None]
    atoms.sort(key=_BY_POSITION)
    return tuple(atoms)


def sample(sol: Solution, t: float, xs) -> Sample:
    """Evaluate u and the regular part of v at positions ``xs`` (the
    one-row case of ``fields``, in the epoch in force at t), with the atoms
    alive at t.  ``t`` is a single time; ``Sample.t`` holds it as a float."""
    t = _time(t)
    xs = _xs(xs)
    u, v = _row(sol, sol.epoch_at(t), t, xs)
    return Sample(t, xs, u[0], v[0], atoms_at(sol, t))
