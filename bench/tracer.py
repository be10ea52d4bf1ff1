"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``install`` rebinds each
public deltashock function in every deltashock module that holds it (so
``deltashock.interact.intersect`` and ``deltashock.cli.sample`` are both
traced) and wraps the strength-law and field-law class methods.  Nothing in
the package is edited; ``uninstall`` restores every binding.

A span is one call across a layer boundary: name, start, end, parent span,
the benchmark unit (op) it belongs to, a tag, a work count and whether it
raised.  Self time is a span's duration minus the time its child spans
cover; the spans of one unit nest strictly, so their self times sum to the
unit's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# span record fields
NAME, START, END, PARENT, UNIT, TAG, POINTS, FAILED = range(8)

UNIT_SPAN = "bench.unit"


class Tracer:
    """Spans kept in memory; written to a file only by ``write``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit = None
        self._undo: list = []

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.unit, tag, 0, False])
        self._stack.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def close(self, idx: int, failed: bool = False) -> list:
        end = perf_counter()
        rec = self.spans[idx]
        rec[END] = end
        rec[FAILED] = failed
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {rec[NAME]} closed out of order")
        return rec

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, name, fn, tag_of=None, count_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, tag_of(args) if tag_of else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            rec = tracer.close(idx)
            if count_of is not None:
                rec[POINTS] = count_of(args, out)
            return out

        return traced

    def install(self):
        """Rebind the traced functions and methods until ``uninstall``."""
        for module in {f[1] for f in _FUNCTIONS}:
            importlib.import_module(module)
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "deltashock"
                                         or name.startswith("deltashock."))]
        for name, module, attr, tag_of, count_of in _FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, orig, tag_of, count_of)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        core = sys.modules["deltashock.core"]
        for name, cls_name, method in _METHODS:
            cls = getattr(core, cls_name)
            orig = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, orig, None, _size_of_arg1))
            self._undo.append((cls, method, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: Path):
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("idx\tname\ttag\tstart\tend\tparent\tunit\tpoints\tfailed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[TAG] or ''}\t{s[START]!r}\t"
                         f"{s[END]!r}\t{s[PARENT]}\t"
                         f"{'' if s[UNIT] is None else s[UNIT]}\t"
                         f"{s[POINTS]}\t{int(s[FAILED])}\n")


def _size_of_arg1(args, out):
    return int(np.size(args[1]))


def _intersect_kind(args):
    names = sorted(type(g).__name__ for g in args[:2])
    return {("Line", "SqrtCurve"): "line_sqrt",
            ("Line", "LogCurve"): "line_log",
            ("LogCurve", "SqrtCurve"): "sqrt_log",
            ("Line", "Line"): "line_line",
            ("SqrtCurve", "SqrtCurve"): "sqrt_sqrt"}.get(tuple(names), "other")


# (layer, defining module, public name, tag function, work-count function)
_FUNCTIONS = (
    ("interact.run", "deltashock.interact", "run", None,
     lambda a, out: len(out.events)),
    ("interact.validate_scenario", "deltashock.interact", "validate_scenario",
     None, None),
    ("fronts.intersect", "deltashock.fronts", "intersect", _intersect_kind,
     lambda a, out: int(out is not None)),
    ("riemann.solve_grp", "deltashock.riemann", "solve_grp", None, None),
    ("evaluate.sample", "deltashock.evaluate", "sample", None,
     lambda a, out: int(np.size(out.xs))),
    ("evaluate.atoms_at", "deltashock.evaluate", "atoms_at", None, None),
    ("cli.parse_scenario", "deltashock.cli", "parse_scenario", None, None),
    ("cli.emit", "deltashock.cli", "emit", None,
     lambda a, out: sum(Path(p).stat().st_size for p in out)),
    ("cli.render_svg", "deltashock.cli", "render_svg", None, None),
) + tuple(
    (f"verify.{fn}", "deltashock.verify", fn, None, None)
    for fn in ("weak_residual", "mass_balance", "entropy_residual",
               "fan_approx_oracle", "compare_oracle", "random_test_functions",
               "overcompressibility_report")
)

_CURVED = ("WCurvedV", "WTildeCurvedV")

# (layer, deltashock.core class, method); the curved profiles are reported
# both on their own and as part of core.field_law
_METHODS = (
    tuple(("core.strength", c, "__call__")
          for c in ("ConstantStrength", "AffineStrength", "TabulatedStrength"))
    + tuple(("core.field_law", c, "__call__")
            for c in ("ConstLaw", "FanU", "FanExpV", "WStraightV"))
    + (("core.field_law.from_distance", "WStraightV", "from_distance"),)
    + tuple(("core.curved_profile", c, "__call__") for c in _CURVED)
    + tuple(("core.curved_profile.from_distance", c, "from_distance")
            for c in _CURVED)
)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    n = len(spans)
    dur = np.fromiter((s[END] - s[START] for s in spans), float, n)
    parent = np.fromiter((s[PARENT] for s in spans), int, n)
    child = np.zeros(n)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times over the spans inside units."""
    selfs = self_times(spans)
    agg: dict = {}
    run_anc = [-1] * len(spans)
    unit_s = 0.0
    run_s = 0.0
    run_ok_events = 0
    for i, s in enumerate(spans):
        p = s[PARENT]
        run_anc[i] = i if s[NAME] == "interact.run" else (run_anc[p] if p >= 0 else -1)
        if s[UNIT] is None:
            continue
        for k in _keys(s[NAME], s[TAG]):
            a = agg.setdefault(k, [0, 0.0, 0, 0])
            a[0] += 1
            a[1] += selfs[i]
            a[2] += int(s[FAILED])
            a[3] += s[POINTS]
        if s[NAME] == UNIT_SPAN:
            unit_s += s[END] - s[START]
        elif s[NAME] == "interact.run":
            run_s += s[END] - s[START]
            if not s[FAILED]:
                run_ok_events += s[POINTS]

    fields = ("calls", "self_s", "fails", "points")

    def get(layer, field):
        return agg.get(layer, [0, 0.0, 0, 0])[fields.index(field)]

    # intersect calls made inside runs that finished, for the event ratio
    ok_intersects = sum(
        1 for i, s in enumerate(spans)
        if s[UNIT] is not None and s[NAME] == "fronts.intersect"
        and run_anc[i] >= 0 and not spans[run_anc[i]][FAILED])
    hits = get("fronts.intersect", "points")
    calls = get("fronts.intersect", "calls")
    out = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in fields:
            out[name] = get(layer, field)
        elif name == "cli.emit.bytes":
            out[name] = get("cli.emit", "points")
    out["interact.run.op_share"] = run_s / unit_s if unit_s else 0.0
    out["interact.events_per_intersect"] = (run_ok_events / ok_intersects
                                            if ok_intersects else 0.0)
    out["fronts.intersect.hit_ratio"] = hits / calls if calls else 0.0
    out["trace.unit_s"] = unit_s
    return out


def _keys(name, tag) -> list:
    """Aggregation keys of one span: the curved profiles and every
    from_distance also count as core.field_law."""
    if name.startswith(("core.field_law", "core.curved_profile")):
        keys = ["core.field_law"]
        if name.endswith(".from_distance"):
            keys.append("core.field_law.from_distance")
        if name.startswith("core.curved_profile"):
            keys.append("core.curved_profile")
        return keys
    if name == "fronts.intersect":
        return [name, f"{name}.{tag}"]
    return [name]


def _layer(name, *fields):
    units = {"calls": "count", "self_s": "s", "fails": "count",
             "points": "count", "bytes": "B"}
    return [(f"{name}.{f}", units[f]) for f in fields]


# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    _layer("interact.run", "calls", "self_s", "fails")
    + [("interact.run.op_share", "ratio")]
    + _layer("interact.validate_scenario", "calls", "self_s", "fails")
    + [("interact.events_per_intersect", "ratio")]
    + _layer("fronts.intersect", "calls", "self_s")
    + [("fronts.intersect.hit_ratio", "ratio")]
    + _layer("fronts.intersect.line_sqrt", "calls", "self_s")
    + _layer("fronts.intersect.line_log", "calls", "self_s")
    + _layer("fronts.intersect.sqrt_log", "calls", "self_s")
    + _layer("riemann.solve_grp", "calls", "self_s")
    + _layer("core.strength", "calls", "points", "self_s", "fails")
    + _layer("core.field_law", "calls", "points", "self_s")
    + _layer("core.field_law.from_distance", "calls", "points", "self_s")
    + _layer("core.curved_profile", "calls", "points", "self_s")
    + _layer("evaluate.sample", "calls", "points", "self_s", "fails")
    + _layer("evaluate.atoms_at", "calls", "self_s")
    + _layer("cli.parse_scenario", "calls", "self_s")
    + _layer("cli.emit", "calls", "self_s", "bytes")
    + _layer("cli.render_svg", "calls", "self_s")
    + [m for fn in ("weak_residual", "mass_balance", "entropy_residual",
                    "fan_approx_oracle", "compare_oracle",
                    "random_test_functions", "overcompressibility_report")
       for m in _layer(f"verify.{fn}", "calls", "self_s")]
    + [("bench.unit.self_s", "s"), ("trace.unit_s", "s"), ("trace.ops", "count"),
       ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
       ("trace.overhead", "ratio"), ("sweep_track.census_fail_frac", "ratio")]
)
