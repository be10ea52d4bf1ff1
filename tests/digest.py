"""Bit-identity digest of the battery's outputs.

Per battery scenario, prints one sha256 over

- the six files ``emit`` writes (events.json, fronts.csv, u.csv, v.csv,
  atoms.csv, diagram.svg), by name and bytes;
- ``sample`` and ``atoms_at`` at fixed times that include every event time
  and every epoch start, on a fixed x grid plus the event positions;
- 200 ``weak_residual`` values (R_u and R_v against 100 seeded test
  functions), each as ``float.hex``.

A change that should keep every output bit-identical prints the same lines
before and after.  Not a pytest module; run it as

    PYTHONPATH=src python tests/digest.py [scenario ...]
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from deltashock.battery import BATTERY
from deltashock.cli import emit
from deltashock.evaluate import atoms_at, sample
from deltashock.interact import run
from deltashock.verify import random_test_functions, weak_residual

_XS = np.linspace(-5.0, 30.0, 141)
_TEST_FUNCTIONS = 100


def digest(sol) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as d:
        for p in sorted(emit(sol, d, svg=True)):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    events = [ev.t for ev in sol.events if ev.t > 0.0]
    starts = [ep.t0 for ep in sol.epochs if ep.t0 > 0.0]
    ts = np.unique(np.concatenate(
        [np.linspace(0.05, sol.t_max_computed, 20), events, starts]))
    xs = np.concatenate([_XS, [ev.x for ev in sol.events]])
    for t in ts.tolist():
        s = sample(sol, t, xs)
        h.update(s.u_vals.tobytes() + s.v_regular_vals.tobytes())
        for a in (*s.atoms, *atoms_at(sol, t)):
            h.update(f"{a.front_id}:{a.x.hex()},{a.alpha.hex()},"
                     f"{a.alpha0.hex()},{a.alpha1.hex()};".encode())
    for phi in random_test_functions(sol, _TEST_FUNCTIONS, seed=0):
        h.update(",".join(float(r).hex() for r in weak_residual(sol, phi)).encode())
    return h.hexdigest()


def main(names) -> int:
    for name in names or BATTERY:
        print(name, digest(run(BATTERY[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
