"""Set-up probe: a fresh interpreter does one workload's set-up and prints
the CLOCK_MONOTONIC time at which its first op could start.

Run as ``python3 bench/probe.py <workload>`` from the repository root; the
caller reads the clock before starting it, so the difference is the set-up
time a user pays, interpreter start-up included.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (bench/ is sys.path[0])

WORKLOADS[sys.argv[1]]().setup()
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
