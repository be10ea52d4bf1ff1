"""Exact front tracking for delta shock wave interactions in the system
u_t + (u^2/2)_x = 0,  v_t + ((u-1)v)_x = 0.

Construct global weak solutions for three-state interaction scenarios,
sample them pointwise, and verify them against independent distributional
residual, mass-balance, entropy and fan-approximation oracles.
"""

from .core import (
    AffineStrength,
    ConstantStrength,
    Front,
    FrontKind,
    Line,
    LogCurve,
    Point,
    Region,
    Scenario,
    Solution,
    SqrtCurve,
    State,
    TabulatedStrength,
)
from .riemann import (
    WaveCase,
    WaveFan,
    classify,
    rh_deficit,
    solve_grp,
    v_star,
)
from .fronts import (
    breakdown_time,
    characteristic_in_fan,
    fan_delta_trajectory,
    intersect,
)
from .interact import (
    RESOLUTION_RULES,
    ScenarioError,
    TrackingError,
    fan_solution,
    run,
    validate_scenario,
)
from .evaluate import Atom, Sample, atoms_at, sample
from .battery import BATTERY

__version__ = "1.0.0"

__all__ = [
    "AffineStrength", "Atom", "BATTERY", "ConstantStrength", "Front",
    "FrontKind", "Line", "LogCurve", "Point", "Region", "RESOLUTION_RULES",
    "Sample", "Scenario", "ScenarioError", "Solution", "SqrtCurve", "State",
    "TabulatedStrength", "TrackingError", "WaveCase", "WaveFan",
    "atoms_at", "breakdown_time",
    "characteristic_in_fan", "classify",
    "fan_delta_trajectory", "fan_solution", "intersect", "rh_deficit", "run",
    "sample", "solve_grp", "v_star", "validate_scenario",
]
