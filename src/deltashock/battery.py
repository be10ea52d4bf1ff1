"""The fixed ten-scenario battery covering every interaction case and
sub-case.  Acceptance and verification suites run against exactly these."""

from __future__ import annotations

from .core import Scenario, State

BATTERY: dict[str, Scenario] = {
    # two delta shocks merging at (1/3, 1/2)
    "case1": Scenario(State(6, 1), State(3, 1), State(0, 1), offset=-1.0),
    # delta shock overtakes a contact, then absorbs the trailing shock
    "case2": Scenario(State(6, 1), State(2, 1), State(1, 1), offset=-1.0),
    # shock catches the delta from behind, contact follows through
    "case3": Scenario(State(4, 2), State(3.2, 1), State(1, 1), offset=+1.0),
    # delta crosses the whole fan while staying overcompressive
    "case4i": Scenario(State(4, 1), State(1, 1), State(1.5, 1), offset=-1.0),
    # breakdown inside the fan; both bifurcated fronts stay inside
    "case4iia": Scenario(State(4, 1.5), State(1, 0.8), State(4.5, 1.2), offset=-1.0),
    # breakdown, then the shock leaves the fan (contact stays inside)
    "case4iib": Scenario(State(4, 1), State(1, 1), State(3.5, 1), offset=-1.0),
    # breakdown, shock leaves before the contact would reach the edge
    "case4iic": Scenario(State(4, 1), State(1, 1), State(2.5, 1), offset=-1.0),
    # breakdown; the delta contact exits the fan, the shock never does
    "case5_bif_left": Scenario(State(-1, 1), State(4, 2), State(0, 0.7), offset=+1.0),
    # breakdown; contact exits first, then the shock exits too
    "case5_bif_mid": Scenario(State(1, 1), State(4, 1), State(0, 1), offset=+1.0),
    # the delta exits the fan before losing overcompressibility
    "case5_nobif": Scenario(State(3, 1), State(4, 1), State(0, 1), offset=+1.0),
}
