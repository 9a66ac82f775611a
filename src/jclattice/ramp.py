"""Power-law parameter ramps and trajectory geometry.

A parameter follows p(t) = p(0) [1 - (t/T)^r] + p(T) (t/T)^r with ramping
index r > 0. The trajectory traced in (g, J, Delta) space depends only on
the ratios of the ramping indices; an individual index controls how fast
the trajectory is traversed, and the index minimizing the parameter
velocity at a given gap position is log[(p(T)-p(0))/(p_gp-p(0))] with the
natural logarithm (the benchmark values 1.41 and 0.234 pin the base).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .operators import LatticeParams


@dataclass(frozen=True)
class RampSchedule:
    """One parameter's ramp: start value, target value, ramping index."""

    start: float
    stop: float
    index: float = 1.0

    def __post_init__(self):
        if not self.index > 0:
            raise ValueError(f"ramping index must be positive, got {self.index}")

    @property
    def varies(self) -> bool:
        return self.start != self.stop

    def value_at_fraction(self, u: float) -> float:
        """p = p0 + (pT - p0) u^r at the time fraction u = t/T."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"fraction {u} outside [0, 1]")
        return self.start + (self.stop - self.start) * u**self.index


@dataclass(frozen=True)
class RampPlan:
    """Schedules for g, J, Delta sharing one total ramp time."""

    g: RampSchedule
    J: RampSchedule
    delta: RampSchedule
    total_time: float

    def __post_init__(self):
        if not self.total_time > 0:
            raise ValueError("total ramp time must be positive")

    def params_at_fraction(self, u: float) -> LatticeParams:
        return LatticeParams(
            g=self.g.value_at_fraction(u),
            J=self.J.value_at_fraction(u),
            delta=self.delta.value_at_fraction(u),
        )

    def reference_parameter(self) -> str | None:
        """Varying parameter with the largest span; J wins ties."""
        best, span = None, -1.0
        for name in ("J", "g", "delta"):  # tie preference order
            sched = getattr(self, name)
            if sched.varies and abs(sched.stop - sched.start) > span:
                best, span = name, abs(sched.stop - sched.start)
        return best


def optimal_index(p0: float, pT: float, p_gp: float) -> float:
    """Ramping index minimizing the parameter velocity at the gap.

    r_min = ln[(pT - p0) / (p_gp - p0)]; requires p_gp strictly between
    the endpoints (the ratio is then > 1 for either ramp direction).
    """
    span = pT - p0
    offset = p_gp - p0
    if span == 0.0:
        raise ValueError("constant parameter has no optimal index")
    if offset == 0.0 or not span / offset > 1.0:
        raise ValueError(
            f"gap value {p_gp} not strictly between endpoints ({p0}, {pT})"
        )
    return math.log(span / offset)


def trajectory_point(plan: RampPlan, s: float) -> LatticeParams:
    """Parameters at normalized trajectory progress s in [0, 1].

    s is the normalized progress of the reference parameter; all varying
    parameters satisfy [(p-p0)/(pT-p0)]^(1/r_p) equal, so the point depends
    only on index ratios. Constant parameters pass through unchanged, and a
    fully constant plan is returned as-is for any s.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"trajectory coordinate {s} outside [0, 1]")
    ref = plan.reference_parameter()
    if ref is None:
        return plan.params_at_fraction(0.0)
    u = s ** (1.0 / getattr(plan, ref).index)
    return plan.params_at_fraction(u)
