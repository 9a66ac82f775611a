"""Power-law parameter ramps, trajectory geometry and sweep rates.

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

PARAM_IDS = ("g", "J", "delta")


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

    def velocity_at_value(self, p: float, total_time: float) -> float:
        """dp/dt expressed as a function of the current value p.

        Signed form of the power-law derivative, exact for decreasing
        ramps: r |p-p0|^((r-1)/r) |pT-p0|^(1/r) sign(pT-p0) / T.
        At p = p0 the derivative is 0 for r > 1 and divergent (returned
        as signed inf) for r < 1.
        """
        p0, pT, r = self.start, self.stop, self.index
        if p0 == pT:
            return 0.0
        lo, hi = min(p0, pT), max(p0, pT)
        if not lo <= p <= hi:
            raise ValueError(f"p={p} outside ramp range [{lo}, {hi}]")
        sign = 1.0 if pT > p0 else -1.0
        if p == p0:
            if r > 1.0:
                return 0.0
            if r < 1.0:
                return sign * math.inf
        return (
            r
            * abs(p - p0) ** ((r - 1.0) / r)
            * abs(pT - p0) ** (1.0 / r)
            * sign
            / total_time
        )


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


@dataclass(frozen=True)
class SweepRate:
    """Hamiltonian sweeping rate <dH/dt> decomposed at the gap."""

    total: float
    velocities: dict
    ratio_g_over_j: float | None
    ratio_g_over_j_trajectory: float | None


def sweep_rate_at_gap(plan: RampPlan, gap_params: LatticeParams, partials: dict) -> SweepRate:
    """H'_gp = sum_p p'(p_gp) <dH/dp>_gp from ground-state partials.

    `partials` maps parameter ids to <dH/dp> at the gap: for this model
    I_J = -<hopping>, I_g = <coupling>, I_delta = <total photon number>.
    Also reports g'/J' both directly and through the trajectory identity
    g'/J' = (r_g/r_J) (g_gp - g0) / (J_gp - J0), which must agree whenever
    both parameters vary.
    """
    values = {"g": gap_params.g, "J": gap_params.J, "delta": gap_params.delta}
    velocities = {}
    total = 0.0
    for name in PARAM_IDS:
        sched = getattr(plan, name)
        v = sched.velocity_at_value(values[name], plan.total_time)
        velocities[name] = v
        if v != 0.0:
            if name not in partials:
                raise KeyError(f"missing <dH/d{name}> for varying parameter")
            total += v * partials[name]

    ratio = ratio_traj = None
    if plan.J.varies and velocities["J"] != 0.0 and plan.g.varies:
        ratio = velocities["g"] / velocities["J"]
        ratio_traj = (
            (plan.g.index / plan.J.index)
            * (values["g"] - plan.g.start)
            / (values["J"] - plan.J.start)
        )
    return SweepRate(total, velocities, ratio, ratio_traj)
