import math

import numpy as np
import pytest

from jclattice.operators import LatticeParams
from jclattice.ramp import (
    RampPlan,
    RampSchedule,
    optimal_index,
    trajectory_point,
)

from conftest import sweep_rate_at_gap, velocity_at_value


def test_value_endpoints_and_midpoints():
    s = RampSchedule(0.2, 0.8, 1.0)
    assert s.value_at_fraction(0.0) == pytest.approx(0.2)
    assert s.value_at_fraction(1.0) == pytest.approx(0.8)
    assert s.value_at_fraction(0.5) == pytest.approx(0.5)
    quad = RampSchedule(0.0, 0.5, 2.0)
    assert quad.value_at_fraction(0.5) == pytest.approx(0.125)


def test_value_domain_error():
    s = RampSchedule(0.0, 1.0)
    with pytest.raises(ValueError):
        s.value_at_fraction(-0.1)
    with pytest.raises(ValueError):
        s.value_at_fraction(1.1)


def test_value_monotone_in_time():
    for r in (0.3, 1.0, 1.7, 4.0):
        up = RampSchedule(0.1, 0.9, r)
        down = RampSchedule(0.9, 0.1, r)
        ts = np.linspace(0, 3.0, 101)
        vu = [up.value_at_fraction(t / 3.0) for t in ts]
        vd = [down.value_at_fraction(t / 3.0) for t in ts]
        assert all(np.diff(vu) > 0)
        assert all(np.diff(vd) < 0)


def test_velocity_linear_is_constant():
    s = RampSchedule(0.1, 0.7, 1.0)
    for p in (0.1, 0.3, 0.7):
        assert velocity_at_value(s, p, 6.0) == pytest.approx(0.1)


def test_velocity_benchmark_value_at_gap():
    s = RampSchedule(0.0, 0.5, 1.41)
    v = velocity_at_value(s, 0.122, 15 * math.pi)
    assert v == pytest.approx(0.0099, abs=2e-4)


def test_velocity_edge_behavior():
    assert velocity_at_value(RampSchedule(0.0, 0.5, 2.0), 0.0, 1.0) == 0.0
    assert velocity_at_value(RampSchedule(0.0, 0.5, 0.5), 0.0, 1.0) == math.inf
    assert velocity_at_value(RampSchedule(0.5, 0.0, 0.5), 0.5, 1.0) == -math.inf
    assert velocity_at_value(RampSchedule(0.3, 0.3, 2.0), 0.3, 1.0) == 0.0
    with pytest.raises(ValueError):
        velocity_at_value(RampSchedule(0.0, 0.5), 0.6, 1.0)


def test_velocity_sign_for_decreasing_ramp():
    s = RampSchedule(0.5, 0.0, 0.7)
    assert velocity_at_value(s, 0.3, 4.0) < 0


def test_velocity_matches_finite_differences():
    T = 7.0
    rng = np.random.default_rng(11)
    for s in (RampSchedule(0.0, 0.5, 1.41), RampSchedule(0.5, 0.0, 0.234),
              RampSchedule(-0.2, 0.9, 2.5), RampSchedule(1.0, 0.1, 0.6)):
        for _ in range(25):
            t = rng.uniform(0.05, 0.95) * T
            h = 1e-6 * T
            fd = (s.value_at_fraction((t + h) / T)
                  - s.value_at_fraction((t - h) / T)) / (2 * h)
            v = velocity_at_value(s, s.value_at_fraction(t / T), T)
            assert v == pytest.approx(fd, rel=1e-6)


def test_velocity_minimized_at_optimal_index():
    # v(r_min) <= v(r_min +/- 0.05) at the benchmark gap positions
    for (p0, pT, pg) in ((0.0, 0.5, 0.122), (0.5, 0.0, 0.104)):
        r_min = optimal_index(p0, pT, pg)
        T = 15 * math.pi

        def vel(r):
            return abs(velocity_at_value(RampSchedule(p0, pT, r), pg, T))

        assert vel(r_min) <= vel(r_min + 0.05)
        assert vel(r_min) <= vel(r_min - 0.05)


def test_optimal_index_benchmark_values():
    assert optimal_index(0.0, 0.5, 0.122) == pytest.approx(1.41, abs=0.01)
    assert optimal_index(0.5, 0.0, 0.104) == pytest.approx(0.234, abs=0.002)
    assert optimal_index(0.0, 1.0, 1.0 / math.e) == pytest.approx(1.0, abs=1e-12)


def test_optimal_index_domain():
    with pytest.raises(ValueError):
        optimal_index(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        optimal_index(0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        optimal_index(0.0, 0.5, 0.7)
    with pytest.raises(ValueError):
        optimal_index(0.5, 0.5, 0.5)


def sf_mi_plan(rg=1.0, rj=1.0, T=15 * math.pi):
    return RampPlan(
        RampSchedule(0.0, 1.0, rg), RampSchedule(0.5, 0.0, rj),
        RampSchedule(0.0, 0.0), T,
    )


def test_trajectory_endpoints():
    plan = sf_mi_plan()
    p0 = trajectory_point(plan, 0.0)
    p1 = trajectory_point(plan, 1.0)
    assert (p0.g, p0.J) == (0.0, 0.5)
    assert (p1.g, p1.J) == pytest.approx((1.0, 0.0))


def test_trajectory_invariant_under_index_scaling():
    a = sf_mi_plan(1.0, 1.0)
    b = sf_mi_plan(2.0, 2.0)
    for s in np.linspace(0, 1, 17):
        pa, pb = trajectory_point(a, s), trajectory_point(b, s)
        assert abs(pa.g - pb.g) < 1e-12
        assert abs(pa.J - pb.J) < 1e-12


def test_trajectory_ratio_two_against_time_elimination():
    # r_g/r_J = 2 with J: 0.5 -> 0, g: 0 -> 1; eliminate t directly
    plan = sf_mi_plan(rg=2.0, rj=1.0)
    # at J = 0.25 the J-fraction is 1/2, so t/T = 1/2 and g = (1/2)^2
    s_at_quarter = None
    for s in np.linspace(0, 1, 100001):
        if abs(trajectory_point(plan, float(s)).J - 0.25) < 1e-5:
            s_at_quarter = float(s)
            break
    assert s_at_quarter is not None
    g_found = trajectory_point(plan, s_at_quarter).g
    assert g_found == pytest.approx(0.25, abs=1e-4)
    # independent oracle: sample p(t) on a fine time grid and interpolate
    T = plan.total_time
    ts = np.linspace(0, T, 200001)
    js = np.array([plan.J.value_at_fraction(t / T) for t in ts])
    gs = np.array([plan.g.value_at_fraction(t / T) for t in ts])
    g_interp = np.interp(0.25, js[::-1], gs[::-1])
    assert g_found == pytest.approx(g_interp, abs=1e-4)


def test_trajectory_constant_plan_passthrough():
    plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.2, 0.2),
                    RampSchedule(-0.1, -0.1), 5.0)
    p = trajectory_point(plan, 0.7)
    assert (p.g, p.J, p.delta) == (1.0, 0.2, -0.1)


def test_reference_parameter_prefers_largest_span_then_j():
    assert sf_mi_plan().reference_parameter() == "g"  # |1.0| > |0.5|
    plan = RampPlan(RampSchedule(0.0, 0.5), RampSchedule(0.0, 0.5),
                    RampSchedule(0.0, 0.0), 1.0)
    assert plan.reference_parameter() == "J"  # tie -> J


def gap_point(plan, s):
    return trajectory_point(plan, s)


def test_sweep_rate_single_parameter():
    plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.5, 1.41),
                    RampSchedule(0.0, 0.0), 15 * math.pi)
    at_gap = LatticeParams(g=1.0, J=0.122, delta=0.0)
    rate = sweep_rate_at_gap(plan, at_gap, {"J": -3.0})
    assert rate.total == pytest.approx(rate.velocities["J"] * -3.0)
    assert rate.ratio_g_over_j is None


def test_sweep_rate_eq14_identity():
    plan = sf_mi_plan(rg=2.0, rj=1.0)
    s_gp = 0.79
    at_gap = trajectory_point(plan, s_gp)
    rate = sweep_rate_at_gap(plan, at_gap, {"g": 1.3, "J": -2.1})
    assert rate.ratio_g_over_j == pytest.approx(rate.ratio_g_over_j_trajectory,
                                                rel=1e-10)
    # doubling both indices at fixed ratio leaves the ratio unchanged
    doubled = sf_mi_plan(rg=4.0, rj=2.0)
    rate2 = sweep_rate_at_gap(doubled, trajectory_point(doubled, s_gp),
                              {"g": 1.3, "J": -2.1})
    assert rate2.ratio_g_over_j == pytest.approx(rate.ratio_g_over_j, rel=1e-10)


def test_plan_validation():
    with pytest.raises(ValueError):
        RampSchedule(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        RampPlan(RampSchedule(1, 1), RampSchedule(0, 0.5),
                 RampSchedule(0, 0), 0.0)
