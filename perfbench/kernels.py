"""Kernel microbenchmarks on a workload's own operators.

Each kernel is timed as the median of a few repeats, in the order a driver
uses it: basis enumeration and ``HamiltonianTemplates`` (setup), then, at
the MI->SF symmetric-gap point, ``data_for`` (H(t) data), the complex
sparse matvec of an RK4 stage, ``params_at_fraction`` on the workload's
ramp plan, one ``ground_state`` and one cold-started ``symmetric_pair``.

The matvec's bytes are computed, not measured: float64 data and int32
column indices per nonzero (12 bytes), int32 row pointers, and a complex
input and output vector (32 bytes a row). Its operations are the 4 flops a
real nonzero costs on a complex vector.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from jclattice.basis import LatticeShape, enumerate_basis
from jclattice.operators import HamiltonianTemplates
from jclattice.spectrum import ground_state, symmetric_pair

GAP_POINT = (1.0, 0.12133, 0.0)  # (g, J, Delta), MI->SF gap minimum at L = 6
PLAN_SAMPLES = 3000


def _median_s(fn, reps: int, inner: int = 1) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - started) / inner)
    return statistics.median(times)


def measure(cfg, tiny: bool) -> dict:
    shape = LatticeShape(cfg.sites, cfg.excitations)
    table = enumerate_basis(shape)
    reps = 1 if tiny else (5 if table.dim < 10000 else 3)
    enumerate_s = _median_s(lambda: enumerate_basis(shape), reps)
    templates_s = _median_s(lambda: HamiltonianTemplates(table), reps)
    templates = HamiltonianTemplates(table)

    g, J, delta = GAP_POINT
    data_for_s = _median_s(lambda: templates.data_for(g, J, delta), reps, 100)
    h = templates.assemble(g, J, delta)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(table.dim) + 1j * rng.standard_normal(table.dim)
    matvec_s = _median_s(lambda: h @ vec, reps, 100)
    fractions = [k / PLAN_SAMPLES for k in range(PLAN_SAMPLES)]
    plan = cfg.plan
    params_s = _median_s(
        lambda: [plan.params_at_fraction(u) for u in fractions], reps
    ) / PLAN_SAMPLES
    h_copy = templates.assemble_copy(g, J, delta)
    ground_s = _median_s(lambda: ground_state(h_copy), reps)
    pair_s = _median_s(lambda: symmetric_pair(h_copy, templates.translation),
                       reps)

    nnz, dim = h.nnz, table.dim
    matvec_bytes = nnz * 12 + (dim + 1) * 4 + dim * 32
    return {
        "basis.dim": {"value": dim, "unit": "count"},
        "basis.enumerate_ms": {"value": 1e3 * enumerate_s, "unit": "ms"},
        "operators.templates_ms": {"value": 1e3 * templates_s, "unit": "ms"},
        "operators.data_for_us": {"value": 1e6 * data_for_s, "unit": "us"},
        "operators.matvec_us": {"value": 1e6 * matvec_s, "unit": "us"},
        "operators.h_nnz": {"value": nnz, "unit": "count"},
        "operators.matvec_bytes": {"value": matvec_bytes, "unit": "bytes"},
        "operators.matvec_ops_per_byte": {"value": 4 * nnz / matvec_bytes,
                                          "unit": "ops/byte"},
        "ramp.params_at_fraction_us": {"value": 1e6 * params_s, "unit": "us"},
        "spectrum.ground_state_ms": {"value": 1e3 * ground_s, "unit": "ms"},
        "spectrum.symmetric_pair_ms": {"value": 1e3 * pair_s, "unit": "ms"},
    }
