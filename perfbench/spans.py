"""Span tracer for the benchmark's traced iteration.

``install`` wraps, from outside the package, the public functions that the
CLI drivers call into; nothing under ``src/`` changes. Each call records
one span: name, start, end, parent span, process id and run id. Spans stay
in memory. The main process writes them when the run ends; a fork-pool
worker writes its own each time its outermost traced call returns, because
the pool terminates workers and they never reach an exit hook. Workers
inherit the wrappers and the open span stack through fork, so their spans
name the driver span that started the pool as parent.

A span's self time is its duration minus the part of it that its child
spans cover (children may run in parallel in pool workers).
"""

from __future__ import annotations

import functools
import glob
import inspect
import itertools
import json
import os
import sys
import time
import uuid
from collections import defaultdict

# (module, function, span name). `write_csv` lives in `config` but is the
# sweeps layer's output step.
TRACED = (
    ("basis", "enumerate_basis", "basis.enumerate_basis"),
    ("operators", "build_correlator", "operators.build_correlator"),
    ("states", "mi_ground_state", "states.mi_ground_state"),
    ("states", "sf_ground_state", "states.sf_ground_state"),
    ("propagate", "evolve", "propagate.evolve"),
    ("propagate", "evolve_dissipative", "propagate.evolve_dissipative"),
    ("spectrum", "ground_state", "spectrum.ground_state"),
    ("spectrum", "symmetric_pair", "spectrum.symmetric_pair"),
    ("spectrum", "gap_scan", "spectrum.gap_scan"),
    ("sweeps", "run_ramp", "sweeps.run_ramp"),
    ("sweeps", "run_gap_scan", "sweeps.run_gap_scan"),
    ("sweeps", "run_phase_diagram", "sweeps.run_phase_diagram"),
    ("sweeps", "run_rho1_map", "sweeps.run_rho1_map"),
    ("config", "write_csv", "sweeps.write_csv"),
    ("cli", "main", "cli.main"),
)
EVOLVE = ("propagate.evolve", "propagate.evolve_dissipative")
INITIAL_STATE = ("states.mi_ground_state", "states.sf_ground_state")


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.run_id = uuid.uuid4().hex
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.outer = 0  # stack depth inherited from the parent process
        self._ids = itertools.count()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.pid = os.getpid()
        self.spans = []
        self.outer = len(self.stack)
        self._ids = itertools.count()

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id, "pid": self.pid,
                    "id": f"{self.pid}:{next(self._ids)}",
                    "parent": self.stack[-1] if self.stack else None}
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span.update(annotate(args, kwargs, result))
                return result
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
                if self.pid != self.main_pid and len(self.stack) == self.outer:
                    self.flush()

        return traced

    def flush(self):
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)
        self.spans = []


def _evolve_steps(fn):
    """Annotate an evolve span with its accepted and integrated RK4 steps.

    The integrator doubles the step count from `initial_steps` until the
    tolerance is met, so the steps integrated over all attempts are
    initial + 2 initial + ... + accepted = 2 accepted - initial.
    """
    signature = inspect.signature(fn)

    def annotate(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        initial = int(bound.arguments["initial_steps"])
        return {"steps_accepted": result.step_count,
                "steps_integrated": 2 * result.step_count - initial}

    return annotate


def install(tracer: Tracer) -> None:
    """Replace every binding of the TRACED functions inside the package.

    The drivers import names with ``from .x import f``, so each module's
    own binding is replaced, not only the defining one.
    """
    package = [module for name, module in sys.modules.items()
               if name == "jclattice" or name.startswith("jclattice.")]
    for module, attr, name in TRACED:
        original = getattr(sys.modules[f"jclattice.{module}"], attr)
        annotate = _evolve_steps(original) if name in EVOLVE else None
        wrapped = tracer.wrap(original, name, annotate)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    templates = sys.modules["jclattice.operators"].HamiltonianTemplates
    templates.__init__ = tracer.wrap(templates.__init__,
                                     "operators.HamiltonianTemplates")


def load(out_dir: str) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _self_times(spans) -> dict:
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def summarize(spans, main_pid: int, workers: int):
    """Per-layer metrics and a self-time breakdown of one traced run."""
    self_time = _self_times(spans)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def of(names):
        return [s for n in names for s in named.get(n, ())]

    def total(*names):
        return sum(s["end"] - s["start"] for s in of(names))

    def own(*names):
        return sum(self_time[s["id"]] for s in of(names))

    def count(*names):
        return len(of(names))

    evolves = of(EVOLVE)
    integrated = sum(s.get("steps_integrated", 0) for s in evolves)
    accepted = sum(s.get("steps_accepted", 0) for s in evolves)
    evolve_self = own(*EVOLVE)

    worker_spans = [s for s in spans if s["pid"] != main_pid]
    roots = [s for s in worker_spans
             if (s["parent"] or "").split(":")[0] != str(s["pid"])]
    busy = sum(s["end"] - s["start"] for s in roots)
    if roots:
        pool_wall = max(s["end"] for s in roots) - min(s["start"] for s in roots)
        idle = workers * pool_wall - busy
    else:
        idle = 0.0

    def metric(value, unit):
        return {"value": value, "unit": unit}

    layers = {
        "basis.enumerate_s": metric(total("basis.enumerate_basis"), "s"),
        "operators.templates_s": metric(
            total("operators.HamiltonianTemplates"), "s"),
        "operators.correlator_s": metric(
            total("operators.build_correlator"), "s"),
        "states.initial_state_s": metric(total(*INITIAL_STATE), "s"),
        "propagate.evolve_self_s": metric(evolve_self, "s"),
        "propagate.evolve_calls": metric(count(*EVOLVE), "count"),
        "propagate.steps_integrated": metric(integrated, "count"),
        "propagate.steps_accepted": metric(accepted, "count"),
        # 0 where the workload integrates nothing
        "propagate.step_yield": metric(
            accepted / integrated if integrated else 0.0, "ratio"),
        "propagate.step_us": metric(
            1e6 * evolve_self / integrated if integrated else 0.0, "us"),
        "spectrum.symmetric_pair_s": metric(
            total("spectrum.symmetric_pair"), "s"),
        "spectrum.symmetric_pair_calls": metric(
            count("spectrum.symmetric_pair"), "count"),
        "spectrum.gap_scan_self_s": metric(own("spectrum.gap_scan"), "s"),
        "spectrum.ground_state_s": metric(total("spectrum.ground_state"), "s"),
        "spectrum.ground_state_calls": metric(
            count("spectrum.ground_state"), "count"),
        "sweeps.pool_busy_s": metric(busy, "s"),
        "sweeps.pool_idle_s": metric(idle, "s"),
        "sweeps.write_s": metric(total("sweeps.write_csv"), "s"),
        "trace.worker_spans": metric(len(worker_spans), "count"),
    }

    by_layer = defaultdict(float)
    for span in spans:
        by_layer[span["name"].split(".")[0]] += self_time[span["id"]]
    all_self = sum(by_layer.values()) or 1.0
    info = {
        "run_ids": sorted({s["run"] for s in spans}),
        "spans": len(spans),
        "worker_pids": len({s["pid"] for s in worker_spans}),
        "self_s_by_span": {n: own(n) for n in sorted(named)},
        "self_share_by_layer": {layer: t / all_self
                                for layer, t in sorted(by_layer.items())},
    }
    return layers, info
