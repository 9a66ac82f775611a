#!/usr/bin/env python3
"""Benchmark of the jclattice CLI drivers, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ramp --seed 0 --seconds 40 --trace 0

Every iteration starts a fresh interpreter (``perfbench/workload.py``) that
calls ``jclattice.cli.main`` the way the ``jclattice`` console script does,
checks the CSV it wrote, and reports its own timings. Iterations repeat
while one more is expected to end within ``--seconds`` (at least one
runs).

``--trace 0`` prints the end-to-end metrics of untraced iterations.
``--trace 1`` runs one untraced iteration (baseline wall time and kernel
microbenchmarks) and one traced iteration (spans around the package's
public functions), and prints the per-layer metrics. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON record of the
machine, every sample and every checked physics value.

This script uses the standard library only; the workload runs in the
child. ``BENCHMARK.json`` and ``perfbench/NOTES.md`` say why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

DEFAULT_SEED = 0
DEADLINE_S = 170.0  # the whole command must end within 180 s
SEED_SHIFT = 0.1  # share of a grid axis by which a seed moves its upper bound

class Workload(NamedTuple):
    runs: tuple  # (CLI subcommand, config) pairs, run in one process
    threads: int  # fork-pool workers (--threads)
    axes: tuple  # grid axes whose points the seed places
    initial_state: bool  # setup includes the driver's initial state
    setup_reps: int  # setup repeats per iteration, for setup_s


WORKLOADS = {
    "ramp": Workload((("ramp", "configs/ramp_mi_sf.cfg"),), 1, (), True, 60),
    "gap": Workload((("gap-scan", "configs/gap_mi_sf.cfg"),
                     ("gap-scan", "configs/gap_sf_mi.cfg")), 1, (), False, 6),
    "rho1_l7": Workload((("rho1-map", "perfbench/configs/rho1_l7.cfg"),), 2,
                        ("J", "d"), False, 1),
}

# L = 4 (192 states) versions of each workload, for the smoke test only.
TINY = {
    "ramp": {"L": "4", "N": "4", "T": "2pi", "steps": "500", "tol": "1e-3",
             "checkpoints": "5"},
    "gap": {"L": "4", "N": "4", "resolution": "17"},
    "rho1_l7": {"L": "4", "N": "4", "rho_j": "3", "J_points": "2",
                "d_points": "2"},
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def read_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                key, value = (part.strip() for part in stripped.split("=", 1))
                pairs.append((key, value))
    return pairs


def seeded_axes(pairs, axes, seed: int, name: str) -> dict:
    """Grid bounds for `seed` inside each configured [min, max] range.

    The default seed keeps the shipped bounds. Any other seed draws the
    upper bound from the top tenth of the range and keeps the lower bound,
    so the points stay inside the range, keep their count and keep the
    first row (J = 0 for rho1_l7, where rho1 must vanish). Wider placements
    let the eigensolver's work swing by half between seeds, which the
    run-to-run spread would then measure instead of the program.
    """
    if seed == DEFAULT_SEED:
        return {}
    raw = dict(pairs)
    rng = random.Random(f"{name}:{seed}")
    out = {}
    for axis in axes:
        lo, hi = float(raw[f"{axis}_min"]), float(raw[f"{axis}_max"])
        out[f"{axis}_max"] = repr(hi - rng.random() * SEED_SHIFT * (hi - lo))
    return out


def write_job(name: str, seed: int, tiny: bool, run_dir: str) -> dict:
    workload = WORKLOADS[name]
    job_runs = []
    seeded = False
    for k, (command, base) in enumerate(workload.runs):
        pairs = read_config(os.path.join(ROOT, base))
        overrides = seeded_axes(pairs, workload.axes, seed, name)
        seeded = seeded or bool(overrides)
        if tiny:
            overrides.update(TINY[name])
        overrides.pop("out", None)
        lines = [f"{key} = {value}" for key, value in pairs
                 if key not in overrides and key != "out"]
        lines += [f"{key} = {value}" for key, value in overrides.items()]
        cfg_path = os.path.join(run_dir, f"{name}_{k}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        job_runs.append({
            "command": command, "config": cfg_path,
            "out": os.path.join(run_dir, f"{name}_{k}.csv"),
        })
    return {
        "workload": name, "seed": seed, "tiny": tiny, "src": SRC,
        "runs": job_runs, "threads": workload.threads,
        # the paper's numbers hold only for the shipped L = 6 inputs
        "paper_checks": not (tiny or seeded),
        "initial_state": workload.initial_state,
        "setup_reps": 1 if tiny else workload.setup_reps,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One BLAS thread per process, so pool workers x BLAS threads <= nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job: dict, run_dir: str, tag: str, deadline: float) -> dict:
    """One iteration in a fresh interpreter; returns its report.

    The report gains `wall_s`, from just before the interpreter is started
    to the moment the last result CSV was written. A child that crashes,
    exits non-zero or runs past the deadline yields ``{"ok": False}``.
    """
    job_path = os.path.join(run_dir, f"job_{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), job_path]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=run_dir,
                            env=child_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"ok": False, "errors": ["timed out"]}
    _kill_group(proc.pid)  # pool workers the child left behind, if any
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "errors": [f"exit {proc.returncode}, no report"]}
    if proc.returncode != 0:
        report["ok"] = False
        report.setdefault("errors", []).append(f"exit {proc.returncode}")
    report["wall_s"] = report["t_done"] - started
    return report


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def room_for_another(elapsed: float, lengths: list, seconds: float,
                     left: float) -> bool:
    """Whether one more iteration, as long as the median one so far, ends
    within `seconds` and before the deadline."""
    typical = statistics.median(lengths)
    return elapsed + typical <= seconds and typical < left


def median(values):
    return statistics.median(values) if values else None


def end_to_end(reports: list) -> tuple[dict, dict]:
    timed = [r for r in reports if "t_done" in r]
    values = {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [s for r in timed for s in r["setup_s"]],
        "cpu_s": [r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    metrics = {name: {"value": median(values[name]), "unit": unit}
               for name, unit in END_TO_END}
    counts = {name: len(v) for name, v in values.items()}
    return metrics, counts


def per_layer(base: dict, traced: dict) -> dict:
    """Traced-run layers, untraced kernels and the tracing overhead."""
    if "kernels" not in base or "layers" not in traced:
        return {}
    metrics = dict(traced["layers"])
    metrics.update(base["kernels"])
    metrics["trace.overhead_s"] = {
        "value": traced["wall_s"] - base["wall_s"], "unit": "s"}
    return metrics


def machine(reports: list, name: str) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "pool_workers": WORKLOADS[name].threads,
        "git_commit": _git_commit(),
    }
    for r in reports:
        info.update(r.get("versions", {}))
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r",
                      encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="L = 4 inputs and invariant checks (smoke test)")
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "jclattice", "cli.py")]
    needed += [os.path.join(ROOT, base)
               for _, base in WORKLOADS[args.workload].runs]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not a jclattice checkout, missing {missing}",
              file=sys.stderr)
        return 2

    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    run_dir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        job = write_job(args.workload, args.seed, args.tiny, run_dir)
        if args.trace:
            base = run_child(dict(job, kernels=True), run_dir, "base", deadline)
            traced = run_child(dict(job, setup_reps=0, trace_dir=run_dir),
                               run_dir, "traced", deadline)
            reports = [base, traced]
            metrics = per_layer(base, traced)
            counts = {}
        else:
            reports, lengths = [], []
            while not reports or room_for_another(
                    time.monotonic() - begin, lengths, args.seconds,
                    deadline - time.monotonic()):
                started = time.monotonic()
                reports.append(run_child(job, run_dir, str(len(reports)),
                                         deadline))
                lengths.append(time.monotonic() - started)
            metrics, counts = end_to_end(reports)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    failed = sum(1 for r in reports if not r.get("ok"))
    for name, entry in sorted(metrics.items()):
        n = f" (median of {counts[name]})" if name in counts else ""
        print(f"{args.workload} {name} = {entry['value']} {entry['unit']}{n}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "failed_ratio": failed / len(reports),
        "machine": machine(reports, args.workload),
        "samples": counts, "iterations": reports,
    }
    print(json.dumps({"record": record}))
    complete = bool(metrics) and all(
        entry["value"] is not None for entry in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
