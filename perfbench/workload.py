"""One benchmark iteration, in the fresh interpreter that ``run.py`` starts.

Usage: ``python3 perfbench/workload.py JOB.json`` with ``PYTHONPATH`` set to
the checkout's ``src``. The job names the CLI runs and the generated
configs. The iteration:

1. imports ``jclattice.cli`` and, for a traced job, wraps the package's
   public functions (``spans.py``);
2. calls ``cli.main`` once per run, as the ``jclattice`` console script
   does, and notes the monotonic time at which the last CSV was written,
   with the CPU time and peak RSS of this process and its reaped pool
   workers;
3. checks the CSVs against the paper's numbers or, for seeded points and
   tiny inputs, against invariants;
4. repeats the workload's setup (basis, templates, initial state) for
   ``setup_s``, runs the kernel microbenchmarks if asked, and prints one
   JSON report as the last line of stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import_started = time.perf_counter()
from jclattice import cli  # noqa: E402  (import time is a measured layer)
import_s = time.perf_counter() - import_started

# already loaded by cli, so these add nothing to import_s
from jclattice import sweeps  # noqa: E402
from jclattice.basis import LatticeShape, enumerate_basis  # noqa: E402
from jclattice.config import load_config  # noqa: E402
from jclattice.operators import HamiltonianTemplates  # noqa: E402

PAPER = {
    # (column, expected, tolerance) per CLI run, from the acceptance tests
    "ramp": [(("F", 0.9738, 5e-4),)],
    "gap": [(("J_gp", 0.122, 0.002), ("E_gap", 0.31, 0.01)),
            (("J_gp", 0.104, 0.002), ("E_gap", 0.25, 0.01))],
}
RHO1_AT_J0 = 1e-10
DEFAULT_EVOLVE_TOL = 1e-8  # propagate.evolve's default `tol`


def read_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh]
    rows = [line.split(",") for line in lines[1:]
            if line and not line.startswith("#")]
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    return rows, comments


def check_run(workload, k, command, cfg, out, paper_checks):
    """Physics values of one CLI run and the checks they miss."""
    rows, comments = read_csv(out)
    values, errors = {}, []
    tol = cfg.tol if cfg.tol is not None else DEFAULT_EVOLVE_TOL

    def expect(name, ok):
        if not ok:
            errors.append(f"{workload}[{k}] {name} = {values.get(name)}")

    if command == "ramp":
        summary = next(c for c in comments if c.startswith("summary "))
        fields = dict(part.split("=") for part in summary.split()[1:])
        values.update({key: float(fields[key]) for key in
                       ("F", "F_normalized", "norm_drift")})
        values["step_count"] = int(fields["step_count"])
        expect("norm_drift", values["norm_drift"] <= tol)
        expect("F", 0.0 <= values["F"] <= (1.0 + tol) ** 2)
    elif command == "gap-scan":
        refined = rows[-1]  # run_gap_scan appends the refined minimum last
        values["J_gp"], values["E_gap"] = float(refined[2]), float(refined[4])
        expect("E_gap", values["E_gap"] > 0.0)
    elif command == "rho1-map":
        values["J"] = [float(r[0]) for r in rows]
        values["rho1"] = [float(r[2]) for r in rows]
        expect("points", len(rows) == cfg.j_grid.points * cfg.d_grid.points)
        expect("rho1", all(abs(x) <= 1.0 + 1e-12 for x in values["rho1"]))
        at_j0 = [x for j, x in zip(values["J"], values["rho1"]) if j == 0.0]
        expect("rho1_at_J0", all(abs(x) <= RHO1_AT_J0 for x in at_j0))
    if paper_checks and workload in PAPER:
        for name, target, tol in PAPER[workload][k]:
            expect(name, abs(values[name] - target) <= tol)
    return values, errors


def setup_samples(job, cfg, reps):
    """Wall time of the setup a driver does before its first solve."""
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        table = enumerate_basis(LatticeShape(cfg.sites, cfg.excitations))
        HamiltonianTemplates(table)
        if job["initial_state"]:
            sweeps.initial_state(cfg, table)
        samples.append(time.perf_counter() - started)
        del table
    return samples


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_per_process": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(job_path):
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"jclattice imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job.get("trace_dir"):
        import spans

        tracer = spans.Tracer(job["trace_dir"])
        spans.install(tracer)

    for run in job["runs"]:
        argv = [run["command"], "--config", run["config"], "--out", run["out"]]
        if job["threads"] > 1:
            argv += ["--threads", str(job["threads"])]
        code = cli.main(argv)
        if code != 0:
            print(f"jclattice {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    t_done = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)

    report = {
        "t_done": t_done,
        "import_s": import_s,
        "cpu_s": own.ru_utime + own.ru_stime + pool.ru_utime + pool.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, pool.ru_maxrss) / 1024.0,
        "physics": [], "errors": [],
    }
    configs = [load_config(run["config"]) for run in job["runs"]]
    for k, (run, cfg) in enumerate(zip(job["runs"], configs)):
        values, errors = check_run(job["workload"], k, run["command"], cfg,
                                   run["out"], job["paper_checks"])
        report["physics"].append(values)
        report["errors"] += errors
    report["ok"] = not report["errors"]
    report["versions"] = versions()

    if tracer is not None:
        tracer.flush()
        layers, report["trace"] = spans.summarize(
            spans.load(job["trace_dir"]), tracer.main_pid, job["threads"])
        points = sum(len(read_csv(run["out"])[0]) for run in job["runs"])
        layers["sweeps.points"] = {"value": points, "unit": "count"}
        layers["cli.import_s"] = {"value": import_s, "unit": "s"}
        report["layers"] = layers
    report["setup_s"] = setup_samples(job, configs[0], job["setup_reps"])
    if job.get("kernels"):
        import kernels

        report["kernels"] = kernels.measure(configs[0], job["tiny"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
