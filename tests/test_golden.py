"""Every shipped config's CSV against the file committed under tests/golden/.

Each `configs/*.cfg` runs in-process through `jclattice.cli.main`, grid
commands on their default single thread: their output does not depend on
the thread count. Headers, labels, counts and `step_count` must match
exactly; every float cell, in a row or as a `key=value` of a footer, must
match within the one tolerance its column has in TOLERANCES.

A change that moves a cell beyond its tolerance regenerates that file
(`jclattice <command> --config configs/<name>.cfg --out
tests/golden/<name>.csv` with OPENBLAS_NUM_THREADS=1) and states the shift
in CHANGES.md.
"""

import pathlib

import pytest

from jclattice.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "gap_mi_sf": "gap-scan",
    "gap_sf_mi": "gap-scan",
    "init_pulse_sf": "init-pulse",
    "phase_diagram_mi": "phase-diagram",
    "phase_diagram_sf": "phase-diagram",
    "ramp_mi_sf": "ramp",
    "ramp_mi_sf_dissipative": "ramp",
    "rho1_map": "rho1-map",
    "rj_sweep_mi_sf": "rj-sweep",
    "spectrum_mi_sf": "spectrum",
}

# Parameters: config values through the ramp and grid arithmetic (t up to
# 15 pi, so a few ulp), pulse durations in closed form, and the gap scans'
# golden-section minimum, which stayed put to the bit even with levels
# 1e-11 off (LEVEL_TOL raised to 1e-6).
PARAMETER = 1e-13
# Levels and gaps: solves to LEVEL_TOL agree with dense eigh to about 1e-13
# (||r||^2 / delta), and the VECTOR_TOL ones of `spectrum` closer still.
LEVEL = 1e-12
# Overlaps, fidelities, norms and rho1: VECTOR_TOL ground vectors and the
# integrator's rounding, which moved them by at most 7e-15 so far.
STATE = 1e-12
TOLERANCES = {
    **dict.fromkeys(("s", "g", "J", "Delta", "t", "JT", "dT", "rJ", "duration",
                     "tau_d2"), PARAMETER),
    **dict.fromkeys(("E_gap_symmetric", "E_gap_any", "E_gap", "energy_above_ground"),
                    LEVEL),
    **dict.fromkeys(("F", "F_normalized", "norm", "norm_drift", "error_estimate",
                     "overlap_with_instantaneous_ground", "rho1", "cumulative_fidelity",
                     "fidelity"), STATE),
}


def cells(header, line):
    """(column, text) of each cell of a data line, or of each token of a
    `#` footer line: a `key=value` token as (key, value), another as
    (None, token)."""
    if line.startswith("#"):
        return [tuple(tok.split("=", 1)) if "=" in tok else (None, tok)
                for tok in line[1:].split()]
    return list(zip(header, line.split(",")))


def mismatches(golden: str, fresh: str) -> list:
    """Cells of `fresh` that differ from `golden` beyond their tolerance."""
    want, got = golden.splitlines(), fresh.splitlines()
    if want[0] != got[0] or len(want) != len(got):
        return [f"header {got[0]!r} and {len(got)} lines; golden: {want[0]!r} and "
                f"{len(want)} lines"]
    header = want[0].split(",")
    out = []
    for lineno, (a, b) in enumerate(zip(want[1:], got[1:]), start=2):
        expected, actual = cells(header, a), cells(header, b)
        if [c for c, _ in expected] != [c for c, _ in actual]:
            out.append(f"line {lineno}: {b!r}, golden {a!r}")
            continue
        for (column, x), (_, y) in zip(expected, actual):
            tol = TOLERANCES.get(column)
            same = x == y if tol is None or x == "" else abs(float(y) - float(x)) <= tol
            if not same:
                out.append(f"line {lineno} {column}: {y}, golden {x}")
    return out


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "configs").glob("*.cfg")))
def test_shipped_config_matches_its_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main([COMMANDS[name], "--config", str(ROOT / "configs" / f"{name}.cfg"),
                 "--out", str(out)]) == 0
    bad = mismatches((GOLDEN / f"{name}.csv").read_text(), out.read_text())
    assert not bad, f"{len(bad)} differences, the first 20:\n" + "\n".join(bad[:20])


def test_golden_comparison_reads_footers_and_tolerances():
    golden = "t,F\n0,0.5\n# summary F=0.25 step_count=512\n"
    assert mismatches(golden, "t,F\n0,0.5000000000001\n# summary F=0.25 step_count=512\n") == []
    assert mismatches(golden, "t,F\n0,0.500000001\n# summary F=0.25 step_count=512\n") \
        == ["line 2 F: 0.500000001, golden 0.5"]
    assert mismatches(golden, "t,F\n0,0.5\n# summary F=0.25 step_count=1024\n") \
        == ["line 3 step_count: 1024, golden 512"]
    assert mismatches(golden, "t,F\n0,0.5\n0,0.5\n# summary F=0.25 step_count=512\n")
