"""Polariton ground-state preparation in finite Jaynes-Cummings lattices.

Exact diagonalization in the fixed-excitation sector, power-law parameter
ramps with Landau-Zener-informed index optimization, time-dependent
Schrodinger propagation (optionally non-Hermitian), and a CSV-emitting
sweep front end.
"""

from .basis import (
    BasisTable,
    LatticeShape,
    ResourceLimitError,
    SectorError,
    enumerate_basis,
)
from .operators import (
    HamiltonianTemplates,
    LatticeParams,
    build_correlator,
    build_hopping,
    build_translation,
    symmetric_isometry,
    symmetric_sector,
)
from .propagate import EvolutionResult, evolve, evolve_dissipative, fidelity
from .ramp import RampPlan, RampSchedule, optimal_index, trajectory_point
from .spectrum import (
    DegeneracyError,
    EigenPair,
    GapReport,
    gap_scan,
    ground_state,
)
from .states import (
    mi_ground_state,
    polariton_doublet,
    sf_ground_state,
    simulate_mi_pulse,
    simulate_sf_pulse,
)

__all__ = [
    "BasisTable", "LatticeShape", "ResourceLimitError", "SectorError",
    "enumerate_basis",
    "HamiltonianTemplates", "LatticeParams", "build_correlator",
    "build_hopping", "build_translation", "symmetric_isometry",
    "symmetric_sector",
    "EvolutionResult", "evolve", "evolve_dissipative", "fidelity",
    "RampPlan", "RampSchedule", "optimal_index", "trajectory_point",
    "DegeneracyError", "EigenPair", "GapReport", "gap_scan", "ground_state",
    "mi_ground_state", "polariton_doublet", "sf_ground_state",
    "simulate_mi_pulse", "simulate_sf_pulse",
]

__version__ = "0.1.0"
