"""Pseudo-spectral solvers for anisotropic MHD on a thin periodic box and its
hydrostatic limit, with an aspect-ratio convergence-rate harness."""

from .grid import GridSpec
from .spectral import SpectralField, from_physical, to_physical
from .constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    VectorState,
    anisotropic_leray_project,
    barotropic_project,
    generate_initial_data,
    hydrostatic_reconstruct,
    parity_defect,
    parity_project,
)
from .diagnostics import (
    DiffRecord,
    DiagnosticsRecord,
    TrilinearReport,
    difference_metrics,
    energy_ledger,
    gamma_of_alpha,
    trilinear_check,
)
from .integrator import BlowUpError
from .shmhd import ElsasserState, ShmhdParams
from .pehm import PehmState, diagnose_vertical, surface_pressure
from .sweep import RateFit, SweepConfig, load_config, run_pair, run_sweep, emit_report

__all__ = [
    "GridSpec", "SpectralField", "VectorState",
    "to_physical", "from_physical",
    "EVEN_IN_Z", "ODD_IN_Z", "parity_project", "parity_defect",
    "anisotropic_leray_project", "hydrostatic_reconstruct", "barotropic_project",
    "SpectrumParams", "generate_initial_data",
    "ShmhdParams", "ElsasserState", "BlowUpError",
    "PehmState", "diagnose_vertical", "surface_pressure",
    "DiagnosticsRecord", "DiffRecord", "TrilinearReport",
    "energy_ledger", "difference_metrics",
    "trilinear_check", "gamma_of_alpha",
    "SweepConfig", "RateFit", "load_config", "run_pair", "run_sweep", "emit_report",
]

__version__ = "0.1.0"
