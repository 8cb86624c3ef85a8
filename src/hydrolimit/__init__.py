"""Pseudo-spectral solvers for anisotropic MHD on a thin periodic box and its
hydrostatic limit, with an aspect-ratio convergence-rate harness."""

__version__ = "0.1.0"
