"""Laplace spectrum tracking for surfaces evolving by Ricci flow.

Closed triangle meshes evolve inside their conformal class through a
per-vertex log factor; the package assembles the cotangent pencil,
follows its low eigenvalues along the flow, and checks the computed
eigenvalue rates, curvature evolution, and model-space rescaling laws
against their closed forms.
"""

from .flow import (
    ConformalState,
    FlowBlowUpError,
    FlowConfig,
    SpectrumSnapshot,
    SpectrumTrajectory,
    run,
    step,
)
from .mesh import (
    DegenerateFaceError,
    Mesh,
    MeshError,
    assemble_mass,
    assemble_stiffness,
    build_flat_torus,
    build_icosphere,
    integrate,
    load_off,
    scalar_curvature,
    total_area,
)
from .spectral import (
    EigenSolverError,
    eigenvalue_clusters,
    rayleigh_quotient,
    solve_spectrum,
    track,
)
from .variation import scalar_curvature_evolution_residual

__version__ = "0.1.0"

__all__ = [
    "ConformalState",
    "DegenerateFaceError",
    "EigenSolverError",
    "FlowBlowUpError",
    "FlowConfig",
    "Mesh",
    "MeshError",
    "SpectrumSnapshot",
    "SpectrumTrajectory",
    "assemble_mass",
    "assemble_stiffness",
    "build_flat_torus",
    "build_icosphere",
    "eigenvalue_clusters",
    "integrate",
    "load_off",
    "rayleigh_quotient",
    "run",
    "scalar_curvature",
    "scalar_curvature_evolution_residual",
    "solve_spectrum",
    "step",
    "total_area",
    "track",
]
