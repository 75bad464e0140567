"""Free-boundary axisymmetric plasma equilibrium reconstruction.

Forward Grad-Shafranov solves on P1 triangular meshes and identification
of the current-density profile functions (and optionally the electron
density) from boundary magnetic and line-integrated internal measurements.
"""

from .basis import ProfileExpansion, SplineBasis
from .diagnostics import (extract_contour, flux_surface_average,
                          profile_table, write_profile_csv)
from .errors import GsReconError
from .fem import MU0, assemble_stiffness, factorize, impose_dirichlet
from .forward import (Equilibrium, MachineParams, forward_fixed_point,
                      load_equilibrium, save_equilibrium)
from .geometry import PlasmaDomain, find_axis, find_xpoint, make_plasma_domain
from .inverse import ReconstructionSetup, RegularizationConfig, reconstruct
from .mesh import (Mesh, PointLocator, build_rect_mesh, load_mesh, save_mesh)
from .observation import MeasurementSet, load_measurements, save_measurements
from .twin import (LCurveResult, ReplicateStats, l_curve, l_curve_ab,
                   l_curve_ne, perturb, replicate_stats,
                   synthesize_measurements)

__version__ = "0.1.0"

__all__ = [
    "Equilibrium", "GsReconError", "LCurveResult", "MU0",
    "MachineParams", "MeasurementSet", "Mesh", "PlasmaDomain",
    "PointLocator", "ProfileExpansion",
    "ReconstructionSetup", "RegularizationConfig",
    "ReplicateStats", "SplineBasis", "assemble_stiffness", "build_rect_mesh",
    "extract_contour", "factorize",
    "find_axis", "find_xpoint", "flux_surface_average", "forward_fixed_point",
    "impose_dirichlet", "l_curve", "l_curve_ab", "l_curve_ne",
    "load_equilibrium", "load_measurements", "load_mesh",
    "make_plasma_domain", "perturb", "profile_table",
    "reconstruct", "replicate_stats", "save_equilibrium", "save_measurements",
    "save_mesh", "synthesize_measurements", "write_profile_csv",
]
