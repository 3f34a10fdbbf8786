"""Residual-distribution solver laboratory for the 2D compressible
Euler equations on periodic triangular meshes."""

from .basis import DofMap, Quadrature, bernstein_to_lagrange, build_dofmap
from .discretization import Discretization
from .euler import GasModel
from .mesh import (
    Mesh,
    build_mesh,
    dual_volumes,
    read_mesh,
    shape_regularity,
    structured_rect,
    structured_square,
    write_mesh,
)
from .residuals import ElementResidual, Scheme, rusanov_flux
from .stepping import FieldState, forward_euler_step, implicit_euler_step, ssp_rk2_step

__all__ = [
    "DofMap",
    "Quadrature",
    "bernstein_to_lagrange",
    "build_dofmap",
    "Discretization",
    "GasModel",
    "Mesh",
    "build_mesh",
    "dual_volumes",
    "read_mesh",
    "shape_regularity",
    "structured_rect",
    "structured_square",
    "write_mesh",
    "ElementResidual",
    "Scheme",
    "rusanov_flux",
    "FieldState",
    "forward_euler_step",
    "implicit_euler_step",
    "ssp_rk2_step",
]

__version__ = "0.1.0"
