"""Polynomial bases on triangles, quadrature rules and DOF numbering.

Supported bases: Lagrange and Bernstein, degrees 1 and 2, on the
barycentric reference simplex.  Local DOF ordering is fixed: vertices
(0, 1, 2) first, then for degree 2 the edge midpoints in the order
(01, 12, 20).  Gradients returned by reference-level helpers are taken
with respect to (lambda_1, lambda_2) with lambda_0 = 1 - l1 - l2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree
from .mesh import Mesh


def n_local_dofs(p):
    if p not in (1, 2):
        raise UnsupportedDegree(f"degree {p} not supported")
    return (p + 1) * (p + 2) // 2


def lagrange_points(p):
    """Barycentric coordinates of the local Lagrange points."""
    n_local_dofs(p)
    verts = np.eye(3)
    if p == 1:
        return verts
    mids = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    return np.vstack([verts, mids])


def basis_values(kind, p, lam):
    """Basis values at barycentric points, shape lam.shape[:-1] + (N_K,)."""
    lam = np.asarray(lam, dtype=float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    if p == 1:
        # Degree 1: Lagrange and Bernstein coincide with the barycentrics.
        return np.stack([l0, l1, l2], axis=-1)
    if p != 2:
        raise UnsupportedDegree(f"degree {p} not supported")
    if kind == "lagrange":
        return np.stack(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l0 * l1,
                4 * l1 * l2,
                4 * l2 * l0,
            ],
            axis=-1,
        )
    if kind == "bernstein":
        return np.stack(
            [l0 * l0, l1 * l1, l2 * l2, 2 * l0 * l1, 2 * l1 * l2, 2 * l2 * l0],
            axis=-1,
        )
    raise ValueError(f"unknown basis kind {kind!r}")


def basis_ref_grads(kind, p, lam):
    """d(basis)/d(l1, l2), shape lam.shape[:-1] + (N_K, 2)."""
    lam = np.asarray(lam, dtype=float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    one = np.ones_like(l0)
    zero = np.zeros_like(l0)
    if p == 1:
        g = np.stack(
            [
                np.stack([-one, -one], axis=-1),
                np.stack([one, zero], axis=-1),
                np.stack([zero, one], axis=-1),
            ],
            axis=-2,
        )
        return g
    if p != 2:
        raise UnsupportedDegree(f"degree {p} not supported")
    if kind == "lagrange":
        rows = [
            np.stack([1 - 4 * l0, 1 - 4 * l0], axis=-1),
            np.stack([4 * l1 - 1, zero], axis=-1),
            np.stack([zero, 4 * l2 - 1], axis=-1),
            np.stack([4 * (l0 - l1), -4 * l1], axis=-1),
            np.stack([4 * l2, 4 * l1], axis=-1),
            np.stack([-4 * l2, 4 * (l0 - l2)], axis=-1),
        ]
    elif kind == "bernstein":
        rows = [
            np.stack([-2 * l0, -2 * l0], axis=-1),
            np.stack([2 * l1, zero], axis=-1),
            np.stack([zero, 2 * l2], axis=-1),
            np.stack([2 * (l0 - l1), -2 * l1], axis=-1),
            np.stack([2 * l2, 2 * l1], axis=-1),
            np.stack([-2 * l2, 2 * (l0 - l2)], axis=-1),
        ]
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    return np.stack(rows, axis=-2)


def bernstein_to_lagrange(p):
    """Map from Bernstein coefficients to values at the Lagrange points.

    Row L holds B_sigma evaluated at Lagrange point L; rows are convex
    weights (nonnegative, summing to one).
    """
    pts = lagrange_points(p)
    return basis_values("bernstein", p, pts)


# Interior rule: 6-point symmetric, exact through degree 4, weights
# normalized to the reference-area measure (they sum to one).
_A1, _B1, _W1 = 0.816847572980459, 0.091576213509771, 0.109951743655322
_A2, _B2, _W2 = 0.108103018168070, 0.445948490915965, 0.223381589678011

INTERIOR_POINTS = np.array(
    [
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)
INTERIOR_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

# Edge rule: 3-point Gauss on [0, 1], exact through degree 5.
_G = np.sqrt(0.6)
EDGE_T = np.array([0.5 * (1 - _G), 0.5, 0.5 * (1 + _G)])
EDGE_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
for _rule in (INTERIOR_POINTS, INTERIOR_WEIGHTS, EDGE_T, EDGE_WEIGHTS):
    _rule.flags.writeable = False       # every Discretization shares these arrays

# Gradient-jump rules, (points, weights) on [0, 1] per degree p: p-point
# Gauss, exact through degree 2p - 1, so for the squared gradient jump of
# degree-p fields, a polynomial of degree 2(p - 1).  Built once at import,
# not per Discretization: the first leggauss call of a process takes about
# 0.2 ms, a sixth of a Discretization of 1024 triangles (2-core x86, numpy 2.4).
_GAUSS = {p: np.polynomial.legendre.leggauss(p) for p in (1, 2)}
JUMP_RULES = {p: (0.5 * (1.0 + x), 0.5 * w) for p, (x, w) in _GAUSS.items()}


def edge_barycentric(loc, t):
    """Barycentric coordinates along local edge loc, parameter t in [0, 1]."""
    t = np.asarray(t, dtype=float)
    z = np.zeros_like(t)
    if loc == 0:
        lam = (1 - t, t, z)
    elif loc == 1:
        lam = (z, 1 - t, t)
    elif loc == 2:
        lam = (t, z, 1 - t)
    else:
        raise ValueError("local edge index must be 0, 1 or 2")
    return np.stack(lam, axis=-1)


def physical_points(lam, corners):
    """Points with barycentric coordinates lam (..., 3) on each element.

    corners (M, 3, 2) are the element vertices; the result has shape
    (M,) + lam.shape[:-1] + (2,).  The vertices are summed in order and
    from zero, as ``np.einsum("...k,mkx->m...x", lam, corners)`` sums,
    so the bits are the einsum's.
    """
    lam = np.asarray(lam, dtype=float)
    M = corners.shape[0]
    out = np.empty((M,) + lam.shape[:-1] + (2,))
    c = corners.reshape((M,) + (1,) * (lam.ndim - 1) + (3, 2))
    for x in range(2):                           # one coordinate at a time: long inner loops
        o = out[..., x]
        np.multiply(lam[..., 0], c[..., 0, x], out=o)
        o += lam[..., 1] * c[..., 1, x]
        o += lam[..., 2] * c[..., 2, x]
    out += 0.0                                   # the zero start: no -0.0
    return out


@dataclass
class DofMap:
    """Global DOF layout for a continuous (S2) or discontinuous (S1) space."""

    mesh: Mesh
    space: str
    basis: str
    degree: int
    elem_dofs: np.ndarray   # (n_tris, N_K)
    dof_points: np.ndarray  # (n_dofs, 2) coordinates of the Lagrange points
    n_dofs: int
    # (n_dofs,) first slot of each DOF in elem_dofs.ravel(): the first
    # owner in element order fixes the coordinates and value of a shared DOF
    first_slot: np.ndarray

    @property
    def n_local(self):
        return n_local_dofs(self.degree)


def build_dofmap(mesh: Mesh, space="s2", basis="lagrange", degree=1) -> DofMap:
    space = space.lower()
    basis = basis.lower()
    if space not in ("s1", "s2"):
        raise ValueError("space must be 's1' or 's2'")
    if basis not in ("lagrange", "bernstein"):
        raise ValueError("basis must be 'lagrange' or 'bernstein'")
    nk = n_local_dofs(degree)
    M = mesh.n_tris
    pts = lagrange_points(degree)

    if space == "s1":
        slots = np.arange(M * nk, dtype=np.int64)
        dof_points = physical_points(pts, mesh.nodes[mesh.tris]).reshape(M * nk, 2)
        return DofMap(mesh, space, basis, degree, slots.reshape(M, nk), dof_points, M * nk,
                      slots)

    # S2: vertices share through periodic-identified nodes, midpoints
    # through the interface table.
    reps = np.unique(mesh.node_rep)
    n_vert = len(reps)
    elem_dofs = np.empty((M, nk), dtype=np.int64)
    elem_dofs[:, :3] = np.searchsorted(reps, mesh.node_rep[mesh.tris])
    n_dofs = n_vert
    if degree == 2:
        elem_dofs[:, 3:6] = n_vert + mesh.elem_edges
        n_dofs = n_vert + mesh.n_edges

    phys = physical_points(pts, mesh.nodes[mesh.tris])
    # every DOF 0..n-1 occurs, so the first occurrences come in DOF order
    _, first = np.unique(elem_dofs.ravel(), return_index=True)
    dof_points = phys.reshape(M * nk, 2)[first]
    return DofMap(mesh, space, basis, degree, elem_dofs, dof_points, n_dofs, first)
