import numpy as np
import pytest

from conftest import off_seam_elements, reference_pair
from oracles import barycentric, eval_basis, evaluate_in_element, integrate_edge, integrate_element
from rdeuler.basis import (
    EDGE_WEIGHTS,
    INTERIOR_POINTS,
    INTERIOR_WEIGHTS,
    bernstein_to_lagrange,
    basis_ref_grads,
    basis_values,
    build_dofmap,
    lagrange_points,
)
from rdeuler.discretization import Discretization
from rdeuler.errors import UnsupportedDegree
from rdeuler.mesh import structured_square


def test_p1_barycenter_partition():
    out = eval_basis(
        _ref_dofmap("lagrange", 1), 0, np.array([1, 1, 1]) / 3.0
    )
    assert np.allclose(out["values"], 1.0 / 3.0, atol=1e-15)


def _ref_dofmap(kind, p):
    mesh = reference_pair().mesh   # element 0 is the reference triangle
    return build_dofmap(mesh, "s2", kind, p)


def test_p1_reference_gradients():
    out = eval_basis(_ref_dofmap("lagrange", 1), 0, np.array([1, 1, 1]) / 3.0)
    expect = np.array([[-1, -1], [1, 0], [0, 1]], dtype=float)
    assert np.allclose(out["gradients"], expect, atol=1e-14)


def test_p2_bernstein_vertex_value():
    vals = basis_values("bernstein", 2, np.array([1.0, 0.0, 0.0]))
    assert vals[0] == pytest.approx(1.0)
    assert np.allclose(vals[1:], 0.0, atol=1e-15)


def test_out_of_element_rejected():
    dm = _ref_dofmap("lagrange", 1)
    with pytest.raises(ValueError, match="outside the closed simplex"):
        eval_basis(dm, 0, np.array([1.2, -0.2, 0.0]))


def test_unsupported_degree():
    mesh = reference_pair().mesh
    with pytest.raises(UnsupportedDegree):
        build_dofmap(mesh, "s2", "lagrange", 3)


def test_bernstein_to_lagrange_p1_identity():
    assert np.allclose(bernstein_to_lagrange(1), np.eye(3), atol=1e-15)


def test_bernstein_to_lagrange_p2_midpoint_row():
    M = bernstein_to_lagrange(2)
    # row of the edge-01 midpoint in ordering (B200,B020,B002,B110,B011,B101)
    assert np.allclose(M[3], [0.25, 0.25, 0.0, 0.5, 0.0, 0.0], atol=1e-15)


def test_bernstein_to_lagrange_rows_convex():
    M = bernstein_to_lagrange(2)
    assert np.all(M >= 0)
    assert np.allclose(M.sum(axis=1), 1.0, atol=1e-14)


def test_integrate_element_basis_and_constant():
    disc = reference_pair()
    mesh = disc.mesh
    for j in range(3):
        val = integrate_element(
            mesh, 0, lambda x, j=j: barycentric(mesh, 0, x)[j]     # the P1 basis
        )
        assert val == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert integrate_element(mesh, 0, lambda x: 1.0) == pytest.approx(0.5)


def test_integrate_edge_exactness():
    # quadratic and quintic over the unit edge against closed forms
    mesh = reference_pair().mesh
    edge = mesh.elem_edges[0, 0]   # (0, 0) -> (1, 0), traversed by element 0
    assert mesh.elem_edge_side[0, 0] == 0
    val = integrate_edge(mesh, edge, 0, lambda x: x[0] ** 2)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-15)
    val5 = integrate_edge(mesh, edge, 0, lambda x: x[0] ** 5)
    assert val5 == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_quadrature_weights_normalized():
    assert INTERIOR_WEIGHTS.sum() == pytest.approx(1.0, rel=1e-15)
    assert EDGE_WEIGHTS.sum() == pytest.approx(1.0, rel=1e-15)
    assert np.all(INTERIOR_WEIGHTS > 0) and np.all(EDGE_WEIGHTS > 0)


def test_interior_rule_degree_4_exact():
    # integrate monomials l1^a l2^b over the reference triangle
    import math

    for a in range(5):
        for b in range(5 - a):
            exact = (
                math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            )  # int over unit simplex of x^a y^b
            got = 0.5 * np.sum(
                INTERIOR_WEIGHTS
                * INTERIOR_POINTS[:, 1] ** a
                * INTERIOR_POINTS[:, 2] ** b
            )
            assert got == pytest.approx(exact * 0.5 / 0.5, rel=1e-13), (a, b)


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2])
def test_partition_of_unity_random_points(kind, p):
    rng = np.random.default_rng(3)
    pts = rng.dirichlet((1, 1, 1), size=1000)
    vals = basis_values(kind, p, pts)
    grads = basis_ref_grads(kind, p, pts)
    assert np.abs(vals.sum(axis=-1) - 1.0).max() < 1e-13
    assert np.abs(grads.sum(axis=-2)).max() < 1e-13


@pytest.mark.parametrize("kind", ["lagrange", "bernstein"])
@pytest.mark.parametrize("p", [1, 2])
def test_interpolation_reproduces_polynomials(kind, p, gas):
    # a polynomial that is not periodic is reproduced inside every element
    # off the periodic seam, where shared DOFs hold its own values
    mesh = structured_square(6, side=1.0)
    disc = Discretization(build_dofmap(mesh, "s2", kind, p))

    def poly(x, y):
        out = 1.0 + 2 * x - 3 * y
        if p == 2:
            out = out + 0.5 * x * y - x**2 + 0.25 * y**2
        return out[..., None]

    w = disc.interpolate(poly)
    rng = np.random.default_rng(5)
    inner = np.flatnonzero(off_seam_elements(disc))
    assert inner.size > 0
    elems = rng.choice(inner, size=200)
    lam = rng.dirichlet((1, 1, 1), size=200)
    pts = np.einsum("pc,pcd->pd", lam, disc.corner_coords[elems])
    vals = evaluate_in_element(disc, w, elems, pts)[:, 0]
    assert np.abs(vals - poly(pts[:, 0], pts[:, 1])[:, 0]).max() < 1e-13


def test_shared_edge_quadrature_points_match():
    # both owners enumerate the same physical points (reversed), also
    # across periodic couples after translation
    mesh = structured_square(3)
    dm = build_dofmap(mesh, "s2", "lagrange", 2)
    disc = Discretization(dm)
    # the physical points are the traces of the corner coordinates on
    # the P1 Lagrange space of the same mesh
    p1 = Discretization(build_dofmap(mesh, "s1", "lagrange", 1))
    x_l, x_r = p1.traces(disc.corner_coords)
    x_l = x_l + mesh.edge_translation[:, None, :]
    assert np.abs(x_r - x_l).max() < 1e-13


def _interpolate_by_scan(disc, fn):
    """Reversed per-DOF scan: the first owner element fixes a shared DOF (oracle)."""
    X = disc.lagrange_phys
    vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
    if disc.dofmap.basis == "bernstein" and disc.dofmap.degree > 1:
        Minv = np.linalg.inv(bernstein_to_lagrange(disc.dofmap.degree))
        vals = np.einsum("ln,mn...->ml...", Minv, vals)
    flat_dofs = disc.dofmap.elem_dofs.ravel()
    first = np.full(disc.dofmap.n_dofs, -1, dtype=np.int64)
    for i in range(flat_dofs.size - 1, -1, -1):
        first[flat_dofs[i]] = i
    return vals.reshape((-1,) + vals.shape[2:])[first]


@pytest.mark.parametrize("space", ["s1", "s2"])
@pytest.mark.parametrize("kind,p", [("lagrange", 1), ("lagrange", 2), ("bernstein", 2)])
def test_interpolate_takes_the_first_owner_like_the_scan(space, kind, p):
    # a field that differs between the owners of a shared DOF: the
    # periodic images of a node sit a side length apart
    mesh = structured_square(5, side=2.0)
    disc = Discretization(build_dofmap(mesh, space, kind, p))

    def fn(x, y):
        return np.stack([np.sin(3 * x) + y, x * y, np.exp(x - y), 1.0 + x], axis=-1)

    assert np.array_equal(disc.interpolate(fn), _interpolate_by_scan(disc, fn))


def test_s2_shared_edge_dofs_identical():
    mesh = structured_square(3)
    dm = build_dofmap(mesh, "s2", "lagrange", 2)
    # for every internal interface the three edge DOFs seen from both
    # owners coincide as sets
    for e in range(mesh.n_edges):
        if np.any(mesh.edge_translation[e] != 0):
            continue
        ldofs = set(dm.elem_dofs[mesh.edge_left[e]])
        rdofs = set(dm.elem_dofs[mesh.edge_right[e]])
        assert len(ldofs & rdofs) == 3


def test_s1_no_sharing():
    mesh = structured_square(2)
    dm = build_dofmap(mesh, "s1", "lagrange", 1)
    assert dm.n_dofs == mesh.n_tris * 3
    assert len(np.unique(dm.elem_dofs)) == dm.n_dofs


def test_lagrange_points_ordering():
    pts = lagrange_points(2)
    assert np.allclose(pts[3], [0.5, 0.5, 0.0])  # edge 01
    assert np.allclose(pts[4], [0.0, 0.5, 0.5])  # edge 12
    assert np.allclose(pts[5], [0.5, 0.0, 0.5])  # edge 20
