"""Geometry tables, Lagrange points, the interpolated alpha bound and
elem_mean against their einsum expressions, byte for byte.

The oracles are the plain ``np.einsum`` / ``.mean`` forms the ordered
broadcasts replace; every table must equal them in dtype, shape, memory
order and bytes (so also in the sign of its zeros).
"""

import dataclasses

import numpy as np
import pytest

from rdeuler import diagnostics, driver, euler, positivity
from rdeuler.basis import (
    INTERIOR_POINTS,
    INTERIOR_WEIGHTS,
    basis_ref_grads,
    basis_values,
    bernstein_to_lagrange,
    build_dofmap,
    edge_barycentric,
    lagrange_points,
)
from rdeuler.config import parse_config
from rdeuler.discretization import Discretization, StageFields, elem_mean
from rdeuler.errors import NonConforming
from rdeuler.mesh import build_mesh, structured_square
from rdeuler.verification import random_admissible_field

from conftest import scrambled


def _signed_zero_square():
    """A periodic square in the negative quadrant whose zero coordinates
    are -0.0: einsum gives +0.0 where each summed product is -0.0."""
    grid = structured_square(4, side=2.0)
    nodes = grid.nodes - grid.nodes.max(axis=0)
    return build_mesh(np.where(nodes == 0.0, -0.0, nodes), grid.tris)


MESHES = {
    "square4": lambda: structured_square(4, side=2.0),
    "signed_zero": _signed_zero_square,
    "square16": lambda: structured_square(16),
    "scrambled_a": lambda: build_mesh(*scrambled(12, 10, seed=1)),
    "scrambled_b": lambda: build_mesh(*scrambled(12, 10, seed=2)),
    "scrambled_c": lambda: build_mesh(*scrambled(12, 10, seed=3)),
}
SPACES = [
    (space, basis, degree)
    for space in ("s1", "s2")
    for basis, degree in (("lagrange", 1), ("lagrange", 2), ("bernstein", 2))
]
LAZY = ("if_jump_grads", "int_gradw_mat", "int_phys")


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _einsum_tables(mesh, dofmap):
    """Every geometry table as einsum expressions of the corners and Jacobians."""
    p = mesh.nodes[mesh.tris]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1] / det
    Jinv[:, 0, 1] = -J[:, 0, 1] / det
    Jinv[:, 1, 0] = -J[:, 1, 0] / det
    Jinv[:, 1, 1] = J[:, 0, 0] / det
    jinv_T = np.swapaxes(Jinv, -1, -2)
    kind, deg = dofmap.basis, dofmap.degree
    M = mesh.n_tris
    int_vals = basis_values(kind, deg, INTERIOR_POINTS)
    nq, nk = int_vals.shape
    int_grads = np.einsum("mij,qnj->mqni", jinv_T,
                          basis_ref_grads(kind, deg, INTERIOR_POINTS))
    gw = int_grads * (mesh.areas[:, None, None, None]
                      * INTERIOR_WEIGHTS[None, :, None, None])
    # the gradient-jump table on the deg-point Gauss rule
    x, _ = np.polynomial.legendre.leggauss(deg)
    lam = np.stack([edge_barycentric(loc, 0.5 * (1.0 + x)) for loc in range(3)])
    edge_grads = np.einsum("mij,lqnj->mlqni", jinv_T, basis_ref_grads(kind, deg, lam))
    li, ll = mesh.edge_left, mesh.edge_left_loc
    ri, rl = mesh.edge_right, mesh.edge_right_loc
    return {
        "jinv_T": jinv_T,
        "lagrange_phys": np.einsum("lk,mkx->mlx", lagrange_points(deg), p),
        "int_grads": int_grads,
        "int_phys": np.einsum("qk,mkx->mqx", INTERIOR_POINTS, p),
        "int_gradw_mat": np.ascontiguousarray(gw.transpose(0, 2, 1, 3).reshape(M, nk, nq * 2)),
        "if_jump_grads": np.ascontiguousarray(np.concatenate(
            [-edge_grads[li, ll].transpose(0, 1, 3, 2),
             edge_grads[ri, rl][:, ::-1].transpose(0, 1, 3, 2)], axis=-1)),
        "phi_grad_integrals": np.einsum(
            "q,qn,mqki->mnki", INTERIOR_WEIGHTS, int_vals, int_grads
        ) * mesh.areas[:, None, None, None],
        "grad_integrals": np.einsum(
            "q,mqni->mni", INTERIOR_WEIGHTS, int_grads
        ) * mesh.areas[:, None, None],
    }


def _einsum_dof_points(mesh, dofmap):
    nk = dofmap.n_local
    phys = np.einsum("lk,mkx->mlx", lagrange_points(dofmap.degree), mesh.nodes[mesh.tris])
    flat = phys.reshape(mesh.n_tris * nk, 2)
    if dofmap.space == "s1":
        return flat
    owned, first = np.unique(dofmap.elem_dofs.ravel(), return_index=True)
    out = np.zeros((dofmap.n_dofs, 2))
    out[owned] = flat[first]
    return out


def _smooth(x, y):
    return np.stack([1.5 + 0.3 * np.sin(x), 0.5 * np.cos(y), 0.5 * np.sin(x * y),
                     3.0 + 0.1 * np.cos(x - y)], axis=-1)


def _einsum_interpolate(disc, fn):
    mesh, dm = disc.mesh, disc.dofmap
    X = np.einsum("lk,mkx->mlx", lagrange_points(dm.degree), mesh.nodes[mesh.tris])
    vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
    if dm.basis == "bernstein" and dm.degree > 1:
        Minv = np.linalg.inv(bernstein_to_lagrange(dm.degree))
        vals = np.einsum("ln,mn...->ml...", Minv, vals)
    _, first = np.unique(dm.elem_dofs.ravel(), return_index=True)
    return vals.reshape((-1,) + vals.shape[2:])[first]


def _einsum_alpha_interpolated(disc, gas, U):
    U_elem = disc.elem_values(U)
    omega = positivity.scaled_normals(disc)
    norms = np.linalg.norm(omega, axis=-1)
    unit = omega / np.where(norms > 0, norms, 1.0)[..., None]
    u = euler.velocity(U_elem)
    a = euler.sound_speed(U_elem, gas)
    proj = np.abs(np.einsum("mdi,mnki->mdnk", u, unit)) + a[:, :, None, None]
    return np.max(proj * norms[:, None, :, :], axis=(1, 2, 3))


@pytest.mark.parametrize("space, basis, degree", SPACES)
def test_tables_equal_their_einsum(mesh, space, basis, degree):
    dofmap = build_dofmap(mesh, space, basis, degree)
    disc = Discretization(dofmap)
    want = _einsum_tables(mesh, dofmap)
    for name in LAZY:
        assert name not in disc.__dict__, name
    for name, table in want.items():
        _assert_same_bytes(getattr(disc, name), table)
    for name in LAZY:
        # read once, the table is kept
        assert getattr(disc, name) is getattr(disc, name)


@pytest.mark.parametrize("space, basis, degree", SPACES)
def test_lagrange_points_equal_their_einsum(mesh, space, basis, degree):
    dofmap = build_dofmap(mesh, space, basis, degree)
    _assert_same_bytes(dofmap.dof_points, _einsum_dof_points(mesh, dofmap))
    disc = Discretization(dofmap)
    _assert_same_bytes(disc.interpolate(_smooth), _einsum_interpolate(disc, _smooth))


@pytest.mark.parametrize("space, basis, degree", SPACES)
def test_alpha_interpolated_equals_its_einsum(mesh, space, basis, degree, gas):
    disc = Discretization(build_dofmap(mesh, space, basis, degree))
    rng = np.random.default_rng(5)
    fields = [disc.interpolate(_smooth)] + [
        random_admissible_field(disc.dofmap.n_dofs, gas, rng, near_vacuum=nv)
        for nv in (False, True)
    ]
    for U in fields:
        _assert_same_bytes(positivity.alpha_interpolated(StageFields(disc, gas, U)),
                           _einsum_alpha_interpolated(disc, gas, U))


@pytest.mark.parametrize("shape", [(50, 3, 4), (50, 6, 4), (50, 3, 2), (50, 6, 2), (50, 3)])
def test_elem_mean_equals_mean(shape):
    rng = np.random.default_rng(7)
    X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    _assert_same_bytes(elem_mean(X), X.mean(axis=1))
    # a gathered (non-contiguous source) array, as the call sites pass
    idx = rng.integers(0, shape[0], size=(shape[0], shape[1]))
    flat = X.reshape(-1, *shape[2:])[: shape[0]]
    _assert_same_bytes(elem_mean(flat[idx]), flat[idx].mean(axis=1))
    # zeros of both signs: rows of +0.0, of -0.0 and of mixed signs
    Z = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    Z[: shape[0] // 3] = -0.0
    Z[shape[0] // 3: 2 * shape[0] // 3] = 0.0
    X[::2] = Z[::2]
    for A in (Z, X):
        _assert_same_bytes(elem_mean(A), A.mean(axis=1))


@pytest.mark.parametrize("basis, degree", [("lagrange", 1), ("lagrange", 2), ("bernstein", 2)])
def test_weak_bv_norm_builds_and_keeps_the_p_point_table(gas, basis, degree):
    # a diagnostics row of a run whose kernels never built the gradient-jump
    # table builds it on the degree-point rule once and keeps it
    mesh = structured_square(4, side=2.0)
    disc = Discretization(build_dofmap(mesh, "s2", basis, degree))
    U = disc.interpolate(_smooth)
    assert "if_jump_grads" not in disc.__dict__
    bv = diagnostics.weak_bv_norm(disc, gas, U)
    table = disc.__dict__["if_jump_grads"]
    assert table.shape == (mesh.n_edges, degree, 2, 2 * disc.dofmap.n_local)
    assert diagnostics.weak_bv_norm(disc, gas, U) == bv
    assert disc.if_jump_grads is table
    assert disc.jump_weights.shape == (degree,)


def test_implicit_interpolated_run_builds_no_lazy_table(tmp_path):
    cfg = parse_config(
        "problem = vortex\nmesh = structured:8\nspace = s2\nbasis = lagrange\ndegree = 1\n"
        "scheme = lxf+interp\nintegrator = implicit\ncfl = 1.0\nt_end = 0.5\n"
        f"output.diag_every = 1000000000\noutput.dir = {tmp_path}\n"
    )
    result = driver.run(cfg)
    assert result.n_steps >= 2
    # the implicit kernels build none; the weak-BV norm of the step-0
    # diagnostics row builds the (small, p-point) gradient-jump table and keeps it
    for name in LAZY:
        assert (name in result.disc.__dict__) == (name == "if_jump_grads"), name


def test_non_pairing_periodic_interfaces_rejected():
    mesh = structured_square(4, side=2.0)
    Discretization(build_dofmap(mesh, "s2", "lagrange", 1))
    # a periodic couple whose translation misses its partner
    shift = mesh.edge_translation.copy()
    shift[np.flatnonzero(np.any(shift != 0, axis=1))[0]] += 1e-6
    bad = dataclasses.replace(mesh, edge_translation=shift)
    with pytest.raises(NonConforming, match="do not pair up"):
        Discretization(build_dofmap(bad, "s2", "lagrange", 1))


@pytest.mark.parametrize("space", ["s1", "s2"])
def test_every_interface_has_two_owners(mesh, space):
    disc = Discretization(build_dofmap(mesh, space, "lagrange", 1))
    assert (disc.if_right >= 0).all()



@pytest.mark.parametrize("space", ["s1", "s2"])
def test_first_slot_is_the_first_owner_of_each_dof(space):
    # the slot of elem_dofs.ravel() at which each DOF first occurs, in
    # element order; on the discontinuous space every slot is its own DOF
    mesh = build_mesh(*scrambled(12, 10, seed=1))
    dofmap = build_dofmap(mesh, space, "bernstein", 2)
    flat = dofmap.elem_dofs.ravel()
    want = np.full(dofmap.n_dofs, -1, dtype=np.int64)
    for slot, d in enumerate(flat):
        if want[d] < 0:
            want[d] = slot
    _assert_same_bytes(dofmap.first_slot, want)
    assert (flat[dofmap.first_slot] == np.arange(dofmap.n_dofs)).all()
    if space == "s1":
        assert (dofmap.first_slot == np.arange(flat.size)).all()


def test_discretization_reads_the_mesh_of_its_dofmap():
    mesh = structured_square(4, side=2.0)
    dofmap = build_dofmap(mesh, "s2", "lagrange", 1)
    disc = Discretization(dofmap)
    assert disc.dofmap is dofmap and disc.mesh is mesh
