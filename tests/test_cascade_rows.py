"""Cascade residual rows computed on element patches.

Each cascade level computes only the rows of its own elements, on the
patch of the missing ones (``Discretization.patch``), and a re-candidate
copies the second-stage rows whose stencil values did not change.  The
oracle is the whole-mesh recomputation (``oracles.mixed_theta_full``):
patch rows must equal whole-mesh rows bit for bit, and a cascade run
must step the same states and reports.
"""

import dataclasses

import numpy as np
import pytest

from oracles import mixed_theta_full
from rdeuler import basis, driver, euler, stepping
from rdeuler.config import parse_config
from rdeuler.discretization import Discretization, StageFields
from rdeuler.mesh import Mesh, structured_rect
from rdeuler.positivity import alpha_interpolated, alpha_noninterpolated
from rdeuler.residuals import Scheme

SPACES = [("s2", "lagrange", 1), ("s2", "lagrange", 2), ("s2", "bernstein", 2),
          ("s1", "lagrange", 1)]
SCHEMES = ["galerkin", "galerkin_jump", "galerkin+ec+jump", "lxf", "lxf+interp",
           "limited_lxf", "limited_lxf+interp", "dg"]
NX, NY = 9, 4


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _disc(space, kind, degree):
    mesh = structured_rect(NX, NY, width=3.0, height=1.4)
    return Discretization(basis.build_dofmap(mesh, space, kind, degree))


def _field(disc, gas, seed):
    """A smooth admissible field with DOF-level noise, so that every
    correction and jump term is active."""
    rng = np.random.default_rng(seed)
    x, y = disc.dofmap.dof_points.T
    n = disc.dofmap.n_dofs
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * x / 3.0) * np.cos(2 * np.pi * y / 1.4)
    return euler.conserved(rho + 0.05 * rng.random(n), 0.3 + 0.1 * rng.random(n),
                           -0.2 + 0.1 * rng.random(n), 1.0 + 0.2 * rng.random(n), gas)


def _element_sets(disc):
    """One element, a band across the periodic seam x = 0, a random 30%,
    and every element."""
    M = disc.mesh.n_tris
    cx = disc.corner_coords[:, :, 0].mean(axis=1)
    (x0, x1, _, _) = disc.mesh.bbox
    h = (x1 - x0) / NX
    seam = np.flatnonzero((cx < x0 + h) | (cx > x1 - h))
    rng = np.random.default_rng(3)
    return {"one": np.array([M // 2]), "seam": seam,
            "random": np.sort(rng.choice(M, int(0.3 * M), replace=False)),
            "all": np.arange(M)}


def _applicable(space, label):
    if label == "dg":
        return space == "s1"
    return not (label == "galerkin_jump" and space == "s1")


def _rows(disc, gas, U, scheme, elems=None):
    """(theta, pointwise alpha, interpolated alpha) rows of ``elems`` on
    their patch, or of every element on the whole mesh."""
    d = disc if elems is None else disc.patch(elems)
    fields = StageFields(d, gas, U)
    a_point = alpha_noninterpolated(fields)
    a_interp = alpha_interpolated(fields)
    alpha = None
    if scheme.base in ("lxf", "limited_lxf"):
        alpha = a_interp if scheme.flux_mode == "interpolated" else a_point
    theta = stepping.element_theta(fields, scheme, alpha).theta
    if elems is None:
        return theta, a_point, a_interp
    return theta[d.core], a_point[d.core], a_interp[d.core]


@pytest.mark.parametrize("space, kind, degree, label", [
    (*space, label) for space in SPACES for label in SCHEMES if _applicable(space[0], label)])
def test_patch_rows_equal_whole_mesh_rows_bitwise(gas, space, kind, degree, label):
    scheme = Scheme.parse(label)
    disc = _disc(space, kind, degree)
    U = _field(disc, gas, seed=11)
    full = _rows(disc, gas, U, scheme)
    for name, elems in _element_sets(disc).items():
        got = _rows(disc, gas, U, scheme, elems)
        for what, g, f in zip(("theta", "alpha pointwise", "alpha interpolated"), got, full):
            assert _same_bits(g, f[elems]), f"{name}: {what}"


@pytest.mark.parametrize("space, kind, degree", SPACES)
def test_patch_before_the_parent_builds_its_lazy_tables(gas, space, kind, degree):
    # a patch builds the lazy tables its parent lacks on itself; its rows
    # still equal those of a discretization that built them whole
    U = _field(_disc(space, kind, degree), gas, seed=12)
    labels = [s for s in ("galerkin+ec+jump", "galerkin_jump", "lxf+interp", "limited_lxf", "dg")
              if _applicable(space, s)]
    for label in labels:
        scheme = Scheme.parse(label)
        fresh = _disc(space, kind, degree)
        elems = _element_sets(fresh)["random"]
        got = _rows(fresh, gas, U, scheme, elems)
        assert not any(k in vars(fresh) for k in ("int_gradw_mat", "if_jump_grads"))
        full = _rows(_disc(space, kind, degree), gas, U, scheme)
        for g, f in zip(got, full):
            assert _same_bits(g, f[elems]), label


def test_patch_keeps_the_interfaces_of_its_elements():
    disc = _disc("s2", "lagrange", 1)
    for elems in _element_sets(disc).values():
        p = disc.patch(elems)
        assert np.array_equal(p.elems[p.core], elems)
        inside = np.zeros(disc.mesh.n_tris, dtype=bool)
        inside[p.elems] = True
        both = np.flatnonzero(inside[disc.if_left] & inside[disc.if_right])
        # ascending original order, owners remapped to patch ids
        assert np.array_equal(p.elems[p.if_left], disc.if_left[both])
        assert np.array_equal(p.elems[p.if_right], disc.if_right[both])
        # a requested element keeps all three of its interfaces
        assert np.array_equal(both[p.mesh.elem_edges[p.core]], disc.mesh.elem_edges[elems])
        assert np.array_equal(p.dofmap.elem_dofs, disc.dofmap.elem_dofs[p.elems])


def test_every_table_has_a_patch_rule(gas):
    disc = _disc("s2", "lagrange", 1)
    U = _field(disc, gas, seed=13)
    _rows(disc, gas, U, Scheme.parse("galerkin+ec+jump"))
    _rows(disc, gas, U, Scheme.parse("limited_lxf+interp"))
    disc.int_phys
    p = disc.patch([0, 5])
    for name in vars(disc):
        if name not in ("mesh", "dofmap", "dual", "elem_neighbors", "_cache"):
            getattr(p, name)
    for f in dataclasses.fields(Mesh):
        getattr(p.mesh, f.name)
    for f in dataclasses.fields(basis.DofMap):
        if f.name != "first_slot":
            getattr(p.dofmap, f.name)
    for key in disc._cache:
        if key in p._PER_ELEMENT_CACHE:
            p.cached(key, None)
    # no kernel reads these on a patch; a read raises rather than
    # returning rows that are not the patch's
    for name in ("dual", "elem_neighbors"):
        with pytest.raises(AttributeError, match="no patch rule"):
            getattr(p, name)
    with pytest.raises(AttributeError, match="no patch rule"):
        p.dofmap.first_slot          # slots of the whole mesh's elem_dofs


def test_same_stencil_compares_bits():
    disc = _disc("s2", "lagrange", 1)
    U = np.ones((disc.dofmap.n_dofs, 4))
    U[:, 1] = 0.0
    assert stepping._same_stencil(disc, U, U.copy()).all()
    for value in (-0.0, np.nan):
        V = U.copy()
        V[7, 1] = value
        touched = np.isin(np.arange(disc.mesh.n_tris),
                          np.flatnonzero((disc.dofmap.elem_dofs == 7).any(axis=1)))
        nbr = disc.elem_neighbors[touched].ravel()
        changed = ~stepping._same_stencil(disc, U, V)
        assert changed[touched].all() and changed[nbr].all()
        assert changed.sum() == len(np.union1d(np.flatnonzero(touched), nbr))
    # NaN counts as changed even against the same NaN
    V = U.copy()
    V[7, 1] = np.nan
    assert not stepping._same_stencil(disc, V, V.copy()).all()


def _cascade_run(nx, ny, t_end, cascade, integrator):
    """(U, dt, report) of every step of a smoothed-Sod strip under the cascade."""
    cfg = parse_config(
        f"problem = sod_smooth\nmesh = structured:{nx}x{ny}\nbasis = lagrange\n"
        f"integrator = {integrator}\ncfl = 0.3\nt_end = {t_end!r}\nmood.enabled = true\n"
        f"cascade = {cascade}\nscheme = lxf\n"
    )
    state, _ = driver.start(cfg)
    return [(s.U.copy(), dt, report) for s, dt, report in driver.steps(cfg, state)]


@pytest.mark.parametrize("integrator", ["fe", "ssprk2"])
@pytest.mark.parametrize("cascade", ["galerkin,limited_lxf,lxf", "galerkin+ec+jump,limited_lxf,lxf"])
@pytest.mark.parametrize("nx, ny, t_end", [(32, 4, 0.8), (24, 3, 0.4)])
def test_cascade_steps_equal_the_whole_mesh_oracle(monkeypatch, nx, ny, t_end, cascade, integrator):
    patches = []
    make_patch = Discretization.patch
    monkeypatch.setattr(Discretization, "patch",
                        lambda self, elems: patches.append(len(elems)) or make_patch(self, elems))
    got = _cascade_run(nx, ny, t_end, cascade, integrator)
    assert patches, "no cascade level ran on a patch"
    with monkeypatch.context() as m:
        m.setattr(stepping, "mixed_theta", mixed_theta_full)
        want = _cascade_run(nx, ny, t_end, cascade, integrator)
    assert len(got) == len(want)
    bumped = 0
    for n, ((U, dt, rep), (U0, dt0, rep0)) in enumerate(zip(got, want)):
        assert dt == dt0 and _same_bits(U, U0), f"step {n}"
        for f in dataclasses.fields(rep):
            a, b = getattr(rep, f.name), getattr(rep0, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, (n, f.name)
        bumped += int(np.sum(rep.level > 0))
    assert bumped > 0


def test_runs_without_the_cascade_compute_no_rows(monkeypatch, gas):
    calls = []
    monkeypatch.setattr(stepping.FieldState, "rows", lambda *args: calls.append("rows"))
    monkeypatch.setattr(Discretization, "patch", lambda *args: calls.append("patch"))
    disc = _disc("s2", "lagrange", 1)
    state = stepping.FieldState(0.0, _field(disc, gas, seed=14), disc, gas)
    for integrator in ("fe", "ssprk2", "implicit"):
        scheme = Scheme.parse("lxf+interp" if integrator == "implicit" else "galerkin+ec+jump")
        steps = list(stepping.advance(state, scheme, integrator, 1.0, 0.2, max_steps=2))
        assert len(steps) == 2
    assert not calls
