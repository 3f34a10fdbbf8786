"""Precomputed geometry, quadrature and trace tables for one space.

A :class:`Discretization` binds a DOF map and its mesh and caches the
arrays every kernel needs: physical basis gradients at interior and
edge quadrature points, interface trace tables (with the right side
enumerated in reversed order so both sides see the same physical
points), dual volumes and neighbor lists.  Each integrand has its own
edge rule: the fluxes and the jump of V on the discontinuous space take
the 3-point Gauss rule, the squared gradient jump of degree-p fields
(degree 2(p - 1)) the p-point Gauss rule, which integrates it exactly.
The tables that only some runs read are built by ``cached`` on first
use and then kept: the gradient-jump table ``if_jump_grads``, the
weighted volume table ``int_gradw_mat`` (Galerkin volume term), the
interior quadrature points ``int_phys`` (diagnostics), the one geometry
table of the LxF family ``phi_grad_integrals``, the element-to-CSR map
with which ``assemble`` sums element tables into sparse matrices and
the flat bins of the scatters.  No array changes once built.
:class:`StageFields` holds the point values of one state on those
tables, each interface point and each DOF evaluated once on the
continuous space, and a :class:`Patch` restricts them to a set of
elements and their edge neighbours, on which the kernels give the
whole-mesh rows; it gathers every table of its parent and builds none.
"""

import math
from functools import cached_property

import numpy as np

from . import basis as fb
from . import euler
from .errors import NonConforming
from .mesh import Mesh, dual_volumes


def _table(rows):
    """A lazy table of the decorated builder: a property over ``cached``
    under the builder's name, with one row per element or per interface
    (``rows``), so that a Patch gathers it from its parent."""
    def wrap(build):
        return property(lambda self: self.cached(build.__name__, build, rows), doc=build.__doc__)
    return wrap


class Discretization:
    """The tables of one space on a periodic mesh, where every interface
    has a left and a right owner."""

    def __init__(self, dofmap: fb.DofMap):
        self.mesh = dofmap.mesh
        self.dofmap = dofmap
        self._cache = {}
        self._build_geometry()
        self._build_interior_tables()
        self._build_interface_tables()
        self.dual = dual_volumes(dofmap)
        self._build_neighbors()
        self._check_trace_pairing()

    # -- construction ------------------------------------------------

    def _build_geometry(self):
        mesh = self.mesh
        p = mesh.nodes[mesh.tris]           # (M, 3, 2)
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        Jinv = np.empty_like(J)
        Jinv[:, 0, 0] = J[:, 1, 1] / det
        Jinv[:, 0, 1] = -J[:, 0, 1] / det
        Jinv[:, 1, 0] = -J[:, 1, 0] / det
        Jinv[:, 1, 1] = J[:, 0, 0] / det
        self.jinv_T = np.swapaxes(Jinv, -1, -2)
        self.corner_coords = p
        # Physical coordinates of the local Lagrange points.
        self.lagrange_phys = fb.physical_points(fb.lagrange_points(self.dofmap.degree), p)

    def _build_interior_tables(self):
        kind, p = self.dofmap.basis, self.dofmap.degree
        self.int_weights = fb.INTERIOR_WEIGHTS
        self.int_vals = fb.basis_values(kind, p, fb.INTERIOR_POINTS)     # (nq, N)
        ref = fb.basis_ref_grads(kind, p, fb.INTERIOR_POINTS)            # (nq, N, 2)
        self.int_grads = physical_grads(self.jinv_T[:, None], ref)       # (M, nq, N, 2)

    @_table("elems")
    def int_phys(self):
        """Physical interior quadrature points, (M, nq, 2)."""
        return fb.physical_points(fb.INTERIOR_POINTS, self.corner_coords)

    @_table("elems")
    def int_gradw_mat(self):
        """Area- and weight-folded gradient table (M, N, nq*2) for volume terms."""
        M = self.mesh.n_tris
        nq, nk = self.int_vals.shape
        gw = self.int_grads * (self.mesh.areas[:, None, None, None]
                               * self.int_weights[None, :, None, None])
        return np.ascontiguousarray(gw.transpose(0, 2, 1, 3).reshape(M, nk, nq * 2))

    def _edge_lam(self, t):
        """Barycentric coordinates of the edge points t on each local edge, (3, len(t), 3)."""
        return np.stack([fb.edge_barycentric(loc, t) for loc in range(3)])

    def _build_interface_tables(self):
        mesh = self.mesh
        kind, p = self.dofmap.basis, self.dofmap.degree
        lam = self._edge_lam(fb.EDGE_T)
        self.edge_weights = fb.EDGE_WEIGHTS
        self.edge_vals = fb.basis_values(kind, p, lam)                   # (3, nq, N)
        self.jump_t, self.jump_weights = fb.JUMP_RULES[p]
        li, ll = mesh.edge_left, mesh.edge_left_loc
        ri, rl = mesh.edge_right, mesh.edge_right_loc
        self.if_left = li
        self.if_right = ri
        self.if_normal = mesh.elem_edge_normal[li, ll]
        self.if_length = mesh.edge_length
        self.if_h = np.maximum(mesh.diameters[li], mesh.diameters[ri])
        # The right owner traverses the shared edge backwards, so its
        # quadrature points coincide with the left ones in reversed order.
        vals_L, vals_R = self.edge_vals[ll], self.edge_vals[rl][:, ::-1]  # (E, nq, N)
        # weight- and length-folded value tables (E, N, nq) and gradient
        # tables (E, nq, 2, N) for fast contractions
        wl = self.edge_weights[None, :, None] * self.if_length[:, None, None]
        self.if_vals_L_wl = np.ascontiguousarray((vals_L * wl).transpose(0, 2, 1))
        self.if_vals_R_wl = np.ascontiguousarray((vals_R * wl).transpose(0, 2, 1))

    @_table("interfaces")
    def if_jump_grads(self):
        """[grad X] at the points of the p-point gradient-jump rule as a map
        of the owner values (left, then right), (E, p, 2, 2N): minus the
        left owner's basis gradients and the right owner's, its points
        reversed to pair with the left ones."""
        kind, p = self.dofmap.basis, self.dofmap.degree
        ref = fb.basis_ref_grads(kind, p, self._edge_lam(self.jump_t))  # (3, p, N, 2)
        mesh, N = self.mesh, ref.shape[2]
        g = np.empty((len(self.if_left), p, 2, 2 * N))
        physical_grads(self.jinv_T[self.if_left, None], ref[mesh.edge_left_loc],
                       out=g[..., :N].swapaxes(-1, -2))
        physical_grads(self.jinv_T[self.if_right, None], ref[mesh.edge_right_loc][:, ::-1],
                       out=g[..., N:].swapaxes(-1, -2))
        np.negative(g[..., :N], out=g[..., :N])
        return g

    @cached_property
    def if_owners(self):
        """Left and right owner of each interface, (E, 2)."""
        return np.stack([self.if_left, self.if_right], axis=1)

    @cached_property
    def touched_dofs(self):
        """The DOFs the elements touch, ascending, (K,), and ``elem_dofs``
        as positions among them, (M, N): every DOF on the whole mesh."""
        ids, local = np.unique(self.dofmap.elem_dofs, return_inverse=True)
        return ids, local.reshape(self.dofmap.elem_dofs.shape)

    def _build_neighbors(self):
        mesh = self.mesh
        e = mesh.elem_edges
        side = mesh.elem_edge_side
        left = mesh.edge_left[e]
        right = mesh.edge_right[e]
        nbr = np.where(side == 0, right, left)
        self.elem_neighbors = nbr

    def _check_trace_pairing(self):
        """Both owners must enumerate the same physical quadrature points."""
        mesh = self.mesh
        edge_phys = fb.physical_points(self._edge_lam(fb.EDGE_T), self.corner_coords)
        x_r = edge_phys[self.if_right, mesh.edge_right_loc][:, ::-1]     # (E, nq, 2)
        x_l = edge_phys[self.if_left, mesh.edge_left_loc] + mesh.edge_translation[:, None, :]
        err = np.abs(x_r - x_l)
        scale = max(1.0, float(np.max(np.abs(mesh.nodes))))
        if err.max() > 1e-12 * scale:
            raise NonConforming("interface quadrature points do not pair up")

    # -- lazy integral tables -----------------------------------------

    def cached(self, key, build, rows=None):
        """Geometry-only table ``build(self)``, computed on first use only.
        ``rows`` is ``"elems"`` or ``"interfaces"`` for a table with one
        row (or a tuple of rows) per element or per interface."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    @_table("elems")
    def phi_grad_integrals(self):
        """int_K phi_sigma grad(phi_sigma') dx, shape (M, N, N, 2): the c_ij of
        Guermond and Popov and the one geometry table of the LxF family."""
        return np.einsum("q,qn,mqki->mnki", self.int_weights, self.int_vals,
                         self.int_grads) * self.mesh.areas[:, None, None, None]

    # -- element-to-CSR assembly --------------------------------------

    def _element_csr(self):
        """CSR pattern of the couplings elem_dofs x elem_dofs, (indptr, indices,
        slot): columns sorted within each row, and ``slot`` the position in
        the CSR data of each element-table entry, flattened in (m, n, k) order."""
        dofs = self.dofmap.elem_dofs
        n = self.dofmap.n_dofs
        keys = (dofs[:, :, None] * np.int64(n) + dofs[:, None, :]).ravel()
        pairs, slot = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(pairs, n)
        idx = np.int32 if max(n, len(pairs)) < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr, cols.astype(idx), slot

    def assemble(self, tables):
        """(n_dofs, n_dofs) CSR matrix of element tables (M, N, N).

        Row dofs[m, n], column dofs[m, k] receives tables[m, n, k]; each
        entry sums its element contributions in element order.  Every
        matrix shares one pattern and one element-to-CSR map, built from
        the DOF map on first use.  Only the implicit step assembles, so
        scipy is imported here and not with the module.
        """
        import scipy.sparse as sp

        indptr, indices, slot = self.cached("element_csr", Discretization._element_csr)
        n = self.dofmap.n_dofs
        data = np.bincount(slot, weights=tables.ravel(), minlength=len(indices))
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    # -- element patches ------------------------------------------------

    def patch(self, elems):
        """The Patch of the elements ``elems``: the cascade computes the
        residual rows of a level's elements on it."""
        return Patch(self, elems)

    # -- field helpers -------------------------------------------------

    def elem_values(self, U):
        """Gather per-element DOF values, shape (M, N_K, ncomp)."""
        return np.asarray(U)[self.dofmap.elem_dofs]

    def interior_field(self, U_elem):
        """Field at interior quadrature points, (M, nq, ncomp)."""
        return np.matmul(self.int_vals[None], U_elem)

    def traces(self, X_elem):
        """Left and right interface traces of X, each (E, nq, C).

        One product per element with the stacked edge table gives the
        element's own edge points; the traces are gathered from them,
        the right one reversed to pair with the left points.  On the
        continuous space the trace is single-valued: only the left
        owner's is gathered, and it stands for both.
        """
        M, N = X_elem.shape[:2]
        pts = np.matmul(self.edge_vals.reshape(-1, N), X_elem)
        pts = pts.reshape(M, 3, len(self.edge_weights), -1)                # (M, 3, nq, C)
        left = pts[self.if_left, self.mesh.edge_left_loc]
        if self.dofmap.space == "s2":
            return left, left
        return left, pts[self.if_right, self.mesh.edge_right_loc][:, ::-1]

    def trace_grad_jump(self, X_elem):
        """[grad X], the right minus the left trace gradient at the points
        of the p-point gradient-jump rule, (E, p, C, 2): one (2p, 2N) x
        (2N, C) product per interface with ``if_jump_grads``."""
        G = self.if_jump_grads
        E, p = G.shape[:2]
        owners = X_elem[self.if_owners]                                    # (E, 2, N, C)
        out = np.matmul(G.reshape(E, 2 * p, -1), owners.reshape(E, G.shape[-1], -1))
        return out.reshape(E, p, 2, -1).swapaxes(-1, -2)

    def scatter_interface(self, contrib_L, contrib_R):
        """Accumulate per-interface contributions into element arrays.

        contrib_L/contrib_R have shape (E, ...) and are added to the
        left/right owner rows of a fresh (M, ...) array; this is the one
        edge-to-element reduction.  Each entry of an element sums its
        left-owned contributions in interface order from 0.0, then adds
        the sum of its right-owned ones, made the same way.
        """
        M = self.mesh.n_tris
        out = self.owner_sum("left", self.if_left, M, contrib_L)
        out += self.owner_sum("right", self.if_right, M, contrib_R)
        return out

    def owner_sum(self, name, owners, n, X):
        """Sum the rows of X (K, ...) into a fresh (n, ...) array, row k
        into row ``owners[k]``: each entry sums its rows in row order
        from 0.0, as one ``np.bincount`` per column would.

        It is one ``np.bincount`` of X flattened to (K*C,) over the flat
        bins ``owners[k]*C + c``, built on first use per ``name`` and C
        and then kept as ``np.intp``, which ``np.bincount`` reads without
        a copy, so a ``name`` always stands for the same owners.
        """
        C = math.prod(X.shape[1:])

        def flat_bins(_):
            return (owners.astype(np.intp)[:, None] * C + np.arange(C, dtype=np.intp)).ravel()

        bins = self.cached(("bins", name, C), flat_bins)
        return np.bincount(bins, weights=X.ravel(), minlength=n * C).reshape((n,) + X.shape[1:])

    def interpolate(self, fn):
        """Interpolate fn(x, y) -> (..., ncomp) onto the DOF vector.

        Lagrange DOFs take point values; Bernstein coefficients solve the
        local value problem through the inverse Bernstein-to-Lagrange
        map.  The first owner element (lowest id) fixes shared DOFs: the
        values are read at ``DofMap.first_slot``.
        """
        X = self.lagrange_phys
        vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
        if self.dofmap.basis == "bernstein" and self.dofmap.degree > 1:
            Minv = np.linalg.inv(fb.bernstein_to_lagrange(self.dofmap.degree))
            vals = np.einsum("ln,mn...->ml...", Minv, vals)
        return vals.reshape((-1,) + vals.shape[2:])[self.dofmap.first_slot]


def _rules(shared=(), elements=(), interfaces=(), **remapped):
    """Patch rules: table name -> (rows gathered, id map applied to the values)."""
    rules = dict.fromkeys(shared, (None, None))
    rules.update(dict.fromkeys(elements, ("elems", None)))
    rules.update(dict.fromkeys(interfaces, ("interfaces", None)))
    rules.update(remapped)
    return rules


class _PatchView:
    """Tables of ``_parent`` restricted to a patch, each gathered on first read.

    ``_RULES`` says for each table which rows it keeps (all of them, or
    those of ``_rows.elems`` or ``_rows.interfaces``) and whether its
    values are element or interface ids to remap to the patch.  A table
    without a rule is not read by the kernels and raises AttributeError.
    """

    _RULES = {}

    def __getattr__(self, name):
        if name.startswith("_") or name not in self._RULES:
            raise AttributeError(f"{type(self).__name__} has no patch rule for {name!r}")
        rows, ids = self._RULES[name]
        value = getattr(self._parent, name)
        if rows is not None:
            value = value[getattr(self._rows, rows)]
        if ids is not None:
            value = getattr(self._rows, ids)[value]
        self.__dict__[name] = value
        return value


class _PatchRows:
    """Parent rows of a patch, ascending, and the parent-to-patch id maps."""

    def __init__(self, n_elems, n_interfaces, elems, interfaces):
        self.n_elems, self.n_interfaces = n_elems, n_interfaces
        self.elems, self.interfaces = elems, interfaces

    @cached_property
    def elem_id(self):
        """Patch id of each parent element, -1 outside the patch."""
        ids = np.full(self.n_elems, -1, dtype=np.int64)
        ids[self.elems] = np.arange(len(self.elems))
        return ids

    @cached_property
    def interface_id(self):
        """Patch id of each parent interface, 0 outside the patch."""
        ids = np.zeros(self.n_interfaces, dtype=np.int64)
        ids[self.interfaces] = np.arange(len(self.interfaces))
        return ids


class _PatchMesh(_PatchView):
    _RULES = _rules(
        shared=("nodes", "node_rep", "bbox"),
        elements=("tris", "areas", "diameters", "elem_edge_side", "elem_edge_normal",
                  "elem_edge_length"),
        interfaces=("edge_left_loc", "edge_right_loc", "edge_translation", "edge_length"),
        edge_left=("interfaces", "elem_id"), edge_right=("interfaces", "elem_id"),
        elem_edges=("elems", "interface_id"),
    )

    def __init__(self, mesh: Mesh, rows: _PatchRows):
        self._parent, self._rows = mesh, rows
        self.n_tris, self.n_edges = len(rows.elems), len(rows.interfaces)


class _PatchDofMap(_PatchView):
    _RULES = _rules(shared=("space", "basis", "degree", "dof_points", "n_dofs", "n_local"),
                    elements=("elem_dofs",))

    def __init__(self, dofmap: fb.DofMap, mesh: _PatchMesh, rows: _PatchRows):
        self._parent, self._rows = dofmap, rows
        self.mesh = mesh


class Patch(_PatchView, Discretization):
    """A set of elements of a Discretization with their edge neighbours,
    on which every kernel runs unchanged.

    The neighbours are a halo: the patch keeps only the interfaces whose
    two owners both lie in it, in ascending order, so a requested
    element keeps all its interfaces, each of its kernel rows sums in
    the same order, and its rows come out as on the whole mesh.  The
    rows of the halo elements miss interfaces and must not be read.

    No table is recomputed and nothing is copied up front: element and
    interface tables, and the lazy tables of ``cached`` with ``rows``,
    are gathered from the parent on first read; the parent builds a lazy
    table it lacks, once.  Owner and edge ids are remapped to the
    patch (an interface outside it reads as interface 0); the DOF map
    keeps the global DOF ids, so kernels on the patch read the global DOF
    vector.  The neighbour table has no patch rule: only the cascade
    reads it, on the whole mesh.

    ``elems`` holds the parent ids of the patch elements in ascending
    order and ``core`` the patch positions of the requested elements.
    """

    _RULES = _rules(
        shared=("int_weights", "int_vals", "edge_weights", "edge_vals", "jump_t",
                "jump_weights"),
        elements=("jinv_T", "corner_coords", "lagrange_phys", "int_grads"),
        interfaces=("if_normal", "if_length", "if_h", "if_vals_L_wl", "if_vals_R_wl"),
        if_left=("interfaces", "elem_id"), if_right=("interfaces", "elem_id"),
    )

    def __init__(self, parent: Discretization, elems):
        req = np.asarray(elems, dtype=np.int64)
        inside = np.zeros(parent.mesh.n_tris, dtype=bool)
        inside[req] = True
        inside[parent.elem_neighbors[req]] = True
        rows = _PatchRows(len(inside), len(parent.if_left), np.flatnonzero(inside),
                          np.flatnonzero(inside[parent.if_left] & inside[parent.if_right]))
        self._parent, self._rows, self._cache = parent, rows, {}
        self.elems = rows.elems
        self.core = np.searchsorted(rows.elems, req)
        self.mesh = _PatchMesh(parent.mesh, rows)
        self.dofmap = _PatchDofMap(parent.dofmap, self.mesh, rows)

    def cached(self, key, build, rows=None):
        """With ``rows``, the parent's table gathered by the patch's rows;
        without, ``build(self)`` on the patch (the flat scatter bins)."""
        if rows is not None and key not in self._cache:
            value, at = self._parent.cached(key, build, rows), getattr(self._rows, rows)
            self._cache[key] = (tuple(v[at] for v in value) if isinstance(value, tuple)
                                else value[at])
        return super().cached(key, build)


class PointValues:
    """States at one set of points and their pressure, checked once.

    The wavespeed and the flux are computed from that pressure, so the
    point set costs one pressure evaluation however many consumers read
    it.  Of these only the largest wavespeed per row is kept.

    With ``rows``, ``U`` holds distinct states and the points are
    ``U[rows]``: each value is computed once per state and read at the
    points (``at_points``), bitwise as on the points themselves.
    """

    def __init__(self, U, gas, rows=None):
        self.U, self.gas, self.rows = U, gas, rows
        self.state_p = euler.pressure(U, gas)

    def at_points(self, values):
        """Values per state of U, read at the points."""
        return values if self.rows is None else values[self.rows]

    @cached_property
    def p(self):
        return self.at_points(self.state_p)

    @property
    def wavespeed(self):
        return self.at_points(euler.max_wavespeed(self.U, self.gas, p=self.state_p))

    @cached_property
    def peak_wavespeed(self):
        """Largest wavespeed of each row of points (element or interface)."""
        return last_axis_max(self.wavespeed)

    @property
    def flux(self):
        # read in the (..., 2, 4) memory order of the flux table
        f = euler.flux(self.U, self.gas, p=self.state_p)
        return self.at_points(f.swapaxes(-1, -2)).swapaxes(-1, -2)


class StageFields:
    """Point values of one state for one gas, each set built on first use.

    - ``U``: the DOF vector the set was built from (n_dofs, 4);
    - ``U_elem``: its element DOF values (M, N, 4); ``dofs`` is their
      PointValues and ``V_elem`` their entropy variables, each computed
      once per DOF the elements touch (``Discretization.touched_dofs``,
      the states ``dofs.U``) and read through the DOF map;
    - ``interior``: PointValues at the interior quadrature points, (M, nq, 4);
    - ``trace_L``, ``trace_R``: PointValues of the interface traces of the
      left and right owners, (E, nq, 4), from one ``Discretization.traces``;
      on the continuous space the trace is single-valued and ``trace_R``
      is ``trace_L``, so a state costs 3 pressure evaluations there;
    - ``cached(key, build)``: values derived from these, such as the
      gradient-jump integral of V or the element wavespeed sweep, which
      the modules that define them memoise here.

    Every residual, entropy and alpha-bound kernel takes one StageFields
    and reads ``disc``, ``gas`` and ``U`` from it; a state's set is
    ``FieldState.fields``, and a caller with a bare DOF vector builds
    ``StageFields(disc, gas, U)`` once.
    """

    def __init__(self, disc: Discretization, gas, U):
        self.disc = disc
        self.gas = gas
        self.U = U
        self._cache = {}

    def cached(self, key, build):
        """Value ``build()`` derived from these fields, computed on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @cached_property
    def U_elem(self):
        return self.disc.elem_values(self.U)

    @cached_property
    def dofs(self):
        ids, local = self.disc.touched_dofs
        return PointValues(np.asarray(self.U)[ids], self.gas, rows=local)

    @cached_property
    def V_elem(self):
        d = self.dofs
        return d.at_points(euler.entropy_vars(d.U, self.gas, p=d.state_p))

    @cached_property
    def interior(self):
        return PointValues(self.disc.interior_field(self.U_elem), self.gas)

    @cached_property
    def _traces(self):
        return self.disc.traces(self.U_elem)

    @cached_property
    def trace_L(self):
        return PointValues(self._traces[0], self.gas)

    @cached_property
    def trace_R(self):
        left, right = self._traces
        return self.trace_L if right is left else PointValues(right, self.gas)


def physical_grads(jinv_T, ref, out=None):
    """Physical basis gradients from reference ones, (..., N, 2).

    jinv_T (..., 2, 2) holds the transposed inverse Jacobians and ref
    (..., N, 2) the gradients with respect to (lambda_1, lambda_2); their
    leading axes broadcast.  Summed over j in order and from zero, as
    ``np.einsum("mij,...nj->m...ni")`` sums, so the bits are the einsum's.
    ``out`` may be a view of another layout, such as a swapped (..., 2, N).
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(jinv_T.shape[:-2], ref.shape[:-2]) + ref.shape[-2:])
    for i in range(2):                           # one component at a time: long inner loops
        o = out[..., i]
        np.multiply(ref[..., 0], jinv_T[..., i, 0, None], out=o)
        o += ref[..., 1] * jinv_T[..., i, 1, None]
    out += 0.0                                   # the zero start: no -0.0
    return out


def elem_mean(X):
    """Mean over axis 1, summed in order: ((x0 + x1) + ...) / N.

    Equal to ``X.mean(axis=1)``, and much faster when the axis is short.
    """
    out = X[:, 0] + X[:, 1]
    for j in range(2, X.shape[1]):
        out += X[:, j]
    out += 0.0                                   # the zero start: no -0.0
    out /= X.shape[1]
    return out


def last_axis_max(a):
    """Maximum over the last axis, one ``np.maximum`` per entry of that axis.

    Equal to ``a.max(axis=-1)``, and much faster when the axis is short.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out
