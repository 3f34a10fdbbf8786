import dataclasses

import numpy as np
import pytest

from conftest import scrambled
from rdeuler.basis import DofMap, build_dofmap, lagrange_points, n_local_dofs
from rdeuler.errors import ConfigError, DegenerateTriangle, NonConforming, UnmatchedPeriodicEdge
from rdeuler.mesh import (
    Mesh,
    _reject_hanging_nodes,
    _signed_area2,
    build_mesh,
    dual_volumes,
    read_mesh,
    shape_regularity,
    structured_rect,
    structured_square,
    write_mesh,
)


_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

# the unit square cut along its anti-diagonal: element 0 is the
# reference triangle (0, 0), (1, 0), (0, 1)
_PAIR = [(0, 1, 2), (1, 3, 2)]


def _edge_counts(mesh):
    """Interior edges and periodic couples."""
    periodic = np.any(mesh.edge_translation != 0, axis=1)
    return int(np.sum(~periodic)), int(np.sum(periodic))


def test_reference_triangle_in_a_periodic_square():
    mesh = build_mesh(_SQUARE, _PAIR)
    assert mesh.n_tris == 2
    assert _edge_counts(mesh) == (1, 2)
    assert mesh.areas[0] == pytest.approx(0.5, abs=1e-15)


def test_two_triangle_periodic_square():
    nodes = [(0, 0), (1, 0), (1, 1), (0, 1)]
    mesh = build_mesh(nodes, [(0, 1, 2), (0, 2, 3)])
    assert _edge_counts(mesh) == (1, 2)


@pytest.mark.parametrize(
    "make",
    [lambda: build_mesh(_SQUARE, _PAIR), lambda: structured_rect(5, 3),
     lambda: build_mesh(*scrambled(7, 5, seed=11))],
    ids=["pair", "rect", "scrambled"],
)
def test_every_interface_has_two_owners(make):
    mesh = make()
    assert (mesh.edge_right >= 0).all() and (mesh.edge_right_loc >= 0).all()
    # each element edge is one side of exactly one interface
    sides = np.zeros((mesh.n_tris, 3), dtype=int)
    np.add.at(sides, (mesh.edge_left, mesh.edge_left_loc), 1)
    np.add.at(sides, (mesh.edge_right, mesh.edge_right_loc), 1)
    assert (sides == 1).all()


def test_content_hash_is_pinned():
    # snapshots record this hash; a restart accepts only an equal one
    assert structured_square(4).content_hash() == "69be7d808c488d97"
    assert structured_rect(64, 8, width=10.0, height=1.25).content_hash() == "3bac372d63b0e95e"


def test_hanging_node_rejected():
    # node 4 sits halfway along the long edge (1, 2) of the right triangle
    nodes = [(0, 0), (2, 0), (2, 2), (2, 1), (3, 1)]
    tris = [(0, 1, 3), (0, 3, 2), (1, 4, 2)]
    with pytest.raises(NonConforming):
        build_mesh(nodes, tris)


def test_triple_owner_rejected():
    nodes = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]
    tris = [(0, 1, 2), (1, 3, 2), (2, 0, 4)]
    # edge (0,2) owned by triangles 0 and 2; add a third owner
    tris.append((0, 2, 3))
    with pytest.raises(NonConforming):
        build_mesh(nodes, tris)


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        build_mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_orientation_autofix():
    mesh = build_mesh(_SQUARE, [(0, 2, 1), (1, 3, 2)])  # element 0 clockwise
    assert mesh.areas[0] > 0
    p = mesh.nodes[mesh.tris[0]]
    a, b = p[1] - p[0], p[2] - p[0]
    assert a[0] * b[1] - a[1] * b[0] > 0


def test_unmatched_periodic_edge():
    # a non-rectangular domain cannot pair its slanted boundary
    nodes = [(0, 0), (1, 0), (0.6, 1.0)]
    with pytest.raises(UnmatchedPeriodicEdge):
        build_mesh(nodes, [(0, 1, 2)])


def test_shape_regularity_reference():
    mesh = build_mesh(_SQUARE, _PAIR)
    sr = shape_regularity(mesh)
    assert sr["min"] == pytest.approx(4.0, rel=1e-14)
    assert sr["max"] == pytest.approx(4.0, rel=1e-14)


def test_shape_regularity_congruent():
    mesh = structured_square(3, side=3.0)
    sr = shape_regularity(mesh)
    assert sr["min"] == pytest.approx(sr["max"], rel=1e-13)


def test_shape_regularity_needle_reported():
    # a 1 x 1e-6 strip cut along its diagonal
    mesh = build_mesh([(0, 0), (1, 0), (0, 1e-6), (1, 1e-6)], [(0, 1, 3), (0, 3, 2)])
    sr = shape_regularity(mesh)
    assert sr["max"] == pytest.approx(2e6, rel=1e-3)


def test_dual_volumes_reference_pair():
    # the four corners of the periodic square are one vertex, the only
    # P1 DOF: it holds both triangles
    mesh = build_mesh(_SQUARE, _PAIR)
    dm = build_dofmap(mesh, "s2", "lagrange", 1)
    dv = dual_volumes(dm)
    assert dm.n_dofs == 1
    assert dv.c_sigma[0] == pytest.approx(1.0, rel=1e-14)
    assert dv.k_sigma[0] == pytest.approx(0.5 / 3.0)


def test_dual_volume_hexagon_vertex():
    # every vertex of the periodic structured square is shared by 6
    # congruent triangles of area A, so its dual volume is 2A
    mesh = structured_square(4, side=3.0)
    dm = build_dofmap(mesh, "s2", "lagrange", 1)
    dv = dual_volumes(dm)
    A = mesh.areas[0]
    assert np.allclose(mesh.areas, A, rtol=1e-13)
    assert np.bincount(dm.elem_dofs.ravel()).tolist() == [6] * dm.n_dofs
    assert np.allclose(dv.c_sigma, 2 * A, rtol=1e-13)


def test_dual_volumes_discontinuous():
    mesh = structured_square(2, side=1.0)
    dm = build_dofmap(mesh, "s1", "lagrange", 1)
    dv = dual_volumes(dm)
    expect = np.repeat(mesh.areas / 3.0, 3)
    assert np.allclose(dv.c_sigma, expect, rtol=1e-14)


def test_dual_volumes_read_the_mesh_of_the_dofmap():
    # no mesh argument to mismatch: a 10 x 10 square has dual volumes
    # summing to 100, whatever other mesh is at hand
    dm = build_dofmap(structured_square(4, side=10.0))
    assert dual_volumes(dm).c_sigma.sum() == pytest.approx(100.0, rel=1e-13)


@pytest.mark.parametrize("space, basis, degree", [("s2", "lagrange", 1), ("s2", "bernstein", 2),
                                                  ("s1", "lagrange", 1), ("s1", "lagrange", 2)])
def test_dual_volumes_equal_the_add_at_sums(space, basis, degree):
    mesh = build_mesh(*scrambled(12, 10, seed=4))
    dm = build_dofmap(mesh, space, basis, degree)
    want = np.zeros(dm.n_dofs)
    np.add.at(want, dm.elem_dofs, (mesh.areas / dm.n_local)[:, None])
    got = dual_volumes(dm).c_sigma
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dual_volumes_partition_total_area():
    mesh = structured_square(5, side=7.0)
    for space, deg in (("s2", 1), ("s2", 2), ("s1", 2)):
        dm = build_dofmap(mesh, space, "lagrange", deg)
        dv = dual_volumes(dm)
        assert np.sum(dv.c_sigma) == pytest.approx(np.sum(mesh.areas), rel=1e-12)


def test_opposite_normals_and_polygon_closure():
    mesh = structured_square(4)
    # each triangle's length-weighted normals close up
    closure = np.einsum(
        "mk,mki->mi", mesh.elem_edge_length, mesh.elem_edge_normal
    )
    assert np.abs(closure).max() < 1e-14 * mesh.diameters.max()
    # opposite outward normals across every interface
    nl = mesh.elem_edge_normal[mesh.edge_left, mesh.edge_left_loc]
    nr = mesh.elem_edge_normal[mesh.edge_right, mesh.edge_right_loc]
    assert np.abs(nl + nr).max() < 1e-14


def test_periodic_pair_lengths_match():
    mesh = structured_square(4)
    per = np.any(mesh.edge_translation != 0, axis=1)
    lr = mesh.elem_edge_length[mesh.edge_right, mesh.edge_right_loc]
    rel = np.abs(mesh.edge_length - lr)[per] / mesh.edge_length[per]
    assert rel.max() < 1e-9


def test_mesh_file_roundtrip(tmp_path):
    mesh = structured_square(3)
    path = tmp_path / "m.txt"
    write_mesh(path, mesh)
    back = read_mesh(path)
    assert np.array_equal(back.tris, mesh.tris)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert path.read_text().endswith("periodic auto\n")


def test_mesh_file_without_periodic_line_is_a_config_error(tmp_path):
    path = tmp_path / "m.txt"
    write_mesh(path, structured_square(3))
    text = path.read_text()
    path.write_text(text.replace("periodic auto\n", ""))
    with pytest.raises(ConfigError, match=r"m\.txt: .*the solver requires a periodic mesh"):
        read_mesh(path)
    # anything in place of the line is no better
    path.write_text(text.replace("periodic auto\n", "periodic none\n"))
    with pytest.raises(ConfigError, match="the solver requires a periodic mesh"):
        read_mesh(path)
    path.write_text(text + "0 1 2\n")
    with pytest.raises(NonConforming, match="trailing tokens"):
        read_mesh(path)


@pytest.mark.parametrize("text, match", [
    ("rdmesh 2\nnodes 0\ntriangles 0\n", "not an rdmesh-1 file"),
    ("rdmesh 1\nnodes", "truncated mesh file, expected node count"),
    ("rdmesh 1\nnodes 2\n0 0\n1", "truncated mesh file, expected y"),
    ("rdmesh 1\nnodes 1\n0 0\ntriangles 1\n0", "truncated mesh file, expected j"),
    ("rdmesh 1\nvertices 0\ntriangles 0\n", "expected 'nodes'"),
    ("rdmesh 1\nnodes 0\ntris 0\n", "expected 'triangles'"),
], ids=["version", "header", "node-block", "triangle-block", "nodes-keyword",
        "triangles-keyword"])
def test_mesh_file_rejects_garbage(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(NonConforming, match=rf"bad\.txt: {match}"):
        read_mesh(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_node_named(bad):
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    nodes[2, 1] = bad
    with pytest.raises(NonConforming, match="node 2 "):
        build_mesh(nodes, [(0, 1, 2), (1, 3, 2)])
    nodes[3, 0] = bad
    with pytest.raises(NonConforming, match="node 2 "):
        build_mesh(nodes, [(0, 1, 2), (1, 3, 2)])


# -- reference set-up: the element-by-element loops ---------------------


def _ref_build_mesh(raw_nodes, raw_triangles):
    """Oracle for build_mesh: an owner dict and one row per interface."""
    nodes = np.asarray(raw_nodes, dtype=float).copy()
    tris = np.asarray(raw_triangles, dtype=np.int64).copy()
    if tris.ndim != 2 or tris.shape[1] != 3 or tris.shape[0] < 1:
        raise NonConforming("need at least one index triple")
    if tris.min() < 0 or tris.max() >= nodes.shape[0]:
        raise NonConforming("triangle index out of range")

    extent = nodes.max(axis=0) - nodes.min(axis=0)
    scale = max(float(np.max(np.abs(nodes))), float(extent.max()), 1.0)

    area2 = _signed_area2(nodes, tris)
    flip = area2 < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    area2 = np.abs(area2)
    if np.any(area2 <= 1e-14 * scale * scale):
        bad = int(np.argmin(area2))
        raise DegenerateTriangle(f"triangle {bad} has zero area")
    areas = 0.5 * area2

    # Edge ownership keyed by the unordered node pair.
    owners = {}
    for k in range(tris.shape[0]):
        for loc in range(3):
            a = int(tris[k, loc])
            b = int(tris[k, (loc + 1) % 3])
            key = (a, b) if a < b else (b, a)
            owners.setdefault(key, []).append((k, loc))
    for key, lst in owners.items():
        if len(lst) > 2:
            raise NonConforming(f"edge {key} shared by {len(lst)} triangles")

    boundary = [(key, lst[0]) for key, lst in owners.items() if len(lst) == 1]
    _ref_reject_hanging_nodes(nodes, boundary, tol=1e-12 * scale)

    pairs, translations = _ref_pair_periodic_edges(nodes, boundary)

    edge_rows = []
    for key, lst in sorted(owners.items()):
        if len(lst) == 2:
            (k1, loc1), (k2, loc2) = sorted(lst)
            a1 = int(tris[k1, loc1])
            b1 = int(tris[k1, (loc1 + 1) % 3])
            a2 = int(tris[k2, loc2])
            b2 = int(tris[k2, (loc2 + 1) % 3])
            if (a1, b1) == (a2, b2):
                raise NonConforming(f"edge {key} traversed twice in the same sense")
            edge_rows.append((a1, b1, k1, loc1, k2, loc2, False, 0.0, 0.0))
    for key_l, key_r in sorted(pairs.items()):
        (k1, loc1) = owners[key_l][0]
        (k2, loc2) = owners[key_r][0]
        a1 = int(tris[k1, loc1])
        b1 = int(tris[k1, (loc1 + 1) % 3])
        t = translations[key_l]
        edge_rows.append((a1, b1, k1, loc1, k2, loc2, True, t[0], t[1]))

    n_edges = len(edge_rows)
    edge_left = np.array([r[2] for r in edge_rows], dtype=np.int64)
    edge_left_loc = np.array([r[3] for r in edge_rows], dtype=np.int64)
    edge_right = np.array([r[4] for r in edge_rows], dtype=np.int64)
    edge_right_loc = np.array([r[5] for r in edge_rows], dtype=np.int64)
    edge_translation = np.array([(r[7], r[8]) for r in edge_rows], dtype=float)

    elem_edges = np.full((tris.shape[0], 3), -1, dtype=np.int64)
    elem_edge_side = np.zeros((tris.shape[0], 3), dtype=np.int64)
    for e in range(n_edges):
        elem_edges[edge_left[e], edge_left_loc[e]] = e
        elem_edge_side[edge_left[e], edge_left_loc[e]] = 0
        elem_edges[edge_right[e], edge_right_loc[e]] = e
        elem_edge_side[edge_right[e], edge_right_loc[e]] = 1
    if np.any(elem_edges < 0):
        raise NonConforming("element edge without interface entry")

    # Outward normals: rotate the ccw edge tangent by -90 degrees.
    p = nodes[tris]                                   # (M, 3, 2)
    tangents = p[:, [1, 2, 0], :] - p                 # local edge k: vk -> vk+1
    lengths = np.hypot(tangents[..., 0], tangents[..., 1])
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
    normals /= lengths[..., None]
    diameters = lengths.max(axis=1)
    edge_length = lengths[edge_left, edge_left_loc]

    right_len = lengths[edge_right, edge_right_loc]
    rel = np.abs(edge_length - right_len) / edge_length
    if np.any(rel > 1e-9):
        raise UnmatchedPeriodicEdge("paired edges differ in length")

    node_rep = _ref_identify_nodes(nodes, edge_rows, tris)

    return Mesh(
        nodes=nodes,
        tris=tris,
        areas=areas,
        diameters=diameters,
        edge_left=edge_left,
        edge_left_loc=edge_left_loc,
        edge_right=edge_right,
        edge_right_loc=edge_right_loc,
        edge_translation=edge_translation,
        edge_length=edge_length,
        elem_edges=elem_edges,
        elem_edge_side=elem_edge_side,
        elem_edge_normal=normals,
        elem_edge_length=lengths,
        node_rep=node_rep,
        bbox=(
            float(nodes[:, 0].min()),
            float(nodes[:, 0].max()),
            float(nodes[:, 1].min()),
            float(nodes[:, 1].max()),
        ),
    )


def _ref_reject_hanging_nodes(nodes, boundary_edges, tol):
    for (a, b), _ in boundary_edges:
        pa, pb = nodes[a], nodes[b]
        d = pb - pa
        L2 = d @ d
        rel = nodes - pa
        t = (rel @ d) / L2
        perp = rel - t[:, None] * d
        dist = np.hypot(perp[:, 0], perp[:, 1])
        on_open_segment = (dist < tol) & (t > 1e-9) & (t < 1 - 1e-9)
        on_open_segment[[a, b]] = False
        if np.any(on_open_segment):
            raise NonConforming(
                f"node {int(np.argmax(on_open_segment))} hangs on edge ({a}, {b})"
            )


def _ref_edge_side_of_box(nodes, key, bbox, tol):
    (xmin, xmax, ymin, ymax) = bbox
    pts = nodes[list(key)]
    if np.all(np.abs(pts[:, 0] - xmin) < tol):
        return "xmin"
    if np.all(np.abs(pts[:, 0] - xmax) < tol):
        return "xmax"
    if np.all(np.abs(pts[:, 1] - ymin) < tol):
        return "ymin"
    if np.all(np.abs(pts[:, 1] - ymax) < tol):
        return "ymax"
    return None


def _ref_pair_periodic_edges(nodes, boundary):
    xmin, ymin = nodes.min(axis=0)
    xmax, ymax = nodes.max(axis=0)
    tol = 1e-9 * max(xmax - xmin, ymax - ymin)
    bbox = (xmin, xmax, ymin, ymax)
    sides = {"xmin": [], "xmax": [], "ymin": [], "ymax": []}
    for key, _ in boundary:
        side = _ref_edge_side_of_box(nodes, key, bbox, tol)
        if side is None:
            raise UnmatchedPeriodicEdge(f"boundary edge {key} off the bounding box")
        sides[side].append(key)

    pairs = {}
    translations = {}

    def match(low, high, t):
        t = np.asarray(t, dtype=float)
        high_mids = {k: 0.5 * (nodes[k[0]] + nodes[k[1]]) for k in sides[high]}
        used = set()
        for key in sides[low]:
            mid = 0.5 * (nodes[key[0]] + nodes[key[1]]) + t
            best, best_d = None, np.inf
            for hk, hm in high_mids.items():
                if hk in used:
                    continue
                d = np.hypot(*(hm - mid))
                if d < best_d:
                    best, best_d = hk, d
            if best is None or best_d > tol:
                raise UnmatchedPeriodicEdge(f"no partner for boundary edge {key}")
            used.add(best)
            pairs[key] = best
            translations[key] = t
        if len(used) != len(sides[high]):
            raise UnmatchedPeriodicEdge(f"unpaired edges remain on side {high}")

    match("xmin", "xmax", (xmax - xmin, 0.0))
    match("ymin", "ymax", (0.0, ymax - ymin))
    return pairs, translations


def _ref_identify_nodes(nodes, edge_rows, tris):
    """Oracle for the node representatives: union-find over periodic couples."""
    parent = np.arange(nodes.shape[0])

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for row in edge_rows:
        a1, b1, k1, loc1, k2, loc2, is_per = row[:7]
        if not is_per:
            continue
        t = np.array(row[7:9])
        a2 = int(tris[k2, loc2])
        b2 = int(tris[k2, (loc2 + 1) % 3])
        for left_node in (a1, b1):
            target = nodes[left_node] + t
            d2 = np.hypot(*(nodes[a2] - target))
            d3 = np.hypot(*(nodes[b2] - target))
            union(left_node, a2 if d2 <= d3 else b2)
    return np.array([find(i) for i in range(nodes.shape[0])])


def _ref_build_dofmap(mesh, space, basis, degree):
    """Oracle for build_dofmap: S2 numbering and coordinates element by element."""
    nk = n_local_dofs(degree)
    M = mesh.n_tris
    pts = lagrange_points(degree)
    phys = np.einsum("lk,mkx->mlx", pts, mesh.nodes[mesh.tris])
    if space == "s1":
        slots = np.arange(M * nk, dtype=np.int64)
        return DofMap(mesh, space, basis, degree, slots.reshape(M, nk), phys.reshape(M * nk, 2),
                      M * nk, slots)
    reps = np.unique(mesh.node_rep)
    vert_id = {int(r): i for i, r in enumerate(reps)}
    n_vert = len(reps)
    elem_dofs = np.empty((M, nk), dtype=np.int64)
    for k in range(M):
        for v in range(3):
            elem_dofs[k, v] = vert_id[int(mesh.node_rep[mesh.tris[k, v]])]
    n_dofs = n_vert
    if degree == 2:
        elem_dofs[:, 3:6] = n_vert + mesh.elem_edges
        n_dofs = n_vert + mesh.n_edges
    dof_points = np.zeros((n_dofs, 2))
    first_slot = np.full(n_dofs, -1, dtype=np.int64)
    for k in range(M):
        for l in range(nk):
            d = elem_dofs[k, l]
            if first_slot[d] < 0:
                dof_points[d] = phys[k, l]
                first_slot[d] = k * nk + l
    return DofMap(mesh, space, basis, degree, elem_dofs, dof_points, n_dofs, first_slot)


def _ref_structured_rect(nx, ny, width=10.0, height=10.0):
    """Oracle for structured_rect: triangles cell by cell."""
    xs = np.linspace(-width / 2.0, width / 2.0, nx + 1)
    ys = np.linspace(-height / 2.0, height / 2.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=-1)

    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return _ref_build_mesh(nodes, np.array(tris))


def _assert_same_fields(got, want):
    """Every array field byte-equal with its dtype and shape; the rest equal."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), f.name
            assert g.tobytes() == w.tobytes(), f.name
        elif isinstance(w, Mesh):
            _assert_same_fields(g, w)
        else:
            assert type(g) is type(w) and g == w, f.name


def _assert_same_setup(got, want):
    _assert_same_fields(got, want)
    for space in ("s1", "s2"):
        for degree in (1, 2):
            _assert_same_fields(
                build_dofmap(got, space, "lagrange", degree),
                _ref_build_dofmap(want, space, "lagrange", degree),
            )


def _hexagon():
    ring = [(np.cos(a), np.sin(a)) for a in np.linspace(0, 2 * np.pi, 7)[:-1]]
    return [(0.0, 0.0)] + ring, [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]


@pytest.mark.parametrize(
    "nx, ny", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 3), (16, 16), (64, 8), (64, 64)]
)
def test_structured_setup_matches_oracle(nx, ny):
    _assert_same_setup(
        structured_rect(nx, ny, width=7.0, height=3.0),
        _ref_structured_rect(nx, ny, width=7.0, height=3.0),
    )


@pytest.mark.parametrize(
    "raw",
    [lambda: scrambled(7, 5, seed=11), lambda: scrambled(6, 9, seed=12)],
    ids=["scrambled_7x5", "scrambled_6x9"],
)
def test_unstructured_setup_matches_oracle(raw):
    nodes, tris = raw()
    _assert_same_setup(build_mesh(nodes, tris), _ref_build_mesh(nodes, tris))


def _folded_square():
    """The 2 x 2 structured square with its centre node moved past the
    edge (3, 7): triangle (3, 7, 4) folds over its neighbour (0, 3, 4),
    and both traverse the edge (3, 4) in the same sense.  The boundary
    still pairs."""
    grid = structured_rect(2, 2, width=2.0, height=2.0)
    nodes = grid.nodes.copy()
    nodes[4] = (0.75, -0.5)
    return nodes, grid.tris


_MALFORMED = {
    "triple_owner": ([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)],
                     [(0, 1, 2), (1, 3, 2), (2, 0, 4), (0, 2, 3)]),
    "hanging_node": ([(0, 0), (2, 0), (2, 2), (2, 1), (3, 1)],
                     [(0, 1, 3), (0, 3, 2), (1, 4, 2)]),
    "same_sense": _folded_square(),
    "degenerate": ([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)]),
    "off_the_box": ([(0, 0), (1, 0), (0.6, 1.0)], [(0, 1, 2)]),
    # xmin is split at y = 0.5, xmax is not
    "no_partner": ([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0.5)],
                   [(0, 1, 4), (1, 2, 4), (2, 3, 4)]),
    # xmax is split at y = 0.25 and 0.75, xmin is not: the one xmin edge
    # takes the middle xmax edge, whose midpoint its own maps onto
    "unpaired_remain": ([(0, 0), (1, 0), (1, 1), (0, 1), (1, 0.25), (1, 0.75)],
                        [(0, 1, 4), (0, 4, 5), (0, 5, 3), (5, 2, 3)]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_mesh_error_matches_oracle(case):
    nodes, tris = _MALFORMED[case]
    with pytest.raises(Exception) as want:
        _ref_build_mesh(nodes, tris)
    with pytest.raises(want.type) as got:
        build_mesh(nodes, tris)
    assert str(got.value) == str(want.value)
    assert case != "same_sense" or "same sense" in str(got.value)


def _first_boundary_owners(tris):
    """The boundary edges of a triangle list, keyed as the oracle keys them."""
    owners = {}
    for k, tri in enumerate(np.asarray(tris)):
        for loc in range(3):
            a, b = int(tri[loc]), int(tri[(loc + 1) % 3])
            owners.setdefault((min(a, b), max(a, b)), []).append((k, loc))
    return [(key, lst[0]) for key, lst in owners.items() if len(lst) == 1]


def _hanging_node_outcomes(nodes, boundary, max_pairs):
    """(oracle, vectorised) outcome of the hanging-node test: None or the message."""
    nodes = np.asarray(nodes, dtype=float)
    ends = np.array([key for key, _ in boundary], dtype=np.int64).reshape(-1, 2)
    scale = max(float(np.max(np.abs(nodes))), float(np.ptp(nodes, axis=0).max()), 1.0)
    tol = 1e-12 * scale
    out = []
    for test in (lambda: _ref_reject_hanging_nodes(nodes, boundary, tol),
                 lambda: _reject_hanging_nodes(nodes, ends[:, 0], ends[:, 1], tol,
                                               max_pairs=max_pairs)):
        try:
            test()
            out.append(None)
        except NonConforming as exc:
            out.append(str(exc))
    return out


def _strip_with_hanging_nodes():
    """A one-cell strip of 40 rows and three loose nodes on boundary edges."""
    strip = structured_rect(1, 40, width=0.5, height=20.0)
    x0, x1, y0, y1 = strip.bbox
    extra = [(x1, y0 + 30.25), (x0, y0 + 7.25), (0.5 * (x0 + x1), y1)]
    return np.vstack([strip.nodes, extra]), strip.tris


_HANGING = {
    "hexagon": _hexagon,
    "scrambled": lambda: scrambled(7, 5, seed=11),
    "rect": lambda: (lambda m: (m.nodes, m.tris))(structured_rect(5, 3)),
    "tall_strip": lambda: (lambda m: (m.nodes, m.tris))(
        structured_rect(1, 40, width=0.5, height=20.0)
    ),
    "tall_strip_hanging": _strip_with_hanging_nodes,
    "hanging_node": lambda: _MALFORMED["hanging_node"][:2],
}


@pytest.mark.parametrize("max_pairs", [1, 7, 1 << 16])
@pytest.mark.parametrize("case", sorted(_HANGING))
def test_hanging_node_test_matches_oracle(case, max_pairs):
    nodes, tris = _HANGING[case]()
    want, got = _hanging_node_outcomes(nodes, _first_boundary_owners(tris), max_pairs)
    assert got == want
    assert (want is not None) == ("hanging" in case)


@pytest.mark.parametrize("max_pairs", [1, 5, 1 << 16])
def test_hanging_node_test_matches_oracle_on_lattice_segments(max_pairs):
    # segments between points of an integer lattice pass through the
    # lattice points in between: several edges hang several nodes, and
    # the first edge in order names its smallest node
    rng = np.random.default_rng(3)
    g = np.arange(9.0)
    nodes = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    raised = 0
    for _ in range(40):
        pairs = rng.choice(len(nodes), size=(3, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        boundary = [((int(a), int(b)), None) for a, b in pairs]
        want, got = _hanging_node_outcomes(nodes, boundary, max_pairs)
        assert got == want
        raised += want is not None
    assert 0 < raised < 40


def test_periodic_edge_whose_nearest_partner_is_taken_rejected():
    # two coincident copies of the unit square (nodes 4..7 repeat 0..3):
    # each side has two edges on the same midpoint, and the xmin edge
    # (4, 7) of the second copy is nearest to the xmax edge that (0, 3),
    # first in the file, already took
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)]
    with pytest.raises(UnmatchedPeriodicEdge, match=r"no unique partner for boundary edge \(4, 7\)"):
        build_mesh(square + square, tris)


@pytest.mark.parametrize(
    "make",
    [lambda: structured_rect(5, 3), lambda: build_mesh(*scrambled(7, 5, seed=11))],
    ids=["structured", "scrambled"],
)
def test_mesh_file_keeps_content_hash(tmp_path, make):
    mesh = make()
    path = tmp_path / "m.rdmesh"
    write_mesh(path, mesh)
    back = read_mesh(path)
    assert back.content_hash() == mesh.content_hash()
    _assert_same_fields(back, mesh)


def _write_mesh_per_row(path, mesh):
    """One f-string per node and per triangle (oracle)."""
    with open(path, "w") as fh:
        fh.write("rdmesh 1\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {mesh.n_tris}\n")
        for i, j, k in mesh.tris:
            fh.write(f"{i} {j} {k}\n")
        fh.write("periodic auto\n")


@pytest.mark.parametrize(
    "make",
    [lambda: structured_square(16), lambda: structured_rect(5, 3),
     lambda: build_mesh(*scrambled(7, 5, seed=11))],
    ids=["square", "rect", "scrambled"],
)
def test_mesh_file_bytes_match_the_per_row_writer(tmp_path, make):
    mesh = make()
    write_mesh(tmp_path / "new.rdmesh", mesh)
    _write_mesh_per_row(tmp_path / "old.rdmesh", mesh)
    assert (tmp_path / "new.rdmesh").read_bytes() == (tmp_path / "old.rdmesh").read_bytes()
