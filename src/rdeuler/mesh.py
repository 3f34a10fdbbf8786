"""Conformal triangular meshes of periodic rectangles.

Every mesh is a torus: its boundary edges are paired across the
bounding box, and a mesh whose boundary does not pair is rejected.  The
mesh stores, besides nodes and triangles, an interface table: one entry
per internal edge and one per periodic edge couple.  Every interface has
a left owner (the element that traverses the edge in its own
counterclockwise orientation) and a right owner that traverses it in
the opposite direction.  For periodic couples a translation vector maps
left-side coordinates onto the right side.
"""

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTriangle,
    NonConforming,
    UnmatchedPeriodicEdge,
)


@dataclass
class Mesh:
    nodes: np.ndarray          # (n_nodes, 2)
    tris: np.ndarray           # (n_tris, 3) counterclockwise
    areas: np.ndarray          # (n_tris,)
    diameters: np.ndarray      # (n_tris,) longest edge
    # interface table
    edge_left: np.ndarray      # (n_edges,)
    edge_left_loc: np.ndarray  # (n_edges,)
    edge_right: np.ndarray     # (n_edges,) the owner traversing the edge backwards
    edge_right_loc: np.ndarray
    edge_translation: np.ndarray   # (n_edges, 2): x_right = x_left + t
    edge_length: np.ndarray
    # per-element edge data
    elem_edges: np.ndarray       # (n_tris, 3) interface index of local edge k
    elem_edge_side: np.ndarray   # (n_tris, 3) 0 = left owner, 1 = right owner
    elem_edge_normal: np.ndarray  # (n_tris, 3, 2) unit outward
    elem_edge_length: np.ndarray  # (n_tris, 3)
    node_rep: np.ndarray         # (n_nodes,) periodic-identified representative
    bbox: tuple                  # (xmin, xmax, ymin, ymax)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_tris(self):
        return self.tris.shape[0]

    @property
    def n_edges(self):
        return self.edge_left.shape[0]

    def content_hash(self):
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.nodes).tobytes())
        h.update(np.ascontiguousarray(self.tris).tobytes())
        h.update(b"periodic")   # the domain tag, as in hashes of earlier snapshots
        return h.hexdigest()[:16]


@dataclass
class DualVolumes:
    c_sigma: np.ndarray   # (n_dofs,) dual volume per global DOF
    k_sigma: np.ndarray   # (n_tris,) |K| / N_K


def _signed_area2(nodes, tris):
    a = nodes[tris[:, 1]] - nodes[tris[:, 0]]
    b = nodes[tris[:, 2]] - nodes[tris[:, 0]]
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def build_mesh(raw_nodes, raw_triangles):
    """Build connectivity, geometry and the periodic pairing.

    Clockwise triangles are re-oriented in place; non-finite nodes,
    zero-area triangles, hanging nodes, edges with more than two owners
    and boundary edges without a periodic partner are rejected.
    """
    nodes = np.asarray(raw_nodes, dtype=float).copy()
    tris = np.asarray(raw_triangles, dtype=np.int64).copy()
    if tris.ndim != 2 or tris.shape[1] != 3 or tris.shape[0] < 1:
        raise NonConforming("need at least one index triple")
    if tris.min() < 0 or tris.max() >= nodes.shape[0]:
        raise NonConforming("triangle index out of range")
    finite = np.isfinite(nodes).all(axis=-1)
    if not finite.all():
        raise NonConforming(f"node {int(np.argmin(finite))} has a non-finite coordinate")

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

    # Half-edge h = 3 k + loc runs from a[h] = tris[k, loc] to b[h] =
    # tris[k, loc + 1].  An edge is keyed by its unordered node pair; the
    # stable sort keeps the owners of a key in element order, so owner1
    # is the first in the file.
    M = tris.shape[0]
    a = tris.ravel()
    b = tris[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    is_new = np.ones(3 * M, dtype=bool)
    is_new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(is_new)
    count = np.diff(np.append(starts, 3 * M))
    owner1 = order[starts]
    owner2 = order[np.minimum(starts + 1, 3 * M - 1)]   # valid where count == 2
    key_lo, key_hi = lo[starts], hi[starts]

    def key(g):
        return f"({key_lo[g]}, {key_hi[g]})"

    crowded = np.flatnonzero(count > 2)
    if crowded.size:
        g = crowded[np.argmin(owner1[crowded])]
        raise NonConforming(f"edge {key(g)} shared by {count[g]} triangles")

    boundary = np.flatnonzero(count == 1)
    boundary = boundary[np.argsort(owner1[boundary])]   # file order
    _reject_hanging_nodes(nodes, key_lo[boundary], key_hi[boundary], tol=1e-12 * scale)

    # Every boundary edge is paired, or _pair_periodic_edges raises.
    low, high, shift = _pair_periodic_edges(nodes, key_lo[boundary], key_hi[boundary])
    low, high = boundary[low], boundary[high]
    by_left = np.lexsort((key_hi[low], key_lo[low]))
    low, high, shift = low[by_left], high[by_left], shift[by_left]

    same_sense = np.flatnonzero((count == 2) & (a[owner1] == a[owner2]))   # same start node
    if same_sense.size:
        raise NonConforming(f"edge {key(same_sense[0])} traversed twice in the same sense")

    # Interfaces: edges in key order, then periodic couples in left-key order.
    plain = np.flatnonzero(count == 2)
    left = np.concatenate([owner1[plain], owner1[low]])
    right = np.concatenate([owner2[plain], owner1[high]])
    n_edges = left.size
    edge_left, edge_left_loc = left // 3, left % 3
    edge_right, edge_right_loc = right // 3, right % 3
    edge_translation = np.concatenate([np.zeros((plain.size, 2)), shift])

    elem_edges = np.full(3 * M, -1, dtype=np.int64)
    elem_edge_side = np.zeros(3 * M, dtype=np.int64)
    elem_edges[left] = elem_edges[right] = np.arange(n_edges)
    elem_edge_side[right] = 1
    elem_edges = elem_edges.reshape(M, 3)
    elem_edge_side = elem_edge_side.reshape(M, 3)
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

    node_rep = _identify_nodes(nodes, a, b, owner1[low], owner1[high], shift)

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


def _reject_hanging_nodes(nodes, ends_a, ends_b, tol, max_pairs=1 << 16):
    """Reject a node that lies inside a boundary edge (a, b).

    Edges are tested in the given order and the smallest such node is
    named.  A node passing the test lies within tol of the edge, so only
    the nodes in the edge's bounding box grown by 2 tol (a margin for
    rounding) are tested; they are found by bisection in the nodes
    sorted by x.  The (edge, node) pairs are tested in runs of whole
    edges of about ``max_pairs`` pairs, so a tall strip whose boundary
    edges share their x-range with many nodes needs no (edges x nodes)
    table.  ``max_pairs`` is fixed in production; it is a parameter only
    so that tests can put run boundaries anywhere.
    """
    by_x = np.argsort(nodes[:, 0], kind="stable")
    xs = nodes[by_x, 0]
    pa, pb = nodes[ends_a], nodes[ends_b]
    box_lo = np.minimum(pa, pb) - 2 * tol
    box_hi = np.maximum(pa, pb) + 2 * tol
    first = np.searchsorted(xs, box_lo[:, 0], side="left")
    stop = np.searchsorted(xs, box_hi[:, 0], side="right")
    # a and b are always in their box; an edge whose box holds no other
    # node in x needs no test.
    edges = np.flatnonzero(stop - first > 2)
    ends = np.cumsum(stop[edges] - first[edges])        # pairs up to each edge
    lo = 0
    while lo < edges.size:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + max_pairs, side="right")), lo + 1)
        run = edges[lo:hi]
        count = stop[run] - first[run]
        e = np.repeat(run, count)
        rank = np.arange(e.size) - np.repeat(np.cumsum(count) - count, count)
        near = by_x[first[e] + rank]
        y = nodes[near, 1]
        keep = (y >= box_lo[e, 1]) & (y <= box_hi[e, 1])
        e, near = e[keep], near[keep]
        d = pb[e] - pa[e]
        L2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        rel = nodes[near] - pa[e]
        t = (rel[:, 0] * d[:, 0] + rel[:, 1] * d[:, 1]) / L2
        perp = rel - t[:, None] * d
        dist = np.hypot(perp[:, 0], perp[:, 1])
        on_open_segment = (dist < tol) & (t > 1e-9) & (t < 1 - 1e-9)
        on_open_segment &= (near != ends_a[e]) & (near != ends_b[e])
        if np.any(on_open_segment):
            g = e[on_open_segment].min()
            node = near[on_open_segment & (e == g)].min()
            raise NonConforming(f"node {node} hangs on edge ({ends_a[g]}, {ends_b[g]})")
        lo = hi


def _pair_periodic_edges(nodes, ends_a, ends_b):
    """Pair the boundary edges (a, b) across the bounding box.

    Returns (low, high, shift): boundary edge low[i], on the xmin or ymin
    side, maps onto edge high[i] on the opposite side by x + shift[i].
    Each low edge, in the given order, takes the nearest edge of the
    opposite side whose midpoint is within tol of its translated
    midpoint (the first on a tie), tol = 1e-9 times the larger side of
    the box.  A low edge whose nearest edge an earlier one took is
    rejected, not paired with a farther edge.
    """
    xmin, ymin = nodes.min(axis=0)
    xmax, ymax = nodes.max(axis=0)
    tol = 1e-9 * max(xmax - xmin, ymax - ymin)
    pa, pb = nodes[ends_a], nodes[ends_b]
    names = ("xmin", "xmax", "ymin", "ymax")
    on_side = [
        (np.abs(pa[:, axis] - v) < tol) & (np.abs(pb[:, axis] - v) < tol)
        for axis, v in ((0, xmin), (0, xmax), (1, ymin), (1, ymax))
    ]
    side = np.select(on_side, range(4), default=-1)
    off = np.flatnonzero(side < 0)
    if off.size:
        e = off[0]
        raise UnmatchedPeriodicEdge(
            f"boundary edge ({ends_a[e]}, {ends_b[e]}) off the bounding box"
        )
    mids = 0.5 * (pa + pb)

    def match(low_side, high_side, axis):
        low = np.flatnonzero(side == low_side)
        high = np.flatnonzero(side == high_side)
        t = np.zeros(2)
        t[axis] = (xmax - xmin, ymax - ymin)[axis]
        target = mids[low] + t
        # Candidates: high edges within 2 tol along the side, by bisection.
        along = 1 - axis
        by_pos = np.argsort(mids[high, along], kind="stable")
        pos = mids[high[by_pos], along]
        first = np.searchsorted(pos, target[:, along] - 2 * tol, side="left")
        n_cand = np.searchsorted(pos, target[:, along] + 2 * tol, side="right") - first
        # Low edge r owns the flat candidates offset[r] .. offset[r] + n_cand[r] - 1.
        offset = np.cumsum(n_cand) - n_cand
        row = np.repeat(np.arange(low.size), n_cand)
        col = by_pos[first[row] + np.arange(row.size) - offset[row]]
        hm = mids[high[col]]
        dist = np.hypot(hm[:, 0] - target[row, 0], hm[:, 1] - target[row, 1])
        near = dist <= tol
        row, col, dist = row[near], col[near], dist[near]
        # The nearest candidate of each low edge, the first on a tie.
        by_dist = np.lexsort((col, dist, row))
        row, col = row[by_dist], col[by_dist]
        lead = np.ones(row.size, dtype=bool)
        lead[1:] = row[1:] != row[:-1]
        best = np.full(low.size, -1)
        best[row[lead]] = col[lead]
        # A low edge fails when it has no candidate, or when an earlier
        # low edge took its nearest one.
        taken = np.ones(low.size, dtype=bool)
        chosen = np.flatnonzero(best >= 0)
        taken[chosen[np.unique(best[chosen], return_index=True)[1]]] = False
        fail = np.flatnonzero(taken)
        if fail.size:
            i = fail[0]
            edge = f"({ends_a[low[i]]}, {ends_b[low[i]]})"
            if not np.all(np.isin(col[row == i], best[:i])):
                raise UnmatchedPeriodicEdge(f"no unique partner for boundary edge {edge}")
            raise UnmatchedPeriodicEdge(f"no partner for boundary edge {edge}")
        if low.size != high.size:
            raise UnmatchedPeriodicEdge(f"unpaired edges remain on side {names[high_side]}")
        return low, high[best], np.broadcast_to(t, (low.size, 2))

    x = match(0, 1, axis=0)
    y = match(2, 3, axis=1)
    return tuple(np.concatenate(parts) for parts in zip(x, y))


def _identify_nodes(nodes, a, b, left, right, shift):
    """Periodic-identified representative of each node.

    Half-edge left[i] maps onto half-edge right[i] by x + shift[i]; each
    of its end nodes is identified with the nearer end of right[i] (the
    start on a tie).  The representative is the smallest node index of
    each class, found by propagating the minimum label.
    """
    ends = np.concatenate([a[left], b[left]])
    starts_r = np.tile(a[right], 2)
    stops_r = np.tile(b[right], 2)
    target = nodes[ends] + np.tile(shift, (2, 1))
    d_start = np.hypot(*(nodes[starts_r] - target).T)
    d_stop = np.hypot(*(nodes[stops_r] - target).T)
    partner = np.where(d_start <= d_stop, starts_r, stops_r)
    rep = np.arange(nodes.shape[0])
    while True:
        low = np.minimum(rep[ends], rep[partner])
        nxt = rep.copy()
        np.minimum.at(nxt, ends, low)
        np.minimum.at(nxt, partner, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, rep):
            return rep
        rep = nxt


def shape_regularity(mesh: Mesh):
    """Observed bounds of h_K^2 / |K| over all elements."""
    ratio = mesh.diameters**2 / mesh.areas
    return {"min": float(ratio.min()), "max": float(ratio.max())}


def dual_volumes(dofmap) -> DualVolumes:
    """Dual volumes |C_sigma| = sum over owner elements of |K| / N_K, on
    the mesh of the DOF map; each DOF sums its owners in element order."""
    k_sigma = dofmap.mesh.areas / dofmap.n_local
    c_sigma = np.bincount(dofmap.elem_dofs.ravel(), weights=np.repeat(k_sigma, dofmap.n_local),
                          minlength=dofmap.n_dofs)
    return DualVolumes(c_sigma=c_sigma, k_sigma=k_sigma)


def structured_rect(nx, ny, width=10.0, height=10.0):
    """Uniform right-triangle mesh of a periodic rectangle centred at the
    origin, 2*nx*ny elements."""
    xs = np.linspace(-width / 2.0, width / 2.0, nx + 1)
    ys = np.linspace(-height / 2.0, height / 2.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=-1)

    # Cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1) and
    # d = (i, j+1); it is split into (a, b, c) and (a, c, d).
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    a = i * (ny + 1) + j
    b, c, d = a + ny + 1, a + ny + 2, a + 1
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return build_mesh(nodes, tris)


def structured_square(n, side=10.0):
    """Uniform right-triangle mesh of a periodic square centred at the
    origin, 2*n*n elements."""
    return structured_rect(n, n, width=side, height=side)


def read_mesh(path):
    """Read the plain-text mesh format (header ``rdmesh 1``).

    A missing or malformed file raises ``NonConforming`` naming the file
    and, for a bad number, the token.  A file without the closing
    ``periodic auto`` line raises ``ConfigError``: the solver requires a
    periodic mesh.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise NonConforming(f"{path}: cannot read mesh file ({exc.strerror})") from None
    tokens = re.sub(r"#.*", "", text).split()
    pos = 0

    def bad(msg):
        return NonConforming(f"{path}: {msg}")

    def take(what):
        nonlocal pos
        if pos == len(tokens):
            raise bad(f"truncated mesh file, expected {what}")
        pos += 1
        return tokens[pos - 1]

    def take_count(what):
        tok = take(what)
        try:
            n = int(tok)
        except ValueError:
            n = -1
        if n < 0:
            raise bad(f"bad {what} {tok!r}")
        return n

    def take_rows(n, names, dtype, what):
        """n rows of len(names) numbers, converted in one call."""
        nonlocal pos
        width = len(names)
        block = tokens[pos:pos + n * width]
        pos += len(block)
        try:
            values = np.array(block, dtype=dtype)
        except (ValueError, OverflowError):
            for tok in block:
                try:
                    np.array(tok, dtype=dtype)
                except (ValueError, OverflowError):
                    raise bad(f"bad {what} {tok!r}") from None
            raise
        if len(block) < n * width:
            raise bad(f"truncated mesh file, expected {names[len(block) % width]}")
        return values.reshape(n, width)

    if take("magic") != "rdmesh" or take("version") != "1":
        raise bad("not an rdmesh-1 file")
    if take("nodes") != "nodes":
        raise bad("expected 'nodes'")
    nodes = take_rows(take_count("node count"), "xy", float, "coordinate")
    if take("triangles") != "triangles":
        raise bad("expected 'triangles'")
    tris = take_rows(take_count("triangle count"), "ijk", np.int64, "triangle index")
    if tokens[pos:pos + 2] != ["periodic", "auto"]:
        raise ConfigError(f"{path}: no 'periodic auto' line; the solver requires a periodic mesh")
    rest = tokens[pos + 2:]
    if rest:
        raise bad(f"trailing tokens in mesh file: {rest[:4]}")
    return build_mesh(nodes, tris)


def write_mesh(path, mesh: Mesh):
    with open(path, "w") as fh:
        fh.write("rdmesh 1\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        fh.writelines(f"{x!r} {y!r}\n" for x, y in np.asarray(mesh.nodes, dtype=float).tolist())
        fh.write(f"triangles {mesh.n_tris}\n")
        fh.writelines(f"{i} {j} {k}\n" for i, j, k in np.asarray(mesh.tris).tolist())
        fh.write("periodic auto\n")
