import numpy as np
import pytest

from rdeuler import driver, euler
from rdeuler.basis import build_dofmap
from rdeuler.config import parse_config
from rdeuler.discretization import Discretization
from rdeuler.mesh import build_mesh, structured_square
from rdeuler.verification import random_admissible_field


@pytest.fixture(scope="session")
def gas():
    return euler.GasModel()


@pytest.fixture(scope="session")
def small_disc():
    """4x4 periodic square, P1 Lagrange, continuous."""
    mesh = structured_square(4, side=2.0)
    return Discretization(mesh, build_dofmap(mesh, "s2", "lagrange", 1))


@pytest.fixture(scope="session")
def small_disc_s1():
    mesh = structured_square(4, side=2.0)
    return Discretization(mesh, build_dofmap(mesh, "s1", "lagrange", 1))


def make_disc(n=4, side=2.0, space="s2", basis="lagrange", degree=1):
    mesh = structured_square(n, side=side)
    return Discretization(mesh, build_dofmap(mesh, space, basis, degree))


def vortex_start(n, text=""):
    """``driver.start`` of the vortex on ``structured:n`` (the 10 x 10
    square), P1 Lagrange unless ``text``, further config lines, says
    otherwise: (state, problem)."""
    return driver.start(
        parse_config(f"problem = vortex\nmesh = structured:{n}\nbasis = lagrange\n{text}")
    )


def reference_pair(scale=1.0, basis="lagrange", degree=1):
    """The periodic square [0, s]^2 cut into two triangles, on the
    discontinuous space: element 0 is the reference triangle (0,0),
    (s,0), (0,s) with DOFs 0..N-1, and its tables equal those of the
    lone triangle byte for byte."""
    s = scale
    mesh = build_mesh([(0, 0), (s, 0), (0, s), (s, s)], [(0, 1, 2), (1, 3, 2)])
    return Discretization(mesh, build_dofmap(mesh, "s1", basis, degree))


def off_seam(disc):
    """Interfaces off the periodic seam whose two owners hold their DOFs
    at their own Lagrange points rather than at a periodic image, (E,).

    A field given by its values at the DOF points, such as a linear field
    that is not periodic, is that field on both owners of these
    interfaces; there it has no jump.
    """
    dm = disc.dofmap
    own = np.abs(dm.dof_points[dm.elem_dofs] - disc.lagrange_phys).max(axis=(1, 2)) < 1e-12
    seam = np.any(disc.mesh.edge_translation != 0, axis=1)
    return ~seam & own[disc.if_left] & own[disc.if_right]


def off_seam_elements(disc):
    """Elements all of whose interfaces are ``off_seam``, (M,)."""
    return off_seam(disc)[disc.mesh.elem_edges].all(axis=1)


def scrambled(nx, ny, seed):
    """Nodes and triangles of a 3 x 2 rectangle of nx x ny cells with
    jittered interior nodes, relabelled nodes, shuffled triangles,
    rotated vertex order and every third triangle clockwise; its boundary
    nodes stay on the grid, so ``build_mesh`` pairs them."""
    rng = np.random.default_rng(seed)
    X, Y = np.meshgrid(np.linspace(-1.5, 1.5, nx + 1), np.linspace(-1.0, 1.0, ny + 1),
                       indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=-1)
    a = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)[None, :]).ravel()
    b, c, d = a + ny + 1, a + ny + 2, a + 1
    grid_tris = np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], 1).reshape(-1, 3)
    inner = (np.abs(nodes[:, 0]) < 1.5) & (np.abs(nodes[:, 1]) < 1.0)
    h = min(3.0 / nx, 2.0 / ny)
    nodes[inner] += rng.uniform(-0.2 * h, 0.2 * h, (int(inner.sum()), 2))
    label = rng.permutation(len(nodes))
    relabelled = np.empty_like(nodes)
    relabelled[label] = nodes
    tris = label[grid_tris][rng.permutation(len(grid_tris))]
    roll = (np.arange(3) + rng.integers(0, 3, (len(tris), 1))) % 3
    tris = np.take_along_axis(tris, roll, axis=1)
    tris[::3] = tris[::3, [0, 2, 1]]
    return relabelled, tris


def random_states(rng, n, near_vacuum=False, gas=None):
    return random_admissible_field(n, gas or euler.GasModel(), rng, near_vacuum)


def smooth_field(disc, gas, amp=0.15):
    """Smooth periodic admissible field on the discretization's box."""
    (x0, x1, y0, y1) = disc.mesh.bbox
    kx = 2 * np.pi / (x1 - x0)
    ky = 2 * np.pi / (y1 - y0)

    def fn(x, y):
        rho = 1.0 + amp * np.sin(kx * x) * np.cos(ky * y)
        ux = 0.3 + amp * np.cos(kx * x)
        uy = -0.2 + amp * np.sin(ky * y)
        p = 1.0 + amp * np.cos(kx * x) * np.sin(ky * y)
        return euler.conserved(rho, ux, uy, p, gas)

    return disc.interpolate(fn)
