import numpy as np
import pytest

from conftest import random_states
from oracles import entropy_hessian, state_from_entropy_vars, wu_shu_functional
from rdeuler import euler
from rdeuler.basis import basis_values
from rdeuler.errors import NonPositivePressure, VacuumState


def test_flux_stagnant(gas):
    f = euler.flux(np.array([1.0, 0.0, 0.0, 2.5]), gas)
    assert np.allclose(f[:, 0], [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(f[:, 1], [0, 0, 1, 0], atol=1e-15)


def test_flux_moving(gas):
    f = euler.flux(np.array([1.0, 1.0, 0.0, 2.5]), gas)
    # p = 0.4 (2.5 - 0.5) = 0.8
    assert np.allclose(f[:, 0], [1.0, 1.8, 0.0, 3.3], atol=1e-14)


def test_flux_vacuum_raises(gas):
    with pytest.raises(VacuumState):
        euler.flux(np.array([-1.0, 0.0, 0.0, 1.0]), gas)


def test_entropy_zero_at_unit_state(gas):
    U = np.array([1.0, 0.0, 0.0, 2.5])
    assert euler.entropy_eta(U, gas) == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(euler.entropy_flux(U, gas), 0.0, atol=1e-15)


def test_entropy_value(gas):
    # rho = 1, p = e^0.4  ->  s = 0.4, eta = -1
    p = np.exp(0.4)
    U = euler.conserved(1.0, 0.0, 0.0, p, gas)
    assert euler.entropy_eta(U, gas) == pytest.approx(-1.0, rel=1e-14)


def test_entropy_vars_reference_state(gas):
    U = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    V = euler.entropy_vars(U, gas)
    assert np.allclose(V, [3.5, 0.0, 0.0, -1.0], atol=1e-14)


def test_entropy_vars_fourth_component(gas):
    rng = np.random.default_rng(0)
    U = random_states(rng, 50)
    V = euler.entropy_vars(U, gas)
    p = euler.pressure(U, gas)
    assert np.allclose(V[:, 3], -U[:, 0] / p, rtol=1e-14)


def test_entropy_vars_match_fd_gradient(gas):
    rng = np.random.default_rng(1)
    for U in random_states(rng, 10):
        V = euler.entropy_vars(U, gas)
        fd = np.empty(4)
        for j in range(4):
            h = 1e-6
            Up, Um = U.copy(), U.copy()
            Up[j] += h
            Um[j] -= h
            fd[j] = (euler.entropy_eta(Up, gas) - euler.entropy_eta(Um, gas)) / (2 * h)
        assert np.abs(fd - V).max() <= 1e-6


def test_entropy_vars_roundtrip(gas):
    rng = np.random.default_rng(8)
    U = random_states(rng, 40)
    V = euler.entropy_vars(U, gas)
    back = state_from_entropy_vars(V, gas)
    assert np.allclose(back, U, rtol=1e-12)


def test_hessian_symmetric_and_positive(gas):
    U = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    A = entropy_hessian(U, gas)
    assert np.abs(A - A.T).max() <= 1e-6
    z = np.zeros(4)
    assert z @ A @ z == 0.0
    rng = np.random.default_rng(2)
    for U in random_states(rng, 100):
        A = entropy_hessian(U, gas)
        A = 0.5 * (A + A.T)
        assert np.linalg.eigvalsh(A).min() > 0


def test_max_wavespeed(gas):
    U = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    assert euler.max_wavespeed(U, gas) == pytest.approx(np.sqrt(1.4), rel=1e-12)
    U2 = euler.conserved(1.0, 3.0, 4.0, 1.0, gas)
    assert euler.max_wavespeed(U2, gas) == pytest.approx(5.0 + np.sqrt(1.4), rel=1e-12)
    # doubling p at fixed rho scales the sound speed by sqrt(2)
    a1 = euler.sound_speed(euler.conserved(1.0, 0, 0, 1.0, gas), gas)
    a2 = euler.sound_speed(euler.conserved(1.0, 0, 0, 2.0, gas), gas)
    assert a2 / a1 == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_admissible_predicate(gas):
    assert euler.admissible(np.array([1.0, 0.0, 0.0, 1.0]), gas)
    assert not euler.admissible(np.array([1.0, 2.0, 0.0, 1.0]), gas)  # e = -1
    assert not euler.admissible(np.array([np.nan, 0.0, 0.0, 1.0]), gas)
    assert not euler.admissible(np.array([1.0, np.inf, 0.0, 1.0]), gas)


def test_wu_shu_values(gas):
    U = np.array([1.0, 2.0, 0.0, 1.0])
    assert wu_shu_functional(U, [2.0, 0.0]) == pytest.approx(-1.0)
    assert wu_shu_functional(U, [0.0, 0.0]) == pytest.approx(U[3])
    rng = np.random.default_rng(3)
    for W in random_states(rng, 20):
        u = W[1:3] / W[0]
        rho_e = euler.internal_energy(W)
        assert wu_shu_functional(W, u) == pytest.approx(rho_e, rel=1e-12)


def test_wu_shu_halfspace_characterization(gas):
    rng = np.random.default_rng(4)
    states = random_states(rng, 100)
    vs = rng.uniform(-5, 5, size=(100, 2))
    vals = wu_shu_functional(states[:, None, :], vs[None, :, :])
    assert np.all(vals >= 0)
    # a violating direction exists whenever e < 0
    bad = np.array([1.0, 2.0, 0.0, 1.0])
    u = bad[1:3] / bad[0]
    grid = u[None, :] + np.stack(
        np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)), axis=-1
    ).reshape(-1, 2)
    assert wu_shu_functional(bad, grid).min() < 0


def test_bernstein_admissible(gas):
    # the convex sufficient condition on an element: every coefficient admissible
    good = np.tile([1.0, 0.0, 0.0, 1.0], (6, 1))
    assert np.all(euler.admissible(good, gas))
    bad = good.copy()
    bad[2] = [1.0, 2.0, 0.0, 1.0]
    assert not np.all(euler.admissible(bad, gas))


def _simplex_lattice(n):
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            pts.append((i / n, j / n, k / n))
    return np.array(pts)


def test_bernstein_reconstruction_admissible_everywhere(gas):
    # coefficientwise admissibility implies pointwise density and
    # internal-energy positivity of the degree-2 reconstruction
    rng = np.random.default_rng(5)
    lam = _simplex_lattice(10)
    assert lam.shape[0] == 66
    B = basis_values("bernstein", 2, lam)            # (66, 6)
    for _ in range(200):
        coeffs = random_states(rng, 6, near_vacuum=True)
        vals = B @ coeffs                             # (66, 4)
        assert np.all(vals[:, 0] >= 0)
        assert np.all(euler.internal_energy(vals) >= -1e-15)


def test_flux_entropy_compatibility(gas):
    # <V, df/dU> = dg/dU along each direction, by central differences
    rng = np.random.default_rng(6)
    h = 1e-6
    for U in random_states(rng, 30):
        V = euler.entropy_vars(U, gas)
        for m in range(2):
            for j in range(4):
                Up, Um = U.copy(), U.copy()
                Up[j] += h
                Um[j] -= h
                dfdU = (euler.flux(Up, gas)[:, m] - euler.flux(Um, gas)[:, m]) / (2 * h)
                dgdU = (
                    euler.entropy_flux(Up, gas)[m] - euler.entropy_flux(Um, gas)[m]
                ) / (2 * h)
                scale = max(abs(dgdU), 1.0)
                assert abs(V @ dfdU - dgdU) / scale < 1e-5


def test_discriminant_identity(gas):
    rng = np.random.default_rng(7)
    U = random_states(rng, 100)
    p = euler.pressure(U, gas)
    rho = U[:, 0]
    a2 = gas.gamma * p / rho
    e = euler.internal_energy(U) / rho
    disc = p**2 - 2 * rho**2 * a2 * e
    expect = -(p**2) * (gas.gamma + 1) / (gas.gamma - 1)
    assert np.allclose(disc, expect, rtol=1e-10)


def test_internal_energy_concave(gas):
    rng = np.random.default_rng(9)
    A = random_states(rng, 200)
    B = random_states(rng, 200)
    lam = rng.uniform(0, 1, 200)[:, None]
    mid = lam * A + (1 - lam) * B
    e_mid = euler.internal_energy(mid)
    combo = lam[:, 0] * euler.internal_energy(A) + (1 - lam[:, 0]) * euler.internal_energy(B)
    assert np.all(e_mid - combo >= -1e-12)


@pytest.mark.parametrize("floors", [(1e-3, 1e-3), (1e-12, 1e-12), (0.0, 0.0)])
def test_admissible_exactly_where_the_checked_pressure_is_defined(floors):
    # one admissible set, strict at both floors: at rho_floor = e_floor = 0
    # it excludes vacuum and is p > 0
    gas = euler.GasModel(rho_floor=floors[0], e_floor=floors[1])
    r, e = floors
    states = [
        (max(r, 1e-3), 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 5e-4),
        (r, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, e),              # exactly at a floor
        (np.nextafter(r, 1.0), 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, np.nextafter(e, 1.0)),
        (1.0, 2.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0),
        (np.nan, 0.0, 0.0, 1.0), (1.0, np.inf, 0.0, 1.0), (np.inf, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, np.inf), (1.0, 1e200, 0.0, 1.0),
    ]
    for U in np.array(states):
        with np.errstate(over="ignore"):               # (1, 1e200, 0, 1) overflows |m|^2
            try:
                euler.pressure(U, gas)
                defined = True
            except (VacuumState, NonPositivePressure):
                defined = False
            assert bool(euler.admissible(U, gas)) == defined, U
    # the two states on which the predicates disagreed at (1e-3, 1e-3)
    if floors == (1e-3, 1e-3):
        assert not euler.admissible(np.array([1e-3, 0.0, 0.0, 1.0]), gas)
        with pytest.raises(NonPositivePressure):
            euler.pressure(np.array([1.0, 0.0, 0.0, 5e-4]), gas)


def test_pressure_floor_errors(gas):
    with pytest.raises(NonPositivePressure):
        euler.pressure(np.array([1.0, 2.0, 0.0, 1.0]), gas)
