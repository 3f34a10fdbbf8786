import numpy as np
import pytest

from conftest import vortex_start
from rdeuler import driver, euler
from rdeuler.config import parse_config
from rdeuler.errors import ConfigError, InadmissibleParameters
from rdeuler.problems import SmoothedSodProblem, VortexProblem
from rdeuler.residuals import Scheme


def _balanced_vortex_oracle(x, y, gas, beta=5.0, u_inf=1.0):
    """Independent scalar evaluation of the vortex state."""
    import math

    r2 = x * x + y * y
    ex = math.exp(0.5 * (1.0 - r2))
    g = gas.gamma
    T = 1.0 - (g - 1.0) * beta**2 / (8.0 * g * math.pi**2) * ex * ex
    rho = T ** (1.0 / (g - 1.0))
    u = u_inf - y * beta / (2.0 * math.pi) * ex
    v = x * beta / (2.0 * math.pi) * ex
    p = rho**g
    E = p / (g - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.array([rho, rho * u, rho * v, E])


def test_vortex_center_state(gas):
    prob = VortexProblem((-5.0, 5.0, -5.0, 5.0), gas)
    got = prob.state(0.0, np.array(0.0), np.array(0.0))
    assert np.allclose(got, _balanced_vortex_oracle(0.0, 0.0, gas), rtol=1e-14)
    # frozen values of the balanced profile at the core
    T = 1.0 - 10.0 / (8 * 1.4 * np.pi**2) * np.e
    assert got[0] == pytest.approx(T**2.5, rel=1e-12)
    assert got[1] == pytest.approx(got[0], rel=1e-12)  # u = u_inf = 1
    assert got[2] == pytest.approx(0.0, abs=1e-15)


def test_vortex_far_field(gas):
    prob = VortexProblem((-5.0, 5.0, -5.0, 5.0), gas)
    got = prob.state(0.0, np.array(5.0), np.array(5.0))
    free = np.array([1.0, 1.0, 0.0, 1.0 / 0.4 + 0.5])
    assert np.abs(got - free).max() < 1e-9


def test_vortex_beta_zero_free_stream(gas):
    prob = VortexProblem((-5.0, 5.0, -5.0, 5.0), gas, beta=0.0)
    x = np.linspace(-5, 5, 7)
    got = prob.state(0.3, x, x * 0)
    free = np.array([1.0, 1.0, 0.0, 3.0])
    assert np.abs(got - free).max() < 1e-15


@pytest.mark.parametrize("beta", [40.0, -40.0, 1e155, 1e300, float("nan")])
def test_vortex_inadmissible_beta(gas, beta):
    # a beta whose square overflows is as inadmissible as any large one
    with pytest.raises(InadmissibleParameters):
        VortexProblem((-5.0, 5.0, -5.0, 5.0), gas, beta=beta)


def test_vortex_overflowing_dip_names_gamma_and_beta():
    # (gamma - 1) beta^2 / (8 gamma pi^2) is inf / inf at gamma = 1e308
    from rdeuler.euler import GasModel

    with pytest.raises(InadmissibleParameters, match=r"gamma=1e\+308 and beta=5\.0"):
        VortexProblem((-5.0, 5.0, -5.0, 5.0), GasModel(gamma=1e308))


def test_vortex_starts_at_the_origin_in_the_free_stream(gas):
    # at time t the field is the initial one shifted by t (1, 0)
    prob = VortexProblem((-5.0, 5.0, -5.0, 5.0), gas)
    x = np.linspace(-2.0, 2.0, 9)
    y = np.linspace(-1.5, 1.5, 9)
    assert np.abs(prob.state(1.25, x + 1.25, y) - prob.initial(x, y)).max() < 1e-14
    rho = prob.initial(x[:, None], y[None, :])[..., 0]
    assert rho.argmin() == np.ravel_multi_index((4, 4), rho.shape)   # the core at (0, 0)


def test_vortex_translation_wraps(gas):
    prob = VortexProblem((-5.0, 5.0, -5.0, 5.0), gas)
    x = np.linspace(-4.7, 4.7, 11)
    y = np.linspace(-4.7, 4.7, 11)
    a = prob.state(0.0, x, y)
    b = prob.state(10.0, x, y)  # full domain traversal at u_inf = 1
    assert np.abs(a - b).max() < 1e-12


def test_vortex_start_dofs_admissible(gas):
    state, prob = vortex_start(8)
    disc, U = state.disc, state.U
    assert np.all(euler.admissible(U, gas))
    # pointwise at the Lagrange points
    pts = disc.dofmap.dof_points
    expect = prob.state(0.0, pts[:, 0], pts[:, 1])
    assert np.abs(U - expect).max() < 1e-14


def test_vortex_start_bernstein_coefficients(gas):
    from rdeuler.basis import bernstein_to_lagrange

    state, prob = vortex_start(6, "basis = bernstein\ndegree = 2\n")
    disc, U = state.disc, state.U
    # mapping the coefficients to the Lagrange points reproduces the
    # pointwise samples away from the periodic seam (the vortex tail is
    # not exactly periodic, so identified seam DOFs carry one side)
    M = bernstein_to_lagrange(2)
    vals = np.einsum("ln,mnc->mlc", M, disc.elem_values(U))
    X = disc.lagrange_phys
    expect = prob.state(0.0, X[..., 0], X[..., 1])
    err = np.abs(vals - expect).max(axis=(1, 2))
    interior = np.all(np.abs(disc.corner_coords) < 4.9, axis=(1, 2))
    assert err[interior].max() < 1e-12
    assert err.max() < 1e-4
    assert np.all(euler.admissible(U, gas))


def test_sod_profile_shape(gas):
    prob = SmoothedSodProblem((-5.0, 5.0, 0.0, 1.0), gas)
    mid = prob.initial(np.array(0.0), np.array(0.5))
    left = prob.initial(np.array(-5.0), np.array(0.5))
    assert mid[0] == pytest.approx(1.0, rel=1e-6)
    assert left[0] == pytest.approx(0.125, rel=1e-3)
    assert np.all(euler.admissible(np.stack([mid, left]), gas))


def test_config_defaults_and_parse():
    cfg = parse_config("mesh = structured:8\n")
    assert cfg.scheme == "galerkin+ec+jump"
    assert cfg.integrator == "ssprk2"
    assert cfg.cfl == 0.2
    cfg2 = parse_config(
        "mesh = m.txt\nproblem = sod_smooth\ncfl = 0.4\nmood.enabled = true\n"
        "lambda_jump = auto\nzeta = 3\n"
    )
    assert cfg2.mood_enabled and cfg2.zeta == 3.0 and cfg2.lambda_jump is None


# Every config key, a value for it and the field it must set.
_EVERY_KEY = {
    "problem": ("problem", "constant", "constant"),
    "problem.file": ("problem_file", "snap.csv", "snap.csv"),
    "problem.beta": ("beta", "3.5", 3.5),
    "mesh": ("mesh", "structured:8", "structured:8"),
    "space": ("space", "s1", "s1"),
    "basis": ("basis", "lagrange", "lagrange"),
    "degree": ("degree", "2", 2),
    "scheme": ("scheme", "lxf", "lxf"),
    "cascade": ("cascade", "galerkin,lxf", "galerkin,lxf"),
    "integrator": ("integrator", "fe", "fe"),
    "cfl": ("cfl", "0.5", 0.5),
    "t_end": ("t_end", "1.5", 1.5),
    "gamma": ("gamma", "1.67", 1.67),
    "rho_floor": ("rho_floor", "1e-10", 1e-10),
    "e_floor": ("e_floor", "1e-9", 1e-9),
    "lambda_jump": ("lambda_jump", "0.5", 0.5),
    "zeta": ("zeta", "3", 3.0),
    "mood.enabled": ("mood_enabled", "on", True),
    "mood.delta_dmp": ("mood_delta_dmp", "0.01", 0.01),
    "mood.plateau": ("mood_plateau", "1e-6", 1e-6),
    "mood.smooth_tol": ("mood_smooth_tol", "0.02", 0.02),
    "output.dir": ("output_dir", "elsewhere", "elsewhere"),
    "output.every": ("output_every", "5", 5),
    "output.diag_every": ("diag_every", "3", 3),
    "dt_max": ("dt_max", "0.1", 0.1),
    "max_steps": ("max_steps", "7", 7),
}


def test_config_every_key_sets_its_field():
    from dataclasses import fields

    from rdeuler.config import RunConfig, _KEYMAP

    assert set(_KEYMAP) == set(_EVERY_KEY)
    base = parse_config("mesh = structured:4\n")
    for key, (attr, text, value) in _EVERY_KEY.items():
        cfg = parse_config(f"mesh = structured:4\n{key} = {text}\n")
        assert getattr(cfg, attr) == value and type(getattr(cfg, attr)) is type(value), key
        assert cfg.raw[key] == text
        moved = [f.name for f in fields(RunConfig)
                 if f.name != "raw" and getattr(cfg, f.name) != getattr(base, f.name)]
        assert moved == [attr], key
    for key in ("lambda_jump", "mood.plateau", "dt_max"):
        assert getattr(parse_config(f"mesh = structured:4\n{key} = auto\n"), _KEYMAP[key][0]) is None
    with pytest.raises(ConfigError, match="bad value 'often' for key 'output.every'"):
        parse_config("mesh = structured:4\noutput.every = often\n")
    with pytest.raises(ConfigError, match="bad value 'maybe' for key 'mood.enabled'"):
        parse_config("mesh = structured:4\nmood.enabled = maybe\n")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("mesh = structured:8\nbogus = 1\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("mesh = structured:8\ncfl = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("mesh = structured:8\ndegree = 7\n")
    with pytest.raises(ConfigError):
        parse_config("mesh = structured:8\nscheme = wild\n")
    # a missing mesh is rejected where a run reads it (rdeuler convergence
    # takes its meshes from the command line and parses such a config)
    with pytest.raises(ConfigError, match="^mesh is required$"):
        driver.start(parse_config("t_end = 1.0\n"))


def test_config_scheme_objects():
    cfg = parse_config("mesh = structured:4\nlambda_jump = 0.7\nzeta = 2.5\n")
    s = cfg.scheme_obj()
    assert s.base == "galerkin" and s.correction and s.diffusion
    assert s.lambda_jump == 0.7 and s.zeta == 2.5
    cascade = cfg.cascade_config().schemes
    assert cascade[-1].base == "lxf"


@pytest.mark.parametrize("text", [
    "galerkin+interp", "dg+interp", "galerkin_jump+interp", "galerkin+ec+jump+interp",
    "lxf+interp+interp", "lxf+ec+ec", "galerkin+jump+jump", "limited_lxf+ec+jump+ec",
])
def test_scheme_parse_rejects_meaningless_modifiers(text):
    # +interp changes only the LxF family's flux, and a repeated modifier
    # can only be a typo
    with pytest.raises(ConfigError):
        Scheme.parse(text)
    with pytest.raises(ConfigError):
        parse_config(f"mesh = structured:4\nscheme = {text}\n")


def test_scheme_parse_accepts_each_modifier_once_in_any_order():
    assert Scheme.parse("lxf+jump+interp+ec").label() == "lxf+ec+jump+interp"
    assert Scheme.parse("limited_lxf+interp").flux_mode == "interpolated"
    assert Scheme.parse("dg+ec+jump").label() == "dg+ec+jump"


def test_scheme_rejects_interpolated_flux_outside_lxf_family():
    assert Scheme(base="limited_lxf", flux_mode="interpolated").label() == "limited_lxf+interp"
    with pytest.raises(ConfigError):
        Scheme(base="galerkin", flux_mode="interpolated")


def test_config_rejects_mood_with_implicit():
    with pytest.raises(ConfigError):
        parse_config(
            "mesh = structured:8\nmood.enabled = true\nintegrator = implicit\n"
        )


# galerkin_jump runs on the continuous space only and dg on the
# discontinuous one, as the scheme or as any cascade level, with the
# cascade on or off
SPACE_MISMATCHES = [
    "space = s1\nscheme = galerkin_jump\n",
    "space = s2\nscheme = dg\n",
    "space = s1\nscheme = dg+ec+jump\ncascade = galerkin_jump,lxf\nmood.enabled = true\n",
    "space = s2\nscheme = lxf\ncascade = galerkin,dg,lxf\nmood.enabled = true\n",
    "space = s2\nscheme = galerkin\ncascade = dg+jump,lxf\n",
]


# the interpolated LxF residual of the discontinuous space has no
# interface term: its elements neither couple nor conserve, so +interp
# (and the implicit integrator, which steps lxf+interp) needs s2
INTERP_ON_S1 = [
    "space = s1\nscheme = lxf+interp\n",
    "space = s1\nscheme = limited_lxf+interp\nintegrator = fe\n",
    "space = s1\nscheme = lxf+interp\nintegrator = implicit\n",
    "space = s1\nscheme = dg\ncascade = dg,limited_lxf+interp,lxf\n",
    "space = s1\nscheme = dg\ncascade = dg,lxf+interp\nmood.enabled = true\n",
]


@pytest.mark.parametrize("lines", SPACE_MISMATCHES + INTERP_ON_S1)
def test_config_rejects_a_scheme_on_the_wrong_space(lines):
    with pytest.raises(ConfigError, match="needs space = s[12]"):
        parse_config("mesh = structured:8\n" + lines)


def test_config_accepts_each_scheme_on_its_space():
    parse_config("mesh = structured:8\nspace = s2\nscheme = galerkin_jump\n"
                 "cascade = galerkin_jump,lxf\nmood.enabled = true\n")
    parse_config("mesh = structured:8\nspace = s1\nscheme = dg\n"
                 "cascade = dg,limited_lxf,lxf\nmood.enabled = true\n")


@pytest.mark.parametrize("key, value", [
    ("gamma", "nan"), ("gamma", "inf"), ("gamma", "1.0"),
    ("zeta", "nan"), ("zeta", "inf"), ("zeta", "1.5"),
    ("lambda_jump", "nan"), ("lambda_jump", "inf"), ("lambda_jump", "-0.1"),
    ("t_end", "nan"), ("t_end", "inf"), ("t_end", "0"),
    ("dt_max", "nan"), ("dt_max", "inf"), ("dt_max", "0"),
    ("max_steps", "-3"), ("max_steps", "0"),
    ("mood.delta_dmp", "nan"), ("mood.delta_dmp", "inf"), ("mood.delta_dmp", "-1e-3"),
    ("mood.smooth_tol", "nan"), ("mood.smooth_tol", "inf"), ("mood.smooth_tol", "-1"),
    ("mood.smooth_tol", "0"),
    ("mood.plateau", "nan"), ("mood.plateau", "inf"), ("mood.plateau", "-1e-9"),
    ("cfl", "nan"),
    ("rho_floor", "nan"), ("rho_floor", "inf"), ("rho_floor", "-1"),
    ("e_floor", "nan"), ("e_floor", "inf"), ("e_floor", "-1e-12"),
    ("problem.beta", "nan"), ("problem.beta", "inf"), ("problem.beta", "-inf"),
])
def test_config_rejects_nan_and_out_of_range_values(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(f"mesh = structured:8\n{key} = {value}\n")


@pytest.mark.parametrize("key, value", [
    ("lambda_jump", "auto"), ("lambda_jump", "0"), ("dt_max", "auto"), ("dt_max", "0.5"),
    ("max_steps", "1"), ("mood.delta_dmp", "0"), ("mood.smooth_tol", "0.5"),
    ("mood.plateau", "auto"), ("mood.plateau", "0"), ("zeta", "2"), ("t_end", "1e-3"),
    ("rho_floor", "0"), ("e_floor", "0"), ("problem.beta", "-5"),
])
def test_config_accepts_the_edges_of_each_range(key, value):
    parse_config(f"mesh = structured:8\n{key} = {value}\n")


def test_scheme_rejects_nan_zeta():
    with pytest.raises(ConfigError):
        Scheme(zeta=float("nan"))


@pytest.mark.parametrize("length", [10.0, 4.0])
def test_sod_states_and_width_are_the_documented_ones(gas, length):
    # (rho, p) = (1, 1) between the transitions, (0.125, 0.1) outside,
    # joined by tanh transitions of width L/40 at x0 + L/4 and x0 + 3L/4
    x0 = -0.5 * length
    prob = SmoothedSodProblem((x0, x0 + length, 0.0, 1.0), gas)
    w = length / 40.0
    x = np.array([x0, x0 + 0.25 * length, x0 + 0.25 * length + w, x0 + 0.5 * length])
    got = prob.initial(x, np.zeros_like(x))
    rho, p = got[:, 0], euler.pressure(got, gas)
    s = 0.5 * (np.tanh((x - (x0 + 0.25 * length)) / w) - np.tanh((x - (x0 + 0.75 * length)) / w))
    assert np.abs(rho - (0.125 + 0.875 * s)).max() < 1e-15
    assert np.abs(p - (0.1 + 0.9 * s)).max() < 1e-15
    assert s[0] < 1e-8 and abs(s[1] - 0.5) < 1e-8 and abs(s[3] - 1.0) < 1e-8
    assert abs(s[2] - 0.5 * (1.0 + np.tanh(1.0))) < 1e-8
    assert np.all(got[:, 1:3] == 0.0)
