import os

import numpy as np
import pytest

from rdeuler import driver, euler
from rdeuler.cli import main
from rdeuler.config import parse_config
from rdeuler.discretization import StageFields
from rdeuler.errors import ConfigError, InadmissibleParameters, NonPositivePressure, VacuumState


def _assert_numeric_csv(path):
    """Every cell below the header parses as a plain float."""
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    assert rows
    for row in rows:
        for cell in row.split(","):
            float(cell)


def _cfg_text(tmp_path, **over):
    base = {
        "mesh": "structured:6",
        "problem": "constant",
        "integrator": "fe",
        "cfl": "0.4",
        "t_end": "0.05",
        "output.dir": str(tmp_path / "out"),
    }
    base.update(over)
    return "\n".join(f"{k} = {v}" for k, v in base.items() if v is not None) + "\n"


def test_run_constant_state_stays_constant(tmp_path, gas):
    # float quadrature sums cannot cancel bitwise, but a uniform state
    # must stay uniform to within an ulp-level tolerance over many steps
    cfg = parse_config(_cfg_text(tmp_path, t_end="50.0", max_steps="100"))
    result = driver.run(cfg, record=True)
    assert result.n_steps == 100
    first = result.record.states[0]
    last = result.state.U
    assert np.abs(last - first).max() < 1e-14


@pytest.mark.parametrize("over", [
    {},
    {"space": "s1", "scheme": "dg+ec+jump", "basis": "lagrange"},
    {"space": "s1", "scheme": "dg+ec+jump", "degree": "2"},
    {"scheme": "lxf", "integrator": "fe", "basis": "lagrange"},
    {"scheme": "lxf", "integrator": "fe", "degree": "2"},
], ids=["s2-ec-jump", "s1-dg-p1-lagrange", "s1-dg-p2-bernstein", "lxf-fe-p1-lagrange",
        "lxf-fe-p2-bernstein"])
def test_run_vortex_completes_and_conserves(tmp_path, over):
    over = {"integrator": "ssprk2", **over}
    cfg = parse_config(
        _cfg_text(tmp_path, problem="vortex", t_end="0.2", mesh="structured:8", cfl="0.3", **over)
    )
    result = driver.run(cfg)
    r0, rn = result.rows[0], result.rows[-1]
    scale = max(abs(r0["mass"]), abs(r0["energy"]))
    for key in ("mass", "mom_x", "mom_y", "energy"):
        assert abs(rn[key] - r0[key]) / scale < 1e-12
    assert os.path.exists(os.path.join(cfg.output_dir, "snap_final.csv"))
    _assert_numeric_csv(os.path.join(cfg.output_dir, "diagnostics.csv"))


def test_run_determinism_bitwise(tmp_path):
    t1 = tmp_path / "a"
    t2 = tmp_path / "b"
    outs = []
    for t in (t1, t2):
        cfg = parse_config(
            _cfg_text(tmp_path, problem="vortex", mesh="structured:6",
                      t_end="0.1", **{"output.dir": str(t)})
        )
        driver.run(cfg)
        # drop the header (it carries the config hash, which covers the
        # differing output directory); the payload must match bitwise
        outs.append(open(os.path.join(str(t), "snap_final.csv")).read().splitlines()[2:])
    assert outs[0] == outs[1]


def test_snapshot_roundtrip_restart(tmp_path):
    cfg = parse_config(
        _cfg_text(tmp_path, problem="vortex", mesh="structured:6", t_end="0.1")
    )
    result = driver.run(cfg)
    snap = os.path.join(cfg.output_dir, "snap_final.csv")
    # restart and advance zero steps: the state re-emits bitwise
    cfg2 = parse_config(
        _cfg_text(
            tmp_path,
            problem="from_file",
            mesh="structured:6",
            t_end=repr(result.state.t),
            **{"problem.file": snap, "output.dir": str(tmp_path / "restart")},
        )
    )
    out2 = driver.run(cfg2)
    assert out2.n_steps == 0
    snap2 = os.path.join(cfg2.output_dir, "snap_final.csv")
    a = [l.split(",", 1)[1] for l in open(snap).read().splitlines()[2:]]
    b = [l.split(",", 1)[1] for l in open(snap2).read().splitlines()[2:]]
    assert a == b


def _write_snapshot_per_row(path, state, cfg_hash=""):
    """The per-row snapshot writer the vectorised one replaced (oracle)."""
    disc = state.disc
    pts = disc.dofmap.dof_points
    with open(path, "w") as fh:
        fh.write("# rdeuler snapshot\n")
        fh.write(
            f"# mesh_hash={disc.mesh.content_hash()} t={float(state.t)!r} "
            f"config_hash={cfg_hash}\n"
        )
        fh.write("dof_id,x,y,rho,mx,my,E\n")
        for i in range(disc.dofmap.n_dofs):
            row = [float(v) for v in state.U[i]]
            fh.write(
                f"{i},{float(pts[i, 0])!r},{float(pts[i, 1])!r},"
                f"{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r}\n"
            )


@pytest.mark.parametrize("space,basis,degree", [("s2", "lagrange", 1), ("s1", "bernstein", 2)])
def test_snapshot_bytes_match_the_per_row_writer(tmp_path, gas, space, basis, degree):
    from conftest import make_disc
    from rdeuler.stepping import FieldState
    from rdeuler.verification import random_admissible_field

    disc = make_disc(6, side=3.0, space=space, basis=basis, degree=degree)
    rng = np.random.default_rng(11)
    U = random_admissible_field(disc.dofmap.n_dofs, gas, rng, near_vacuum=True)
    state = FieldState(0.1 / 3.0, U, disc, gas)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    driver.write_snapshot(new, state, "abc123")
    _write_snapshot_per_row(old, state, "abc123")
    assert new.read_bytes() == old.read_bytes()
    U_back, t_back, _ = driver.read_snapshot(new)
    assert np.array_equal(U_back, U) and t_back == state.t


def test_snapshot_mesh_mismatch(tmp_path):
    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", mesh="structured:6", t_end="0.05"))
    driver.run(cfg)
    snap = os.path.join(cfg.output_dir, "snap_final.csv")
    from rdeuler.errors import MeshMismatch

    cfg2 = parse_config(
        _cfg_text(
            tmp_path,
            problem="from_file",
            mesh="structured:8",
            **{"problem.file": snap},
        )
    )
    with pytest.raises(MeshMismatch):
        driver.run(cfg2)


def test_snapshot_from_other_mesh_same_dof_count(tmp_path):
    from rdeuler.errors import MeshMismatch
    from rdeuler.mesh import structured_square, write_mesh

    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", mesh="structured:6", t_end="0.05"))
    driver.run(cfg)
    snap = os.path.join(cfg.output_dir, "snap_final.csv")
    other = tmp_path / "square6_side8.txt"
    write_mesh(other, structured_square(6, side=8.0))
    cfg2 = parse_config(
        _cfg_text(
            tmp_path,
            problem="from_file",
            mesh=str(other),
            **{"problem.file": snap, "output.dir": str(tmp_path / "restart")},
        )
    )
    with pytest.raises(MeshMismatch):
        driver.run(cfg2)


def test_convergence_harness(tmp_path):
    cfg = parse_config(
        _cfg_text(tmp_path, problem="vortex", t_end="0.2", cfl="0.3",
                  integrator="ssprk2")
    )
    rows = driver.convergence(cfg, ["structured:6", "structured:12"])
    assert rows[0]["err_rho_L1"] > rows[1]["err_rho_L1"]
    assert np.isnan(rows[0]["order_rho"])
    assert rows[1]["order_rho"] > 1.0
    _assert_numeric_csv(os.path.join(cfg.output_dir, "errors.csv"))


def test_convergence_identical_mesh_nan_order(tmp_path):
    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", t_end="0.05"))
    with pytest.warns(UserWarning):
        rows = driver.convergence(cfg, ["structured:6", "structured:6"])
    assert np.isnan(rows[1]["order_rho"])


def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", t_end="0.05"))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "steps=" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("mesh = structured:4\nunknown_key = 1\n")
    assert main(["run", str(bad)]) == 2

    assert main(["verify", "nonsense"]) == 2  # argparse rejects the choice
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "scheme", ["galerkin+interp", "dg+interp", "lxf+interp+interp", "lxf+ec+ec"]
)
def test_cli_run_rejects_meaningless_scheme(tmp_path, scheme, capsys):
    path = tmp_path / "run.cfg"
    space = "s1" if scheme.startswith("dg") else "s2"
    path.write_text(_cfg_text(tmp_path, scheme=scheme, space=space))
    assert main(["run", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_convergence(tmp_path, capsys):
    path = tmp_path / "conv.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", t_end="0.1", cfl="0.3"))
    code = main(["convergence", str(path), "--meshes", "structured:6,structured:12"])
    assert code == 0
    assert "order_rho" in capsys.readouterr().out


def test_cli_convergence_reads_no_mesh_key(tmp_path, capsys):
    # every mesh of the study comes from --meshes, so the config may leave
    # out its own mesh; a run of the same config still needs one
    path = tmp_path / "conv.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", t_end="0.05", mesh=None))
    assert main(["convergence", str(path), "--meshes", "structured:4,structured:8"]) == 0
    assert capsys.readouterr().out.count("order_rho=") == 2
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "configuration error: mesh is required\n"


def test_cli_convergence_on_the_constant_problem_has_nan_orders_and_no_warning(
        tmp_path, capsys):
    # the constant state is reproduced to round-off, so every error lies
    # below the round-off floor on both meshes (the velocity error is
    # exactly 0) and every order reads nan, with no numpy warning (which
    # -W error turns into a traceback)
    import warnings

    from rdeuler.mesh import structured_square, write_mesh

    meshes = []
    for n in (4, 8):
        meshes.append(str(tmp_path / f"sq{n}.rdmesh"))
        write_mesh(meshes[-1], structured_square(n))
    path = tmp_path / "conv.cfg"
    path.write_text(_cfg_text(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["convergence", str(path), "--meshes", ",".join(meshes)]) == 0
    assert "order_rho=" in capsys.readouterr().out
    with open(tmp_path / "out" / "errors.csv") as fh:
        header, *lines = fh.read().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    assert len(rows) == 2
    for key in ("rho", "u", "p"):
        errs = [r[f"err_{key}_L1"] for r in rows]
        assert max(errs) <= 1e-14, key
        assert np.isnan(rows[0][f"order_{key}"])
        assert np.isnan(rows[1][f"order_{key}"]), key
    assert rows[0]["err_u_L1"] == rows[1]["err_u_L1"] == 0.0


def test_cli_convergence_needs_a_problem_with_a_known_solution(tmp_path, capsys):
    path = tmp_path / "conv.cfg"
    path.write_text(_cfg_text(tmp_path, problem="sod_smooth"))
    assert main(["convergence", str(path), "--meshes", "structured:4,structured:8"]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: convergence needs a problem with a known solution\n"
    assert not (tmp_path / "out").exists()


def test_cli_verify_entropy(capsys):
    assert main(["verify", "entropy"]) == 0
    assert "PASS entropy" in capsys.readouterr().out


def test_cli_verify_mood_prints_plain_numbers(capsys):
    # the result line holds plain floats, not a numpy repr
    assert main(["verify", "mood"]) == 0
    out = capsys.readouterr().out
    assert "PASS mood" in out and "'drift': [" in out
    assert "array(" not in out


def test_cli_verify_writes_no_files(tmp_path, monkeypatch, capsys):
    # the two suites that go through driver.run leave the caller's
    # working directory as they found it
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "conservation"]) == 0
    assert main(["verify", "consistency"]) == 0
    assert "PASS conservation" in capsys.readouterr().out
    assert os.listdir(tmp_path) == []


def test_non_periodic_mesh_rejected(tmp_path, capsys):
    # a mesh file without its ``periodic auto`` line is a configuration
    # error (exit 2); a NaN coordinate is a mesh error (exit 1)
    from rdeuler.mesh import structured_square, write_mesh

    path = tmp_path / "open.txt"
    write_mesh(path, structured_square(4))
    text = path.read_text()
    path.write_text(text.replace("periodic auto\n", ""))
    cfg = parse_config(_cfg_text(tmp_path, mesh=str(path)))
    with pytest.raises(ConfigError, match="the solver requires a periodic mesh"):
        driver.run(cfg)
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(_cfg_text(tmp_path, mesh=str(path)))
    assert main(["run", str(run_cfg)]) == 2
    path.write_text(text.replace("\n0.0 ", "\nnan ", 1))
    assert main(["run", str(run_cfg)]) == 1
    err = capsys.readouterr().err
    assert "requires a periodic mesh" in err and "non-finite" in err
    assert "Traceback" not in err


def test_driver_implicit_integrator(tmp_path):
    cfg = parse_config(
        _cfg_text(
            tmp_path,
            problem="vortex",
            mesh="structured:4",
            integrator="implicit",
            scheme="lxf+interp",
            t_end="0.02",
            cfl="0.4",
        )
    )
    result = driver.run(cfg)
    assert result.n_steps > 0
    assert np.all(result.state.U[:, 0] > 0)


@pytest.mark.parametrize("scheme", ["galerkin+ec+jump", "lxf", "limited_lxf+interp"])
def test_implicit_integrator_needs_lxf_interp(tmp_path, scheme):
    text = _cfg_text(tmp_path, problem="vortex", integrator="implicit", scheme=scheme)
    with pytest.raises(ConfigError):
        parse_config(text)
    path = tmp_path / "implicit.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 2


# Known defect: under its own bound only lxf+interp stays positive on
# near-vacuum data.  The other LxF-family schemes lose admissibility,
# which the check after the run or the next step's bound reports.
_NOT_POSITIVE = pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, NonPositivePressure, VacuumState),
    reason="not positive under its own bound",
)


@pytest.mark.parametrize("basis,degree", [("lagrange", 1), ("bernstein", 2)])
@pytest.mark.parametrize(
    "scheme",
    ["lxf+interp"]
    + [pytest.param(s, marks=_NOT_POSITIVE) for s in ("lxf", "limited_lxf", "limited_lxf+interp")],
)
def test_near_vacuum_run_stays_admissible(tmp_path, gas, scheme, basis, degree):
    # at cfl = 1 only the bound of the scheme being stepped keeps every DOF
    # admissible; the pointwise bound is several times too small for +interp
    from rdeuler.mesh import structured_square, write_mesh
    from rdeuler.stepping import FieldState
    from rdeuler.verification import random_admissible_field

    mesh_path = tmp_path / "square4_side2.txt"
    write_mesh(mesh_path, structured_square(4, side=2.0))
    snap = tmp_path / "near_vacuum.csv"
    cfg = parse_config(
        _cfg_text(
            tmp_path, problem="from_file", mesh=str(mesh_path), basis=basis,
            degree=degree, scheme=scheme, cfl="1.0", t_end="1e9", max_steps="5",
            **{"problem.file": str(snap)},
        )
    )
    disc = driver.build_discretization(cfg)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        U = random_admissible_field(disc.dofmap.n_dofs, gas, rng, near_vacuum=True)
        driver.write_snapshot(snap, FieldState(0.0, U, disc, gas))
        result = driver.run(cfg)
        assert result.n_steps == 5
        assert np.all(euler.admissible(result.state.U, gas))


def test_the_cascade_writes_no_inadmissible_state(tmp_path, gas, capsys):
    # one forward-Euler step under the cascade on near-vacuum data: a run
    # exits 0 with an admissible final snapshot, or exits 1 naming the
    # final cascade level; a one-level cascade fails on the same fields
    # as the two-level one, since the last-level rule holds for both
    from rdeuler.stepping import FieldState
    from rdeuler.verification import random_admissible_field

    snap = tmp_path / "near_vacuum.csv"
    cfg_path = tmp_path / "run.cfg"

    def run(cascade):
        cfg_path.write_text(_cfg_text(
            tmp_path, problem="from_file", mesh="structured:4", scheme="lxf", cfl="1.0",
            t_end="1e9", max_steps="1", cascade=cascade,
            **{"problem.file": str(snap), "mood.enabled": "true", "output.diag_every": "1000"},
        ))
        code = main(["run", str(cfg_path)])
        err = capsys.readouterr().err
        if code == 0:
            U, _, _ = driver.read_snapshot(tmp_path / "out" / "snap_final.csv")
            assert np.all(euler.admissible(U, gas)), cascade
        else:
            assert code == 1 and "final cascade level" in err, (cascade, err)
        return code

    disc = driver.build_discretization(parse_config(_cfg_text(tmp_path, mesh="structured:4")))
    rng = np.random.default_rng(3)
    failed = 0
    for _ in range(20):
        U = random_admissible_field(disc.dofmap.n_dofs, gas, rng, near_vacuum=True)
        driver.write_snapshot(snap, FieldState(0.0, U, disc, gas))
        code = run("lxf")
        assert run("galerkin,lxf") == code
        failed += code == 1
    assert failed > 0


@pytest.mark.parametrize("spec", ["structured:abc", "structured:0", "structured:4x", "structured:2x3x4"])
def test_bad_structured_mesh_spec(tmp_path, spec):
    with pytest.raises(ConfigError):
        driver.load_mesh(spec)
    path = tmp_path / "bad_mesh.cfg"
    path.write_text(_cfg_text(tmp_path, mesh=spec))
    assert main(["run", str(path)]) == 2


def test_structured_strip_spec():
    from rdeuler.mesh import structured_rect, structured_square

    strip = structured_rect(64, 8, width=10.0, height=1.25)
    assert driver.load_mesh("structured:64x8").content_hash() == strip.content_hash()
    assert driver.load_mesh("structured:6").content_hash() == structured_square(6).content_hash()


# The last three repeat dof_id 0 or fall outside 0..n-1: restarting would
# run on a permuted field.
@pytest.mark.parametrize(
    "column,value", [(4, "oops"), (0, "1.5"), (0, "0"), (0, "99"), (0, "-1")]
)
def test_malformed_snapshot_is_config_error(tmp_path, capsys, column, value):
    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", mesh="structured:4", t_end="0.02"))
    driver.run(cfg)
    lines = open(os.path.join(cfg.output_dir, "snap_final.csv")).read().splitlines()
    cells = lines[5].split(",")
    cells[column] = value
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad_snap.csv"
    bad.write_text("\n".join(lines) + "\n")
    path = tmp_path / "restart.cfg"
    path.write_text(
        _cfg_text(tmp_path, problem="from_file", mesh="structured:4", **{"problem.file": str(bad)})
    )
    assert main(["run", str(path)]) == 2
    assert f"{bad}:6" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["nan", "inf", "1e400", "-inf"])
def test_snapshot_with_a_non_finite_time_is_config_error(tmp_path, capsys, t):
    # a NaN or infinite start time never meets t_end, or meets it at once:
    # the run is refused before any output is made
    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", mesh="structured:4"))
    state, _ = driver.start(cfg)
    snap = tmp_path / "snap.csv"
    driver.write_snapshot(snap, state)
    lines = snap.read_text().splitlines()
    assert " t=0.0 " in lines[1]
    lines[1] = lines[1].replace(" t=0.0 ", f" t={t} ")
    snap.write_text("\n".join(lines) + "\n")
    path = tmp_path / "restart.cfg"
    path.write_text(_cfg_text(tmp_path, problem="from_file", mesh="structured:4", t_end="0.1",
                              max_steps="3", **{"problem.file": str(snap)}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and f"{snap}:2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_diag_row_reuses_the_step_residual(tmp_path, monkeypatch):
    # each row reads the production of its state's memoised residual, which
    # the next step's first stage then reuses: one jump diffusion per stage
    # plus one for the final row
    from rdeuler import stabilization

    calls = []
    original = stabilization.jump_diffusion

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(stabilization, "jump_diffusion", counted)
    n = 4
    cfg = parse_config(
        _cfg_text(tmp_path, problem="vortex", mesh="structured:8", integrator="ssprk2",
                  scheme="galerkin+ec+jump", t_end="10.0", max_steps=str(n),
                  **{"output.diag_every": "1"})
    )
    result = driver.run(cfg, record=True)
    assert result.n_steps == n
    assert len(calls) == 2 * n + 1

    with open(os.path.join(cfg.output_dir, "diagnostics.csv")) as fh:
        header, *lines = fh.read().splitlines()
    col = header.split(",").index("entropy_production")
    got = [float(line.split(",")[col]) for line in lines]
    scheme = cfg.scheme_obj()
    want = [
        float(np.sum(original(StageFields(result.disc, result.gas, U),
                              lam=scheme.lambda_jump, zeta=scheme.zeta)[1]))
        for U in result.record.states
    ]
    assert len(got) == n + 1
    assert got == want
    assert all(p > 0.0 for p in got)


def test_diag_row_bv_norm_reuses_the_residual_jump_integral(tmp_path, monkeypatch):
    # the row's bv_norm is the weighted sum of the gradient-jump integral
    # that the jump diffusion of the state's residual memoised on its
    # fields: the gradient jumps are evaluated once per residual (the two
    # stages of each SSP-RK2 step, and the last row's state) and never for
    # a row of its own, and every cell equals weak_bv_norm from scratch
    from rdeuler import diagnostics
    from rdeuler.discretization import Discretization

    calls = []
    original = Discretization.trace_grad_jump

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(Discretization, "trace_grad_jump", counted)
    n = 4
    cfg = parse_config(
        _cfg_text(tmp_path, problem="vortex", mesh="structured:8", integrator="ssprk2",
                  scheme="galerkin+ec+jump", t_end="10.0", max_steps=str(n),
                  **{"output.diag_every": "1"})
    )
    result = driver.run(cfg, record=True)
    assert result.n_steps == n
    assert len(calls) == 2 * n + 1
    monkeypatch.undo()

    with open(os.path.join(cfg.output_dir, "diagnostics.csv")) as fh:
        header, *lines = fh.read().splitlines()
    col = header.split(",").index("bv_norm")
    got = [float(line.split(",")[col]) for line in lines]
    zeta = cfg.scheme_obj().zeta
    want = [
        diagnostics.weak_bv_norm(StageFields(result.disc, result.gas, U), zeta=zeta)
        for U in result.record.states
    ]
    assert len(got) == n + 1
    assert got == want
    assert all(bv > 0.0 for bv in got)


@pytest.mark.parametrize(
    "lines, token",
    [
        (["nodes abc"], "abc"),
        (["nodes 3", "0 0", "1 zz", "0 1", "triangles 1", "0 1 2"], "zz"),
        (["nodes 3", "0 0", "1 0", "0 1", "triangles 1", "0 1 2.5"], "2.5"),
    ],
)
def test_malformed_mesh_token_is_an_error_line(tmp_path, capsys, lines, token):
    mesh_path = tmp_path / "bad.rdmesh"
    mesh_path.write_text("\n".join(["rdmesh 1"] + lines) + "\n")
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, mesh=str(mesh_path)))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(mesh_path) in err and repr(token) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("missing, code", [("config", 2), ("mesh", 1), ("snapshot", 2)])
def test_missing_input_file_is_an_error_line(tmp_path, capsys, missing, code):
    # config and snapshot are configuration errors (exit 2), a mesh file
    # is a mesh error (exit 1); each names the path and shows no traceback
    absent = tmp_path / f"absent_{missing}"
    path = tmp_path / "run.cfg"
    if missing == "config":
        path = absent
    elif missing == "mesh":
        path.write_text(_cfg_text(tmp_path, mesh=str(absent)))
    else:
        path.write_text(_cfg_text(tmp_path, problem="from_file", **{"problem.file": str(absent)}))
    assert main(["run", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " if code == 2 else "error: ")
    assert len(err.splitlines()) == 1 and str(absent) in err
    assert "Traceback" not in err


def test_cli_overflowing_beta_is_a_solver_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", **{"problem.beta": "1e300"}))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "beta=1e+300" in err
    assert "Traceback" not in err


def test_cli_overflowing_zeta_is_a_solver_error(tmp_path, capsys):
    # h_K > 1 on structured:4 (side 10), so h**zeta overflows: the run is
    # refused before its first step, without an overflow warning
    import warnings

    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", mesh="structured:4", zeta="1e308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zeta=1e+308" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_overflowing_gamma_is_blamed_on_gamma(tmp_path, capsys):
    # (gamma - 1) beta^2 / (8 gamma pi^2) is inf / inf at gamma = 1e308:
    # the vortex names gamma with beta, not beta alone
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", mesh="structured:4", gamma="1e308"))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma=1e+308" in err and "beta=5.0" in err
    assert "Traceback" not in err


def test_vortex_below_the_energy_floor_names_the_first_inadmissible_dof(tmp_path, capsys):
    # e_floor bounds the internal-energy density, not the temperature:
    # the vortex core (rho e = 0.93 < 1) fails the per-DOF check of
    # driver.start, which names the DOF, and beta is not blamed
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, problem="vortex", mesh="structured:4", e_floor="1"))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: problem vortex with the bernstein basis of degree 1 has ")
    assert "inadmissible initial DOF states; the first is DOF " in err
    assert "beta" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_start_takes_the_gas_and_floors_from_the_config(tmp_path):
    # a zeta with h**zeta large but finite (h = 2.36 here) is accepted
    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", gamma="1.3",
                                 rho_floor="1e-9", e_floor="2e-10", zeta="700"))
    state, prob = driver.start(cfg)
    assert state.gas == euler.GasModel(1.3, 1e-9, 2e-10)
    assert prob.gas is state.gas and state.t == 0.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mesh, n_bad", [("structured:4", 16), ("structured:8", 32)])
def test_an_inadmissible_initial_state_is_named_before_the_run(tmp_path, capsys, mesh, n_bad):
    # the P2 Bernstein coefficients of the smoothed Sod jump undershoot to a
    # negative density on coarse meshes: start names the problem, the basis,
    # the degree and the first bad DOF, and the run exits 1 with no output
    text = _cfg_text(tmp_path, problem="sod_smooth", mesh=mesh, basis="bernstein", degree="2")
    with pytest.raises(InadmissibleParameters) as info:
        driver.start(parse_config(text))
    msg = str(info.value)
    assert msg.startswith(f"problem sod_smooth with the bernstein basis of degree 2 has {n_bad} ")
    assert "the first is DOF " in msg and "with density -" in msg
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: problem sod_smooth")
    assert not (tmp_path / "out").exists()


def test_an_inadmissible_snapshot_is_named_by_its_file(tmp_path):
    cfg = parse_config(_cfg_text(tmp_path, problem="vortex", mesh="structured:4", t_end="0.02"))
    driver.run(cfg)
    lines = open(os.path.join(cfg.output_dir, "snap_final.csv")).read().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("7,"))
    cells = lines[at].split(",")
    cells[3] = "-0.5"                 # the density of DOF 7
    lines[at] = ",".join(cells)
    snap = tmp_path / "bad_snap.csv"
    snap.write_text("\n".join(lines) + "\n")
    restart = _cfg_text(tmp_path, problem="from_file", mesh="structured:4",
                        **{"problem.file": str(snap)})
    with pytest.raises(InadmissibleParameters) as info:
        driver.start(parse_config(restart))
    assert str(info.value).startswith(
        f"snapshot {snap} with the bernstein basis of degree 1 has 1 inadmissible initial "
        "DOF states; the first is DOF 7, with density -0.5 ")


def test_a_fine_enough_mesh_starts_the_p2_bernstein_sod_problem(tmp_path):
    cfg = parse_config(_cfg_text(tmp_path, problem="sod_smooth", mesh="structured:16",
                                 basis="bernstein", degree="2", max_steps="2"))
    state, _ = driver.start(cfg)
    assert euler.admissible(state.U, state.gas).all()
    assert len(list(driver.steps(cfg, state))) == 2


@pytest.mark.parametrize("space, scheme, cascade", [
    ("s1", "galerkin_jump", "galerkin,limited_lxf,lxf"), ("s2", "dg", "galerkin,limited_lxf,lxf"),
    ("s1", "lxf", "galerkin_jump,lxf"), ("s2", "lxf", "dg,lxf"),
    ("s1", "lxf+interp", "dg,lxf"), ("s1", "dg", "dg,limited_lxf+interp,lxf"),
])
def test_cli_rejects_a_scheme_on_the_wrong_space_before_making_the_output(
        tmp_path, space, scheme, cascade, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, space=space, scheme=scheme, cascade=cascade,
                              **{"mood.enabled": "true"}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "needs space" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("gamma", "nan"), ("zeta", "nan"), ("lambda_jump", "nan"), ("t_end", "nan"),
    ("max_steps", "-3"), ("mood.smooth_tol", "-1"), ("mood.delta_dmp", "nan"),
    ("rho_floor", "nan"), ("rho_floor", "-1"), ("e_floor", "nan"), ("problem.beta", "nan"),
])
def test_cli_rejects_nan_and_out_of_range_values(tmp_path, key, value, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(_cfg_text(tmp_path, **{key: value}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
