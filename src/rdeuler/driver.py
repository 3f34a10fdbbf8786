"""Run orchestration: the one mapping from a ``RunConfig`` to a stepped
trajectory (``start`` and ``steps``), snapshots, the diagnostics CSV and
the grid-convergence harness."""

import hashlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, euler, problems, stepping
from .config import RunConfig
from .discretization import Discretization
from .errors import ConfigError, InadmissibleParameters, MeshMismatch
from .basis import build_dofmap
from .mesh import read_mesh, structured_rect, structured_square

DIAG_HEADER = (
    "step,t,dt,mass,mom_x,mom_y,energy,entropy,bv_norm,"
    "entropy_production,mood_pad,mood_nad,mood_parachute"
)


def load_mesh(spec):
    """Mesh from a file path or a built-in spec: ``structured:N`` is the
    N x N square, ``structured:NXxNY`` a strip of NX x NY cells, 10 wide
    and 10 * NY / NX high."""
    if not spec.startswith("structured:"):
        return read_mesh(spec)
    dims = spec.split(":", 1)[1].split("x")
    if len(dims) > 2 or not all(d.isdigit() and int(d) > 0 for d in dims):
        raise ConfigError(f"bad mesh spec {spec!r}; expected structured:N or structured:NXxNY")
    if len(dims) == 1:
        return structured_square(int(dims[0]))
    nx, ny = (int(d) for d in dims)
    return structured_rect(nx, ny, width=10.0, height=10.0 * ny / nx)


def build_discretization(cfg: RunConfig) -> Discretization:
    # Checked here, not by the config: a convergence study takes its
    # meshes from the command line and never reads cfg.mesh.
    if cfg.mesh is None:
        raise ConfigError("mesh is required")
    return Discretization(build_dofmap(load_mesh(cfg.mesh), cfg.space, cfg.basis, cfg.degree))


def config_hash(cfg: RunConfig):
    blob = "\n".join(f"{k}={v}" for k, v in sorted(cfg.raw.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_snapshot(path, state: stepping.FieldState, cfg_hash=""):
    disc = state.disc
    pts = np.asarray(disc.dofmap.dof_points, dtype=float).tolist()
    U = np.asarray(state.U, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write("# rdeuler snapshot\n")
        fh.write(
            f"# mesh_hash={disc.mesh.content_hash()} t={float(state.t)!r} "
            f"config_hash={cfg_hash}\n"
        )
        fh.write("dof_id,x,y,rho,mx,my,E\n")
        fh.writelines(
            f"{i},{x!r},{y!r},{rho!r},{mx!r},{my!r},{E!r}\n"
            for i, ((x, y), (rho, mx, my, E)) in enumerate(zip(pts, U))
        )


def read_snapshot(path):
    """(U, t, meta) of a snapshot file; a file that cannot be read, a
    malformed header value or row, a time that is not finite, or dof_ids
    that are not a permutation of 0..n-1 for n rows, raise ConfigError
    naming the file (and the line)."""
    meta = {}
    rows = []
    t = 0.0
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read snapshot file ({exc.strerror})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        try:
            if line.startswith("#"):
                meta.update(tok.split("=", 1) for tok in line.lstrip("# ").split() if "=" in tok)
                t = float(meta.get("t", t))
                if not math.isfinite(t):
                    raise ValueError(f"time t={t} is not finite")
            elif line and not line.startswith("dof_id"):
                cells = line.split(",")
                if len(cells) != 7:
                    raise ValueError(f"{len(cells)} cells, expected 7")
                rows.append((lineno, int(cells[0]), [float(v) for v in cells[3:7]]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed snapshot line ({exc})") from None
    U = np.empty((len(rows), 4))
    line_of = {}
    for lineno, i, vals in rows:
        if not 0 <= i < len(rows):
            raise ConfigError(
                f"{path}:{lineno}: dof_id {i} outside 0..{len(rows) - 1}, so another one is missing"
            )
        if i in line_of:
            raise ConfigError(f"{path}:{lineno}: dof_id {i} repeats line {line_of[i]}")
        line_of[i] = lineno
        U[i] = vals
    return U, t, meta


@dataclass
class RunResult:
    cfg: RunConfig
    disc: Discretization
    gas: euler.GasModel
    state: stepping.FieldState
    rows: list = field(default_factory=list)
    record: diagnostics.RunRecord = None
    problem: object = None
    n_steps: int = 0


def initial_state(cfg: RunConfig, disc: Discretization, gas):
    if cfg.problem == "from_file":
        U, t, meta = read_snapshot(cfg.problem_file)
        if U.shape[0] != disc.dofmap.n_dofs:
            raise MeshMismatch("snapshot DOF count does not match the mesh")
        mesh_hash = disc.mesh.content_hash()
        if meta.get("mesh_hash", mesh_hash) != mesh_hash:
            raise MeshMismatch(
                f"snapshot was written on mesh {meta['mesh_hash']}, not on {mesh_hash}"
            )
        return stepping.FieldState(t=t, U=U, disc=disc, gas=gas), None
    prob = problems.make_problem(cfg.problem, disc.mesh.bbox, gas, cfg.beta)
    U = disc.interpolate(prob.initial)
    return stepping.FieldState(t=0.0, U=U, disc=disc, gas=gas), prob


def _diag_row(state, scheme, step, dt, mood_counts):
    disc, gas = state.disc, state.gas
    totals = stepping.conserved_totals(disc, state.U)
    entropy = float(np.sum(disc.dual.c_sigma * euler.entropy_eta(state.U, gas)))
    prod = 0.0
    if scheme.diffusion:
        # The state's memoised residual: the next step's first stage reuses it.
        prod = float(np.sum(state.residual(scheme).production))
    bv = diagnostics.weak_bv_norm(state.fields, zeta=scheme.zeta)
    return {
        "step": step,
        "t": state.t,
        "dt": dt,
        "mass": totals[0],
        "mom_x": totals[1],
        "mom_y": totals[2],
        "energy": totals[3],
        "entropy": entropy,
        "bv_norm": bv,
        "entropy_production": prod,
        "mood_pad": mood_counts.get("pad", 0),
        "mood_nad": mood_counts.get("nad", 0),
        "mood_parachute": mood_counts.get("parachute", 0),
    }


def start(cfg: RunConfig):
    """(state, problem) that the run ``cfg`` starts from: the gas and
    floors of ``cfg``, its discretization and its initial state (problem
    None for a snapshot).  A zeta for which h**zeta overflows on the mesh,
    or an initial state with an inadmissible DOF, raises
    InadmissibleParameters."""
    gas = euler.GasModel(gamma=cfg.gamma, rho_floor=cfg.rho_floor, e_floor=cfg.e_floor)
    disc = build_discretization(cfg)
    h = disc.if_h.max()
    with np.errstate(over="ignore"):
        if not np.isfinite(h**cfg.zeta):
            raise InadmissibleParameters(f"zeta={cfg.zeta} overflows h**zeta at h={h:.6g}")
    state, prob = initial_state(cfg, disc, gas)
    bad = np.flatnonzero(~euler.admissible(state.U, gas))
    if len(bad):
        source = f"problem {cfg.problem}" if prob is not None else f"snapshot {cfg.problem_file}"
        with np.errstate(divide="ignore", invalid="ignore"):
            e = euler.internal_energy(state.U[bad[0]])
        raise InadmissibleParameters(
            f"{source} with the {cfg.basis} basis of degree {cfg.degree} has {len(bad)} "
            f"inadmissible initial DOF states; the first is DOF {bad[0]}, with density "
            f"{state.U[bad[0], 0]:.6g} and internal energy density {e:.6g}"
        )
    return state, prob


def steps(cfg: RunConfig, state):
    """``stepping.advance`` of ``state`` with every argument that ``cfg``
    decides: the scheme or the cascade, the integrator, t_end, cfl,
    dt_max and max_steps."""
    return stepping.advance(
        state, cfg.scheme_obj(), cfg.integrator, cfg.t_end, cfg.cfl,
        mood_cfg=cfg.cascade_config() if cfg.mood_enabled else None,
        dt_max=cfg.dt_max, max_steps=cfg.max_steps,
    )


def run(cfg: RunConfig, record=False) -> RunResult:
    state, prob = start(cfg)
    disc, gas = state.disc, state.gas
    scheme = cfg.scheme_obj()

    rec = diagnostics.RunRecord(disc=disc, gas=gas, scheme=scheme) if record else None
    if rec is not None:
        rec.times.append(state.t)
        rec.states.append(state.U.copy())

    os.makedirs(cfg.output_dir, exist_ok=True)
    chash = config_hash(cfg)
    rows = [_diag_row(state, scheme, 0, 0.0, {})]
    step = 0
    for state, dt, report in steps(cfg, state):
        step += 1
        if step % cfg.diag_every == 0:
            counts = report.counts if report is not None else {}
            rows.append(_diag_row(state, scheme, step, dt, counts))
        if cfg.output_every and step % cfg.output_every == 0:
            write_snapshot(
                os.path.join(cfg.output_dir, f"snap_{step:06d}.csv"), state, chash
            )
        if rec is not None:
            rec.times.append(state.t)
            rec.states.append(state.U.copy())
            rec.dts.append(dt)
    write_snapshot(os.path.join(cfg.output_dir, "snap_final.csv"), state, chash)
    _write_csv(os.path.join(cfg.output_dir, "diagnostics.csv"), DIAG_HEADER.split(","), rows)
    return RunResult(cfg=cfg, disc=disc, gas=gas, state=state, rows=rows, record=rec,
                     problem=prob, n_steps=step)


def _write_csv(path, keys, rows):
    """A header of ``keys``, then one line of ``_csv_cell``s per row."""
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for r in rows:
            fh.write(",".join(_csv_cell(r[k]) for k in keys) + "\n")


def _csv_cell(value):
    """Integers as is, every other number as the repr of a plain float
    (numpy scalars would otherwise write ``np.float64(...)``)."""
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def convergence(cfg: RunConfig, mesh_specs):
    """Run one problem over a mesh family; report errors and orders."""
    if cfg.problem not in ("vortex", "constant"):
        raise ConfigError("convergence needs a problem with a known solution")
    rows = []
    for spec in mesh_specs:
        sub = replace(cfg, mesh=spec, output_dir=os.path.join(cfg.output_dir, _safe(spec)))
        sub.raw = dict(cfg.raw)
        result = run(sub)
        errs = diagnostics.primitive_errors(
            result.disc,
            result.gas,
            result.state.U,
            result.problem.state,
            result.state.t,
        )
        rows.append({
            "mesh": spec,
            "mesh_h": float(result.disc.mesh.diameters.max()),
            "n_elems": result.disc.mesh.n_tris,
            "err_rho_L1": errs["rho"],
            "err_u_L1": errs["u"],
            "err_p_L1": errs["p"],
        })

    hs = [r["mesh_h"] for r in rows]
    for key in ("rho", "u", "p"):
        errs = [r[f"err_{key}_L1"] for r in rows]
        orders = [float("nan")] + diagnostics.convergence_order(errs, hs)
        for r, o in zip(rows, orders):
            r[f"order_{key}"] = o

    os.makedirs(cfg.output_dir, exist_ok=True)
    keys = [
        "mesh_h", "n_elems", "err_rho_L1", "err_u_L1", "err_p_L1",
        "order_rho", "order_u", "order_p",
    ]
    _write_csv(os.path.join(cfg.output_dir, "errors.csv"), keys, rows)
    return rows


def _safe(spec):
    return "".join(c if c.isalnum() else "_" for c in spec)
