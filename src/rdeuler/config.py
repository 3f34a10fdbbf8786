"""Flat ``key = value`` run configuration with dotted keys.

Unknown keys are rejected; every numeric field is range-checked.  The
special value ``auto`` keeps a context-dependent default (jump
coefficient from the local wavespeed, plateau tolerance from h_K^3,
time-step cap from the domain size).
"""

from dataclasses import dataclass, field, fields
from math import isfinite

from .errors import ConfigError
from .mood import CascadeConfig
from .residuals import Scheme

_BOOL = {"true": True, "false": False, "on": True, "off": False}

# The bases that run on one space only: the gradient-jump stabilization
# of the continuous space, and the discontinuous distribution.  The
# interpolated flux (+interp) needs the continuous space too: on the
# discontinuous one its residual has no interface term, so the elements
# neither couple nor conserve.
_SPACE_OF_BASE = {"galerkin_jump": "s2", "dg": "s1"}


def _key(default, key=None, auto=False):
    """A field read from config key ``key`` (default: the field name);
    with ``auto`` the value ``auto`` stands for None."""
    return field(default=default, metadata={"key": key, "auto": auto})


@dataclass
class RunConfig:
    problem: str = "vortex"
    problem_file: str = _key(None, "problem.file")
    beta: float = _key(5.0, "problem.beta")
    mesh: str = None
    space: str = "s2"
    basis: str = "bernstein"
    degree: int = 1
    scheme: str = "galerkin+ec+jump"
    cascade: str = "galerkin+ec+jump,limited_lxf,lxf"
    integrator: str = "ssprk2"
    cfl: float = 0.2
    t_end: float = 2.0
    gamma: float = 1.4
    rho_floor: float = 1e-12
    e_floor: float = 1e-12
    lambda_jump: float = _key(None, auto=True)  # None: local max wavespeed
    zeta: float = 2.0
    mood_enabled: bool = _key(False, "mood.enabled")
    mood_delta_dmp: float = _key(1e-3, "mood.delta_dmp")
    mood_plateau: float = _key(None, "mood.plateau", auto=True)  # None: h_K^3
    mood_smooth_tol: float = _key(0.01, "mood.smooth_tol")
    output_dir: str = _key("out", "output.dir")
    output_every: int = _key(0, "output.every")  # snapshot cadence in steps; 0 = final only
    diag_every: int = _key(1, "output.diag_every")
    dt_max: float = _key(None, auto=True)
    max_steps: int = 10_000_000
    raw: dict = field(default_factory=dict)  # key -> value text as parsed; not a key

    def validate(self):
        if self.problem not in ("vortex", "sod_smooth", "constant", "from_file"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.problem == "from_file" and not self.problem_file:
            raise ConfigError("problem.file required for problem = from_file")
        if self.space not in ("s1", "s2"):
            raise ConfigError("space must be s1 or s2")
        if self.basis not in ("lagrange", "bernstein"):
            raise ConfigError("basis must be lagrange or bernstein")
        if self.degree not in (1, 2):
            raise ConfigError("degree must be 1 or 2")
        if self.integrator not in ("fe", "ssprk2", "implicit"):
            raise ConfigError("integrator must be fe, ssprk2 or implicit")
        # Each check is written so that NaN fails it; infinities fail isfinite.
        _check(0.0 < self.cfl <= 1.0, "cfl must lie in (0, 1]")
        _check(isfinite(self.t_end) and self.t_end > 0.0, "t_end must be positive and finite")
        _check(isfinite(self.gamma) and self.gamma > 1.0, "gamma must be finite and exceed 1")
        _check(isfinite(self.rho_floor) and self.rho_floor >= 0.0,
               "rho_floor must be finite and >= 0")
        _check(isfinite(self.e_floor) and self.e_floor >= 0.0, "e_floor must be finite and >= 0")
        _check(isfinite(self.beta), "problem.beta must be finite")
        _check(isfinite(self.zeta) and self.zeta >= 2.0, "zeta must be finite and >= 2")
        _check(_auto_or(self.lambda_jump, lambda v: v >= 0.0),
               "lambda_jump must be auto or finite and >= 0")
        _check(_auto_or(self.dt_max, lambda v: v > 0.0), "dt_max must be auto or finite and > 0")
        _check(self.max_steps >= 1, "max_steps must be >= 1")
        # the cascade and the mood.* keys are checked even when the cascade is off
        for scheme in (Scheme.parse(self.scheme), *self.cascade_config().schemes):
            need = ("s2" if scheme.flux_mode == "interpolated"
                    else _SPACE_OF_BASE.get(scheme.base, self.space))
            _check(need == self.space, f"scheme {scheme.label()} needs space = {need}")
        if self.output_every < 0 or self.diag_every < 1:
            raise ConfigError("bad output cadence")
        if self.mood_enabled and self.integrator == "implicit":
            raise ConfigError("the detection cascade needs an explicit integrator")
        if Scheme.parse(self.scheme).label() != "lxf+interp" and self.integrator == "implicit":
            raise ConfigError("integrator = implicit needs scheme = lxf+interp, the scheme it solves")
        if self.integrator == "implicit":
            # The implicit step's sparse solver, the one use of scipy: loaded
            # here so that the run itself does not pay for the import.
            import scipy.sparse.linalg  # noqa: F401
        return self

    def scheme_obj(self):
        s = Scheme.parse(self.scheme)
        return _with_jump_params(s, self)

    def cascade_config(self) -> CascadeConfig:
        return CascadeConfig(
            schemes=tuple(_with_jump_params(Scheme.parse(s), self) for s in self.cascade.split(",")),
            delta_dmp=self.mood_delta_dmp,
            plateau_eps=self.mood_plateau,
            smooth_tol=self.mood_smooth_tol,
        )


def _check(ok, message):
    if not ok:
        raise ConfigError(message)


def _auto_or(value, ok):
    """True for ``auto`` (None) or a finite value satisfying ``ok``."""
    return value is None or (isfinite(value) and ok(value))


def _with_jump_params(scheme, cfg):
    from dataclasses import replace

    return replace(scheme, lambda_jump=cfg.lambda_jump, zeta=cfg.zeta)


# config key -> (field, conversion), from the field metadata
_KEYMAP = {
    f.metadata.get("key") or f.name: (f.name, "auto_float" if f.metadata.get("auto") else f.type)
    for f in fields(RunConfig)
    if f.name != "raw"
}


def _convert(key, kind, value):
    try:
        if kind is bool:
            if value.lower() not in _BOOL:
                raise ValueError(value)
            return _BOOL[value.lower()]
        if kind == "auto_float":
            return None if value.lower() == "auto" else float(value)
        return kind(value)
    except ValueError:
        raise ConfigError(f"bad value {value!r} for key {key!r}") from None


def parse_config(text) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, kind = _KEYMAP[key]
        setattr(cfg, attr, _convert(key, kind, value))
        cfg.raw[key] = value
    return cfg.validate()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from None
    return parse_config(text)
