"""Tests of the benchmark's tracer and layer metrics.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import EXTRA_TARGETS, METRICS, MoodReports, layer_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, public_functions, self_times  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 2],
        ["d", 2.0, 3.0, 0],    # overlaps a: covered time is the union
        ["e", 8.5, 9.5, 2],    # runs past its parent: clipped to b
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.5, 2.0, 1.0, 1.0])


def _holders(package="rdeuler"):
    """Every (namespace, attribute) -> object binding the tracer may touch."""
    from rdeuler.discretization import Discretization

    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for attr, value in vars(Discretization).items():
        out[("Discretization", attr)] = value
    return out


def _tiny_run(tmp_path):
    from rdeuler import config, driver

    cfg = config.parse_config(
        "problem = vortex\nmesh = structured:4\nscheme = galerkin+ec+jump\n"
        f"t_end = 0.05\noutput.dir = {tmp_path}\n"
    )
    return driver.run(cfg)


def _traced_layers(tmp_path):
    tracer = Tracer()
    reports = MoodReports()
    with tracer:
        tracer.install(public_functions() + list(EXTRA_TARGETS), hooks={"mood.mood_step": reports})
        result = _tiny_run(tmp_path)
    return tracer, layer_metrics(
        tracer.spans, tracer.missing, result.n_steps, result.disc.mesh.n_tris, reports, str(tmp_path)
    )


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    from rdeuler import stabilization, stepping

    targets = public_functions() + list(EXTRA_TARGETS)     # imports every module
    before = _holders()
    original = stepping.element_theta
    tracer = Tracer()
    with tracer:
        tracer.install(targets)
        assert stepping.element_theta is not original
        assert stabilization.base_residual.__wrapped__ is not None
        _tiny_run(tmp_path)
    assert tracer.spans and not tracer.missing
    after = _holders()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_missing_targets_are_reported_not_raised(tmp_path):
    tracer = Tracer()
    with tracer:
        tracer.install(["stepping.no_such_function", "no_such_module.f",
                        "discretization.Discretization.no_such_method"])
        _tiny_run(tmp_path)
    assert tracer.missing == ["stepping.no_such_function", "no_such_module.f",
                              "discretization.Discretization.no_such_method"]
    metrics = layer_metrics([], ["stepping.element_theta"], 1, 1, MoodReports(), str(tmp_path))
    assert "stepping.rhs_per_step" not in metrics
    assert "euler.flux_calls_per_rhs" not in metrics
    assert "basis.dofmap_s" in metrics


def test_layer_counts_repeat_exactly(tmp_path):
    _, first = _traced_layers(tmp_path / "a")
    _, second = _traced_layers(tmp_path / "b")
    counts = ("stepping.rhs_per_step", "euler.flux_calls_per_rhs",
              "residuals.base_calls_per_step", "positivity.alpha_calls_per_step")
    for name in counts:
        assert first[name] == second[name] > 0
    assert first["stepping.picard_sweeps_per_step"] == 0.0


def test_benchmark_json_lists_the_metrics_the_command_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in METRICS.items()
    }
