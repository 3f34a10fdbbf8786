"""What each path loads: scipy is a dependency of the implicit step only.

Each check runs in a fresh interpreter, because the test process has
scipy loaded already (the oracles use it).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs ``rdeuler run <config>`` through cli.main with driver.run wrapped,
# and prints the exit code, the scipy modules loaded at the entry of
# driver.run and at the end, and the modules imported during driver.run.
CLI_RUN = """
import json, sys
from rdeuler import cli, driver

inner, seen = driver.run, {}

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(cfg, **kw):
    seen["at_entry"] = scipy_modules()
    before = set(sys.modules)
    try:
        return inner(cfg, **kw)
    finally:
        seen["imported"] = sorted(set(sys.modules) - before)

driver.run = run
seen["code"] = cli.main(["run", sys.argv[1]])
seen["at_exit"] = scipy_modules()
print(json.dumps(seen))
"""


def _python(code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_run(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(f"mesh = structured:4\nmax_steps = 2\noutput.dir = {tmp_path / 'out'}\n{text}")
    return _python(CLI_RUN, str(path), cwd=tmp_path)


def test_importing_the_package_and_the_cli_loads_no_scipy(tmp_path):
    loaded = _python(
        "import json, sys, rdeuler, rdeuler.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        cwd=tmp_path,
    )
    assert loaded == []


def test_an_explicit_run_loads_no_scipy_and_imports_nothing_while_it_runs(tmp_path):
    seen = _cli_run(tmp_path, "integrator = ssprk2\n")
    assert seen["code"] == 0
    assert seen["at_entry"] == seen["at_exit"] == []
    assert seen["imported"] == []


def test_an_implicit_config_loads_the_sparse_solver_before_the_run(tmp_path):
    # the import is paid when the config is parsed, not inside driver.run
    seen = _cli_run(tmp_path, "scheme = lxf+interp\nintegrator = implicit\n")
    assert seen["code"] == 0
    assert "scipy.sparse.linalg" in seen["at_entry"]
    assert seen["imported"] == []
