"""Line coverage of the library on the user paths, by the stdlib tracer.

Usage (from the repository root):

    python3 tools/linecov.py

It traces ``src/rdeuler`` with ``sys.settrace`` over the paths a user
takes, in this process and in a temporary working directory:

- the three ``bench/workloads.py`` configurations (seed 1), each through
  ``rdeuler run`` (``cli.main(["run", ...])``);
- the five ``rdeuler verify`` suites;
- ``rdeuler convergence`` on the vortex, with the gradient-jump Galerkin
  scheme ``galerkin_jump``, and on the constant problem;
- a run of the vortex and its restart from the final snapshot
  (``problem = from_file``);
- the five demos, run as ``__main__``.

It prints the exit code and the time of each path, then, per module, the
executable lines inside function bodies, how many of them ran and the
ones that did not, and last the public module-level functions and the
public methods of module-level classes (as ``tests/test_api_surface.py``
enumerates them) of which no body line ran, each tagged ``__all__`` or
``README`` when it is documented API.  Lines at module and class level
run on import and are not counted.  No byte code or output is written
into the checkout.  The exit code is 1 if a path failed, else 0.  It
takes about 40 s on a 2-core host (Python 3.11, numpy 2.4), 20 s of it
in ``rdeuler verify positivity``.
"""

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "rdeuler")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def body_lines(code):
    """Lines with byte code in the functions nested in a module's code,
    without their ``def`` lines."""
    out = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines = {line for *_, line in const.co_lines() if line is not None}
            if not const.co_name.startswith("<"):
                lines.discard(const.co_firstlineno)
            out |= lines | body_lines(const)
    return out


def public_definitions(tree):
    """(qualified name, first body line, last line) of the public
    module-level functions and the public methods of module-level classes."""
    def public(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")

    for node in tree.body:
        if public(node):
            yield node.name, node.body[0].lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if public(member):
                    yield f"{node.name}.{member.name}", member.body[0].lineno, member.end_lineno


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out, lines = [], sorted(lines)
    start = prev = None
    for line in lines + [None]:
        if prev is not None and line == prev + 1:
            prev = line
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = line
    return ", ".join(out)


def tracer(files, hits):
    """A global trace function that records the lines run in ``files``."""
    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return start


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def user_paths(work):
    """(label, callable returning an exit code) of every user path."""
    from rdeuler.cli import main
    from rdeuler.verification import SUITES

    import workloads

    def cli(*argv):
        return lambda: main(list(argv))

    def workload(name):
        def go():
            out = os.path.join(work, name)
            mesh_path = workloads.prepare(name, out)
            cfg = write(os.path.join(out, "run.cfg"),
                        workloads.config_text(name, 1, os.path.join(out, "out"), mesh_path))
            return main(["run", cfg])
        return go

    def config(name, problem, **keys):
        keys = {"problem": problem, "mesh": "structured:4", "integrator": "fe", "cfl": 0.4,
                "t_end": 0.05, "output.dir": os.path.join(work, name), **keys}
        return write(os.path.join(work, f"{name}.cfg"), "".join(f"{k} = {v}\n" for k, v in keys.items()))

    def demo(path):
        def go():
            runpy.run_path(path, run_name="__main__")
            return 0
        return go

    vortex = config("vortex", "vortex", scheme="galerkin_jump", integrator="ssprk2")
    constant = config("constant", "constant")
    first = config("first", "vortex")
    restart = config("restart", "from_file", t_end=0.1,
                     **{"problem.file": os.path.join(work, "first", "snap_final.csv")})
    meshes = "structured:4,structured:8"

    paths = [(f"run {w}", workload(w)) for w in workloads.NAMES]
    paths += [(f"verify {s}", cli("verify", s)) for s in sorted(SUITES)]
    paths += [("convergence vortex", cli("convergence", vortex, "--meshes", meshes)),
              ("convergence constant", cli("convergence", constant, "--meshes", meshes)),
              ("run vortex", cli("run", first)),
              ("run from_file", cli("run", restart))]
    demos = os.path.join(ROOT, "demos")
    paths += [(f"demo {d}", demo(os.path.join(demos, d)))
              for d in sorted(os.listdir(demos)) if d.endswith(".py")]
    return paths


def main():
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                sources[path] = fh.read()
    hits = {path: set() for path in sources}
    failed = 0
    t_all = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            sys.settrace(tracer(set(sources), hits))
            for label, go in user_paths(work):
                t0 = time.perf_counter()
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = go()
                failed += code != 0
                print(f"{label:34s} exit {code}  {time.perf_counter() - t0:6.1f} s"
                      + (f"  {err.getvalue().strip()}" if code else ""))
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    print(f"{'all user paths, traced':34s}         {time.perf_counter() - t_all:6.1f} s\n")

    import rdeuler

    exported = set(rdeuler.__all__)
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = set(IDENT.findall(fh.read()))

    print(f"{'module':18s} {'lines':>5s} {'run':>5s} {'not run':>7s}  lines not run")
    n_lines = n_ran = 0
    unrun = []
    for path, source in sources.items():
        module = os.path.basename(path)
        lines = body_lines(compile(source, path, "exec"))
        ran = lines & hits[path]
        n_lines += len(lines)
        n_ran += len(ran)
        print(f"{module:18s} {len(lines):5d} {len(ran):5d} {len(lines - ran):7d}  {ranges(lines - ran)}")
        for name, first, last in public_definitions(ast.parse(source)):
            if not any(first <= line <= last for line in ran):
                short = name.split(".")[-1]
                tag = "__all__" if short in exported else "README" if short in readme else ""
                unrun.append((f"{module[:-3]}.{name}", tag))
    print(f"{'total':18s} {n_lines:5d} {n_ran:5d} {n_lines - n_ran:7d}\n")
    print("public functions and methods with no line run on a user path:")
    for name, tag in unrun:
        print(f"  {name:50s} {tag}")
    print(f"  ({sum(not tag for _, tag in unrun)} of {len(unrun)} are not documented API)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
