"""Every public function and method of the library has a reader.

A public module-level function, or a public method or property of a
class defined in ``rdeuler``, must be used somewhere outside its own
definition in ``src/``, ``demos/``, ``bench/`` or ``tools/`` (as a name,
an attribute, an import or inside a string such as a tracer target),
or be documented API: listed in ``rdeuler.__all__`` or named in the
README.  Tests do not count as readers, so a name kept only as a test
entry point fails here.
"""

import ast
import os
import re

import rdeuler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "rdeuler")
READER_DIRS = ("src", "demos", "bench", "tools")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files():
    for top in READER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _docstrings(tree):
    """Ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _uses(tree):
    """(name, line) of every identifier the code reads: names,
    attributes, imported names and identifiers inside non-docstring
    string constants."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docs):
            for word in IDENT.findall(node.value):
                yield word, node.lineno


def _public_definitions(path, tree):
    """(qualified name, name, first line, last line) of the public
    module-level functions and of the public methods and properties of
    module-level classes."""
    def public(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")

    module = os.path.splitext(os.path.basename(path))[0]
    for node in tree.body:
        if public(node):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if public(member):
                    yield (f"{module}.{node.name}.{member.name}", member.name,
                           member.lineno, member.end_lineno)


def _unread_names():
    uses = {}
    for path in _python_files():
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = set(IDENT.findall(fh.read()))
    documented = set(rdeuler.__all__) | readme

    unread = []
    for path in sorted(os.listdir(PACKAGE)):
        if not path.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for qualified, name, first, last in _public_definitions(path, tree):
            if name in documented:
                continue
            outside = [(p, line) for p, line in uses.get(name, ())
                       if not (p == path and first <= line <= last)]
            if not outside:
                unread.append(qualified)
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _unread_names() == []


def test_the_scan_sees_definitions_and_uses():
    # a guard that finds nothing to check proves nothing
    names = set()
    for path in os.listdir(PACKAGE):
        if path.endswith(".py"):
            full = os.path.join(PACKAGE, path)
            with open(full) as fh:
                names |= {q for q, *_ in _public_definitions(full, ast.parse(fh.read()))}
    assert {"stepping.advance", "discretization.Discretization.traces",
            "discretization.StageFields.cached"} <= names
    tree = ast.parse('"""doc: unread_word"""\nx = f("a.read_word")\n')
    words = {name for name, _ in _uses(tree)}
    assert {"x", "f", "read_word"} <= words and "unread_word" not in words
