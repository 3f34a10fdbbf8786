"""Span tracer that wraps library functions from outside the library.

Each wrapped call records one span ``[name, start, end, parent]`` in an
in-memory list; ``parent`` is the index of the enclosing span or -1.
The package binds names with ``from .x import f``, so a wrapper is
installed in every ``rdeuler`` module namespace that holds the original
object, and :meth:`Tracer.restore` puts every original back.  A target
that does not exist is recorded in :attr:`Tracer.missing` instead of
raising, so metrics built on it can be reported as missing.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import time

PACKAGE = "rdeuler"


def public_functions():
    """Targets ``module.func`` for every public function a module defines."""
    pkg = importlib.import_module(PACKAGE)
    targets = []
    for info in sorted(pkgutil.iter_modules(pkg.__path__), key=lambda i: i.name):
        mod = importlib.import_module(f"{PACKAGE}.{info.name}")
        for name, obj in sorted(vars(mod).items()):
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                targets.append(f"{info.name}.{name}")
    return targets


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []        # (namespace, attribute, original)

    def _wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _resolve(self, target):
        """(owner, attribute, original) for ``module.func`` or ``module.Class.meth``."""
        parts = target.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        except ImportError:
            return None
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attr = parts[-1]
        if not (inspect.isclass(owner) or inspect.ismodule(owner)):
            return None
        original = vars(owner).get(attr)
        if not callable(original):
            return None
        return owner, attr, original

    def install(self, targets, hooks=None):
        """Wrap each target; a class attribute is wrapped on its class only,
        a module function in every package namespace that binds it."""
        hooks = hooks or {}
        for target in targets:
            found = self._resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrapper(target, original, hooks.get(target))
            if inspect.isclass(owner):
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, name)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None
                    and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
                    for name, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, name in holders:
                self._saved.append((holder, name, original))
                setattr(holder, name, wrapper)

    def restore(self):
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
