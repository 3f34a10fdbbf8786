"""Every config key is set by a run outside the tests.

A key of ``config._KEYMAP`` must be set in a config written by a
benchmark workload, a demo, a tool, a CI step or a ``verify`` suite:
as ``key = value`` config text that starts a string or follows an
escaped newline, or as a ``"key":`` entry of a dict of config values.
A value that no run sets is a constant, not a key.  The exceptions are
listed below with their reason.
"""

import os
import re

from rdeuler.config import _KEYMAP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WRITER_DIRS = ("bench", "demos", "tools", ".github")
WRITER_FILES = (os.path.join("src", "rdeuler", "verification.py"),)

# The paper's model (gamma), admissible set (the two floors) and weak-BV
# weight h^zeta: the parameters its theorem is stated for, kept settable
# although every run uses the defaults.
THEOREM_PARAMETERS = {"gamma", "rho_floor", "e_floor", "zeta"}


def _writer_text():
    paths = [os.path.join(ROOT, f) for f in WRITER_FILES]
    for top in WRITER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith((".py", ".yml", ".yaml"))]
    text = []
    for path in paths:
        with open(path) as fh:
            text.append(fh.read())
    return "\n".join(text)


def _is_set(key, text):
    k = re.escape(key)
    return re.search(rf"(\\n|[\"']){k} *= ", text) or re.search(rf"[\"']{k}[\"'] *:", text)


def test_every_config_key_is_set_outside_the_tests():
    text = _writer_text()
    unset = sorted(key for key in _KEYMAP
                   if key not in THEOREM_PARAMETERS and not _is_set(key, text))
    assert unset == []
