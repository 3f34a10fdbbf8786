"""The README's library tour runs as printed, and its configuration block
lists the keys that parse_config reads."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_blocks():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_the_two_tour_blocks_step_the_same_state():
    # the config path and the constructor path of the tour are one run
    blocks = _python_blocks()
    assert len(blocks) == 2
    finals = []
    for code in blocks:
        scope = {}
        exec(compile(code, "README.md", "exec"), scope)
        finals.append(scope["state"])
    a, b = finals
    assert a.t == b.t == 1.0
    assert a.U.shape == b.U.shape and a.U.tobytes() == b.U.tobytes()


def _config_block():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("### Configuration format", 1)[1]
    return re.search(r"^```\n(.*?)^```$", section, flags=re.M | re.S).group(1)


def test_the_configuration_block_names_every_key_and_parses():
    from rdeuler.config import _KEYMAP, parse_config

    block = _config_block()
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    keys = [line.split("=", 1)[0].strip() for line in lines if line]
    assert sorted(keys) == sorted(_KEYMAP)
    cfg = parse_config(block)
    assert sorted(cfg.raw) == sorted(_KEYMAP)
