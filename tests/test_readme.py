"""The README's Python examples run, in order, against the current API."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
