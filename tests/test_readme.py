"""Every `python` block of README.md runs, so the documented calls and the
values its asserts state cannot drift from the code."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})
