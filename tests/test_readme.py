"""The README's self-contained Python examples run against the package.

Blocks that read files under ``data/`` (the quick tour) need provider
data that is not shipped, so they are left out; every other ``python``
block is executed as written.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
SELF_CONTAINED = [b for b in BLOCKS if "data/" not in b]


def test_readme_has_the_expected_examples():
    assert len(BLOCKS) == 3
    assert len(SELF_CONTAINED) == 2


@pytest.mark.parametrize("block", SELF_CONTAINED, ids=["monte_carlo", "fit_batch"])
def test_readme_example_runs(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
