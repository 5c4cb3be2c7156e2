import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text()
# Each ```python block of the README, keyed by the line its fence opens on.
PYTHON_BLOCKS = {
    f"line{_TEXT.count(chr(10), 0, m.start()) + 1}": m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
}


def test_every_python_block_of_the_readme_is_a_program():
    """A signature or fragment is fenced as `text`, so every `python` block can run."""
    assert PYTHON_BLOCKS
    for where, block in PYTHON_BLOCKS.items():
        assert block.startswith(("import ", "from ")), (where, block.splitlines()[0])


@pytest.mark.parametrize("where", PYTHON_BLOCKS)
def test_readme_python_block_runs(where):
    exec(compile(PYTHON_BLOCKS[where], str(README), "exec"), {"__name__": "readme"})


def _section(title: str) -> str:
    """The README text under `## title`, up to the next `## ` heading."""
    start = _TEXT.index(f"\n## {title}\n")
    end = _TEXT.find("\n## ", start + 1)
    return _TEXT[start : end if end >= 0 else len(_TEXT)]


def test_every_test_the_numerical_contracts_cite_exists():
    """A contract that names its pinning test names one the suite defines."""
    cited = set(re.findall(r"\btest_\w+", _section("Numerical contracts")))
    assert cited
    defined = {
        name
        for path in README.parent.joinpath("tests").glob("test_*.py")
        for name in re.findall(r"^def (test_\w+)", path.read_text(), re.M)
    }
    assert sorted(cited - defined) == []
