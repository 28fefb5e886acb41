"""The Python examples of README.md run as written, from the repository root."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
EXAMPLES = {
    f"line{README.count(chr(10), 0, match.start()) + 1}": match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```", README, re.S | re.M)
}


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("source", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_readme_example_runs(source, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})
