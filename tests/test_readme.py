"""The README's Library section stays runnable and names real API."""

import re
from pathlib import Path

import mgsched

ROOT = Path(__file__).resolve().parent.parent


def library_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(monkeypatch):
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["summary"].slots == namespace["config"].horizon
    assert isinstance(namespace["lb"], float)


def test_named_lower_level_pieces_exist():
    prose = library_section().split("```", 2)[2]
    names = re.findall(r"`(\w+)`", prose)
    assert names
    assert [n for n in names if not hasattr(mgsched, n)] == []
