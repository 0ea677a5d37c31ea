"""The README's Library section stays runnable and names real API."""

import re
from pathlib import Path

import yaml

import mgsched
from mgsched import load_config
from mgsched import sim

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


def configuration_block() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


def test_configuration_block_loads_and_names_every_key(tmp_path):
    path = tmp_path / "readme.yaml"
    path.write_text(configuration_block())
    config = load_config(str(path))
    assert len(config.regimes) == 1 and len(config.residents) == 5
    data = yaml.safe_load(configuration_block())
    traces = data["traces"]
    sections = [
        (data, sim.TOP_KEYS),
        (data["batteries"][0], {**sim.COUNT_KEYS, **sim.BATTERY_KEYS}),
        (data["residents"][0], {**sim.COUNT_KEYS, **sim.RESIDENT_KEYS}),
        (data["grid"], sim.GRID_KEYS),
        (traces, sim.TRACE_KEYS),
        (traces["regimes"][0], sim.REGIME_KEYS),
        (data["mecp"], sim.MECP_KEYS),
    ]
    for raw, keys in sections:
        assert set(raw) == set(keys)
