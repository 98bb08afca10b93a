"""The README's library quick start runs as written, and the package exports
what it lists."""

import re
from pathlib import Path

import isacbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "('tau1', 'dtau_q')" in out


def test_every_export_resolves_and_is_listed_once():
    names = isacbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(isacbounds, name), name
