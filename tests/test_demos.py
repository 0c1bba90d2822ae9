"""Every demo script runs to completion, and make_data.py reproduces demos/data."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_make_data_regenerates_demo_data(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_data", ROOT / "demos" / "make_data.py")
    make_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_data)
    monkeypatch.setattr(make_data, "DATA", tmp_path)
    make_data.main()
    committed = ROOT / "demos" / "data"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in committed.iterdir())
    for path in committed.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
