"""The package namespace and the demo scripts that import from it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetagenus

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in zetagenus.__all__ if not hasattr(zetagenus, name)]
    assert missing == []
    assert len(zetagenus.__all__) == len(set(zetagenus.__all__))


def test_every_exported_name_is_its_home_modules_object():
    # the namespace imports each name's home module on first access
    assert zetagenus.__all__ == ["__version__", *zetagenus._EXPORTS]
    for name, home in zetagenus._EXPORTS.items():
        module = importlib.import_module(f"zetagenus.{home}")
        assert getattr(zetagenus, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        zetagenus.nosuch


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
