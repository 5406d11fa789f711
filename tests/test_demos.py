"""Every demo script imports cleanly; the quick ones also run end to end."""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def load(path):
    # Importing runs the module body (its psdlab imports) but not main().
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


# The quick demos (under 2 s each) run end to end.
@pytest.mark.parametrize("name", ["cone_geometry", "sharpness_limit", "solver_hierarchy"])
def test_demo_runs(name, capsys):
    load(DEMO_DIR / f"{name}.py").main()
    assert capsys.readouterr().out
