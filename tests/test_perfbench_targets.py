"""The benchmark tracer's targets exist in psdlab.

``perfbench/tracing.py`` wraps functions by name; a renamed or deleted
target would only surface when the benchmark runs.  This loads the
tracer's table by path and resolves every entry without patching or
running anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(target, id=name) for name, target in module.TRACED]


@pytest.mark.parametrize("target", _traced_targets())
def test_traced_target_resolves(target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "psdlab")
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{target} is not callable"
