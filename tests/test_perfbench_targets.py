"""The benchmark tracer's targets exist in psdlab and see every step.

``perfbench/tracing.py`` wraps functions by name; a renamed or deleted
target, or a driver that stops calling through the traced names, would
only surface when the benchmark runs.  This loads the tracer by path,
resolves every entry of its table, and runs it around a tiny certify
sweep.  It also loads ``perfbench/workloads.py`` and holds one pass of
the fast workloads to their own correctness gates.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from psdlab import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def _traced_targets():
    return [pytest.param(target, id=name) for name, target in _load_tracing().TRACED]


@pytest.mark.parametrize("target", _traced_targets())
def test_traced_target_resolves(target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "psdlab")
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{target} is not callable"


def test_tracer_counts_every_step_and_check():
    recorder = _load_tracing().Recorder()
    config = cli.ExperimentConfig(command="certify", trials=6, n=8,
                                  solvers="psd,pinvit1,invit1,invit2", seed=5)
    first = recorder.install()
    try:
        report = cli.cmd_certify(config)
    finally:
        recorder.uninstall()
    m = recorder.pass_metrics(first, wall_s=1.0)
    steps = m["iterate.steps"]
    assert steps > 0
    assert m["iterate.psd_step.calls"] + m["iterate.pinvit1_step.calls"] == steps
    verdicts = sum(m[f"bounds.verdict.{v}"] for v in ("holds", "passed_lambda_i", "violated"))
    assert m["bounds.certify_step.calls"] == verdicts
    assert m["bounds.certify_step.calls"] == sum(row["checked_steps"] for row in report.records)


# conelab-worstcase is left out: its tiny pass takes seconds, and the
# acceptance and sharpness tests already hold its gates.
@pytest.mark.parametrize("workload, size", [
    ("solve-jacobi-lap1d-64", "full"),
    ("solve-lap2d-256", "full"),
    ("certify-sweep", "tiny"),
])
def test_workload_pass_meets_its_gates(workload, size):
    w = _load("workloads").WORKLOADS[workload]
    outcome = w.run_pass(w.default_seed, size)
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.problems
