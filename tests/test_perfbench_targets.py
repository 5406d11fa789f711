"""The benchmark tracer's targets exist in psdlab and see every step.

``perfbench/tracing.py`` wraps functions by name; a renamed or deleted
target, or a driver that stops calling through the traced names, would
only surface when the benchmark runs.  This loads the tracer by path,
resolves every entry of its table, and runs it around a tiny certify
sweep.  It also loads ``perfbench/workloads.py`` and holds one pass of
the fast workloads to their own correctness gates, and runs the
benchmark's ``--smoke`` check end to end.
"""

import importlib
import importlib.util
import subprocess
import sys
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


# A timed run steps through seeds default_seed + k * seed_stride, so the
# gates are held on the first few of them, passes k = 0 .. count - 1 of a
# size; k = 0 keeps the bare workload-size id.  A conelab-worstcase full
# pass takes about 0.1 s, so its gates hold on seeds 42-44.
_GATED = [("solve-jacobi-lap1d-64", "full", 10), ("solve-lap2d-256", "full", 10),
          ("certify-sweep", "tiny", 5), ("conelab-worstcase", "tiny", 3),
          ("conelab-worstcase", "full", 3)]


@pytest.mark.parametrize("workload, size, k", [
    pytest.param(workload, size, k, id=f"{workload}-{size}" + (f"-pass{k}" if k else ""))
    for workload, size, passes in _GATED
    for k in range(passes)
])
def test_workload_pass_meets_its_gates(workload, size, k):
    w = _load("workloads").WORKLOADS[workload]
    outcome = w.run_pass(w.default_seed + k * w.seed_stride, size)
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.problems


def test_benchmark_smoke_run_passes():
    # every workload once on tiny inputs, traced and untraced, through the
    # benchmark's own entry point: a changed signature of a traced function
    # or a lost metric fails here rather than in a timed run
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok", proc.stdout
