"""psdlab benchmark: four CLI workloads, end to end and layer by layer.

Run from the root of a checkout (the directory holding ``src/psdlab``)::

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process drives one workload as a closed loop with a single client:
each pass (one user-sized job) starts when the previous one ends, until
``--seconds`` have passed.  ``--trace 0`` reports the end-to-end metrics of
untraced passes, timed in reference seconds (see :mod:`calibrate`);
``--trace 1`` alternates untraced and traced passes of the same input and
reports the per-layer metrics of :mod:`tracing`.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  A copy of both, and the spans of a traced run, go to
``.perfbench_out/``.  ``--smoke`` runs every workload once on tiny inputs,
traced and untraced, and checks that every metric named in
``BENCHMARK.json`` is emitted with its unit.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _load_program(root):
    """Import psdlab from ``root/src``; return None when it is not there."""
    src = root / "src"
    if not (src / "psdlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import psdlab

    if src.resolve() not in Path(psdlab.__file__).resolve().parents:
        return None
    return psdlab


def _environment(root, args, seeds):
    import scipy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "psdlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "pass_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_seconds(workload, seed, size):
    """Time from spawning a fresh interpreter to psdlab imported and the problem built."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload.name, str(seed), size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload.name} failed (exit {proc.returncode})")
    return elapsed


def measure_untraced(workload, seed, seconds, size, setup_repeats):
    """End-to-end metrics of untraced passes; returns (metrics, tally, seeds).

    Pass and run times are in reference seconds, net of the reference
    kernel's own time (see :mod:`calibrate`).  ``setup_s`` stays in plain
    seconds: the probe is mostly process start-up and loading of shared
    libraries, whose speed the kernel does not track.
    """
    import calibrate
    import tracing

    setup = [_setup_seconds(workload, seed, size) for _ in range(setup_repeats)]
    workload.warm_up(seed)
    probe = tracing.RunProbe(workload.run_target) if workload.run_target else None
    if probe is not None:
        probe.install()
    spans, steps, tally, seeds = [], [], Tally(), []
    try:
        with calibrate.ReferenceClock() as clock:
            start = time.perf_counter()
            while not seeds or time.perf_counter() - start < seconds:
                pass_seed = seed + len(seeds) * workload.seed_stride
                t0 = time.perf_counter()
                outcome = workload.run_pass(pass_seed, size)
                spans.append((t0, time.perf_counter()))
                seeds.append(pass_seed)
                steps.append(outcome.steps)
                tally.add(outcome)
    finally:
        if probe is not None:
            probe.uninstall()
    run_spans = spans if probe is None else probe.stamps
    walls = [clock.seconds(*span) for span in spans]
    runs = [clock.seconds(*span) for span in run_spans]
    raw_walls = [clock.raw_seconds(*span) for span in spans]
    raw_runs = [clock.raw_seconds(*span) for span in run_spans]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "steps_per_s": (statistics.median(n / w for n, w in zip(steps, walls)), "1/s"),
        "run_ms_p50": (float(np.percentile(runs, 50)) * 1e3, "ms"),
        "run_ms_p95": (float(np.percentile(runs, 95)) * 1e3, "ms"),
    }
    kernel = clock.kernel_seconds()
    tally.samples = {
        "passes": len(walls), "runs": len(runs), "setup_repeats": len(setup),
        "pass_wall_s": walls, "pass_wall_s_raw": raw_walls, "setup_s": setup,
        "reference": {"ref_s": calibrate.REF_S, "samples": len(kernel),
                      "median_s": statistics.median(kernel),
                      "quartiles_s": statistics.quantiles(kernel, n=4)},
        "raw": {"wall_s": statistics.median(raw_walls),
                "run_ms_p50": float(np.percentile(raw_runs, 50)) * 1e3,
                "run_ms_p95": float(np.percentile(raw_runs, 95)) * 1e3},
    }
    return metrics, tally, seeds


def measure_traced(workload, seed, seconds, size, spans_path=None):
    """Per-layer metrics: alternate untraced and traced passes of one input."""
    import tracing

    workload.warm_up(seed)
    recorder = tracing.Recorder()
    plain, traced, rows, tally = [], [], [], Tally()
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        reference = workload.run_pass(seed, size)
        plain.append(time.perf_counter() - t0)
        first = recorder.install()
        try:
            t0 = time.perf_counter()
            outcome = workload.run_pass(seed, size)
            wall = time.perf_counter() - t0
        finally:
            recorder.uninstall()
        traced.append(wall)
        rows.append(recorder.pass_metrics(first, wall))
        tally.add(reference)
        tally.add(outcome)
        if outcome.fingerprint != reference.fingerprint:
            tally.problems.append("traced pass output differs from the untraced pass")
            tally.trace_changed_output = True
    metrics = {}
    for name, unit, _ in tracing.metric_specs():
        if name == "trace_overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain) - 1.0
        else:
            value = statistics.median(row[name] for row in rows)
        metrics[name] = (value, unit)
    if spans_path is not None:
        recorder.dump(spans_path)
    tally.samples = {"passes": len(traced), "untraced_passes": len(plain),
                     "spans": len(recorder.start)}
    return metrics, tally, [seed] * len(traced)


class Tally:
    """Ops attempted and failed over a run, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.trace_changed_output = False
        self.samples = {}

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems

    @property
    def correct(self):
        return self.failed == 0 and not self.trace_changed_output


def _result(metrics, tally):
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_one(root, args, size, setup_repeats):
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    out = root / OUT_DIR
    label = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    if not args.smoke:
        out.mkdir(exist_ok=True)
    if args.trace:
        spans = None if args.smoke else out / f"spans_{label}.npz"
        metrics, tally, seeds = measure_traced(workload, args.seed, args.seconds, size, spans)
    else:
        metrics, tally, seeds = measure_untraced(workload, args.seed, args.seconds, size,
                                                 setup_repeats)
    env = _environment(root, args, seeds)
    env["samples"] = tally.samples
    env["problems"] = tally.problems[:20]
    result = _result(metrics, tally)
    if not args.smoke:
        (out / f"BENCH_{label}.json").write_text(
            json.dumps({"environment": env, "result": result}, indent=2) + "\n")
    return env, result


def smoke(root):
    """Every workload once on tiny inputs, untraced and traced; check the metric set."""
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    listed = {w["name"] for w in spec["workloads"]}
    ok = listed == set(workloads.WORKLOADS)
    if not ok:
        print(f"smoke: BENCHMARK.json lists {sorted(listed)}, "
              f"the benchmark has {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=None, seconds=0.0,
                                      trace=trace, smoke=True)
            _, result = run_one(root, args, "tiny", setup_repeats=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            metrics_ok = emitted == expected[trace]
            ok = ok and metrics_ok and result["correct"]
            print(f"smoke: {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={'ok' if metrics_ok else 'MISMATCH'}")
            if not metrics_ok:
                missing = sorted(set(expected[trace].items()) - set(emitted.items()))
                extra = sorted(set(emitted.items()) - set(expected[trace].items()))
                print(f"smoke:   missing {missing}\nsmoke:   unexpected {extra}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if _load_program(root) is None:
        print(f"perfbench: no psdlab sources under {root / 'src'}; "
              "run from the root of a psdlab checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env, result = run_one(root, args, "full", SETUP_REPEATS)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
