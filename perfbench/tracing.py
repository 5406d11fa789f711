"""Spans and counters at psdlab's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about this module.  :func:`patch` replaces a
public function by a wrapper in every psdlab module that refers to it (the
places the program looks it up), or on its class for a method, and
:func:`restore` puts the originals back.  :class:`Recorder` keeps one span
per wrapped call in memory (name, start, end, parent span) and a few
counters taken from arguments and results; :meth:`Recorder.pass_metrics`
turns one pass's spans into the per-layer metrics.  The wrappers pass
arguments and results through untouched, so tracing changes no result.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# (span name, target) for every traced function.  A target is
# "module:attribute" or "module:Class.method".
TRACED = (
    ("cli.cmd_certify", "psdlab.cli:cmd_certify"),
    ("cli.cmd_solve", "psdlab.cli:cmd_solve"),
    ("cli.cmd_sharpness", "psdlab.cli:cmd_sharpness"),
    ("iterate.run", "psdlab.iterate:run"),
    ("iterate.psd_step", "psdlab.iterate:psd_step"),
    ("iterate.pinvit1_step", "psdlab.iterate:pinvit1_step"),
    ("pencil.diagonalize", "psdlab.pencil:diagonalize"),
    ("pencil.rayleigh_ritz", "psdlab.pencil:rayleigh_ritz"),
    ("pencil.orthonormalize", "psdlab.pencil:orthonormalize"),
    ("pencil.rayleigh", "psdlab.pencil:rayleigh"),
    ("jacobi.jacobi_eigh", "psdlab.jacobi:jacobi_eigh"),
    ("precond.synthetic_gamma_preconditioner", "psdlab.precond:synthetic_gamma_preconditioner"),
    ("precond.jacobi_preconditioner", "psdlab.precond:jacobi_preconditioner"),
    ("precond.estimate_quality", "psdlab.precond:estimate_quality"),
    ("precond.in_coords", "psdlab.precond:Preconditioner.in_coords"),
    ("precond.apply", "psdlab.precond:Preconditioner.apply"),
    ("bounds.certify_step", "psdlab.bounds:certify_step"),
    ("conelab.three_d_concentration_check", "psdlab.conelab:three_d_concentration_check"),
    ("conelab.worst_case_instance", "psdlab.conelab:worst_case_instance"),
)

# Calls of jacobi_eigh on n <= 2 (the 2x2 Ritz path) get their own name.
JACOBI_SMALL = "jacobi.jacobi_eigh_2x2"

CLI_COMMANDS = ("cli.cmd_certify", "cli.cmd_solve", "cli.cmd_sharpness")
FUNCTIONS = tuple(name for name, _ in TRACED if name not in CLI_COMMANDS) + (JACOBI_SMALL,)
COUNTERS = (
    ("jacobi.jacobi_eigh.n3_sum", "count", "lower"),
    ("pencil.diagonalize.computed", "count", "lower"),
    ("iterate.steps", "count", "lower"),
    ("iterate.stationary_exits", "count", "lower"),
    ("iterate.max_steps_runs", "count", "lower"),
    ("precond.in_coords.transforms", "count", "lower"),
    ("bounds.verdict.holds", "count", "higher"),
    ("bounds.verdict.passed_lambda_i", "count", "higher"),
    ("bounds.verdict.violated", "count", "lower"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name in FUNCTIONS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                  (f"{name}.share", "fraction", "lower")]
    specs += [(f"{name}.s", "s", "lower") for name in CLI_COMMANDS]
    specs += list(COUNTERS)
    specs += [
        ("bounds.checked_ratio", "fraction", "higher"),
        ("bounds.min_slack", "ratio", "higher"),
        ("bounds.max_ratio_over_sigma_sq", "ratio", "lower"),
        ("share.jacobi_eigh", "fraction", "lower"),
        ("share.step_path", "fraction", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("trace_overhead_ratio", "fraction", "lower"),
    ]
    return specs


def _psdlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "psdlab" or name.startswith("psdlab."))]


def patch(target, make_wrapper):
    """Replace the function named by ``target`` wherever psdlab looks it up.

    Returns the list of ``(owner, attribute, original)`` to hand to
    :func:`restore`.
    """
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if owner is not module:  # a method: the class is its only lookup site
        setattr(owner, attr, wrapper)
        return [(owner, attr, original)]
    patches = []
    for mod in _psdlab_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                patches.append((mod, name, original))
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


class RunProbe:
    """Stamps the start and end of each call of one function: the workload's unit "run"."""

    def __init__(self, target):
        self.target = target
        self.stamps = []
        self._patches = []

    def install(self):
        stamps = self.stamps
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stamps.append((t0, clock()))
            return timed

        self._patches = patch(self.target, make)

    def uninstall(self):
        restore(self._patches)
        self._patches = []


class Recorder:
    """In-memory spans of every traced call plus per-pass counters."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_of = array("i")
        self._stack = [-1]
        self._pass = -1
        self._patches = []
        self.counters = {}

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- counters taken from arguments and results --------------------------

    def _bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe_jacobi(self, i, args, result):
        n = len(args[0])
        if n <= 2:
            self.name[i] = self._small_id
        else:
            self._bump("jacobi.jacobi_eigh.n3_sum", n ** 3)

    def _observe_step(self, i, args, result):
        if result.converged:
            self._bump("iterate.stationary_exits")

    def _observe_run(self, i, args, result):
        self._bump("iterate.steps", len(result.records) - 1)
        if result.status == "max_steps":
            self._bump("iterate.max_steps_runs")

    def _observe_in_coords(self, i, args, result):
        precond, coords = args[0], args[1]
        if coords != precond.coords:
            self._bump("precond.in_coords.transforms")

    def _observe_certify(self, i, args, result):
        self._bump(f"bounds.verdict.{result.verdict}")
        c = self.counters
        if result.slack is not None:
            c["min_slack"] = min(c.get("min_slack", np.inf), result.slack)
        if result.ratio is not None and result.sigma_squared:
            c["max_ratio"] = max(c.get("max_ratio", -np.inf),
                                 result.ratio / result.sigma_squared)

    # -- wrapping -----------------------------------------------------------

    def _make_wrapper(self, name, observe):
        nid = self._name_id(name)
        name_arr, parent_arr = self.name, self.parent
        start_arr, end_arr, pass_arr = self.start, self.end, self.pass_of
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def make(fn):
            def traced(*args, **kwargs):
                i = len(start_arr)
                name_arr.append(nid)
                parent_arr.append(stack[-1])
                pass_arr.append(recorder._pass)
                start_arr.append(0.0)
                end_arr.append(0.0)
                stack.append(i)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    start_arr[i] = t0
                    end_arr[i] = t1
                if observe is not None:
                    observe(i, args, result)
                return result
            return traced

        return make

    def install(self):
        """Wrap every traced function and start a new pass."""
        self._pass += 1
        self.counters = {}
        self._small_id = self._name_id(JACOBI_SMALL)
        observers = {
            "jacobi.jacobi_eigh": self._observe_jacobi,
            "iterate.psd_step": self._observe_step,
            "iterate.pinvit1_step": self._observe_step,
            "iterate.run": self._observe_run,
            "precond.in_coords": self._observe_in_coords,
            "bounds.certify_step": self._observe_certify,
        }
        for name, target in TRACED:
            self._patches += patch(target, self._make_wrapper(name, observers.get(name)))
        return len(self.start)

    def uninstall(self):
        restore(self._patches)
        self._patches = []

    # -- per-layer metrics --------------------------------------------------

    def pass_metrics(self, first, wall_s):
        """Per-layer metrics of the spans from index ``first`` on."""
        name = np.array(self.name[first:], dtype=np.int64)
        parent = np.array(self.parent[first:], dtype=np.int64)
        dur = np.array(self.end[first:]) - np.array(self.start[first:])
        has_parent = parent >= 0
        # A span's self time is its duration minus what its children cover.
        covered = np.bincount(parent[has_parent] - first, weights=dur[has_parent],
                              minlength=dur.size)
        self_s = dur - covered

        ids = self.names.index  # install() registered every name
        m = {}
        incl = {}
        for fn in FUNCTIONS + CLI_COMMANDS:
            sel = name == ids(fn)
            incl[fn] = float(dur[sel].sum())
            if fn in CLI_COMMANDS:
                m[f"{fn}.s"] = incl[fn]
                continue
            m[f"{fn}.calls"] = int(sel.sum())
            m[f"{fn}.self_s"] = float(self_s[sel].sum())
            m[f"{fn}.share"] = m[f"{fn}.self_s"] / wall_s

        # diagonalize calls that ran a jacobi_eigh child; the rest hit the cache
        jacobi = np.isin(name, [ids("jacobi.jacobi_eigh"), ids(JACOBI_SMALL)]) & has_parent
        with_jacobi = np.zeros(dur.size, dtype=bool)
        with_jacobi[parent[jacobi] - first] = True
        m["pencil.diagonalize.computed"] = int((with_jacobi & (name == ids("pencil.diagonalize"))).sum())

        c = self.counters
        for key, _, _ in COUNTERS:
            m.setdefault(key, int(c.get(key, 0)))
        steps = m["iterate.steps"]
        m["bounds.checked_ratio"] = m["bounds.certify_step.calls"] / steps if steps else 0.0
        m["bounds.min_slack"] = float(c.get("min_slack", 0.0))
        m["bounds.max_ratio_over_sigma_sq"] = float(c.get("max_ratio", 0.0))
        m["share.jacobi_eigh"] = (incl["jacobi.jacobi_eigh"] + incl[JACOBI_SMALL]) / wall_s
        step_path = (incl["iterate.psd_step"] + incl["iterate.pinvit1_step"]
                     + m["iterate.run.self_s"] + incl["bounds.certify_step"])
        m["share.step_path"] = step_path / wall_s
        m["traced_wall_s"] = wall_s
        return m

    def dump(self, path):
        """Write every recorded span to ``path`` (NumPy ``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            trace_id=np.array(self.pass_of, dtype=np.int32),
        )
