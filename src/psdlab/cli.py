"""Experiment orchestration: solve runs, certification sweeps, sharpness limits.

Three subcommands::

    psdlab solve     --problem diagonal:1,2,4 --solver psd --gamma 0.5 --seed 7
    psdlab certify   --trials 200 --n 20 --gammas 0,0.3,0.6,0.9 --seed 1
    psdlab sharpness --mus 1,0.5,0.1 --gamma 0.5 --deltas 1e-2,1e-4,1e-6,1e-8

Exit codes: 0 converged / all bounds hold, 1 usage or I/O failure,
2 iteration limit reached, 3 certification violation, 4 numeric failure
(a step gave a non-finite or rising Rayleigh quotient); certify exits 0
or 3 and counts its iteration-limited runs as ``max_steps_runs``;
sharpness exits 0 or 3, and 1 for a ``delta`` whose cone is numerically
empty.  Seeds are mandatory wherever randomness enters, and identical
configurations produce byte-identical output.
"""

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import MatrixMarketError, NumericFailure, StationaryPointError
from .bounds import SolverKind
from .iterate import run
from .pencil import diagonalize, generate_problem
from .precond import (
    exact_inverse_preconditioner,
    identity_preconditioner,
    jacobi_preconditioner,
    rescale,
    synthetic_gamma_preconditioner,
)
from .conelab import WorstCaseSetup, _worst_case_steps, t_star

__all__ = ["ExperimentConfig", "ExperimentReport", "cmd_solve", "cmd_certify",
           "cmd_sharpness", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_STEPS = 2
EXIT_VIOLATED = 3
EXIT_NUMERIC = 4

@dataclass
class ExperimentConfig:
    """Flat key=value configuration shared by all subcommands.

    Each field is an option: a flag of the subcommands that ``_COMMANDS``
    lists it for, and a key that :meth:`from_file` holds to the flag's
    type and choices; :meth:`to_file` round-trips.
    """

    command: str = "solve"
    problem: str = None
    mass: str = "identity"
    h: float = 1.0
    solver: str = "psd"
    precond: str = "synthetic"
    gamma: float = None
    seed: int = None
    precond_scale: float = 1.0
    rescale: bool = False
    max_steps: int = 500
    residual_tol: float = 1e-10
    delta_tol: float = None
    trials: int = 200
    n: int = 20
    gammas: str = "0,0.3,0.6,0.9"
    solvers: str = "psd"
    mus: str = None
    deltas: str = "1e-2,1e-4,1e-6,1e-8"
    t_mode: str = "t1"
    t_grid: int = 41
    output: str = None
    format: str = "csv"

    def to_file(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for f in dataclasses.fields(self):
                value = getattr(self, f.name)
                if value is None:
                    continue
                fh.write(f"{f.name}={value!r}\n" if isinstance(value, float)
                         else f"{f.name}={value}\n")

    @classmethod
    def from_file(cls, path):
        values = {}
        field_types = {f.name: f.type for f in dataclasses.fields(cls)}
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in field_types:
                    raise ValueError(f"config line {lineno}: unknown key {key!r}")
                values[key] = _coerce(key, field_types[key], value, lineno)
        return cls(**values)

    def echo(self):
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key, kind, value, lineno):
    """Parse a config-file value of field ``key``, of type ``kind``, as its flag would."""
    try:
        parsed = _BOOLS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ValueError(f"config line {lineno}: {key}: invalid {kind.__name__} value: "
                         f"{value!r}") from None
    choices = _CHOICES.get(key)
    if choices is not None and parsed not in choices:
        raise ValueError(f"config line {lineno}: {key}: invalid choice: {parsed!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return parsed


@dataclass
class ExperimentReport:
    """Config echo, per-row records, factors in play, and a summary."""

    config: dict
    records: list
    summary: dict

    def to_json(self):
        """The report as ``json.dumps(..., indent=2, allow_nan=True)`` writes it, plus a newline.

        Records that are all non-empty dicts of ``_SCALARS`` go through one
        C-encoder call, a key per line.  JSON escapes newlines in strings, so
        ``},\\n      {`` occurs only between two records, and indenting there
        gives the ``indent=2`` bytes.  Any other report gets the plain call.
        """
        records = self.records
        flat = bool(records) and all(isinstance(rec, dict) and rec for rec in records) and all(
            issubclass(t, _SCALARS) for t in {type(v) for rec in records for v in rec.values()})
        if not flat:
            doc = {"config": self.config, "records": records, "summary": self.summary}
            return _dumps(doc) + "\n"
        rows = json.dumps(records, separators=(",\n      ", ": "), allow_nan=True,
                          default=_json_scalar)
        rows = rows.replace("},\n      {", "\n    },\n    {\n      ")[2:-2]
        # {"config": ...} without its closing "\n}", and {"summary": ...} without its "{".
        return "".join([_dumps({"config": self.config})[:-2], ',\n  "records": [\n    {\n      ',
                        rows, "\n    }\n  ],", _dumps({"summary": self.summary})[1:], "\n"])

    def to_csv(self):
        """One column per key of the first record, in its order; a missing key is empty."""
        columns = list(self.records[0]) if self.records else []
        lines = [",".join(columns)]
        for rec in self.records:
            lines.append(",".join(_csv_cell(rec.get(col)) for col in columns))
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self):
        if self.summary.get("violations", 0):
            return EXIT_VIOLATED
        if self.summary.get("status") == "max_steps":
            return EXIT_MAX_STEPS
        return EXIT_OK


def _json_scalar(obj):
    """``json.dumps``'s hook for what it cannot write: numpy scalars as Python ones.

    ``np.float64`` is a ``float`` and never gets here; it is written by
    ``float.__repr__``, as its ``.item()`` would be.
    """
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# What a record may hold for to_json's one-call path, and its plain call.
_SCALARS = (str, int, float, type(None), np.number, np.bool_)
_dumps = functools.partial(json.dumps, indent=2, allow_nan=True, default=_json_scalar)


def _csv_cell(value):
    value = value.item() if isinstance(value, np.generic) else value  # as JSON writes it
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _parse_problem(config):
    spec = config.problem
    if not spec:
        raise ValueError("missing --problem")
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "diagonal":
        lambdas = [float(tok) for tok in arg.split(",") if tok]
        return generate_problem("diagonal", lambdas=lambdas)
    if kind == "laplacian1d":
        return generate_problem("laplacian1d", n=int(arg), h=config.h, mass=config.mass)
    if kind == "laplacian2d":
        if "x" in arg:
            nx, ny = (int(tok) for tok in arg.split("x"))
        else:
            nx = ny = int(arg)
        return generate_problem("laplacian2d", nx=nx, ny=ny, h=config.h, mass=config.mass)
    if kind == "matrix_market":
        paths = [tok for tok in arg.split(",") if tok]
        if not paths:
            raise ValueError("matrix_market problem needs at least a path for A")
        return generate_problem(
            "matrix_market", path_a=paths[0], path_b=paths[1] if len(paths) > 1 else None
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def _build_preconditioner(config, pencil, kind):
    if kind.exact_inverse:
        return None
    if config.precond == "synthetic":
        if config.gamma is None:
            raise ValueError("synthetic preconditioner needs --gamma")
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, config.gamma, seed=config.seed)
    elif config.precond == "jacobi":
        t = jacobi_preconditioner(pencil)
    elif config.precond == "exact":
        t = exact_inverse_preconditioner(pencil)
    elif config.precond == "identity":
        t = identity_preconditioner(pencil)
    else:
        raise ValueError(f"unknown preconditioner kind {config.precond!r}")
    if config.precond_scale != 1.0:
        t = t.scaled(config.precond_scale)
    if config.rescale:
        t = rescale(t)
    return t


def _record_rows(records):
    rows = []
    for rec in records:
        check = rec.bound
        rows.append({
            "step": rec.step_index,
            "rho": rec.rho.rho,
            "mu": rec.rho.mu,
            "residual_norm": rec.residual_norm,
            "delta": rec.delta,
            "ratio": None if check is None else check.ratio,
            "sigma_sq": None if check is None else check.sigma_squared,
            "verdict": None if check is None else check.verdict,
        })
    return rows


def cmd_solve(config):
    """Run one solver on one problem, certifying every step."""
    if config.seed is None:
        raise ValueError("--seed is mandatory for solve")
    pencil = _parse_problem(config)
    kind = SolverKind.parse(config.solver)
    precond = _build_preconditioner(config, pencil, kind)
    rng = np.random.default_rng(config.seed)
    x0 = rng.standard_normal(pencil.n)
    result = run(
        pencil, precond, x0, kind,
        max_steps=config.max_steps,
        residual_tol=config.residual_tol,
        delta_tol=config.delta_tol,
    )
    summary = {
        "status": result.status,
        "steps": result.records[-1].step_index,
        "final_rho": result.records[-1].rho.rho,
        "final_residual": result.records[-1].residual_norm,
        "certified": result.certified,
        "certify_gamma": result.certify_gamma,
        "certify_note": result.certify_note,
        "max_ratio_over_sigma_sq": result.max_ratio_over_sigma_sq,
        "violations": result.verdicts.get(bounds.VIOLATED, 0),
        "verdicts": result.verdicts,
    }
    return ExperimentReport(config=config.echo(), records=_record_rows(result.records),
                            summary=summary)


_SPECTRUM_LOW = 1.0
_SPECTRUM_HIGH = 1e3
_SPECTRUM_MIN_REL_GAP = 1e-8


def simple_spectrum(rng, n):
    """Log-uniform random spectrum with degeneracies nudged apart.

    The values are drawn between ``_SPECTRUM_LOW`` and ``_SPECTRUM_HIGH``.
    Repeated or nearly repeated values are spread by a relative
    ``_SPECTRUM_MIN_REL_GAP`` so that interval bracketing stays well posed.
    """
    logs = rng.uniform(np.log(_SPECTRUM_LOW), np.log(_SPECTRUM_HIGH), size=n)
    lam = np.sort(np.exp(logs))
    for i in range(1, n):
        floor = lam[i - 1] * (1.0 + _SPECTRUM_MIN_REL_GAP)
        if lam[i] < floor:
            lam[i] = floor
    return lam


def cmd_certify(config):
    """Randomized bound-certification sweep over solvers and gamma values."""
    if config.seed is None:
        raise ValueError("--seed is mandatory for certify")
    gammas = [float(tok) for tok in config.gammas.split(",") if tok != ""]
    solvers = [SolverKind.parse(tok) for tok in config.solvers.split(",") if tok]
    if not gammas:
        raise ValueError("--gammas needs at least one value")
    if not solvers:
        raise ValueError("--solvers needs at least one solver")
    if config.trials < 1:
        raise ValueError("--trials needs at least one trial")
    rows = []
    violations = 0
    skipped = 0
    max_steps_runs = 0
    for trial in range(config.trials):
        rng = np.random.default_rng(config.seed + trial)
        lam = simple_spectrum(rng, config.n)
        pencil = generate_problem("diagonal", lambdas=lam)
        form = diagonalize(pencil)
        gamma = gammas[trial % len(gammas)]
        x0 = rng.standard_normal(config.n)
        t = synthetic_gamma_preconditioner(form, gamma, seed=config.seed + trial)
        if config.precond_scale != 1.0:
            t = t.scaled(config.precond_scale)
        for kind in solvers:
            result = run(
                pencil, None if kind.exact_inverse else t, x0, kind,
                max_steps=config.max_steps,
                residual_tol=config.residual_tol,
                delta_tol=config.delta_tol,
            )
            n_violated = result.verdicts.get(bounds.VIOLATED, 0)
            violations += n_violated
            if not result.certified:
                skipped += 1
            max_steps_runs += result.status == "max_steps"
            rows.append({
                "trial": trial,
                "solver": kind.value,
                "gamma": gamma,
                "steps": result.records[-1].step_index,
                "final_rho": result.records[-1].rho.rho,
                "checked_steps": sum(result.verdicts.values()),
                "max_ratio_over_sigma_sq": result.max_ratio_over_sigma_sq,
                "violated": n_violated,
                "certified": result.certified,
                "note": result.certify_note,
            })
    summary = {
        "max_steps_runs": max_steps_runs,
        "trials": config.trials,
        "violations": violations,
        "skipped_runs": skipped,
        "solvers": [k.value for k in solvers],
        "gammas": gammas,
    }
    return ExperimentReport(config=config.echo(), records=rows, summary=summary)


def cmd_sharpness(config):
    """Worst-case PSD steps (one ``psd_step`` each) across a grid of deltas."""
    if not config.mus:
        raise ValueError("--mus is mandatory for sharpness")
    mus = np.array([float(tok) for tok in config.mus.split(",") if tok])
    if mus.size != 3:
        raise ValueError("sharpness needs exactly three mu values")
    gamma = config.gamma
    if gamma is None:
        raise ValueError("--gamma is mandatory for sharpness")
    deltas = [float(tok) for tok in config.deltas.split(",") if tok]
    if not deltas:
        raise ValueError("--deltas needs at least one value")
    # kappa and sigma depend on mus and gamma alone; this also validates mus.
    base = WorstCaseSetup(mus=mus, gamma=gamma, delta=1.0, t=1.0)
    kappa, sigma = base.kappa, base.sigma
    sigma_sq = sigma ** 2
    if config.t_mode == "t1":
        ts = [t_star(kappa, gamma)]
    elif config.t_mode == "grid":
        if config.t_grid < 1:
            raise ValueError("--t-grid needs at least one point")
        ts = np.logspace(-2.0, 2.0, config.t_grid)
    else:
        raise ValueError(f"unknown t mode {config.t_mode!r}")
    rows = []
    for delta in deltas:
        try:
            ratios = [result.measured_ratio for result in _worst_case_steps(mus, gamma, delta, ts)]
        except StationaryPointError as exc:
            raise StationaryPointError(
                f"--deltas value {delta!r} is below the stationary floor of these mus "
                f"and gamma: {exc}") from exc
        best = int(np.argmax(ratios))  # the first largest ratio
        measured = ratios[best]
        rows.append({
            "delta": delta,
            "t": float(ts[best]),
            "measured_ratio": measured,
            "sigma_sq": sigma_sq,
            "gap": sigma_sq - measured,
        })
    # A NaN ratio (huge mus overflow inside the instance) is no evidence of
    # the bound, so it fails the comparison as a violation.
    violations = sum(
        1 for row in rows if not row["measured_ratio"] <= sigma_sq * (1.0 + bounds.RATIO_TOL)
    )
    summary = {
        "kappa": float(kappa),
        "sigma": float(sigma),
        "sigma_sq": float(sigma_sq),
        "violations": violations,
        "final_gap": rows[-1]["gap"],
    }
    return ExperimentReport(config=config.echo(), records=rows, summary=summary)


_COMMON = ("seed", "output", "format", "max_steps", "residual_tol", "delta_tol")

# Each subcommand's function, help and flags, in the order it lists them.  A
# flag is --field-name of an ExperimentConfig field, with the field's type and
# the choices below; a bool field is a switch.
_COMMANDS = {
    "solve": (cmd_solve, "run one solver on one problem",
              _COMMON + ("problem", "mass", "h", "solver", "precond", "gamma",
                         "precond_scale", "rescale")),
    "certify": (cmd_certify, "randomized bound certification sweep",
                _COMMON + ("trials", "n", "gammas", "solvers", "precond_scale")),
    "sharpness": (cmd_sharpness, "worst-case sharpness limit",
                  ("output", "format", "mus", "gamma", "deltas", "t_mode", "t_grid")),
}

_CHOICES = {
    "format": ("csv", "json"),
    "mass": ("identity", "fem"),
    "solver": tuple(k.value for k in SolverKind),
    "precond": ("synthetic", "jacobi", "exact", "identity"),
    "t_mode": ("t1", "grid"),
}

_HELP = {
    "config": "key=value config file; flags override",
    "output": "output path (default stdout)",
    "problem": "diagonal:l1,l2,... | laplacian1d:n | "
               "laplacian2d:nx[xny] | matrix_market:a.mtx[,b.mtx]",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as main's other ValueErrors do
        raise ValueError(message)


def _build_parser():
    parser = _Parser(
        prog="psdlab",
        description="Gradient eigensolver runs, bound certification, "
                    "and sharpness experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for command, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help=_HELP["config"])
        for name in flags:
            kind = types[name]
            how = ({"action": "store_true", "default": None} if kind is bool
                   else {"type": kind, "choices": _CHOICES.get(name)})
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=_HELP.get(name), **how)
    return parser


def _config_from_args(args):
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    flags = {key: value for key, value in vars(args).items()
             if key != "config" and value is not None}
    return dataclasses.replace(config, **flags)


def _emit(report, config):
    text = report.to_csv() if config.format == "csv" else report.to_json()
    if config.output:
        with open(config.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        config = _config_from_args(_build_parser().parse_args(argv))
        report = _COMMANDS[config.command][0](config)
        _emit(report, config)
    except (ValueError, OSError, MatrixMarketError) as exc:
        print(f"psdlab: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NumericFailure as exc:
        print(f"psdlab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
