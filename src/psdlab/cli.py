"""Experiment orchestration: solve runs, certification sweeps, sharpness limits.

Three subcommands::

    psdlab solve     --problem diagonal:1,2,4 --solver psd --gamma 0.5 --seed 7
    psdlab certify   --trials 200 --n 20 --gammas 0,0.3,0.6,0.9 --seed 1
    psdlab sharpness --mus 1,0.5,0.1 --gamma 0.5 --deltas 1e-2,1e-4,1e-6,1e-8

Exit codes: 0 converged / all bounds hold, 1 usage or I/O failure,
2 iteration limit reached, 3 certification violation; certify exits 0
or 3 and counts its iteration-limited runs as ``max_steps_runs``.  Seeds
are mandatory wherever randomness enters, and identical configurations
produce byte-identical output.
"""

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import MatrixMarketError, NumericFailure
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
from .conelab import WorstCaseSetup, t_star, worst_case_instance

__all__ = ["ExperimentConfig", "ExperimentReport", "cmd_solve", "cmd_certify",
           "cmd_sharpness", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_STEPS = 2
EXIT_VIOLATED = 3

SOLVE_CSV_COLUMNS = ("step", "rho", "mu", "residual_norm", "delta", "ratio",
                     "sigma_sq", "verdict")


@dataclass
class ExperimentConfig:
    """Flat key=value configuration shared by all subcommands.

    Parseable both from command-line flags and from a config file via
    :meth:`from_file`; :meth:`to_file` round-trips.
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
                values[key] = _coerce(field_types[key], value)
        return cls(**values)

    def echo(self):
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _coerce(kind, value):
    """Parse a config-file value as the ``ExperimentConfig`` field type ``kind``."""
    if kind is bool:
        return value.lower() in ("1", "true", "yes", "on")
    return kind(value)


@dataclass
class ExperimentReport:
    """Config echo, per-row records, factors in play, and a summary."""

    config: dict
    records: list
    summary: dict
    columns: tuple = SOLVE_CSV_COLUMNS

    def to_json(self):
        return json.dumps(
            {"config": _jsonable(self.config), "records": _jsonable(self.records),
             "summary": _jsonable(self.summary)},
            indent=2, allow_nan=True,
        ) + "\n"

    def to_csv(self):
        lines = [",".join(self.columns)]
        for rec in self.records:
            lines.append(",".join(_csv_cell(rec.get(col)) for col in self.columns))
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self):
        if self.summary.get("violations", 0):
            return EXIT_VIOLATED
        if self.summary.get("status") == "max_steps":
            return EXIT_MAX_STEPS
        return EXIT_OK


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):  # includes numpy scalars, hence the cast
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
    name = config.precond.lower()
    if name == "synthetic":
        if config.gamma is None:
            raise ValueError("synthetic preconditioner needs --gamma")
        if config.seed is None:
            raise ValueError("synthetic preconditioner needs --seed")
        form = diagonalize(pencil)
        t = synthetic_gamma_preconditioner(form, config.gamma, seed=config.seed)
    elif name == "jacobi":
        t = jacobi_preconditioner(pencil)
    elif name == "exact":
        t = exact_inverse_preconditioner(pencil)
    elif name == "identity":
        t = identity_preconditioner(pencil)
    else:
        raise ValueError(f"unknown preconditioner kind {name!r}")
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
    rows = _record_rows(result.records)
    violations = sum(1 for row in rows if row["verdict"] == bounds.VIOLATED)
    ratios = [
        row["ratio"] / row["sigma_sq"]
        for row in rows
        if row["ratio"] is not None and row["sigma_sq"]
    ]
    summary = {
        "status": result.status,
        "steps": result.records[-1].step_index,
        "final_rho": result.records[-1].rho.rho,
        "final_residual": result.records[-1].residual_norm,
        "certified": result.certified,
        "certify_gamma": result.certify_gamma,
        "certify_note": result.certify_note,
        "max_ratio_over_sigma_sq": max(ratios) if ratios else None,
        "violations": violations,
        "verdicts": _verdict_counts(rows),
    }
    return ExperimentReport(config=config.echo(), records=rows, summary=summary)


def _verdict_counts(rows):
    counts = {}
    for row in rows:
        v = row.get("verdict")
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    return counts


def simple_spectrum(rng, n, low=1.0, high=1e3, min_rel_gap=1e-8):
    """Log-uniform random spectrum with degeneracies nudged apart.

    Repeated or nearly repeated values are spread by a relative
    ``min_rel_gap`` so that interval bracketing stays well posed.
    """
    lam = np.sort(np.exp(rng.uniform(np.log(low), np.log(high), size=n)))
    for i in range(1, n):
        floor = lam[i - 1] * (1.0 + min_rel_gap)
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
            n_violated = len(result.violations())
            violations += n_violated
            if not result.certified:
                skipped += 1
            max_steps_runs += result.status == "max_steps"
            checked = [r for r in result.records if r.bound is not None]
            ratios = [
                r.bound.ratio / r.bound.sigma_squared
                for r in checked
                if r.bound.ratio is not None and r.bound.sigma_squared
            ]
            rows.append({
                "trial": trial,
                "solver": kind.value,
                "gamma": gamma,
                "steps": result.records[-1].step_index,
                "final_rho": result.records[-1].rho.rho,
                "checked_steps": len(checked),
                "max_ratio_over_sigma_sq": max(ratios) if ratios else None,
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
    return ExperimentReport(
        config=config.echo(), records=rows, summary=summary,
        columns=("trial", "solver", "gamma", "steps", "final_rho",
                 "checked_steps", "max_ratio_over_sigma_sq", "violated",
                 "certified", "note"),
    )


def cmd_sharpness(config):
    """Worst-case instances across a grid of interval-relative errors."""
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
    if config.t_mode == "grid" and config.t_grid < 1:
        raise ValueError("--t-grid needs at least one point")
    # kappa and sigma depend on mus and gamma alone; this also validates mus.
    base = WorstCaseSetup(mus=mus, gamma=gamma, delta=1.0, t=1.0)
    kappa, sigma = base.kappa, base.sigma
    sigma_sq = sigma * sigma
    rows = []
    for delta in deltas:
        if config.t_mode == "t1":
            t = t_star(kappa, gamma)
            result = worst_case_instance(
                WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t)
            )
            measured = result.measured_ratio
        elif config.t_mode == "grid":
            ts = np.logspace(-2.0, 2.0, config.t_grid)
            measured = -np.inf
            t = None
            for t_try in ts:
                result = worst_case_instance(
                    WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t_try)
                )
                if result.measured_ratio > measured:
                    measured = result.measured_ratio
                    t = t_try
        else:
            raise ValueError(f"unknown t mode {config.t_mode!r}")
        rows.append({
            "delta": delta,
            "t": float(t),
            "measured_ratio": measured,
            "sigma_sq": sigma_sq,
            "gap": sigma_sq - measured,
        })
    summary = {
        "status": "converged",
        "kappa": float(kappa),
        "sigma": float(sigma),
        "sigma_sq": float(sigma_sq),
        "violations": 0,
        "final_gap": rows[-1]["gap"],
    }
    return ExperimentReport(
        config=config.echo(), records=rows, summary=summary,
        columns=("delta", "t", "measured_ratio", "sigma_sq", "gap"),
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="psdlab",
        description="Gradient eigensolver runs, bound certification, "
                    "and sharpness experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--seed", type=int)
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--max-steps", type=int, dest="max_steps")
        p.add_argument("--residual-tol", type=float, dest="residual_tol")
        p.add_argument("--delta-tol", type=float, dest="delta_tol")

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    add_common(p_solve)
    p_solve.add_argument("--problem", help="diagonal:l1,l2,... | laplacian1d:n | "
                                           "laplacian2d:nx[xny] | matrix_market:a.mtx[,b.mtx]")
    p_solve.add_argument("--mass", choices=("identity", "fem"))
    p_solve.add_argument("--h", type=float)
    p_solve.add_argument("--solver", choices=[k.value for k in SolverKind])
    p_solve.add_argument("--precond", choices=("synthetic", "jacobi", "exact", "identity"))
    p_solve.add_argument("--gamma", type=float)
    p_solve.add_argument("--precond-scale", type=float, dest="precond_scale")
    p_solve.add_argument("--rescale", action="store_true", default=None)

    p_cert = sub.add_parser("certify", help="randomized bound certification sweep")
    add_common(p_cert)
    p_cert.add_argument("--trials", type=int)
    p_cert.add_argument("--n", type=int)
    p_cert.add_argument("--gammas")
    p_cert.add_argument("--solvers")
    p_cert.add_argument("--precond-scale", type=float, dest="precond_scale")

    p_sharp = sub.add_parser("sharpness", help="worst-case sharpness limit")
    add_common(p_sharp)
    p_sharp.add_argument("--mus")
    p_sharp.add_argument("--gamma", type=float)
    p_sharp.add_argument("--deltas")
    p_sharp.add_argument("--t-mode", choices=("t1", "grid"), dest="t_mode")
    p_sharp.add_argument("--t-grid", type=int, dest="t_grid")

    return parser


def _config_from_args(args):
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    config.command = args.command
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        setattr(config, key, value)
    return config


def _emit(report, config):
    text = report.to_csv() if config.format == "csv" else report.to_json()
    if config.output:
        with open(config.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    dispatch = {"solve": cmd_solve, "certify": cmd_certify, "sharpness": cmd_sharpness}
    try:
        config = _config_from_args(args)
        report = dispatch[args.command](config)
        _emit(report, config)
    except (ValueError, OSError, MatrixMarketError, NumericFailure) as exc:
        print(f"psdlab: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
