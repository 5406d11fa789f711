"""Command-line interface: subcommands, exit codes, output formats."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlab import cli, diagonalize, generate_problem, synthetic_gamma_preconditioner
from psdlab.cli import (
    EXIT_ERROR,
    EXIT_MAX_STEPS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATED,
    ExperimentConfig,
    ExperimentReport,
    cmd_certify,
    cmd_sharpness,
    cmd_solve,
    main,
)


class TestSolveCommand:
    def test_diagonal_psd_converges_and_certifies(self, tmp_path):
        out = tmp_path / "run.json"
        code = main([
            "solve", "--problem", "diagonal:1,2,4", "--solver", "psd",
            "--gamma", "0.5", "--seed", "7", "--format", "json",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["summary"]["status"] == "converged"
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["final_rho"] == pytest.approx(1.0, abs=1e-9)
        verdicts = {r["verdict"] for r in payload["records"] if r["verdict"]}
        assert verdicts <= {"holds", "passed_lambda_i"}
        if payload["summary"]["max_ratio_over_sigma_sq"] is not None:
            assert payload["summary"]["max_ratio_over_sigma_sq"] <= 1.0 + 1e-9

    def test_laplacian_jacobi_pinvit1_reaches_smallest_eigenvalue(self, tmp_path):
        # unscaled Jacobi quality on this problem is gamma ~ 0.9988, so the
        # fixed-step solver needs a few thousand steps; delta < 5e-7 pins
        # the eigenvalue to well under 1e-8 absolute
        out = tmp_path / "run.json"
        code = main([
            "solve", "--problem", "laplacian1d:64", "--solver", "pinvit1",
            "--precond", "jacobi", "--seed", "3", "--format", "json",
            "--max-steps", "8000", "--delta-tol", "5e-7",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        lam1 = 4.0 * np.sin(np.pi / 130.0) ** 2
        assert payload["summary"]["final_rho"] == pytest.approx(lam1, abs=1e-8)
        assert payload["summary"]["violations"] == 0

    def test_laplacian2d_problem_parsing(self, tmp_path):
        out = tmp_path / "run.json"
        code = main([
            "solve", "--problem", "laplacian2d:3x2", "--solver", "invit2",
            "--seed", "1", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        lam1 = (4.0 * np.sin(np.pi / 8.0) ** 2 + 4.0 * np.sin(np.pi / 6.0) ** 2)
        assert payload["summary"]["final_rho"] == pytest.approx(lam1, rel=1e-9)

    def test_matrix_market_pencil_solve(self, tmp_path):
        from psdlab.mmio import write_matrix

        a = np.diag([1.0, 2.0, 4.0])
        b = np.eye(3)
        pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix(pa, a)
        write_matrix(pb, b)
        out = tmp_path / "run.json"
        code = main([
            "solve", "--problem", f"matrix_market:{pa},{pb}", "--solver", "invit2",
            "--seed", "2", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["summary"]["final_rho"] == pytest.approx(1.0, abs=1e-9)

    def test_malformed_matrix_market_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n9 9 1.0\n")
        code = main([
            "solve", "--problem", f"matrix_market:{bad}", "--solver", "psd",
            "--gamma", "0.1", "--seed", "1",
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_non_finite_matrix_market_entry_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "a.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 2\n1 1 1.0\n2 2 nan\n")
        code = main([
            "solve", "--problem", f"matrix_market:{bad}", "--solver", "psd",
            "--gamma", "0.1", "--seed", "1",
        ])
        assert code == EXIT_ERROR
        assert "A has a non-finite entry nan at (1, 1)" in capsys.readouterr().err

    def test_max_steps_exit_code(self, tmp_path):
        code = main([
            "solve", "--problem", "laplacian1d:32", "--solver", "pinvit1",
            "--gamma", "0.9", "--seed", "5", "--max-steps", "2",
            "--output", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_MAX_STEPS

    def test_numeric_failure_has_its_own_exit_code(self, tmp_path, monkeypatch, capsys):
        # a NaN Rayleigh quotient is an internal failure, not a usage error
        import psdlab.iterate as iterate
        from psdlab.iterate import StepResult
        from psdlab.pencil import RayleighValue

        def nan_step(form, t, z):
            return StepResult(x=z, rho=RayleighValue.from_rho(np.nan), theta_opt=1.0)

        monkeypatch.setattr(iterate, "psd_step", nan_step)
        out = tmp_path / "o.csv"
        code = main(["solve", "--problem", "diagonal:1,2,4", "--solver", "psd",
                     "--gamma", "0.5", "--seed", "7", "--output", str(out)])
        assert code == EXIT_NUMERIC
        assert EXIT_NUMERIC not in (EXIT_OK, EXIT_ERROR, EXIT_MAX_STEPS, EXIT_VIOLATED)
        err = capsys.readouterr().err
        assert err.startswith("psdlab: numeric failure: ")
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--max-steps", "-1"],
        ["--problem", "laplacian1d:5", "--h", "0"],
        ["--problem", "diagonal:1,2,nan"],
        ["--problem", "laplacian1d:5", "--precond-scale", "nan"],
        ["--residual-tol", "nan"],
        ["--residual-tol=-1e-3"],
        ["--delta-tol", "nan"],
        ["--delta-tol", "inf"],
    ])
    def test_bad_input_exits_with_message(self, args, capsys):
        code = main(["solve", "--problem", "diagonal:1,2,4", "--solver", "psd",
                     "--gamma", "0.5", "--seed", "7", *args])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("psdlab: error: ")
        assert "Traceback" not in err

    def test_nan_residual_tol_named_in_certify_message(self, capsys):
        code = main(["certify", "--trials", "2", "--n", "5", "--seed", "1",
                     "--residual-tol", "nan"])
        assert code == EXIT_ERROR
        assert "residual_tol must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["0", "nan", "inf"])
    def test_bad_grid_spacing_named_in_message(self, h, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no arithmetic on the bad spacing
            code = main(["solve", "--problem", "laplacian1d:5", "--h", h,
                         "--gamma", "0.5", "--seed", "7"])
        assert code == EXIT_ERROR
        assert "grid spacing h" in capsys.readouterr().err

    def test_missing_seed_exits_1(self, capsys):
        code = main(["solve", "--problem", "diagonal:1,2,4", "--solver", "psd",
                     "--gamma", "0.5"])
        assert code == EXIT_ERROR
        assert "seed" in capsys.readouterr().err

    def test_deterministic_csv_output(self, tmp_path):
        args = [
            "solve", "--problem", "diagonal:1,2,3,4,5", "--solver", "psd",
            "--gamma", "0.3", "--seed", "11", "--format", "csv",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == EXIT_OK
        assert main(args + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        main([
            "solve", "--problem", "diagonal:1,2,4", "--solver", "psd",
            "--gamma", "0.5", "--seed", "7", "--output", str(out),
        ])
        header = out.read_text().splitlines()[0]
        assert header == "step,rho,mu,residual_norm,delta,ratio,sigma_sq,verdict"

    def test_quality_mismatch_skips_certification(self, tmp_path):
        out = tmp_path / "run.json"
        code = main([
            "solve", "--problem", "diagonal:1,2,4,8", "--solver", "pinvit1",
            "--gamma", "0.2", "--seed", "2", "--precond-scale", "6.0",
            "--format", "json", "--output", str(out),
        ])
        payload = json.loads(out.read_text())
        assert payload["summary"]["certified"] is False
        assert "quality mismatch" in payload["summary"]["certify_note"]
        assert payload["summary"]["violations"] == 0
        assert code in (EXIT_OK, EXIT_MAX_STEPS)  # never a violation verdict

    def test_rescale_restores_certification(self, tmp_path):
        out = tmp_path / "run.json"
        code = main([
            "solve", "--problem", "diagonal:1,2,4,8", "--solver", "pinvit1",
            "--gamma", "0.2", "--seed", "2", "--precond-scale", "6.0",
            "--rescale", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["summary"]["certified"] is True
        assert payload["summary"]["violations"] == 0


class TestSolveQualityPaths:
    # Each preconditioner kind's quality reaches certification unchanged.
    @staticmethod
    def _summary(tmp_path, *args):
        out = tmp_path / "run.json"
        code = main(["solve", "--problem", "diagonal:1,2,4,8", "--seed", "2",
                     "--max-steps", "200", "--format", "json", "--output", str(out), *args])
        return code, json.loads(out.read_text())["summary"]

    def test_exact_certifies_with_gamma_zero(self, tmp_path):
        code, summary = self._summary(tmp_path, "--solver", "psd", "--precond", "exact")
        assert code == EXIT_OK
        assert (summary["certified"], summary["certify_gamma"]) == (True, 0.0)
        assert summary["violations"] == 0

    def test_identity_fixed_step_skips_certification(self, tmp_path):
        # T = I against A = diag(1, 2, 4, 8) has the pair (1, 8): as-is gamma 7
        code, summary = self._summary(tmp_path, "--solver", "pinvit1", "--precond", "identity",
                                      "--max-steps", "30")
        assert code == EXIT_MAX_STEPS
        assert (summary["certified"], summary["certify_gamma"]) == (False, None)
        assert summary["certify_note"].startswith(
            "fixed-step quality mismatch: as-handed gamma 7 >= 1")
        assert summary["violations"] == 0

    def test_identity_fixed_step_certifies_once_rescaled(self, tmp_path):
        code, summary = self._summary(tmp_path, "--solver", "pinvit1", "--precond", "identity",
                                      "--rescale")
        assert code == EXIT_OK
        assert summary["certified"] is True
        assert summary["certify_gamma"] == pytest.approx(7.0 / 9.0, rel=1e-15)
        assert summary["violations"] == 0

    def test_synthetic_certifies_with_its_quality_gamma(self, tmp_path):
        _, summary = self._summary(tmp_path, "--solver", "psd", "--gamma", "0.9")
        form = diagonalize(generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0, 8.0]))
        quality = synthetic_gamma_preconditioner(form, 0.9, seed=2).quality
        assert summary["certify_gamma"] == quality.gamma  # bitwise, through the JSON
        assert summary["certify_gamma"] != 0.9  # derived from the pair, not stored


class TestCertifyCommand:
    def test_small_sweep_no_violations(self, tmp_path):
        out = tmp_path / "certify.json"
        code = main([
            "certify", "--trials", "12", "--n", "8", "--seed", "100",
            "--gammas", "0,0.4,0.8", "--solvers", "psd,pinvit1",
            "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["summary"]["violations"] == 0
        assert len(payload["records"]) == 24  # trials x solvers

    def test_gamma_zero_trials_meet_plain_steepest_descent_factor(self, tmp_path):
        out = tmp_path / "certify.json"
        code = main([
            "certify", "--trials", "6", "--n", "8", "--seed", "200",
            "--gammas", "0", "--solvers", "psd", "--format", "json",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        for row in payload["records"]:
            if row["max_ratio_over_sigma_sq"] is not None:
                assert row["max_ratio_over_sigma_sq"] <= 1.0 + 1e-9

    def test_quality_mismatch_skipped_not_violated(self, tmp_path):
        out = tmp_path / "certify.json"
        code = main([
            "certify", "--trials", "3", "--n", "6", "--seed", "300",
            "--gammas", "0.3", "--solvers", "pinvit1",
            "--precond-scale", "8.0", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["skipped_runs"] == 3
        assert payload["summary"]["max_steps_runs"] == 3  # a count, not an exit code
        assert all(not row["certified"] for row in payload["records"])

    def test_max_steps_runs_counted_without_changing_the_verdict(self, tmp_path):
        out = tmp_path / "certify.json"
        code = main([
            "certify", "--seed", "1", "--trials", "4", "--n", "20", "--max-steps", "3",
            "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert [row["steps"] for row in payload["records"]] == [3, 3, 3, 3]
        assert payload["summary"]["max_steps_runs"] == 4
        assert "status" not in payload["summary"]

    @pytest.mark.parametrize("args", [
        ["--gammas", ","], ["--solvers", ","], ["--trials", "0"], ["--trials", "-2"],
    ])
    def test_bad_input_exits_with_message(self, args, capsys):
        code = main(["certify", "--trials", "2", "--n", "5", "--seed", "1", *args])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("psdlab: error: ")
        assert "Traceback" not in err


class TestSharpnessCommand:
    def test_gap_shrinks_toward_limit(self, tmp_path):
        out = tmp_path / "sharp.json"
        code = main([
            "sharpness", "--mus", "1,0.5,0.1", "--gamma", "0.5",
            "--deltas", "1e-2,1e-4,1e-6,1e-8", "--format", "json",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["summary"]["sigma_sq"] == pytest.approx(0.47265625, rel=1e-12)
        gaps = [row["gap"] for row in payload["records"]]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * payload["summary"]["sigma_sq"]

    def test_default_mode_gap_vanishes_below_eps(self, tmp_path):
        # the t1 mode's instances keep their level-set geometry at delta near
        # eps; the gap then is rounding, not a lost minor semi-axis
        out = tmp_path / "sharp.json"
        code = main([
            "sharpness", "--mus", "1,0.5,0.1", "--gamma", "0.5",
            "--deltas", "1e-14,1e-16,1e-18", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        gaps = [row["gap"] for row in json.loads(out.read_text())["records"]]
        assert len(gaps) == 3
        assert all(abs(gap) < 1e-13 for gap in gaps)

    def test_ratio_above_sigma_sq_exits_violated(self, tmp_path, monkeypatch):
        # a ratio beyond sigma^2 (1 + RATIO_TOL) is a violation, not a pass
        import psdlab.cli as cli

        real = cli.worst_case_instance

        def inflated(setup):
            result = real(setup)
            return dataclasses.replace(
                result, measured_ratio=result.measured_ratio * (1.0 + 1e-6)
            )

        monkeypatch.setattr(cli, "worst_case_instance", inflated)
        out = tmp_path / "sharp.json"
        code = main([
            "sharpness", "--mus", "1,0.5,0.1", "--gamma", "0.5",
            "--deltas", "1e-4,1e-12", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_VIOLATED
        summary = json.loads(out.read_text())["summary"]
        assert summary["violations"] == 1
        assert "status" not in summary

    def test_nan_ratio_exits_violated(self, tmp_path):
        # finite but huge mus overflow inside the worst-case instance; the NaN
        # ratio this leaves is no evidence of the bound
        out = tmp_path / "sharp.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([
                "sharpness", "--mus", "1e300,0.5,0.1", "--gamma", "0.5",
                "--deltas", "1e-4", "--format", "json", "--output", str(out),
            ])
        assert code == EXIT_VIOLATED
        payload = json.loads(out.read_text())
        assert math.isnan(payload["records"][0]["measured_ratio"])
        assert payload["summary"]["violations"] == 1

    def test_gamma_zero_routes_to_plain_factor(self, tmp_path):
        out = tmp_path / "sharp.json"
        code = main([
            "sharpness", "--mus", "1,0.5,0.1", "--gamma", "0",
            "--deltas", "1e-6", "--format", "json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        kappa = 4.0 / 9.0
        sigma0 = kappa / (2.0 - kappa)
        assert payload["summary"]["sigma_sq"] == pytest.approx(sigma0**2, rel=1e-12)
        assert payload["records"][0]["measured_ratio"] <= sigma0**2 * (1 + 1e-9)

    def test_grid_mode(self, tmp_path):
        out = tmp_path / "sharp.csv"
        code = main([
            "sharpness", "--mus", "1,0.5,0.1", "--gamma", "0.5",
            "--deltas", "1e-4", "--t-mode", "grid", "--t-grid", "11",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "delta,t,measured_ratio,sigma_sq,gap"

    @pytest.mark.parametrize("args", [
        ["--mus", "0.1,0.5,1"], ["--mus", "1,1,0.5"], ["--mus", "1,0.5,0.1", "--deltas", ","],
        ["--mus", "1,0.5,0.1", "--t-mode", "grid", "--t-grid", "0"],
        # below the stationary floor the cone is numerically empty
        ["--mus", "1,0.5,0.1", "--deltas", "1e-30"],
        ["--mus", "1,0.5,0.1", "--deltas", "nan"], ["--mus", "1,0.5,0.1", "--deltas", "inf"],
        ["--mus", "1,nan,0.1"],
    ])
    def test_bad_input_exits_with_message(self, args, capsys):
        code = main(["sharpness", "--gamma", "0.5", *args])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("psdlab: error: ")
        assert "Traceback" not in err

    def test_non_finite_mu_named_in_message(self, capsys):
        code = main(["sharpness", "--mus", "1,nan,0.1", "--gamma", "0.5"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "mus must be three finite" in err
        assert "kappa" not in err


class TestMissingInput:
    @pytest.mark.parametrize("args, message", [
        (["solve", "--gamma", "0.5", "--seed", "7"], "missing --problem"),
        (["solve", "--problem", "matrix_market:", "--seed", "7"],
         "matrix_market problem needs at least a path for A"),
        (["solve", "--problem", "banded:3", "--seed", "7"], "unknown problem kind 'banded'"),
        (["solve", "--problem", "diagonal:1,2,4", "--seed", "7"],
         "synthetic preconditioner needs --gamma"),
        (["certify", "--trials", "2", "--n", "5"], "--seed is mandatory for certify"),
        (["sharpness", "--gamma", "0.5"], "--mus is mandatory for sharpness"),
        (["sharpness", "--mus", "1,0.5,0.1"], "--gamma is mandatory for sharpness"),
        (["sharpness", "--mus", "1,0.5", "--gamma", "0.5"],
         "sharpness needs exactly three mu values"),
    ])
    def test_message_names_what_is_missing(self, args, message, capsys):
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err == f"psdlab: error: {message}\n"


def test_simple_spectrum_nudges_repeated_values_apart():
    class EqualDraws:
        """An rng whose every draw is the middle of its range."""

        def uniform(self, low, high, size):
            return np.full(size, 0.5 * (low + high))

    lam = cli.simple_spectrum(EqualDraws(), 4)
    assert lam[0] == math.exp(0.5 * (math.log(cli._SPECTRUM_LOW) + math.log(cli._SPECTRUM_HIGH)))
    for lo, hi in zip(lam, lam[1:]):
        assert hi == lo * (1.0 + cli._SPECTRUM_MIN_REL_GAP)


class TestSolveReproducible:
    def test_repeated_solve_gives_identical_json(self):
        # Repeated eigenvalues of laplacian2d leave the eigenbasis to LAPACK,
        # and the synthetic preconditioner is drawn in that basis.
        config = ExperimentConfig(command="solve", problem="laplacian2d:16",
                                  solver="psd", gamma=0.5, seed=7, format="json")
        first = cmd_solve(config).to_json()
        assert cmd_solve(config).to_json() == first
        summary = json.loads(first)["summary"]
        assert summary["status"] == "converged"
        assert summary["violations"] == 0
        exact = 8.0 * np.sin(np.pi / 34.0) ** 2
        assert summary["final_rho"] == pytest.approx(exact, rel=1e-10)


# sha256 of the JSON reports of five seeded runs.  Any change of a bit in
# a record, a verdict or a ratio shows here.  The values hold for the numpy
# and LAPACK builds the suite runs on; another BLAS may round a dot product
# differently.  Re-pinned with unchanged steps, statuses and verdicts:
# solve-laplacian2d-8-psd when records took the residual at the iterate's
# own Rayleigh quotient instead of the Ritz value (19 of 36 residual norms
# moved, by at most 8.4e-16 relative), and the two sharpness runs when
# the worst-case setup took kappa in the lambda form of bounds (sigma^2
# 0.47265625 -> 0.47265625000000017).
PINNED_REPORTS = [
    pytest.param(
        ExperimentConfig(command="certify", trials=20, n=20, gammas="0,0.3,0.6,0.9",
                         solvers="psd,pinvit1,invit1,invit2", seed=20260101, format="json"),
        "a8c7d2f6d95afc768363c67051004d5c5b74d47ec45cc6f89c40f43ee76e54ad",
        id="certify-20-trials",
    ),
    pytest.param(
        ExperimentConfig(command="solve", problem="laplacian1d:64", solver="pinvit1",
                         precond="jacobi", seed=3, delta_tol=5e-7, max_steps=8000,
                         format="json"),
        "51c186253daa64ae3ebbcd173a6809a4a86771fc9e0f5a30da24be2597858519",
        id="solve-laplacian1d-64-jacobi",
    ),
    pytest.param(
        ExperimentConfig(command="solve", problem="laplacian2d:8", solver="psd",
                         gamma=0.5, seed=7, format="json"),
        "bfea2195e8956a52e734690c9d32c31dc2e09e1d0d1de29f25487749fbb3437f",
        id="solve-laplacian2d-8-psd",
    ),
    pytest.param(
        ExperimentConfig(command="sharpness", mus="1,0.5,0.1", gamma=0.5,
                         deltas="1e-2,1e-4,1e-6,1e-8", t_mode="grid", t_grid=41,
                         format="json"),
        "44fa30711b748b1b73cc58844ecd0e31f2d34d449ff532a3db698e69eebd7e95",
        id="sharpness-t-grid-41",
    ),
    pytest.param(
        ExperimentConfig(command="sharpness", mus="1,0.5,0.1", gamma=0.5,
                         deltas="1e-2,1e-4,1e-6,1e-8,1e-12,1e-16,1e-18", format="json"),
        "55967150ad7bd6e2a86384bdf30536fa5d1767b6fdd4c559663193b952d5a9a1",
        id="sharpness-deltas-to-1e-18",
    ),
]


@pytest.mark.parametrize("config, sha256", PINNED_REPORTS)
def test_report_bytes_are_pinned(config, sha256):
    command = {"certify": cmd_certify, "solve": cmd_solve,
               "sharpness": cmd_sharpness}[config.command]
    text = command(config).to_json()
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == sha256


def _checks(result):
    """A walk of a run's records: its verdict counts and largest ``ratio / sigma^2``.

    The counts are keyed in order of first appearance; the ratio is
    ``None`` when no step has one.
    """
    counts = {}
    ratios = []
    for rec in result.records:
        check = rec.bound
        if check is None:
            continue
        counts[check.verdict] = counts.get(check.verdict, 0) + 1
        if check.ratio is not None and check.sigma_squared:
            ratios.append(check.ratio / check.sigma_squared)
    return counts, max(ratios, default=None)


@pytest.mark.parametrize("config", [
    pytest.param(p.values[0], id=p.id) for p in PINNED_REPORTS
    if p.values[0].command != "sharpness"
])
def test_run_counts_match_a_walk_of_its_records(config, monkeypatch):
    # run() counts each verdict and keeps the largest ratio as the checks
    # come; the report reads those counts, the walk is their oracle.
    results = []
    run = cli.run

    def recording_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    command = {"certify": cmd_certify, "solve": cmd_solve}[config.command]
    command(config)
    assert len(results) == (80 if config.command == "certify" else 1)
    for result in results:
        counts, max_ratio = _checks(result)
        assert list(result.verdicts.items()) == list(counts.items())
        assert repr(result.max_ratio_over_sigma_sq) == repr(max_ratio)


def test_to_json_writes_numpy_scalars_as_python_ones():
    records = [{"n": np.int64(3), "x": np.float64(0.1), "y": np.float32(0.5),
                "ok": np.bool_(True), "pair": (1, np.int32(2)), "none": None,
                "nan": np.float64("nan")}]
    text = ExperimentReport(config={"seed": np.int64(7)}, records=records,
                            summary={"gap": np.float64(-0.0)}).to_json()
    expected = json.dumps(
        {"config": {"seed": 7},
         "records": [{"n": 3, "x": 0.1, "y": 0.5, "ok": True, "pair": [1, 2],
                      "none": None, "nan": float("nan")}],
         "summary": {"gap": -0.0}},
        indent=2, allow_nan=True,
    ) + "\n"
    assert text == expected
    with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
        ExperimentReport(config={}, records=[{"v": np.zeros(2)}], summary={}).to_json()


def _reference_json(report):
    """The oracle of ``to_json``: one plain ``indent=2`` call on the whole report."""
    return json.dumps(
        {"config": report.config, "records": report.records, "summary": report.summary},
        indent=2, allow_nan=True, default=cli._json_scalar,
    ) + "\n"


# Text that looks like the writer's own layout: a record boundary, the
# records key, quotes, backslashes, newlines and non-ASCII text.
_LAYOUT_TEXT = st.sampled_from([
    "},\n      {", "}\n    },\n    {", '"records": []', '"records": [', 'say "x"',
    "back\\slash\\", "\\", "ünï ✓ 日本", "\n", "",
])
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), math.inf, -math.inf, -0.0, 5e-324, 2.2e-308 / 3,
                     1.7976931348623157e308, 1e300, 0.1]),
)
_NUMPY = st.sampled_from([np.float64(0.1), np.float64("nan"), np.float64(-0.0),
                          np.float32(0.1), np.float16(-2.5), np.int64(-3), np.int32(7),
                          np.uint8(255), np.bool_(True), np.bool_(False)])
_SCALAR_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), _FLOATS,
                           _NUMPY, st.text(max_size=12), _LAYOUT_TEXT)
_KEYS = st.one_of(st.text(max_size=8), _LAYOUT_TEXT, st.sampled_from(["step", "rho"]))
_NESTED = st.one_of(_SCALAR_VALUES, st.lists(_SCALAR_VALUES, max_size=3),
                    st.dictionaries(_KEYS, _SCALAR_VALUES, max_size=3))


# Half the reports have flat records, which take the one-call path; the
# other half may hold an empty record or a container, which the plain call
# writes.
@given(
    records=st.one_of(
        st.lists(st.dictionaries(_KEYS, _SCALAR_VALUES, min_size=1, max_size=6), max_size=6),
        st.lists(st.dictionaries(_KEYS, _NESTED, max_size=4), max_size=4),
    ),
    config=st.dictionaries(_KEYS, _NESTED, max_size=4),
    summary=st.dictionaries(_KEYS, _NESTED, max_size=4),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_to_json_matches_one_indent_2_call(records, config, summary):
    report = ExperimentReport(config=config, records=records, summary=summary)
    assert report.to_json() == _reference_json(report)


@pytest.mark.parametrize("records", [
    [], [{"step": 0}], [{"a": 1}, {}], [{"a": 1}, {"b": [1, 2]}],
    [{"v": "},\n      {", "w": '"records": []'}, {"v": None}],
])
def test_to_json_matches_one_indent_2_call_at_the_edges(records, tmp_path):
    # The config echo of a --config file, and the edges the join must get
    # right: no records, one record, an empty record, a nested value.
    path = tmp_path / "exp.cfg"
    path.write_text("problem=diagonal:1,2,4\nseed=7\ngamma=0.5\nformat=json\nrescale=yes\n")
    report = ExperimentReport(config=ExperimentConfig.from_file(path).echo(),
                              records=records, summary={"verdicts": {"holds": 2}, "gap": -0.0})
    assert report.to_json() == _reference_json(report)


def test_csv_and_json_write_numpy_scalars_alike():
    row = {"f64": np.float64(0.1), "f32": np.float32(0.1), "f16": np.float16(0.1),
           "nan": np.float32("nan"), "i64": np.int64(-3), "i32": np.int32(7),
           "u8": np.uint8(255), "ok": np.bool_(False), "none": None}
    report = ExperimentReport(config={}, records=[row], summary={}, columns=tuple(row))
    header, line = report.to_csv().splitlines()
    assert header.split(",") == list(row)
    written = json.loads(report.to_json())["records"][0]
    assert line.split(",") == ["" if v is None else repr(v) for v in written.values()]
    assert line.split(",")[1] == "0.10000000149011612"  # float32(0.1) as a float


_PINNED_SOLVE = next(p.values[1] for p in PINNED_REPORTS if p.id == "solve-laplacian1d-64-jacobi")


def _psdlab(*args, cwd=None):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "psdlab", *args], capture_output=True,
                          env=env, cwd=cwd, timeout=300)


def test_both_output_sinks_write_the_pinned_bytes(tmp_path):
    args = ["solve", "--problem", "laplacian1d:64", "--solver", "pinvit1", "--precond",
            "jacobi", "--seed", "3", "--max-steps", "8000", "--delta-tol", "5e-7",
            "--format", "json"]
    to_stdout = _psdlab(*args)
    assert to_stdout.returncode == EXIT_OK, to_stdout.stderr
    to_file = _psdlab(*args, "--output", "report.json", cwd=tmp_path)
    assert to_file.returncode == EXIT_OK, to_file.stderr
    assert to_file.stdout == b""
    # The file's config echo names the output path, where the pinned run has null.
    written = (tmp_path / "report.json").read_bytes()
    assert written.count(b'"output": "report.json"') == 1
    written = written.replace(b'"output": "report.json"', b'"output": null')
    for text in (to_stdout.stdout, written):
        assert hashlib.sha256(text).hexdigest() == _PINNED_SOLVE


class TestUsageErrors:
    ARGS = ["solve", "--problem", "laplacian1d:8", "--seed", "1"]

    @pytest.mark.parametrize("bad, message", [
        (["--format", "xml"], "argument --format: invalid choice: 'xml' (choose from "
                              "'csv', 'json')"),
        (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["--gamma"], "argument --gamma: expected one argument"),
        (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ])
    def test_bad_flag_exits_1(self, bad, message, capsys):
        assert main(self.ARGS + bad) == EXIT_ERROR
        assert capsys.readouterr().err == f"psdlab: error: {message}\n"

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("psdlab: error: ")

    def test_process_exit_codes(self, tmp_path):
        # Through the interpreter: a usage error is 1, not argparse's 2,
        # which stays the code of a run that hits --max-steps; --help is 0.
        bad = _psdlab(*self.ARGS, "--format", "xml")
        assert (bad.returncode, bad.stdout) == (EXIT_ERROR, b"")
        assert bad.stderr.startswith(b"psdlab: error: argument --format: invalid choice")
        limited = _psdlab("solve", "--problem", "laplacian1d:32", "--solver", "pinvit1",
                          "--gamma", "0.9", "--seed", "5", "--max-steps", "2",
                          "--output", str(tmp_path / "o.csv"))
        assert limited.returncode == EXIT_MAX_STEPS, limited.stderr
        shown = _psdlab("solve", "--help")
        assert shown.returncode == EXIT_OK
        assert shown.stdout.startswith(b"usage: psdlab solve")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(
            command="solve", problem="diagonal:1,2,4", solver="psd",
            gamma=0.5, seed=7, format="json", rescale=True, max_steps=123,
        )
        path = tmp_path / "exp.cfg"
        config.to_file(path)
        loaded = ExperimentConfig.from_file(path)
        assert loaded == config
        # A hand-written file: each value is parsed as its field's type.
        path.write_text("trials=12\nresidual_tol=1e-8\nrescale=yes\n")
        loaded = ExperimentConfig.from_file(path)
        assert (loaded.trials, loaded.residual_tol, loaded.rescale) == (12, 1e-8, True)
        assert type(loaded.trials) is int and type(loaded.residual_tol) is float
        path.write_text("rescale=Off\n")
        assert ExperimentConfig.from_file(path).rescale is False

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        ExperimentConfig(
            command="solve", problem="diagonal:1,2,4", solver="psd",
            gamma=0.5, seed=7, format="json",
        ).to_file(path)
        code = main(["solve", "--config", str(path), "--seed", "9"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 9
        assert payload["config"]["problem"] == "diagonal:1,2,4"

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("# a comment\n\nseed 7\n")
        code = main(["solve", "--config", str(path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "psdlab: error: config line 3: expected key=value\n"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("nonsense=1\n")
        code = main(["solve", "--config", str(path)])
        assert code == EXIT_ERROR
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("format=xml", "format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        ("format=CSV", "format: invalid choice: 'CSV' (choose from 'csv', 'json')"),
        ("precond=Jacobi", "precond: invalid choice: 'Jacobi' (choose from 'synthetic', "
                           "'jacobi', 'exact', 'identity')"),
        ("seed=abc", "seed: invalid int value: 'abc'"),
        ("gamma=half", "gamma: invalid float value: 'half'"),
        ("rescale=maybe", "rescale: invalid bool value: 'maybe'"),
    ])
    def test_values_get_the_flags_checks(self, line, message, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(f"problem=diagonal:1,2,4\nseed=7\n# a comment\n{line}\n")
        output = tmp_path / "out"
        code = main(["solve", "--config", str(path), "--gamma", "0.5", "--output", str(output)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"psdlab: error: config line 4: {message}\n"
        assert not output.exists()


def _subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionsDeclaredOnce:
    FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

    def test_flags_are_the_fields(self):
        dests = set()
        for sub in _subparsers().values():
            for action in sub._actions:
                if action.dest in ("help", "config"):
                    continue
                field = self.FIELDS[action.dest]
                assert action.option_strings == ["--" + field.name.replace("_", "-")]
                assert action.default is None
                if field.type is bool:
                    assert isinstance(action, argparse._StoreTrueAction)
                else:
                    assert action.type is field.type
                dests.add(action.dest)
        assert dests == set(self.FIELDS) - {"command"}

    @pytest.mark.parametrize("field, command", [
        ("format", "certify"), ("mass", "solve"), ("solver", "solve"),
        ("precond", "solve"), ("t_mode", "sharpness"),
    ])
    def test_choice_rejected_as_flag_and_from_file(self, field, command, tmp_path, capsys):
        flag = "--" + field.replace("_", "-")
        choices = next(a.choices for a in _subparsers()[command]._actions if a.dest == field)
        allowed = ", ".join(map(repr, choices))
        assert main([command, flag, "bogus"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"psdlab: error: argument {flag}: invalid choice: 'bogus' (choose from {allowed})\n"
        )
        path = tmp_path / "exp.cfg"
        path.write_text(f"{field}=bogus\n")
        assert main([command, "--config", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"psdlab: error: config line 1: {field}: invalid choice: 'bogus' "
            f"(choose from {allowed})\n"
        )

    # sha256 of each subcommand's --help at 80 columns: the flags generated
    # from the fields keep the interface's text, order and metavars.
    HELP = {
        "solve": "adf1a341c0cf39b31c2565c97dce4df29cad0eb4467e520b83c14548f6dc2d59",
        "certify": "4166de7731a69276810ea9eee590c875a4ebe95f1ebc7b552fa6b89c894cc872",
        "sharpness": "1cc718c29ca36b198f5c490db38b6f8224dea78592a3acdf4d2548428fd06979",
    }

    def test_help_text_unchanged(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for command, sub in _subparsers().items():
            text = sub.format_help()
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == self.HELP[command]


class TestExitCodeContract:
    def test_violation_maps_to_exit_3(self):
        report = ExperimentReport(
            config={}, records=[], summary={"status": "converged", "violations": 2},
        )
        assert report.exit_code == EXIT_VIOLATED

    def test_max_steps_maps_to_exit_2(self):
        report = ExperimentReport(
            config={}, records=[], summary={"status": "max_steps", "violations": 0},
        )
        assert report.exit_code == EXIT_MAX_STEPS

    def test_converged_maps_to_exit_0(self):
        report = ExperimentReport(
            config={}, records=[], summary={"status": "converged", "violations": 0},
        )
        assert report.exit_code == EXIT_OK


def test_direct_command_functions_return_reports():
    config = ExperimentConfig(command="solve", problem="diagonal:1,2,4",
                              solver="invit2", seed=4)
    report = cmd_solve(config)
    assert report.summary["status"] == "converged"
    config = ExperimentConfig(command="certify", trials=2, n=5, seed=8,
                              gammas="0.5", solvers="psd")
    assert cmd_certify(config).summary["violations"] == 0
    config = ExperimentConfig(command="sharpness", mus="1,0.5,0.1", gamma=0.2,
                              deltas="1e-6")
    assert cmd_sharpness(config).summary["final_gap"] > 0


_IMPORT_GUARD = textwrap.dedent("""
    import json, os, sys

    class NoScipy:
        # any import of scipy or a scipy submodule fails
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"import of {name} blocked")
            return None

    sys.meta_path.insert(0, NoScipy())

    import numpy as np
    from psdlab.cli import main
    from psdlab.mmio import write_matrix

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = {"on_import": scipy_modules()}
    path_a = os.path.join(sys.argv[1], "a.mtx")
    write_matrix(path_a, np.diag([1.0, 2.0, 4.0, 5.0]))
    commands = [["certify", "--seed", "1", "--trials", "2", "--n", "6"]]
    commands += [["solve", "--problem", "laplacian1d:8", "--solver", "psd",
                  "--precond", precond, "--gamma", "0.5", "--seed", "3"]
                 for precond in ("synthetic", "jacobi", "exact", "identity")]
    commands += [["solve", "--problem", "matrix_market:" + path_a, "--solver", "psd",
                  "--precond", "jacobi", "--seed", "2"],
                 ["sharpness", "--mus", "1,0.5,0.1", "--gamma", "0.5", "--deltas", "1e-4"]]
    out["codes"] = [main(argv + ["--output", os.devnull]) for argv in commands]
    out["after_commands"] = scipy_modules()

    from psdlab import Spectrum, three_d_concentration_check

    report = three_d_concentration_check(Spectrum(lambdas=1.0 / np.array([1.0, 0.6, 0.3, 0.1])),
                                         gamma=0.5, mu0=0.8, n_outer=1, seed=1)
    out["significant"] = len(report.significant)
    out["after_check"] = scipy_modules()
    print(json.dumps(out))
""")


def test_commands_load_no_scipy(tmp_path):
    # A fresh interpreter in which any import of scipy raises: importing psdlab,
    # running certify, solve (every preconditioner kind, and a matrix_market
    # problem) and sharpness, and a concentration check in four coordinates
    # all run on numpy alone.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["on_import"] == []
    assert out["codes"] == [EXIT_OK] * 7
    assert out["after_commands"] == []
    assert out["after_check"] == []
    assert out["significant"] <= 3
