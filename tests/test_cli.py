"""Command-line interface: subcommands, exit codes, output formats."""

import json

import numpy as np
import pytest

from psdlab.cli import (
    EXIT_ERROR,
    EXIT_MAX_STEPS,
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

    def test_max_steps_exit_code(self, tmp_path):
        code = main([
            "solve", "--problem", "laplacian1d:32", "--solver", "pinvit1",
            "--gamma", "0.9", "--seed", "5", "--max-steps", "2",
            "--output", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_MAX_STEPS

    @pytest.mark.parametrize("args", [["--max-steps", "-1"]])
    def test_bad_input_exits_with_message(self, args, capsys):
        code = main(["solve", "--problem", "diagonal:1,2,4", "--solver", "psd",
                     "--gamma", "0.5", "--seed", "7", *args])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("psdlab: error: ")
        assert "Traceback" not in err

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
    ])
    def test_bad_input_exits_with_message(self, args, capsys):
        code = main(["sharpness", "--gamma", "0.5", *args])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("psdlab: error: ")
        assert "Traceback" not in err


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("nonsense=1\n")
        code = main(["solve", "--config", str(path)])
        assert code == EXIT_ERROR
        assert "unknown key" in capsys.readouterr().err


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
