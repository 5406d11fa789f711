"""Every demo script imports cleanly and runs end to end."""

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


# Lines the demos must print: run() verdict counts, as a walk of each run's
# records counts them ((solver, gamma, holds, passed, violated) rows, and
# (solver, steps) with the verdicts in order of first appearance), and the
# concentration search's outcome as a whole line.
COUNT_LINES = {
    "certification_sweep": [
        " pinvit1    0.0    1848      42         0 ",
        " pinvit1    0.3    1779      36         0 ",
        " pinvit1    0.6    1648      30         0 ",
        " pinvit1    0.9    2840      37         0 ",
        "     psd    0.0    1629      37         0 ",
        "     psd    0.3    1505      34         0 ",
        "     psd    0.6    1444      30         0 ",
        "     psd    0.9    2730      35         0 ",
        "total violated verdicts: 0 ",
    ],
    "solver_hierarchy": [
        "    invit1     10 ", " {'passed_lambda_i': 1, 'holds': 9}\n",
        "   pinvit1     24 ", " {'passed_lambda_i': 1, 'holds': 23}\n",
        "    invit2      7 ", " {'passed_lambda_i': 1, 'holds': 6}\n",
        "       psd     23 ", " {'passed_lambda_i': 1, 'holds': 22}\n",
    ],
    "concentration_3d": [
        "\noutcome: the search confirms the 3-D concentration of the worst case.\n",
    ],
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    load(path).main()
    out = capsys.readouterr().out
    assert out
    for line in COUNT_LINES.get(path.stem, ()):
        assert line in out
