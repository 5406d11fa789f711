"""The package's public names, and how its array-holding dataclasses compare."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import psdlab
from psdlab import (
    ConeSpec,
    DiagonalForm,
    PrecondQuality,
    Preconditioner,
    RitzPair,
    RunResult,
    Spectrum,
    StepResult,
    WorstCaseResult,
    WorstCaseSetup,
    diagonalize,
    generate_problem,
)
from psdlab.conelab import ConcentrationReport

MODULES = sorted(info.name for info in pkgutil.iter_modules(psdlab.__path__)
                 if info.name != "__main__")

# Names deleted because their callers know everything they did.
REMOVED = ("CrossSection", "cross_section", "householder_reduce", "invit1_step",
           "invit2_step", "ellipse_quantities", "EllipseQuantities")


def _module(name):
    return importlib.import_module(f"psdlab.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = _module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"psdlab.{name}.__all__ lists missing {export!r}"


def test_package_reexports_only_module_exports():
    # errors has no __all__; its exception classes are re-exported as they are
    tree = ast.parse(Path(psdlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "psdlab/__init__.py imports only its own modules"
        if node.module == "errors":
            continue
        exports = _module(node.module).__all__
        for alias in node.names:
            assert alias.name in exports, f"psdlab.{node.module}.__all__ lacks {alias.name!r}"


def test_removed_names_stay_removed():
    for export in REMOVED:
        assert not hasattr(psdlab, export)
        for name in MODULES:
            module = _module(name)
            assert not hasattr(module, export), f"psdlab.{name}.{export} is back"
            assert export not in getattr(module, "__all__", ())


@pytest.mark.parametrize("cls", [Spectrum, DiagonalForm, Preconditioner, StepResult, RunResult,
                                 RitzPair, ConeSpec, WorstCaseSetup, WorstCaseResult,
                                 ConcentrationReport], ids=lambda cls: cls.__name__)
def test_array_dataclasses_keep_object_equality(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


def test_equality_answers_and_hashing_works():
    spectrum = Spectrum(lambdas=[1, 2, 4])
    assert (spectrum == Spectrum(lambdas=[1, 2, 4])) is False
    assert isinstance(hash(spectrum), int)
    assert spectrum in [spectrum]
    assert len({spectrum, spectrum}) == 1
    form = diagonalize(generate_problem("diagonal", lambdas=[1.0, 2.0, 4.0]))
    precond = Preconditioner(np.eye(3), PrecondQuality(), "diagonal")
    for a, b in ((form, DiagonalForm(form.mus, form.basis, form.inverse_basis)),
                 (precond, Preconditioner(np.eye(3), PrecondQuality(), "diagonal"))):
        assert (a == b) is False
        assert (a == a) is True
        assert a in [a]
