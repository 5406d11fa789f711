"""The package's public names, and how its result types compare."""

import ast
import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import psdlab
from psdlab import (
    BoundCheck,
    ConeSpec,
    DiagonalForm,
    IterationRecord,
    Preconditioner,
    RayleighValue,
    RitzPair,
    RunResult,
    Spectrum,
    StepResult,
    SymmetricPencil,
    WorstCaseResult,
    WorstCaseSetup,
    diagonalize,
    generate_problem,
    pinvit1_step,
    psd_step,
    run,
    synthetic_gamma_preconditioner,
)
from psdlab import cli, conelab, iterate, pencil
from psdlab.cli import ExperimentReport
from psdlab.conelab import ConcentrationReport
from psdlab.pencil import _unit_scale

MODULES = sorted(info.name for info in pkgutil.iter_modules(psdlab.__path__)
                 if info.name != "__main__")

# Names deleted because their callers know everything they did.
REMOVED = ("CrossSection", "cross_section", "householder_reduce", "invit1_step",
           "invit2_step", "ellipse_quantities", "EllipseQuantities", "positional_maker")


# Members deleted as unused, or as second copies of a rule the package keeps once.
REMOVED_MEMBERS = ((SymmetricPencil, "solve_a"), (DiagonalForm, "shift"),
                   (RayleighValue, "from_rho"), (cli, "SOLVE_CSV_COLUMNS"),
                   (iterate, "_pow2_scaled"), (iterate, "_POW2_SAFE_EXP"))


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


@pytest.mark.parametrize("owner, name", REMOVED_MEMBERS,
                         ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED_MEMBERS])
def test_removed_members_stay_removed(owner, name):
    assert not hasattr(owner, name)


def test_rules_written_once():
    # the CSV columns are the records' keys; one power-of-two rule for vectors
    assert "columns" not in {f.name for f in dataclasses.fields(ExperimentReport)}
    assert conelab._pow2_unit is pencil._pow2_unit


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
    precond = Preconditioner(np.eye(3), None, "diagonal")
    for a, b in ((form, DiagonalForm(form.mus, form.basis, form.inverse_basis)),
                 (precond, Preconditioner(np.eye(3), None, "diagonal"))):
        assert (a == b) is False
        assert (a == a) is True
        assert a in [a]


# The per-step path builds these by field order, so names and order are
# part of their contract; a swap of two same-typed fields would pass every
# byte pin whose output omits them.
STEP_TYPES = {
    StepResult: ("x", "rho", "theta_opt", "converged", "measure"),
    RayleighValue: ("rho", "mu"),
    IterationRecord: ("step_index", "rho", "residual_norm", "delta", "bound", "theta_opt"),
    BoundCheck: ("kind", "gamma", "interval_index", "delta_before", "delta_after", "ratio",
                 "sigma_squared", "slack", "verdict", "note"),
}


def _hot_path_objects():
    """Objects of each per-step type as run() and the steps build them."""
    pencil = generate_problem("laplacian1d", n=6)
    form = diagonalize(pencil)
    t = synthetic_gamma_preconditioner(form, 0.3, seed=3)
    x0 = np.random.default_rng(3).standard_normal(6)
    _, e = _unit_scale(form.mus)
    fixed_steps = []  # run()'s fixed steps, in its unit-scale coordinates

    def recorded(*args):
        step = pinvit1_step(*args)
        fixed_steps.append(step)
        return step

    objs = []
    for kind in ("psd", "pinvit1"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(iterate, "pinvit1_step", recorded)
            result = run(pencil, t, x0, kind, max_steps=4, residual_tol=0.0)
        before, rec = result.records[1:3]
        check = rec.bound
        # each value sits in its own field
        assert rec.step_index == 2 and rec.residual_norm > 0.0
        if kind == "psd":
            # the line search reports mu as the reciprocal of its rho
            assert rec.rho.mu == 1.0 / rec.rho.rho
        else:
            # a fixed step measures its iterate: rho = x.x / x.Bx, mu = x.Bx / x.x
            z = fixed_steps[1].x
            xx, den = float(z.dot(z)), float(z.dot(fixed_steps[1].measure.bx))
            assert (rec.rho.rho, rec.rho.mu) == (math.ldexp(xx / den, -e), math.ldexp(den / xx, e))
        assert (check.kind, check.gamma, check.note) == (kind, result.certify_gamma, "")
        assert check.interval_index == 0 and check.verdict == "holds"
        assert (check.delta_before, check.delta_after) == (before.delta, rec.delta)
        assert check.ratio == check.delta_after / check.delta_before
        assert check.slack == check.sigma_squared - check.ratio
        assert rec.theta_opt == 1.0 if kind == "pinvit1" else rec.theta_opt != 1.0
        objs += [rec, rec.rho, check]
    td = t.in_coords("diagonal", form)
    first = psd_step(form, td, form.to_diagonal(x0))
    fixed = pinvit1_step(form, td, first)
    assert (fixed.theta_opt, fixed.converged) == (1.0, False)
    assert fixed.rho.rho == fixed.measure.value.rho
    stationary = psd_step(form, None, np.eye(6)[0])  # an eigenvector
    assert (stationary.theta_opt, stationary.converged) == (None, True)
    # every result, a converged one included, measures the iterate it returns
    for step in (first, fixed, stationary):
        assert all(part is not None for part in step.measure)
        assert step.measure.mus is form.mus
        assert np.array_equal(step.measure.bx, form.mus * step.x)
    return objs + [first, psd_step(form, td, first), fixed, stationary]


_VALUE = RayleighValue(2.0, 0.5)
# A hand-built object of each per-step type.
EXAMPLES = {
    StepResult: StepResult(np.ones(3), _VALUE, 1.0),
    RayleighValue: _VALUE,
    IterationRecord: IterationRecord(1, _VALUE, 1e-3, 0.25),
    BoundCheck: BoundCheck("psd", 0.3, 0, 0.5, 0.1, 0.2, 0.3, 0.1, "holds"),
}


@pytest.mark.parametrize("cls", list(STEP_TYPES), ids=lambda cls: cls.__name__)
def test_step_types_keep_fields_frozenness_and_equality(cls):
    assert cls._fields == STEP_TYPES[cls]
    obj = EXAMPLES[cls]
    twin = cls(*obj)
    # FrozenInstanceError, which callers may still catch, is an AttributeError
    with pytest.raises(AttributeError):
        setattr(obj, cls._fields[0], None)
    if cls is StepResult:
        assert (cls.__eq__, cls.__ne__, cls.__hash__) == (
            object.__eq__, object.__ne__, object.__hash__)
        assert (obj == twin, obj != twin) == (False, True)
        assert (obj == obj, obj != obj) == (True, False)
        assert hash(obj) == object.__hash__(obj) and len({obj, twin}) == 2
    else:
        assert (obj == twin, obj != twin) == (True, False)
        assert hash(obj) == hash(twin) and len({obj, twin}) == 1
        assert obj == tuple(obj) and hash(obj) == hash(tuple(obj))
        other = obj._replace(**{cls._fields[-1]: "other"})
        assert (obj == other, obj != other) == (False, True)


def test_hot_path_objects_match_keyword_construction():
    seen = set()
    for obj in _hot_path_objects():
        cls = type(obj)
        seen.add(cls)
        twin = cls(**{name: getattr(obj, name) for name in STEP_TYPES[cls]})
        assert all(a is b for a, b in zip(obj, twin, strict=True))
        assert repr(obj) == repr(twin)
        # no per-step object carries an instance dict
        assert not hasattr(obj, "__dict__")
        assert all(not hasattr(part, "__dict__") for part in obj if isinstance(part, tuple))
        if cls is not StepResult:
            assert obj == twin
            assert hash(obj) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(obj, STEP_TYPES[cls][1], 1.0)
    assert seen == set(STEP_TYPES)


def _private_definitions(tree):
    """The private top-level functions, classes and constants of a module, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_loaded_by_the_package():
    # a private helper, class or constant that only the tests (or its own
    # docstring) name is code kept for the tests; an import alone is no use
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(psdlab.__file__).parent.glob("*.py"))}
    loads = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                loads.setdefault(name, []).append((path, node.lineno))
    unused = [
        f"{path.name}:{name}"
        for path, tree in trees.items() for name, node in _private_definitions(tree)
        if all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in loads.get(name, []))
    ]
    assert unused == []
