"""Closed-form convergence factors and per-step bound certification.

Every solver in the hierarchy contracts the interval-relative error

    delta_{i,i+1}(xi) = (xi - lambda_i) / (lambda_{i+1} - xi)

by at least ``sigma**2`` per step (or jumps below ``lambda_i``), where
``sigma`` is the solver's sharp factor:

    INVIT(1):   lambda_i / lambda_{i+1}
    PINVIT(1):  gamma + (1 - gamma) * lambda_i / lambda_{i+1}
    INVIT(2):   kappa / (2 - kappa)
    PSD:        (kappa + gamma * (2 - kappa)) / ((2 - kappa) + gamma * kappa)

with ``kappa = lambda_i (lambda_n - lambda_{i+1}) /
(lambda_{i+1} (lambda_n - lambda_i))``.  The exact-inverse kinds are
the ``gamma = 0`` values of the other two formulas, which is how
:class:`SolverKind` classifies them.  :func:`certify_step` checks one
observed step against the appropriate factor.
"""

import enum
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .errors import IntervalError

__all__ = [
    "HOLDS",
    "PASSED_LAMBDA_I",
    "VIOLATED",
    "SolverKind",
    "BoundFactors",
    "BoundCheck",
    "locate_interval",
    "delta",
    "kappa",
    "sigma",
    "factors",
    "certify_step",
]

HOLDS = "holds"
PASSED_LAMBDA_I = "passed_lambda_i"
VIOLATED = "violated"

# Relative tolerance on the bound-ratio comparison; violations beyond it
# are treated as genuine bugs, not floating point noise.
RATIO_TOL = 1e-9
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max  # normal doubles


class SolverKind(enum.Enum):
    """The four solvers as two iterations, each with two preconditioners.

    ``line_search`` marks the steepest-descent kinds (Rayleigh-Ritz on
    ``span{x, T r}``) against the fixed-step ones; ``exact_inverse``
    marks the kinds that take ``T = A^-1``, i.e. quality ``gamma = 0``.
    These two attributes are the only classification of a kind.
    """

    INVIT1 = "invit1", False, True
    PINVIT1 = "pinvit1", False, False
    INVIT2 = "invit2", True, True
    PSD = "psd", True, False

    def __new__(cls, value, line_search, exact_inverse):
        member = object.__new__(cls)
        member._value_ = value
        member.line_search = line_search
        member.exact_inverse = exact_inverse
        return member

    @classmethod
    def parse(cls, name):
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown solver kind {name!r}") from None


def locate_interval(spectrum, value):
    """Index ``i`` with ``lambda_i <= value < lambda_{i+1}`` (0-based, left closed).

    A value a roundoff below ``lambda_1`` counts as ``lambda_1``, and a
    repeated eigenvalue's interval starts at its last copy.  The lookup
    bisects the spectrum's eigenvalues as Python floats, which
    :class:`~psdlab.pencil.Spectrum` keeps finite and sorted.
    """
    lam = spectrum._lam
    value = float(value)
    if not math.isfinite(value):
        raise IntervalError(f"value {value} is not finite")
    bottom, top = lam[0], lam[-1]
    if value < bottom * (1.0 - 1e-12) or value >= top:
        raise IntervalError(
            f"value {value!r} outside the open spectral range [{bottom!r}, {top!r})"
        )
    return bisect_right(lam, max(value, bottom)) - 1


def _interval_ends(spectrum, i):
    """``(lambda_i, lambda_{i+1}, lambda_n)`` as Python floats, ``i`` checked.

    They are read from the spectrum's float tuple: Python float arithmetic
    gives the bits of numpy's scalar arithmetic at a fraction of its cost,
    which the per-step :func:`certify_step` pays.
    """
    lam = spectrum._lam
    if not 0 <= i <= len(lam) - 2:
        raise IntervalError(f"interval index {i} out of range for n={len(lam)}")
    return lam[i], lam[i + 1], lam[-1]


def delta(spectrum, i, xi):
    """Interval-relative error ``(xi - lambda_i) / (lambda_{i+1} - xi)``.

    Zero exactly at ``xi = lambda_i`` and unbounded as ``xi`` approaches
    ``lambda_{i+1}`` from the left.
    """
    lo, hi, _ = _interval_ends(spectrum, i)
    xi = float(xi)
    if not lo <= xi < hi:
        raise IntervalError(f"value {xi!r} outside [{lo!r}, {hi!r})")
    return (xi - lo) / (hi - xi)


def kappa(spectrum, i):
    """Spectral ratio controlling the steepest-descent factors.

    Defined for interior intervals only: the topmost interval (the one
    whose upper end ``lambda_{i+1}`` equals ``lambda_n`` by value) makes
    the ratio degenerate and raises, as do vanishing gaps.  The factors
    themselves use the limit ``kappa = 0`` there.
    """
    ends = _interval_ends(spectrum, i)
    if ends[1] == ends[2]:
        raise ValueError(
            "kappa is undefined on the topmost interval (lambda_{i+1} = lambda_n); "
            "the steepest-descent factor degenerates there"
        )
    return _kappa_lenient(*ends)


def _kappa_lenient(lo, hi, top):
    """kappa of the interval ``[lo, hi)`` with the topmost one mapped to its limit 0.

    The topmost interval is the one whose upper end ``hi`` is
    ``lambda_n = top`` by value, so a repeated largest eigenvalue also
    maps to the limit.  kappa is scale-invariant: where a product of the
    direct form overflows or leaves the normal range, it is taken as a
    product of two ratios, each at most 1.
    """
    if hi == top:
        return 0.0
    if not lo < hi:
        raise ValueError("kappa needs strict gaps lambda_i < lambda_{i+1} < lambda_n")
    num, den = lo * (top - hi), hi * (top - lo)  # num <= den
    if _FLOAT_MIN <= num and den <= _FLOAT_MAX:
        return num / den
    return (lo / hi) * ((top - hi) / (top - lo))


def _factor(kind, q, k, gamma):
    """Sharp factor of ``kind`` from the interval's two ratios.

    ``q = lambda_i / lambda_{i+1}`` enters the fixed-step formula and
    ``k = kappa`` the line-search one; the other may be ``None``.  The
    exact-inverse kinds are their preconditioned counterparts at
    ``gamma = 0``; any kind raises on a ``gamma`` outside [0, 1].
    """
    if not 0.0 <= gamma <= 1.0:  # NaN fails it too
        raise ValueError("gamma must lie in [0, 1]")
    if kind.exact_inverse:
        gamma = 0.0
    if kind.line_search:
        return (k + gamma * (2.0 - k)) / ((2.0 - k) + gamma * k)
    return gamma + (1.0 - gamma) * q


def sigma(kind, spectrum, i, gamma=0.0):
    """Sharp per-step factor of a solver kind on interval ``i``.

    ``gamma`` is ignored (treated as 0) for the non-preconditioned
    kinds.  ``gamma = 1`` is admitted as the boundary value of the pure
    formula even though no admissible preconditioner attains it.  On the
    topmost interval the steepest-descent kinds take the limit
    ``kappa = 0``, as :func:`certify_step` does.
    """
    return float(_sigma(SolverKind.parse(kind), spectrum, i, gamma))


def _sigma(kind, spectrum, i, gamma):
    """:func:`sigma` of a parsed ``kind``."""
    lo, hi, top = _interval_ends(spectrum, i)
    k = _kappa_lenient(lo, hi, top) if kind.line_search else None
    return _factor(kind, lo / hi, k, gamma)


@dataclass(frozen=True)
class BoundFactors:
    """All four sharp factors for one interval and preconditioner quality."""

    interval_index: int
    gamma: float
    kappa: float
    sigma_invit1: float
    sigma_pinvit1: float
    sigma_invit2: float
    sigma_psd: float


def factors(spectrum, i, gamma=0.0):
    """Bundle ``kappa`` and the four :func:`sigma` values for interval ``i``.

    On the topmost interval ``kappa`` is its limit 0, as in :func:`sigma`,
    and a ``gamma`` outside [0, 1] raises as it does there.
    """
    lo, hi, top = _interval_ends(spectrum, i)
    k = _kappa_lenient(lo, hi, top)
    q = lo / hi
    return BoundFactors(
        interval_index=i,
        gamma=float(gamma),
        kappa=k,
        sigma_invit1=_factor(SolverKind.INVIT1, q, k, gamma),
        sigma_pinvit1=_factor(SolverKind.PINVIT1, q, k, gamma),
        sigma_invit2=_factor(SolverKind.INVIT2, q, k, gamma),
        sigma_psd=_factor(SolverKind.PSD, q, k, gamma),
    )


class BoundCheck(NamedTuple):
    """Verdict of one certified step.

    ``verdict`` is ``"violated"`` only when the ratio exceeds
    ``sigma_squared`` beyond the relative tolerance ``RATIO_TOL`` *and*
    the new value stayed above ``lambda_i``.  A named tuple: it equals,
    hashes, orders and unpacks as the plain tuple of its fields.
    """

    kind: str
    gamma: float
    interval_index: int
    delta_before: float
    delta_after: float
    ratio: float
    sigma_squared: float
    slack: float
    verdict: str
    note: str = ""


def certify_step(spectrum, gamma, i, deltas, kind="psd"):
    """Check one solver step on interval ``i`` against its sharp bound.

    ``i`` is the interval of the value before the step, as
    :func:`locate_interval` gives it, and ``deltas`` the pair
    ``(delta_before, delta_after)`` on that interval in the lambda form
    of :func:`delta`.  The solver driver evaluates both from
    per-eigenvalue distances in its diagonalized coordinates, free of
    cancellation; a caller that has only the two Rayleigh quotients can
    take them from :func:`locate_interval` and :func:`delta`.  The
    factor is ``sigma(kind, spectrum, i, gamma) ** 2``.  A delta at or
    below zero means the step passed ``lambda_i`` (``passed_lambda_i``);
    otherwise ``ratio = delta_after / delta_before`` is compared with
    ``sigma**2`` (``holds`` / ``violated``).  Finiteness and
    monotonicity of the step are the caller's to enforce, as
    :func:`psdlab.iterate.run` does.  ``kind`` is a :class:`SolverKind`
    or its name; an ``i`` out of range raises :class:`IntervalError`.
    """
    kind = SolverKind.parse(kind)
    gamma = 0.0 if kind.exact_inverse else float(gamma)
    sig_sq = _sigma(kind, spectrum, i, gamma) ** 2
    d_before, d_after = deltas
    d_before, d_after = float(d_before), float(d_after)
    ratio = slack = None
    note = ""
    if d_after <= 0.0:
        verdict, d_after = PASSED_LAMBDA_I, None
    elif d_before <= 0.0:
        # the step started at or below lambda_i: there is no ratio to take
        verdict = PASSED_LAMBDA_I
    else:
        ratio = d_after / d_before
        slack = sig_sq - ratio
        verdict = HOLDS if ratio <= sig_sq * (1.0 + RATIO_TOL) else VIOLATED
        if verdict == VIOLATED:
            note = f"ratio {ratio!r} exceeds sigma^2 {sig_sq!r} beyond tolerance"
    # _value_ is kind.value without the enum property's descriptor call
    return BoundCheck(kind._value_, gamma, i, d_before, d_after, ratio, sig_sq, slack,
                      verdict, note)
