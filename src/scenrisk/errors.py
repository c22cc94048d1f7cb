"""Exception types shared across the package."""

import math


class ScenRiskError(Exception):
    """Base class for all scenrisk errors."""


class SpaceMismatchError(ScenRiskError):
    """Operands live on different probability spaces."""


class SpaceTooCoarseError(ScenRiskError):
    """Atoms are too heavy to realize the requested construction tolerance."""


class CoercivityError(ScenRiskError):
    """No minimizing bracket found: the cash-additive hull objective is unbounded below."""


class UnresolvedConjugateError(ScenRiskError):
    """No exact conjugate is known: a transformed triple with H = x^+ and a G
    that has no closed-form Orlicz norm, or with H = exp and an F or G that
    has no closed form."""


class InvalidOrliczError(ScenRiskError):
    """A scalar function violates the required shape axioms."""


class ParameterError(ScenRiskError, ValueError):
    """An argument lies outside its domain (also a ValueError for callers that catch that)."""


def require_finite(**params: float) -> None:
    """Raise ParameterError naming the first parameter that is not a finite number."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
