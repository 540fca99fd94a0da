"""Semantic exception hierarchy.

Every failure mode callers are expected to branch on has its own class;
plain ValueError/RuntimeError is never raised from public functions.
``batch_or_loop`` decides what a many-form call raises when an item fails.
"""

from __future__ import annotations

import numpy as np


class NcorliczError(Exception):
    """Base class for all toolkit errors."""


class DomainError(NcorliczError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class StructuralError(NcorliczError, ValueError):
    """Block shapes, dimensions, or bookkeeping of inputs are inconsistent."""


class InvalidOrliczError(NcorliczError, ValueError):
    """A constructed gauge violates the Orlicz-function axioms."""


class NumericError(NcorliczError, RuntimeError):
    """A numeric routine failed to reach its target accuracy."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class UndecidedError(NumericError):
    """The tail test calls an integral neither finite nor divergent.

    Carries the fitted exponent ``alpha`` and rate ``rate`` of the
    integrand's tail G(u) ~ u^-alpha e^(-rate u) in u = log(1/t); never
    read as a value.
    """

    def __init__(self, message: str, alpha: float, rate: float):
        super().__init__(message)
        self.alpha = alpha
        self.rate = rate


class NotMeasurableError(NcorliczError, ArithmeticError):
    """Functional calculus hit an infinite spectral value.

    The operator the caller asked for does not exist as a (finite) element;
    norm routines treat this as a modular value of +inf.
    """

    def __init__(self, message: str, eigenvalue: float | None = None,
                 block: int | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.block = block


class UnboundedNormError(NcorliczError, ArithmeticError):
    """No finite scaling brings the modular below one: element outside the space."""


class SpecError(NcorliczError, ValueError):
    """Malformed JSON input or configuration."""

    def __init__(self, message: str, location: str | None = None):
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


def batch_or_loop(solve, items):
    """``solve(items)``; when that fails, ``solve([item])`` for each item in order.

    The one error rule of the many-form calls.  A batch that raises
    NcorliczError or LinAlgError is run again one item at a time, in input
    order, so the error raised is the one the one-item loop raises first.
    When no item fails alone, their results are concatenated (an item may
    give none).  A failure costs one batch plus the loop.
    """
    try:
        return solve(items)
    except (NcorliczError, np.linalg.LinAlgError):
        if len(items) <= 1:
            raise
    parts = [solve([item]) for item in items]
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return [out for part in parts for out in part]
