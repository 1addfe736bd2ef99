"""Exception types, the Divergent sentinel and the L^p-order check shared across the library."""

import math


class PsilabError(Exception):
    """Base of every psilab error, which keeps a built-in base too (ValueError, or
    RuntimeError for an exhausted search); the CLI maps it to exit code 2."""


class CurvatureBoundViolated(PsilabError, ValueError):
    """Total mean curvature exceeds the admissible bound, or K >= 1/C."""


class GammaPole(PsilabError, ValueError):
    """A gamma-function evaluation hit a pole (non-positive integer argument)."""


class ComplexValued(PsilabError, ValueError):
    """A real formula raises a negative base to a fractional power."""


class InterpolationMismatch(PsilabError, ValueError):
    """Operation requires a different profile interpolation mode."""


class MeshParseError(PsilabError, ValueError):
    """Malformed OFF/nOFF input; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonManifoldMesh(PsilabError, ValueError):
    """Edge shared by more than two triangles, or inconsistent orientation."""


class DegenerateTriangle(PsilabError, ValueError):
    """Triangle with repeated vertices or (near-)zero area."""


class SpecInvalid(PsilabError, ValueError):
    """Monotonicity-principle specification violates a sign or exponent condition."""


class ZeroField(PsilabError, ValueError):
    """Field is identically zero where a nonzero one is required."""


class NotMinimal(PsilabError, ValueError):
    """Surface exceeds the flatness threshold required for a minimal-submanifold check."""


class ConvergenceFailure(PsilabError, RuntimeError):
    """Root bracketing or a bounded search exhausted its budget."""


class _Divergent:
    """Singleton marker for integrals classified as divergent (not an error)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Divergent"

    def __bool__(self):
        return False


DIVERGENT = _Divergent()


def is_divergent(x) -> bool:
    return x is DIVERGENT


def require_order(p: float) -> None:
    """Refuse a p that is not a finite number >= 1, the orders of the L^p norms and gradient p-energies."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")
