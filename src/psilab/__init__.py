"""Numerical laboratory for rearrangement inequalities on submanifolds.

Modules
-------
special_fn      log unit-ball volume, first Bessel zeros (on math and scipy)
constants       the named sharp constants, with literal and corrected readings
measure_space   Schwartz rearrangement over weighted samples, radial profiles
mesh            triangle meshes in R^d: areas, P1 gradients, mean curvature
analytic        parametric surfaces, blowup family, radial extremals and their checks
verify          the inequalities' verdicts on meshes, as VerificationReports
counterexample  the sphere blowup sweep and its threshold search
cli             command-line entry point (``psilab`` console script)

Importing any of them loads ``scipy.special`` and no other scipy
subpackage. ``scipy.optimize`` loads with the first Bessel zero,
``scipy.sparse`` with the first mesh built (its connectivity check) and
``scipy.integrate`` with the first radial integral.
"""

from .errors import (
    DIVERGENT,
    ComplexValued,
    ConvergenceFailure,
    CurvatureBoundViolated,
    DegenerateTriangle,
    GammaPole,
    InterpolationMismatch,
    MeshParseError,
    NonManifoldMesh,
    NotMinimal,
    OutOfRange,
    PsilabError,
    SpecInvalid,
    ZeroField,
)

__version__ = "0.1.0"

__all__ = [
    "DIVERGENT",
    "ComplexValued",
    "ConvergenceFailure",
    "CurvatureBoundViolated",
    "DegenerateTriangle",
    "GammaPole",
    "InterpolationMismatch",
    "MeshParseError",
    "NonManifoldMesh",
    "NotMinimal",
    "OutOfRange",
    "PsilabError",
    "SpecInvalid",
    "ZeroField",
    "__version__",
]
