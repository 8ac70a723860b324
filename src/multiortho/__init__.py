"""Multiple orthogonal polynomials of types I and II for Gaussian-shift and
exponential-rate weight systems, their Christoffel-Darboux correlation
kernels, equivalent double-contour evaluations, and Monte Carlo
cross-validation against the matching random-matrix ensembles."""

from .core import (
    ExactMathError,
    HermiteWeight,
    LaguerreWeight,
    LinearForm,
    LinearFormTerm,
    MultiIndex,
    RatPoly,
    SingularExpansionError,
    as_fraction,
    mi_chain,
)
from .hermite import HermiteSpec
from .laguerre import LaguerreSpec

__all__ = [
    "ExactMathError",
    "HermiteSpec",
    "HermiteWeight",
    "LaguerreSpec",
    "LaguerreWeight",
    "LinearForm",
    "LinearFormTerm",
    "MultiIndex",
    "RatPoly",
    "SingularExpansionError",
    "as_fraction",
    "mi_chain",
]

__version__ = "0.1.0"
