"""Exact torus-equivariant Pieri coefficients for classical Grassmannians.

The package computes the structure constants of multiplication by a special
Schubert class in the equivariant cohomology of Grassmannians of Lie types
A, B, C and D, as explicit integer polynomials in the torus weights.  Every
coefficient can be cross-checked against an independent fixed-point
localization oracle and certified Graham-positive.
"""

from .diagram import PieriDiagram, arrow, build
from .errors import ConsistencyError, InputError
from .gkm import (
    GkmEngine,
    fixed_point_restriction,
    type_d_restriction,
)
from .pieri import (
    PieriComputation,
    PieriTerm,
    compute_pieri,
    pieri_coefficient,
    pieri_expansion,
    positivity_certificate,
)
from .polyring import (
    Polynomial,
    PositivityCertificate,
    RootBasis,
    root_positivity_certificate,
)
from .restrict_a import restriction_coefficient
from .schubert import (
    Space,
    codim,
    enumerate_symbols,
    leq,
    pieri_bound,
    preceq,
    special_symbol,
    validate_symbol,
)

__all__ = [
    "ConsistencyError",
    "GkmEngine",
    "InputError",
    "PieriComputation",
    "PieriDiagram",
    "PieriTerm",
    "Polynomial",
    "PositivityCertificate",
    "RootBasis",
    "Space",
    "arrow",
    "build",
    "codim",
    "compute_pieri",
    "enumerate_symbols",
    "fixed_point_restriction",
    "leq",
    "pieri_bound",
    "pieri_coefficient",
    "pieri_expansion",
    "positivity_certificate",
    "preceq",
    "restriction_coefficient",
    "root_positivity_certificate",
    "special_symbol",
    "type_d_restriction",
    "validate_symbol",
]

__version__ = "0.1.0"
