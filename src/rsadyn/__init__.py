"""rsadyn: positive-entropy rational surface automorphisms, computationally.

Construction and certification of the family's Salem polynomials, exact
lattice entropy, fiber-chart blowup combinatorics, resonant and
non-resonant power-series linearization, and numerical probes of the
rotation domain.
"""

from .errors import (ChartEscapeError, CompositionDomainError,
                     ConsistencyError, DegenerateParameterError,
                     DivisionDegeneracyError, ExceptionalLocusError,
                     FixtureMismatchError, IndeterminatePointError,
                     InternalConsistencyError, NotSalemError,
                     NumericFailureError, PatternViolationError,
                     PropertyViolationError, RsadynError,
                     StructureViolationError, ValidationError)
from .family import (FamilyParams, MultiplierData, ProjectivePoint,
                     build_params, fixed_points, map_affine,
                     map_affine_inverse, map_homogeneous,
                     multipliers_at_fixed, multiplicative_relation_search,
                     orbit_identities, with_mismatched_c)
from .salem import (IntPolynomial, SalemCertificate, cyclotomic, find_roots,
                    salem_certificate, salem_polynomial)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial", "SalemCertificate", "FamilyParams", "MultiplierData",
    "ProjectivePoint",
    "salem_polynomial", "find_roots", "salem_certificate", "cyclotomic",
    "build_params", "with_mismatched_c", "map_affine", "map_affine_inverse",
    "map_homogeneous", "orbit_identities",
    "fixed_points", "multipliers_at_fixed", "multiplicative_relation_search",
    "RsadynError", "ValidationError", "NotSalemError", "NumericFailureError",
    "ConsistencyError", "InternalConsistencyError", "ExceptionalLocusError",
    "IndeterminatePointError", "DegenerateParameterError", "ChartEscapeError",
    "DivisionDegeneracyError", "PatternViolationError",
    "CompositionDomainError", "StructureViolationError",
    "FixtureMismatchError", "PropertyViolationError",
]
