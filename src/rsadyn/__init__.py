"""rsadyn: positive-entropy rational surface automorphisms, computationally.

Construction and certification of the family's Salem polynomials, exact
lattice entropy, fiber-chart blowup combinatorics, resonant and
non-resonant power-series linearization, and numerical probes of the
rotation domain.
"""

from .errors import NotSalemError, RsadynError, ValidationError
from .family import (FamilyParams, MultiplierData, build_params,
                     fixed_points, map_affine, multipliers_at_fixed,
                     multiplicative_relation_search, orbit_identities,
                     with_mismatched_c)
from .salem import (IntPolynomial, SalemCertificate, cyclotomic, find_roots,
                    salem_certificate, salem_polynomial)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial", "SalemCertificate", "FamilyParams", "MultiplierData",
    "salem_polynomial", "find_roots", "salem_certificate", "cyclotomic",
    "build_params", "with_mismatched_c", "map_affine", "orbit_identities",
    "fixed_points", "multipliers_at_fixed", "multiplicative_relation_search",
    "RsadynError", "ValidationError", "NotSalemError",
]
