"""Exact computation with generalized de Jonquieres transformations.

Subpackages:
  polycore    exact sparse polynomials over Q / F_p, text grammar
  groebner    Buchberger engine, elimination, colon ideals, Hilbert series,
              signature-based regularity test (is_regular), coprime
  resolutions syzygies; Betti tables from a Schreyer frame
  cremona     inversion certificates from four forms, generic composition
  dejonq      identity-support de Jonquieres maps, downgrading, structure
  rees        blowup presentation ideal, structure theorems, conjecture probe
  cli         batch front end (`jonq` command)
"""

from .orders import GREVLEX, GRLEX, LEX, MonomialOrder, elimination_order
from .polycore import (
    JonqError,
    ParseError,
    Polynomial,
    RingSpec,
    ZERO_DEGREE,
    format_polynomial,
    parse_polynomial,
)

__version__ = "0.1.0"
__all__ = [
    "GREVLEX", "GRLEX", "LEX", "MonomialOrder", "elimination_order",
    "JonqError", "ParseError", "Polynomial", "RingSpec", "ZERO_DEGREE",
    "format_polynomial", "parse_polynomial", "__version__",
]
