"""Block error-correcting codes over finite fields.

Finite-field construction, generic linear codes with standard-array
machinery, Hamming and Golay codes, cyclic codes, Reed-Solomon and BCH
encoding/decoding (errors and erasures), burst correction through
interleaving and product codes, and binary-symmetric-channel analysis.
"""

from .bch import BCHCode
from .burst import (
    BurstPattern,
    InterleavedCode,
    ProductCode,
    ProductDecodePolicy,
    SerialProduct,
    burst_span,
    is_burst,
    product_min_distance,
    reiger_report,
    rs_binary_burst_efficiency,
)
from .channel import (
    EventPolynomial,
    capacity,
    event_polynomials,
    monte_carlo,
    perr_bound,
    perr_first_term,
    round_to_places,
)
from .cyclic import CyclicCode, enumerate_cyclic_codes
from .errors import FecError
from .galois import (
    GF,
    FiniteField,
    conjugacy_class,
    factor_cyclotomic,
    field_isomorphism,
    is_irreducible,
    is_primitive,
    minimal_polynomial,
    subfield_elements,
)
from .linear import (
    DecodeOutcome,
    LinearCode,
    MatrixGF,
    ReceivedWord,
    StandardArray,
    hamming_distance,
    hamming_weight,
    ml_decode,
    parity_from_generator,
    systematic_form,
)
from .named_codes import GolayCode, HammingCode, golay23_decode, golay24_decode
from .poly import Poly
from .reed_solomon import KeyEquationState, RSCode, euclid_key_equation

__version__ = "0.1.0"

__all__ = [
    "BCHCode",
    "BurstPattern",
    "CyclicCode",
    "DecodeOutcome",
    "EventPolynomial",
    "FecError",
    "FiniteField",
    "GF",
    "GolayCode",
    "HammingCode",
    "InterleavedCode",
    "KeyEquationState",
    "LinearCode",
    "MatrixGF",
    "Poly",
    "ProductCode",
    "ProductDecodePolicy",
    "ReceivedWord",
    "RSCode",
    "SerialProduct",
    "StandardArray",
    "burst_span",
    "capacity",
    "conjugacy_class",
    "enumerate_cyclic_codes",
    "euclid_key_equation",
    "event_polynomials",
    "factor_cyclotomic",
    "field_isomorphism",
    "golay23_decode",
    "golay24_decode",
    "hamming_distance",
    "hamming_weight",
    "is_burst",
    "is_irreducible",
    "is_primitive",
    "minimal_polynomial",
    "ml_decode",
    "monte_carlo",
    "parity_from_generator",
    "perr_bound",
    "perr_first_term",
    "product_min_distance",
    "reiger_report",
    "round_to_places",
    "rs_binary_burst_efficiency",
    "subfield_elements",
    "systematic_form",
]
