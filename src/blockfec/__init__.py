"""Block error-correcting codes over finite fields.

Finite-field construction, generic linear codes with standard-array
machinery, Hamming and Golay codes, cyclic codes, Reed-Solomon and BCH
encoding/decoding (errors and erasures), burst correction through
interleaving and product codes, and binary-symmetric-channel analysis.
"""

import sys

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
from . import linear, reed_solomon

__version__ = "0.1.0"

# every class and function imported above is public
__all__ = sorted(name for name, value in globals().items()
                 if callable(value) and value.__module__.startswith(__name__))

# last, once every module is loaded: the library as imported, which the
# trust rule of every batch codec holds the live one to
linear.snapshot_library(
    [module for name, module in sys.modules.items() if name.startswith(__name__ + ".")],
    codecs=(linear.ArrayCodec, linear.PackedMap, reed_solomon.BatchCoder))
