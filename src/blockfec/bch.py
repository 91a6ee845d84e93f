"""BCH codes as cyclic subfield subcodes of Reed-Solomon codes.

A BCH code is the cyclic code whose generator is the product of the
distinct minimal polynomials of the designed consecutive roots, with
the subfield as its alphabet.  Decoding runs in the big field through
the Reed-Solomon decoder and keeps only corrections inside the subfield.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InvalidParams
from .cyclic import CyclicCode
from .galois import conjugacy_class, minimal_polynomial, subfield_elements
from .linear import (DecodeOutcome, own_decoders, radius_codec, received,
                     runs_own_decoders)
from .poly import Poly
from .reed_solomon import RSCode


@own_decoders("decode")
class BCHCode(CyclicCode):
    """The cyclic code of g over GF(sub_order): the codewords of the
    underlying [n, n-(designed_d-1)] RS code whose symbols all lie in
    the subfield."""

    def __init__(self, field, sub_order: int, designed_d: int, m0: int = 1):
        n = field.q - 1
        if not 2 <= designed_d <= n:
            raise InvalidParams(f"designed distance {designed_d} out of range")
        subfield = subfield_elements(field, sub_order)
        g, seen = Poly.one(field), set()
        for j in range(m0, m0 + designed_d - 1):
            root = field.exp(j)
            if root not in seen:
                seen.update(conjugacy_class(field, root, sub_order))
                g = g * minimal_polynomial(field, root, sub_order)
        super().__init__(field, n, g)
        self.subfield = subfield
        self.radius = (designed_d - 1) // 2
        self.designed_d = designed_d
        self.m0 = m0
        self.rs = RSCode(field, n, n - (designed_d - 1), m0=m0)

    # defined here as well, so that BCH encodes can be wrapped by name
    def encode(self, u, systematic: bool = True):
        return super().encode(u, systematic)

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Decode up to the designed distance through the big-field RS
        decoder; a correction that leaves the subfield is uncorrectable.
        Over GF(2) the error values come out as 1, so this is the
        bit-flip decoder."""
        out = self.rs.decode(received(self, word, erasures))
        if not out.corrected or not self.subfield.issuperset(out.codeword):
            return DecodeOutcome.failure()
        return replace(out, info=out.codeword[: self.k])

    def batch_codec(self):
        """`radius_codec` if `runs_own_decoders` holds for this code and its `rs`."""
        own = runs_own_decoders(self, BCHCode) and runs_own_decoders(self.rs, RSCode)
        return radius_codec(self) if own else None

    def __repr__(self):
        return (f"BCHCode[{self.n},{self.k}] over GF({len(self.subfield)}) "
                f"designed_d={self.designed_d}")
