"""BCH codes as subfield subcodes of Reed-Solomon codes.

The generator is the product of the distinct minimal polynomials of the
designed consecutive roots; decoding runs in the big field through the
Reed-Solomon decoder and keeps only corrections inside the subfield.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InvalidParams
from .cyclic import CyclicCode
from .galois import minimal_polynomial, subfield_elements
from .linear import DecodeOutcome, received
from .poly import Poly
from .reed_solomon import RSCode


class BCHCode:
    """Codewords of the underlying [n, n-(designed_d-1)] RS code whose
    symbols all lie in the subfield GF(sub_order)."""

    def __init__(self, field, sub_order: int, designed_d: int, m0: int = 1):
        n = field.q - 1
        if not 2 <= designed_d <= n:
            raise InvalidParams(f"designed distance {designed_d} out of range")
        self.field = field
        self.sub_order = sub_order
        self.n = n
        self.designed_d = designed_d
        self.m0 = m0
        self.subfield = subfield_elements(field, sub_order)
        self.radius = (designed_d - 1) // 2

        g = Poly.one(field)
        seen = set()
        for j in range(m0, m0 + designed_d - 1):
            root = field.exp(j)
            if root in seen:
                continue
            f_min = minimal_polynomial(field, root, sub_order)
            seen.update(r for r in field.nonzero() if f_min(r) == 0)
            g = g * f_min
        self.g = g
        self.k = n - int(g.degree)
        self.rs = RSCode(field, n, n - (designed_d - 1), m0=m0)
        self._cyclic = CyclicCode(field, n, g)
        # messages are checked against the subfield, not the big field
        self._cyclic.subfield = self.subfield

    def encode(self, u, systematic: bool = True):
        return self._cyclic.encode(u, systematic=systematic)

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Decode up to the designed distance through the big-field RS
        decoder; a correction that leaves the subfield is uncorrectable.
        Over GF(2) the error values come out as 1, so this is the
        bit-flip decoder."""
        out = self.rs.decode(received(self, word, erasures))
        if not out.corrected or not self.subfield.issuperset(out.codeword):
            return DecodeOutcome.failure()
        return replace(out, info=out.codeword[: self.k])

    def __repr__(self):
        return (f"BCHCode[{self.n},{self.k}] over GF({self.sub_order}) "
                f"designed_d={self.designed_d}")
