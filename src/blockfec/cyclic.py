"""Cyclic codes over GF(q): generator/parity polynomials, systematic
and non-systematic encoders, polynomial generator/parity matrices, and
exhaustive enumeration of the cyclic codes of a given small length."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from .errors import DegreeTooHigh, NotADivisor, TooLarge
from .linear import DecodeOutcome, LinearCode, MatrixGF, check_word
from .poly import Poly, factorize

MAX_ENUM_LENGTH = 32
MAX_ENUM_FIELD = 16


def x_n_minus_1(field, n: int) -> Poly:
    return Poly.monomial(field, n) - Poly.one(field)


class CyclicCode:
    """[n, n - deg(g)] cyclic code with monic generator g | x^n - 1."""

    def __init__(self, field, n: int, g):
        g = g if isinstance(g, Poly) else Poly(field, g)
        check_word(g.coeffs, len(g.coeffs), field.alphabet)
        if g.is_zero or g.lc != 1:
            raise NotADivisor("generator must be monic")
        if g.degree >= n:
            raise NotADivisor(f"deg(g) = {g.degree} must be < n = {n}")
        quo, rem = divmod(x_n_minus_1(field, n), g)
        if not rem.is_zero:
            raise NotADivisor(f"{g!r} does not divide x^{n} - 1")
        self.field = field
        self.subfield = field.alphabet
        self.radius = None
        self.n = n
        self.g = g
        self.h = quo
        self.k = n - int(g.degree) if g.degree >= 0 else n
        self._linear = None

    def _as_info_poly(self, u) -> Poly:
        # the length and symbols are checked as given: Poly drops trailing
        # zeros, and with them a zero that is no int, such as 0.0
        coeffs = u.coeffs if isinstance(u, Poly) else tuple(u)
        if len(coeffs) > self.k:
            raise DegreeTooHigh(f"message length {len(coeffs)} > k = {self.k}")
        check_word(coeffs, len(coeffs), self.subfield)
        return u if isinstance(u, Poly) else Poly(self.field, coeffs)

    def encode_nonsystematic(self, u) -> Poly:
        return self._as_info_poly(u) * self.g

    def encode_systematic(self, u) -> Poly:
        """c = u - x^k * ((x^(n-k) u) mod g); info occupies the first k
        coordinates, negated parity the last n - k."""
        u = self._as_info_poly(u)
        r = u.shift(self.n - self.k) % self.g
        return u - r.shift(self.k)

    def encode(self, u, systematic: bool = True):
        c = self.encode_systematic(u) if systematic else self.encode_nonsystematic(u)
        return c.to_vector(self.n)

    def matrices(self):
        """Generator rows x^i g and parity rows x^j h~ (h reversed)."""
        g_rows = [self.g.shift(i).to_vector(self.n) for i in range(self.k)]
        h_rev = self.h.reversed_coeffs()
        h_rows = [h_rev.shift(j).to_vector(self.n) for j in range(self.n - self.k)]
        return MatrixGF(self.field, g_rows), MatrixGF(self.field, h_rows)

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Coset-leader decoding of the shift-basis linear code, built
        on first use.  Systematic encoding keeps the message in the
        first k coordinates, so that is the reported info."""
        if self._linear is None:
            self._linear = LinearCode.from_generator(self.field, self.matrices()[0])
        out = self._linear.decode(word, erasures)
        return replace(out, info=out.codeword[: self.k])

    def batch_codec(self):
        """None: complete decoding runs once per trial."""
        return None

    def contains(self, word) -> bool:
        word = check_word(tuple(word), self.n, self.subfield)
        return (Poly(self.field, word) % self.g).is_zero

    def __repr__(self):
        return f"CyclicCode[{self.n},{self.k}] g={self.g!r}"


def enumerate_cyclic_codes(field, n: int, include_trivial: bool = False):
    """All monic divisors of x^n - 1 (the generator polynomials of the
    cyclic codes of length n), by brute-force factorization."""
    if n > MAX_ENUM_LENGTH or field.q > MAX_ENUM_FIELD:
        raise TooLarge(f"enumeration capped at n <= {MAX_ENUM_LENGTH}, "
                       f"q <= {MAX_ENUM_FIELD}")
    factors, _ = factorize(x_n_minus_1(field, n))
    gens = []
    ranges = [range(m + 1) for _, m in factors]
    for exps in product(*ranges):
        g = Poly.one(field)
        for (f, _), e in zip(factors, exps):
            for _ in range(e):
                g = g * f
        gens.append(g)
    gens.sort(key=lambda g: (len(g.coeffs), g.coeffs))
    if not include_trivial:
        gens = [g for g in gens if 1 <= g.degree < n]
    return gens
