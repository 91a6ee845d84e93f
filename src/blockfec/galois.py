"""Finite fields GF(p^nu) with full log/antilog tables.

An element of GF(p^nu) is stored as a plain int in ``range(q)`` that
packs its coefficient vector (a_0, a_1, ..., a_{nu-1}) in radix p:
``a_0 + a_1*p + a_2*p^2 + ...``.  For p = 2 this makes elements the
usual bitmask integers and addition a XOR.  Every field keeps one
log/antilog table pair of a primitive element, built by `_exp_table`
(a prime field's modulus is x - g for its smallest generator g), so the
defining polynomial must be primitive, not merely irreducible.
Multiplication and negation go through that pair, and so does addition
in odd characteristic, through one table of Zech logarithms
log(1 + alpha^i).  The tables are zero-padded (see
`FiniteField.__init__`) so that a product is one index, and the
polynomial kernels index them directly too.

The module-level checks on defining polynomials take coefficient lists
over the prime field GF(p), lowest degree first, and run on `Poly`
over the table-backed prime field.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from numbers import Integral

from .errors import (
    DivisionByZero,
    InvalidSubfield,
    InvalidSymbol,
    NotIrreducible,
    NotPrime,
    NotPrimitive,
    OrderMismatch,
    TooLarge,
)
from .poly import Poly, is_irreducible_poly, monic_polys

MAX_FIELD_ORDER = 1 << 16

# Defaults pinned so that generated tables reproduce the classical
# textbook tables digit for digit.
_DEFAULT_MODULUS = {
    (2, 3): (1, 1, 0, 1),              # 1 + x + x^3
    (2, 4): (1, 1, 0, 0, 1),           # 1 + x + x^4
    (3, 2): (2, 1, 1),                 # 2 + x + x^2
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),  # 1 + x^2 + x^3 + x^4 + x^8
}

LOG_ZERO = float("-inf")


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def is_irreducible(f, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2;
    f is a coefficient list over GF(p), lowest degree first."""
    return is_irreducible_poly(Poly(GF(p), f))


def _pack(coeffs, p: int) -> int:
    """Radix-p packing of a coefficient vector, lowest degree first."""
    val = 0
    for c in reversed(coeffs):
        val = val * p + c
    return val


def _exp_table(modulus, p: int):
    """[x^0, x^1, ..., x^(q-2)] modulo the monic `modulus` over GF(p),
    each packed in radix p, where q = p^deg(modulus)."""
    nu = len(modulus) - 1
    exp = [0] * (p**nu - 1)
    vec = [1] + [0] * (nu - 1)
    for i in range(len(exp)):
        exp[i] = _pack(vec, p)
        # multiply by x, reduce by the modulus
        carry = vec[-1]
        vec = [0] + vec[:-1]
        if carry:
            for j in range(nu):
                vec[j] = (vec[j] - carry * modulus[j]) % p
    return exp


def is_primitive(f, p: int) -> bool:
    """True iff the residue class of x mod f generates the whole
    multiplicative group: x^i mod f does not return to 1 before step
    p^deg(f) - 1.  Requires f irreducible; raises NotIrreducible when x
    divides f, as x then never returns to 1."""
    f = Poly(GF(p), f).monic()
    if f.coeffs[0] == 0:
        raise NotIrreducible(f"{list(f.coeffs)} has no well-defined order; "
                             "not irreducible")
    return 1 not in _exp_table(f.coeffs, p)[1:]


def default_modulus(p: int, nu: int):
    """The pinned default primitive polynomial for (p, nu), falling back
    to the lexicographically smallest one by coefficient vector."""
    if (p, nu) in _DEFAULT_MODULUS:
        return _DEFAULT_MODULUS[(p, nu)]
    for f in monic_polys(GF(p), nu):
        if f.coeffs[0] == 0:
            continue  # divisible by x
        if is_irreducible_poly(f) and is_primitive(f.coeffs, p):
            return f.coeffs
    raise NotPrimitive(f"no primitive polynomial of degree {nu} over GF({p})")


def _smallest_generator(p: int) -> int:
    for g in range(2, p):
        k, acc = 1, g
        while acc != 1:
            acc = (acc * g) % p
            k += 1
        if k == p - 1:
            return g
    return 1  # p == 2


class FiniteField:
    """GF(p^nu) backed by log/antilog tables.

    Parameters
    ----------
    p : prime characteristic
    nu : extension degree (>= 1)
    modulus : coefficients of the defining polynomial, lowest first,
        length nu + 1 and monic; None selects the pinned default.
        Must be primitive.  Ignored (and required absent) for nu = 1.
    """

    def __init__(self, p: int, nu: int = 1, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if nu < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**nu
        if q > MAX_FIELD_ORDER:
            raise TooLarge(f"field order {q} exceeds cap {MAX_FIELD_ORDER}")
        self.p = p
        self.nu = nu
        self.q = q
        # the symbol alphabet, as a set for one-call word checks
        self.alphabet = frozenset(range(q))

        if nu == 1:
            if modulus is not None:
                raise ValueError("prime fields take no defining polynomial")
            self.modulus = None
            # x mod (x - g) is g, so this modulus lists the powers of g
            modulus = ((p - _smallest_generator(p)) % p, 1)
        else:
            if modulus is None:
                modulus = default_modulus(p, nu)
            modulus = tuple(modulus)
            bad = [c for c in modulus if c not in range(p)]
            if bad:
                raise InvalidSymbol(f"{bad[0]!r} is not a digit of GF({p})")
            modulus = tuple(map(int, modulus))
            if len(modulus) != nu + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {nu}")
            if not is_irreducible(list(modulus), p):
                raise NotIrreducible(f"{list(modulus)} factors over GF({p})")
            self.modulus = modulus
        exp = _exp_table(modulus, p)
        # the table lists x^i mod f: x is primitive iff it does not
        # return to 1 before q - 1 steps
        if 1 in exp[1:]:
            raise NotPrimitive(f"{list(modulus)} is irreducible but not primitive")

        # The one log/exp table pair, zero-padded (odd p adds the Zech
        # table below): _exp_pad holds exp twice, then 2(q-1) + 1 zeros,
        # and _log_pad[0] = 2(q-1) points at the first of those zeros.
        # Then _exp_pad[_log_pad[a] + _log_pad[b]] is a*b for every a and
        # b, zero included, with no zero test and no reduction mod q - 1.
        zero_log = 2 * (q - 1)
        self._exp_pad = exp + exp + [0] * (zero_log + 1)
        self._log_pad = [zero_log] * q
        for i, v in enumerate(exp):
            self._log_pad[v] = i
        self.alpha = exp[1] if q > 2 else 1
        # log(-1): -1 = alpha^((q-1)/2) in odd characteristic, 1 for p = 2
        self._log_minus_one = 0 if p == 2 else (q - 1) // 2
        # Zech logarithms for odd p: _zech[i] = log(1 + alpha^i), where
        # 1 + v raises v's radix-p digit 0 by one; zero_log when
        # 1 + alpha^i = 0.  Then a + b = alpha^(la + _zech[lb - la]).
        if p != 2:
            self._zech = [self._log_pad[v - v % p + (v + 1) % p] for v in exp]

    # -- element packing ------------------------------------------------

    def element(self, coeffs) -> int:
        """Build an element from its coefficient vector (low first)."""
        coeffs = list(coeffs)
        if len(coeffs) != self.nu:
            raise ValueError(f"need {self.nu} coefficients, got {len(coeffs)}")
        bad = [c for c in coeffs if not isinstance(c, Integral) or not 0 <= c < self.p]
        if bad:
            raise InvalidSymbol(f"{bad[0]!r} is not a digit of GF({self.p})")
        return _pack(coeffs, self.p)

    def coeffs(self, a: int):
        """Coefficient vector (a_0, ..., a_{nu-1}) of an element."""
        if not 0 <= a < self.q:
            raise self._outside(a)
        out = []
        for _ in range(self.nu):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    # -- arithmetic -----------------------------------------------------

    def _outside(self, *elements) -> InvalidSymbol:
        """The error for the first of `elements` outside range(q)."""
        bad = next(a for a in elements if not 0 <= a < self.q)
        return InvalidSymbol(f"{bad!r} is not an element of {self}")

    def add(self, a: int, b: int) -> int:
        q = self.q
        if not (0 <= a < q and 0 <= b < q):
            raise self._outside(a, b)
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log_pad[a]
        return self._exp_pad[la + self._zech[(self._log_pad[b] - la) % (q - 1)]]

    def neg(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise self._outside(a)
        # zero lands in the zero tail
        return self._exp_pad[self._log_pad[a] + self._log_minus_one]

    def sub(self, a: int, b: int) -> int:
        if self.p != 2:
            return self.add(a, self.neg(b))
        q = self.q
        if not (0 <= a < q and 0 <= b < q):
            raise self._outside(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        q = self.q
        if not (0 <= a < q and 0 <= b < q):
            raise self._outside(a, b)
        return self._exp_pad[self._log_pad[a] + self._log_pad[b]]

    def inv(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise self._outside(a)
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return self._exp_pad[self.q - 1 - self._log_pad[a]]

    def div(self, a: int, b: int) -> int:
        q = self.q
        if not (0 <= a < q and 0 <= b < q):
            raise self._outside(a, b)
        if b == 0:
            raise DivisionByZero("division by zero")
        # a zero dividend lands in the zero tail
        return self._exp_pad[self._log_pad[a] + q - 1 - self._log_pad[b]]

    def pow(self, a: int, e: int) -> int:
        if not 0 <= a < self.q:
            raise self._outside(a)
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        return self._exp_pad[self._log_pad[a] * e % (self.q - 1)]

    def exp(self, e: int) -> int:
        """alpha^e (exponent reduced mod q - 1)."""
        return self._exp_pad[e % (self.q - 1)]

    def log(self, a: int):
        """Logarithm of a, or LOG_ZERO (-inf) for the zero element."""
        if not 0 <= a < self.q:
            raise self._outside(a)
        if a == 0:
            return LOG_ZERO
        return self._log_pad[a]

    def order(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise self._outside(a)
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        return (self.q - 1) // gcd(self.q - 1, self._log_pad[a])

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    # -- rendering ------------------------------------------------------

    def format_element(self, a: int, style: str = "log") -> str:
        if not 0 <= a < self.q:
            raise self._outside(a)
        if style == "vector":
            sep = "" if self.p <= 10 else "."
            return sep.join(str(c) for c in self.coeffs(a))
        if a == 0:
            return "0"
        k = self._log_pad[a]
        return "1" if k == 0 else f"a{k}"

    def parse_element(self, text: str) -> int:
        """Accepts '0', '1', 'a', 'a<k>', a radix-p digit group, or
        (for 8-bit byte fields) a 0x-prefixed hex byte."""
        text = text.strip()
        if text == "0":
            return 0
        if text == "1":
            return 1
        if text.startswith("0x") and self.p == 2 and self.nu == 8:
            val = int(text, 16)
            if not 0 <= val < self.q:
                raise ValueError(f"{text!r} out of range for {self}")
            return val
        if text in ("a", "A"):
            return self.exp(1)
        if text.startswith(("a", "A")) and text[1:].lstrip("-").isdigit():
            return self.exp(int(text[1:]))
        if self.nu == 1 and text.isdigit() and int(text) < self.p:
            return int(text)
        digits = text.split(".") if "." in text else list(text)
        if len(digits) == self.nu and all(d.isdigit() for d in digits):
            vals = [int(d) for d in digits]
            if all(v < self.p for v in vals):
                return self.element(vals)
        raise ValueError(f"cannot parse {text!r} as an element of {self}")

    def poly_one_letter(self, a: int) -> str:
        """Element as a polynomial in 'a', e.g. '1+2a' over GF(9)."""
        if a == 0:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs(a)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                coeff = "" if c == 1 else str(c)
                power = "a" if i == 1 else f"a^{i}"
                terms.append(coeff + power)
        return "+".join(terms)

    def spec_string(self) -> str:
        """Canonical 'GF(p^nu)[c0,...,cnu]' description."""
        if self.modulus is None:
            return f"GF({self.p}^1)"
        inner = ",".join(str(c) for c in self.modulus)
        return f"GF({self.p}^{self.nu})[{inner}]"

    def __repr__(self):
        return f"FiniteField({self.spec_string()})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.nu, self.modulus)
            == (other.p, other.nu, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.nu, self.modulus))


@lru_cache(maxsize=None)
def GF(p: int, nu: int = 1, modulus=None) -> FiniteField:
    """Cached field constructor; `modulus` must be hashable (tuple)."""
    return FiniteField(p, nu, modulus)


# ----------------------------------------------------------------------
# Subfields, conjugacy, minimal polynomials, isomorphisms.
# ----------------------------------------------------------------------

def _subfield_degree(field: FiniteField, q_sub: int) -> int:
    """Return b' where q_sub = p^b', validating subfield structure."""
    p, b = field.p, field.nu
    bp, rest = 0, q_sub
    while rest % p == 0:
        rest //= p
        bp += 1
    if rest != 1 or bp < 1 or b % bp != 0:
        raise InvalidSubfield(f"GF({q_sub}) is not a subfield of GF({field.q})")
    return bp


def subfield_elements(field: FiniteField, q_sub: int) -> frozenset:
    """{0} together with the powers of alpha^((q-1)/(q_sub-1))."""
    _subfield_degree(field, q_sub)
    step = (field.q - 1) // (q_sub - 1)
    return frozenset([0] + [field.exp(step * i) for i in range(q_sub - 1)])


def conjugacy_class(field: FiniteField, beta: int, q_sub: int) -> tuple:
    """Orbit of beta under repeated q_sub-th powers, in orbit order."""
    _subfield_degree(field, q_sub)
    out = [beta]
    nxt = field.pow(beta, q_sub) if beta else 0
    while nxt != beta:
        out.append(nxt)
        nxt = field.pow(nxt, q_sub)
    return tuple(out)


def minimal_polynomial(field: FiniteField, beta: int, q_sub: int) -> Poly:
    """Monic product of (x - gamma) over the conjugates of beta; the
    coefficients land in the subfield of order q_sub."""
    cls = conjugacy_class(field, beta, q_sub)
    f = Poly.from_roots(field, cls)
    members = subfield_elements(field, q_sub)
    if any(c not in members for c in f.coeffs):
        raise InvalidSubfield(f"conjugate product {f!r} left GF({q_sub})")
    return f


def factor_cyclotomic(field: FiniteField, q_sub: int):
    """Distinct minimal polynomials of the nonzero elements; their
    product is x^(q-1) - 1."""
    seen = set()
    factors = []
    for a in field.nonzero():
        if a in seen:
            continue
        cls = conjugacy_class(field, a, q_sub)
        seen.update(cls)
        factors.append(minimal_polynomial(field, a, q_sub))
    factors.sort(key=lambda f: (len(f.coeffs), f.coeffs))
    prod = Poly.one(field)
    for f in factors:
        prod = prod * f
    target = Poly.monomial(field, field.q - 1) - Poly.one(field)
    if prod != target:
        raise InvalidSubfield("cyclotomic factors do not multiply back")
    return factors


def field_isomorphism(f1: FiniteField, f2: FiniteField) -> dict:
    """Map h: f1 -> f2 with h(alpha) = beta^i, where beta^i is the
    smallest primitive power whose minimal polynomial over GF(p) equals
    f1's defining polynomial.  Returned as an element-to-element dict."""
    if f1.q != f2.q:
        raise OrderMismatch(f"|{f1}| != |{f2}|")
    if f1.nu == 1:
        return {a: a for a in f1.elements()}
    n = f1.q - 1
    # f1's defining polynomial over f2 (GF(p) coefficients embed
    # directly as low-digit elements)
    f1_modulus = Poly(f2, f1.modulus)
    for i in range(1, n):
        if gcd(i, n) == 1 and f1_modulus(f2.exp(i)) == 0:
            h = {0: 0}
            for j in range(n):
                h[f1.exp(j)] = f2.exp(i * j % n)
            return h
    raise OrderMismatch("no image of alpha found; fields not isomorphic")
