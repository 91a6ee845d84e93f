"""Dense polynomials over a finite field.

Coefficients are stored lowest degree first as field-element ints with
trailing zeros stripped.  The zero polynomial has an empty coefficient
tuple and degree -inf, so degree comparisons in division loops never
need a special case.
"""

from __future__ import annotations

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field, k: int, c: int = 1) -> "Poly":
        return cls(field, (0,) * k + (c,))

    @classmethod
    def from_roots(cls, field, roots) -> "Poly":
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, (field.neg(r), 1))
        return out

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def to_vector(self, n: int):
        """Coefficients padded with zeros to length n."""
        if len(self.coeffs) > n:
            raise ValueError(f"degree {self.degree} does not fit in length {n}")
        return tuple(self.coeffs) + (0,) * (n - len(self.coeffs))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if a == (1,):
            return other
        if b == (1,):
            return self
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(a, c) for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other: "Poly"):
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        inv_lead = f.inv(other.lc)
        quo = [0] * max(0, len(rem) - dn)
        while len(rem) - 1 >= dn and rem:
            shift = len(rem) - 1 - dn
            factor = f.mul(rem[-1], inv_lead)
            quo[shift] = factor
            for i, bi in enumerate(other.coeffs):
                rem[shift + i] = f.sub(rem[shift + i], f.mul(factor, bi))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quo), Poly(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            # i mod p embeds as the constant digit of an element
            out.append(f.mul(self.coeffs[i], i % f.p))
        return Poly(f, out)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroDivisionError("zero polynomial cannot be made monic")
        return self.scale(self.field.inv(self.lc))

    def truncate(self, k: int) -> "Poly":
        """Coefficients below x^k only."""
        return Poly(self.field, self.coeffs[:k])

    def reversed_coeffs(self) -> "Poly":
        """Coefficient-reversed polynomial x^deg * f(1/x)."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = self.field.format_element(c)
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if cs == "1" else f"{cs}*{xs}")
        return "Poly(" + " + ".join(terms) + ")"


def monic_polys(field, degree: int):
    """All monic polynomials of the given degree over `field`."""
    from itertools import product

    for lows in product(field.elements(), repeat=degree):
        yield Poly(field, tuple(lows) + (1,))


def is_irreducible_poly(f: Poly) -> bool:
    """Trial division over all monic polynomials up to half degree."""
    if f.degree < 1:
        return False
    for d in range(1, int(f.degree) // 2 + 1):
        for g in monic_polys(f.field, d):
            if (f % g).is_zero:
                return False
    return True


def factorize(f: Poly):
    """Factor into monic irreducibles by trial division, ascending
    degree.  Returns (list of (factor, multiplicity), leading coeff)."""
    field = f.field
    lead = f.lc
    f = f.monic()
    out = []
    d = 1
    while f.degree >= 1:
        if d > int(f.degree) // 2:
            out.append((f, 1))  # what is left is irreducible
            break
        for g in monic_polys(field, d):
            mult = 0
            while (f % g).is_zero:
                f = f // g
                mult += 1
            if mult:
                out.append((g, mult))
        d += 1
    return out, lead
