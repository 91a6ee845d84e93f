"""Dense polynomials over a finite field.

Coefficients are stored lowest degree first as field-element ints with
trailing zeros stripped.  The zero polynomial has an empty coefficient
tuple and degree -inf, so degree comparisons in division loops never
need a special case.

The inner loops of evaluation, multiplication, division, scaling and
the derivative index the field's zero-padded tables directly instead
of calling its methods.  `_exp_pad` lists the powers of alpha twice
and then 2(q-1) + 1 zeros; `_log_pad[0]` = 2(q-1) points at the first
of those zeros, so ``exp[log[a] + log[b]]`` is a*b even when a or b is
zero, with no branch and no reduction mod q - 1.  Horner's step is
``acc = exp[log[acc] + log[x]] ^ c`` in characteristic 2, where adding
is XOR; other characteristics add through the field's `add`.
"""

from __future__ import annotations

from operator import xor

NEG_INF = float("-inf")


class Poly:
    """A polynomial over `field`.  Immutable: no operation changes its
    coefficient tuple, so one Poly may be shared between decode outcomes."""

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
        add = xor if f.p == 2 else f.add
        return Poly(f, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> "Poly":
        f = self.field
        if f.p == 2:
            return self
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
        exp, log = f._exp_pad, f._log_pad
        lb = [log[bj] for bj in b]
        out = [0] * (len(a) + len(b) - 1)
        add = xor if f.p == 2 else f.add
        for i, ai in enumerate(a):
            if ai:
                la = log[ai]
                for j, lbj in enumerate(lb, i):
                    out[j] = add(out[j], exp[la + lbj])
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        exp, log = f._exp_pad, f._log_pad
        lc = log[c]
        return Poly(f, [exp[log[a] + lc] for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other: "Poly"):
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        exp, log = f._exp_pad, f._log_pad
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        lb = [log[bi] for bi in other.coeffs[:-1]]
        l_inv = log[f.inv(other.lc)]
        # h = log(-1), 0 for p = 2, so log(-a) = log(a) + h mod q - 1
        h, order = f._log_minus_one, f.q - 1
        quo = [0] * max(0, len(rem) - dn)
        add = xor if f.p == 2 else f.add
        for shift in range(len(quo) - 1, -1, -1):
            top = rem[shift + dn]
            if not top:
                continue
            lt = log[top] + l_inv
            quo[shift] = exp[lt]
            # subtracting quo[shift] * b_i is adding exp[lf + lb_i], with
            # lf = log(-quo[shift]) reduced to stay inside the padded table
            lf = (lt + h) % order
            for j, lbj in enumerate(lb, shift):
                rem[j] = add(rem[j], exp[lf + lbj])
        return Poly(f, quo), Poly(f, rem[:dn])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        f = self.field
        exp, log = f._exp_pad, f._log_pad
        lx = log[x]
        acc = 0
        if f.p == 2:
            for c in reversed(self.coeffs):
                acc = exp[log[acc] + lx] ^ c
        else:
            add = f.add
            for c in reversed(self.coeffs):
                acc = add(exp[log[acc] + lx], c)
        return acc

    def derivative(self) -> "Poly":
        f = self.field
        exp, log, p = f._exp_pad, f._log_pad, f.p
        # i mod p embeds as the constant digit of an element
        return Poly(f, [exp[log[c] + log[i % p]]
                        for i, c in enumerate(self.coeffs[1:], 1)])

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
