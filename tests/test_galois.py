"""Field construction, arithmetic, conjugacy, and isomorphisms."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfec import (
    GF,
    FiniteField,
    Poly,
    conjugacy_class,
    factor_cyclotomic,
    field_isomorphism,
    is_irreducible,
    is_primitive,
    minimal_polynomial,
    subfield_elements,
)
from blockfec.errors import (
    DivisionByZero,
    InvalidSubfield,
    InvalidSymbol,
    NotIrreducible,
    NotPrime,
    NotPrimitive,
    OrderMismatch,
    TooLarge,
)
from blockfec.galois import LOG_ZERO, default_modulus


# -- table golden values -------------------------------------------------

GF8_VECTORS = ["100", "010", "001", "110", "011", "111", "101"]
GF16_VECTORS = [
    "1000", "0100", "0010", "0001", "1100", "0110", "0011", "1101",
    "1010", "0101", "1110", "0111", "1111", "1011", "1001",
]
GF9_VECTORS = ["10", "01", "12", "22", "20", "02", "21", "11"]


def table(field):
    return [field.format_element(field.exp(i), "vector") for i in range(field.q - 1)]


def test_gf8_table(gf8):
    assert table(gf8) == GF8_VECTORS


def test_gf16_table(gf16):
    assert table(gf16) == GF16_VECTORS


def test_gf9_table(gf9):
    assert table(gf9) == GF9_VECTORS
    # alpha^2 is the vector "12" (1 + 2a) and alpha^4 is the scalar 2
    assert gf9.exp(2) == gf9.element([1, 2])
    assert gf9.exp(4) == gf9.element([2, 0])


def test_defaults_match_pinned_tables():
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)
    assert FiniteField(2, 4).modulus == (1, 1, 0, 0, 1)
    assert FiniteField(3, 2).modulus == (2, 1, 1)
    assert FiniteField(2, 8).modulus == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    # generic fallback: smallest primitive by coefficient vector
    assert default_modulus(2, 2) == (1, 1, 1)


def test_gf11_uses_smallest_generator(gf11):
    assert [gf11.exp(i) for i in range(10)] == [1, 2, 4, 8, 5, 10, 9, 7, 3, 6]


# -- construction errors ---------------------------------------------------

def test_not_prime():
    with pytest.raises(NotPrime):
        FiniteField(4)


def test_field_cap_comes_before_the_primality_test():
    # from p and nu alone: trial division of 2^61 - 1 would not finish,
    # nor would forming and formatting 3^100000
    with pytest.raises(TooLarge, match="^field order 2305843009213693951 exceeds cap 65536$"):
        FiniteField(2**61 - 1)
    with pytest.raises(TooLarge, match=r"^field order 3\^100000 exceeds cap 65536$"):
        FiniteField(3, 100000)
    with pytest.raises(TooLarge, match="^field order 65537 exceeds cap 65536$"):
        FiniteField(65537)


def test_not_irreducible():
    with pytest.raises(NotIrreducible):
        FiniteField(2, 4, (1, 0, 1, 0, 1))  # (1 + x + x^2)^2


def test_irreducible_but_not_primitive_rejected():
    with pytest.raises(NotPrimitive):
        FiniteField(2, 4, (1, 1, 1, 1, 1))  # alpha^5 = 1


def test_irreducibility_predicate():
    assert is_irreducible([1, 1, 0, 0, 1], 2)
    assert not is_irreducible([1, 0, 1, 0, 1], 2)
    assert is_irreducible([1, 0, 1], 3)  # x^2 + 1 over GF(3)
    assert is_primitive([1, 1, 0, 1], 2)
    assert not is_primitive([1, 1, 1, 1, 1], 2)
    assert is_primitive([2, 1, 1], 3)


@pytest.mark.parametrize("p,nu,count", [(2, 2, 1), (2, 3, 2), (2, 4, 2), (3, 2, 2)])
def test_is_primitive_agrees_with_field_construction(p, nu, count):
    # over every monic irreducible f of degree nu; `count` is the number
    # of primitive ones, phi(p^nu - 1) / nu
    primitive = 0
    for low in itertools.product(range(p), repeat=nu):
        f = list(low) + [1]
        if not is_irreducible(f, p):
            continue
        try:
            FiniteField(p, nu, f)
            constructs = True
        except NotPrimitive:
            constructs = False
        assert is_primitive(f, p) == constructs
        primitive += constructs
    assert primitive == count


def test_is_primitive_rejects_a_multiple_of_x():
    with pytest.raises(NotIrreducible):
        is_primitive([0, 1, 1], 2)   # x + x^2: x never returns to 1


# -- arithmetic -------------------------------------------------------------

def test_log_table_multiplication(gf8):
    a = gf8.element([1, 0, 1])  # logarithm 6
    b = gf8.element([1, 1, 1])  # logarithm 5
    assert gf8.log(a) == 6 and gf8.log(b) == 5
    assert gf8.mul(a, b) == gf8.element([0, 1, 1])  # logarithm 4


def test_identities(gf16):
    for a in gf16.elements():
        assert gf16.mul(a, 1) == a
        assert gf16.add(a, 0) == a


def test_power_wraps_around(gf16):
    # alpha^7 * alpha^9 = alpha^16 = alpha; cross-checked by raw
    # polynomial multiplication modulo the defining polynomial
    f = gf16
    got = f.mul(f.exp(7), f.exp(9))
    assert got == f.exp(1)

    def naive_mul(a, b):
        ca, cb = f.coeffs(a), f.coeffs(b)
        prod = [0] * 7
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] ^= x & y
        # reduce modulo 1 + x + x^4
        for d in range(6, 3, -1):
            if prod[d]:
                prod[d] ^= 1
                prod[d - 4] ^= 1
                prod[d - 3] ^= 1
        return f.element(prod[:4])

    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.randrange(16), rng.randrange(16)
        assert f.mul(a, b) == naive_mul(a, b)


def test_zero_division(gf8):
    with pytest.raises(DivisionByZero):
        gf8.inv(0)
    with pytest.raises(DivisionByZero):
        gf8.div(1, 0)
    assert gf8.log(0) == LOG_ZERO


@given(st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)))
@settings(max_examples=300, deadline=None)
def test_distributivity_gf16(abc):
    f = FiniteField(2, 4, (1, 1, 0, 0, 1))
    a, b, c = abc
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)))
@settings(max_examples=300, deadline=None)
def test_distributivity_gf9(abc):
    f = FiniteField(3, 2, (2, 1, 1))
    a, b, c = abc
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize(
    "p,nu", [(2, 3), (2, 4), (3, 2), (2, 6), (3, 4), (5, 2), (7, 1), (2, 12)]
)
def test_field_axioms_random_triples(p, nu):
    f = FiniteField(p, nu)
    rng = random.Random(p * 100 + nu)
    for _ in range(1000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1


@pytest.mark.parametrize("p,nu", [(2, 4), (3, 2), (2, 6), (5, 2)])
def test_multiplicative_group_is_cyclic(p, nu):
    f = FiniteField(p, nu)
    powers = {f.exp(i) for i in range(f.q - 1)}
    assert len(powers) == f.q - 1
    assert 0 not in powers


def test_antilog_addition_law(gf16):
    n = gf16.q - 1
    for i in range(n):
        for j in range(n):
            assert gf16.mul(gf16.exp(i), gf16.exp(j)) == gf16.exp((i + j) % n)


def digitwise(a, b, p, sign=1):
    """a + sign*b digit by digit in radix p: the definition of addition
    that the Zech-logarithm tables must reproduce."""
    val, mult = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        val += ((ra + sign * rb) % p) * mult
        mult *= p
    return val


# every pair for q <= 251 and seeded pairs for larger fields; GF(256)
# covers the binary paths
@pytest.mark.parametrize("p,nu,pairs", [
    (3, 1, None), (7, 1, None), (3, 2, None), (5, 2, None), (3, 5, None),
    (251, 1, None), (257, 1, 10**4), (17, 2, 10**4), (3, 6, 10**4),
    (2, 8, 10**4),
])
def test_add_sub_neg_match_digitwise_oracle(p, nu, pairs):
    f = FiniteField(p, nu)
    for a in f.elements():
        assert f.neg(a) == digitwise(0, a, p, -1)
    if pairs is None:
        todo = itertools.product(f.elements(), repeat=2)
    else:
        rng = random.Random(pairs + f.q)
        todo = ((rng.randrange(f.q), rng.randrange(f.q)) for _ in range(pairs))
    for a, b in todo:
        assert f.add(a, b) == digitwise(a, b, p)
        assert f.sub(a, b) == digitwise(a, b, p, -1)


# every method that takes an element, with x in one element slot
ELEMENT_CALLS = {
    "add(x,1)": lambda f, x: f.add(x, 1),
    "add(1,x)": lambda f, x: f.add(1, x),
    "sub(x,1)": lambda f, x: f.sub(x, 1),
    "sub(1,x)": lambda f, x: f.sub(1, x),
    "neg(x)": lambda f, x: f.neg(x),
    "mul(x,1)": lambda f, x: f.mul(x, 1),
    "mul(1,x)": lambda f, x: f.mul(1, x),
    "div(x,1)": lambda f, x: f.div(x, 1),
    "div(1,x)": lambda f, x: f.div(1, x),
    "inv(x)": lambda f, x: f.inv(x),
    "pow(x,2)": lambda f, x: f.pow(x, 2),
    "log(x)": lambda f, x: f.log(x),
    "order(x)": lambda f, x: f.order(x),
    "format_element(x)": lambda f, x: f.format_element(x),
    "format_element(x,vector)": lambda f, x: f.format_element(x, "vector"),
    "coeffs(x)": lambda f, x: f.coeffs(x),
}


@pytest.mark.parametrize("call", ELEMENT_CALLS.values(), ids=ELEMENT_CALLS.keys())
@pytest.mark.parametrize("bad", ["-1", "q"])
@pytest.mark.parametrize("p,nu", [(2, 3), (3, 2)])
def test_out_of_range_element_raises(p, nu, bad, call):
    f = FiniteField(p, nu)
    with pytest.raises(InvalidSymbol):
        call(f, -1 if bad == "-1" else f.q)


@pytest.mark.parametrize("p,nu,digits", [
    (3, 2, [5, 0]), (3, 2, [0, 3]), (3, 2, [-1, 0]), (2, 3, [0, 2, 0]),
    (2, 3, [1.5, 0, 0]), (2, 3, [1.0, 0, 0]), (3, 2, ["1", 0]),
])
def test_out_of_range_digit_raises(p, nu, digits):
    # digits outside range(p) are not reduced mod p, and a digit that is
    # not an integer is outside it
    with pytest.raises(InvalidSymbol):
        FiniteField(p, nu).element(digits)


@pytest.mark.parametrize("p,nu,modulus", [
    (2, 3, (1, 1, 0, -1)), (2, 3, (3, 1, 0, 1)), (3, 2, (5, 4, 1)), (2, 3, ("1", 1, 0, 1)),
])
def test_out_of_range_modulus_digit_raises(p, nu, modulus):
    # modulus digits outside range(p) are not reduced mod p either
    with pytest.raises(InvalidSymbol, match="is not a digit of"):
        FiniteField(p, nu, modulus)


# -- conjugacy and minimal polynomials ----------------------------------------

def test_conjugacy_classes_gf16(gf16):
    e = gf16.exp
    assert set(conjugacy_class(gf16, e(5), 2)) == {e(5), e(10)}
    assert set(conjugacy_class(gf16, e(3), 4)) == {e(3), e(12)}
    assert conjugacy_class(gf16, 1, 2) == (1,)


def test_conjugacy_partition(gf16):
    seen = set()
    sizes = 0
    for a in gf16.nonzero():
        if a in seen:
            continue
        cls = set(conjugacy_class(gf16, a, 2))
        assert not (cls & seen)
        seen |= cls
        sizes += len(cls)
    assert sizes == gf16.q - 1


def test_minimal_polynomials_gf16(gf16):
    e = gf16.exp
    assert minimal_polynomial(gf16, e(3), 2) == Poly(gf16, (1, 1, 1, 1, 1))
    assert minimal_polynomial(gf16, e(1), 2) == Poly(gf16, (1, 1, 0, 0, 1))
    assert minimal_polynomial(gf16, e(7), 2) == Poly(gf16, (1, 0, 0, 1, 1))
    assert minimal_polynomial(gf16, e(5), 2) == Poly(gf16, (1, 1, 1))
    assert minimal_polynomial(gf16, 1, 2) == Poly(gf16, (1, 1))


def test_minimal_polynomials_gf16_over_gf4(gf16):
    e = gf16.exp
    expected = {
        1: (1, 1),
        e(1): (e(5), 1, 1),
        e(2): (e(10), 1, 1),
        e(3): (1, e(10), 1),
        e(5): (e(5), 1),
        e(6): (1, e(5), 1),
        e(7): (e(5), e(5), 1),
        e(10): (e(10), 1),
        e(11): (e(10), e(10), 1),
    }
    for beta, coeffs in expected.items():
        assert minimal_polynomial(gf16, beta, 4) == Poly(gf16, coeffs)


def test_minimal_polynomial_properties(gf16):
    xq = Poly.monomial(gf16, gf16.q - 1) - Poly.one(gf16)
    for a in gf16.nonzero():
        for sub in (2, 4):
            f = minimal_polynomial(gf16, a, sub)
            assert f(a) == 0
            assert f.lc == 1
            assert (xq % f).is_zero


def test_invalid_subfield(gf16):
    with pytest.raises(InvalidSubfield):
        conjugacy_class(gf16, 1, 8)
    with pytest.raises(InvalidSubfield):
        subfield_elements(gf16, 8)


def test_subfield_elements(gf16):
    e = gf16.exp
    assert subfield_elements(gf16, 4) == frozenset({0, 1, e(5), e(10)})
    assert subfield_elements(gf16, 16) == frozenset(gf16.elements())
    f64 = FiniteField(2, 6)
    expected = frozenset({0, 1} | {f64.exp(9 * i) for i in range(1, 7)})
    assert subfield_elements(f64, 8) == expected
    assert subfield_elements(f64, 4) == frozenset(
        {0, 1, f64.exp(21), f64.exp(42)}
    )
    # exactly the solutions of a^q' = a
    assert subfield_elements(gf16, 4) == frozenset(
        a for a in gf16.elements() if gf16.pow(a, 4) == a or a == 0
    )


def test_factor_cyclotomic_gf8(gf8):
    factors = factor_cyclotomic(gf8, 2)
    assert set(factors) == {
        Poly(gf8, (1, 1)),
        Poly(gf8, (1, 1, 0, 1)),
        Poly(gf8, (1, 0, 1, 1)),
    }


def test_factor_cyclotomic_gf32():
    f32 = FiniteField(2, 5)
    factors = factor_cyclotomic(f32, 2)
    degrees = sorted(int(f.degree) for f in factors)
    assert degrees == [1, 5, 5, 5, 5, 5, 5]


def test_factor_cyclotomic_gf4():
    f4 = FiniteField(2, 2)
    factors = factor_cyclotomic(f4, 2)
    assert set(factors) == {Poly(f4, (1, 1)), Poly(f4, (1, 1, 1))}


# -- isomorphisms --------------------------------------------------------------

def test_isomorphism_between_gf9_presentations(gf9):
    f2 = FiniteField(3, 2, (2, 2, 1))
    h = field_isomorphism(gf9, f2)
    assert h[gf9.exp(1)] == f2.exp(5)
    expected_logs = {0: None, 1: 5, 2: 2, 3: 7, 4: 4, 5: 1, 6: 6, 7: 3}
    for i, lg in expected_logs.items():
        if lg is not None:
            assert h[gf9.exp(i)] == f2.exp(lg)
    assert h[0] == 0 and h[1] == 1


def test_isomorphism_identity(gf16):
    h = field_isomorphism(gf16, gf16)
    assert all(h[a] == a for a in gf16.elements())


def test_isomorphism_gf16_presentations(gf16):
    other = FiniteField(2, 4, (1, 0, 0, 1, 1))
    h = field_isomorphism(gf16, other)
    # smallest exponent i coprime to 15 with 1 + b^i + b^4i = 0
    i = other.log(h[gf16.exp(1)])
    candidates = [
        j for j in range(1, 15)
        if __import__("math").gcd(j, 15) == 1
        and other.add(other.add(1, other.exp(j)), other.exp(4 * j)) == 0
    ]
    assert i == min(candidates)


@pytest.mark.parametrize(
    "pair",
    [
        ((3, 2, (2, 1, 1)), (3, 2, (2, 2, 1))),
        ((2, 4, (1, 1, 0, 0, 1)), (2, 4, (1, 0, 0, 1, 1))),
        ((2, 3, (1, 1, 0, 1)), (2, 3, (1, 0, 1, 1))),
    ],
)
def test_isomorphism_preserves_structure_exhaustively(pair):
    (p1, n1, m1), (p2, n2, m2) = pair
    f1, f2 = FiniteField(p1, n1, m1), FiniteField(p2, n2, m2)
    h = field_isomorphism(f1, f2)
    for a in f1.elements():
        for b in f1.elements():
            assert h[f1.add(a, b)] == f2.add(h[a], h[b])
            assert h[f1.mul(a, b)] == f2.mul(h[a], h[b])


def test_isomorphism_order_mismatch(gf8, gf16):
    with pytest.raises(OrderMismatch):
        field_isomorphism(gf8, gf16)


# -- element parsing / rendering ----------------------------------------------

def test_parse_and_format_roundtrip(gf16, gf9, gf11):
    for field in (gf16, gf9, gf11):
        for a in field.elements():
            for style in ("log", "vector"):
                assert field.parse_element(field.format_element(a, style)) == a
    assert gf11.parse_element("10") == 10


def generic_parse_element(self, text):
    """`FiniteField.parse_element` before its digit-group shortcut, frozen."""
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


def parse_outcome(parse, field, text):
    """The value, or the exception's type and message."""
    try:
        return parse(field, text)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


ODD_SYMBOLS = ["00000", "0_11", "+011", "-011", " 0011 ", "2222", "0x1f", "١٠٠١",
               "０１０１", "", "a", "a-1", "1.0.1", "²", "10", "011", "0 1", "9"]


# GF(37^2): a prime above 36, the largest base int() takes
@pytest.mark.parametrize("p,nu", [(2, 1), (2, 3), (2, 4), (3, 2), (11, 1), (5, 2), (3, 3),
                                  (2, 8), (7, 2), (37, 2)])
def test_digit_groups_parse_as_the_generic_parser_does(p, nu):
    field = GF(p, nu)
    texts = [field.format_element(a, style) for a in field.elements()
             for style in ("vector", "log")]
    texts += ODD_SYMBOLS
    if field.q <= 27:   # every ASCII digit string up to one digit too long
        texts += ["".join(ds) for w in range(1, nu + 2)
                  for ds in itertools.product("0123456789", repeat=w)]
    for text in texts:
        want = parse_outcome(generic_parse_element, field, text)
        assert parse_outcome(FiniteField.parse_element, field, text) == want, text
