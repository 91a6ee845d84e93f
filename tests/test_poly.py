"""The table-driven Poly kernels against schoolbook arithmetic written
with the field's own add/mul, over binary, odd-characteristic and
extension fields, including GF(17^2), whose odd-p adds (q > 256) run
without an add table."""

import random

import pytest

from blockfec import FiniteField, Poly

FIELDS = {
    "GF(2)": FiniteField(2),
    "GF(3)": FiniteField(3),
    "GF(8)": FiniteField(2, 3),
    "GF(9)": FiniteField(3, 2),
    "GF(16)": FiniteField(2, 4),
    "GF(256)": FiniteField(2, 8),
    "GF(17^2)": FiniteField(17, 2),
}
TRIALS = 60


def strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_eval(f, c, x):
    acc, power = 0, 1
    for ci in c:
        acc = f.add(acc, f.mul(ci, power))
        power = f.mul(power, x)
    return acc


def ref_mul(f, a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return strip(out)


def ref_divmod(f, a, b):
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = f.inv(b[-1])
    for shift in range(len(quo) - 1, -1, -1):
        factor = f.mul(rem[shift + len(b) - 1], inv_lead)
        quo[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = f.sub(rem[shift + i], f.mul(factor, bi))
    return strip(quo), strip(rem[: len(b) - 1])


def ref_derivative(f, c):
    # i * c_i as c_i added to itself i times
    out = []
    for i, ci in enumerate(c[1:], 1):
        acc = 0
        for _ in range(i):
            acc = f.add(acc, ci)
        out.append(acc)
    return strip(out)


def random_poly(f, rng, max_degree=12):
    c = [rng.randrange(f.q) for _ in range(rng.randint(0, max_degree + 1))]
    if c and rng.random() < 0.3:
        c[rng.randrange(len(c))] = 0   # interior zero coefficients too
    return Poly(f, c)


@pytest.fixture(params=FIELDS, ids=list(FIELDS))
def field(request):
    return FIELDS[request.param]


def test_padded_tables_multiply(field):
    exp, log = field._exp_pad, field._log_pad
    assert len(exp) == 4 * (field.q - 1) + 1
    elements = range(field.q) if field.q <= 32 else random.Random(1).sample(
        range(field.q), 32)
    for a in elements:
        for b in range(field.q):
            assert exp[log[a] + log[b]] == field.mul(a, b)


def test_ops_match_schoolbook(field):
    f = field
    rng = random.Random(f"poly:{f.q}")
    for _ in range(TRIALS):
        a, b = random_poly(f, rng), random_poly(f, rng)
        x, s = rng.randrange(f.q), rng.randrange(f.q)
        assert a(x) == ref_eval(f, a.coeffs, x)
        assert (a * b).coeffs == ref_mul(f, a.coeffs, b.coeffs)
        assert a.scale(s).coeffs == strip(f.mul(c, s) for c in a.coeffs)
        assert a.derivative().coeffs == ref_derivative(f, a.coeffs)
        if not b.is_zero:
            q, r = divmod(a, b)
            assert (q.coeffs, r.coeffs) == ref_divmod(f, a.coeffs, b.coeffs)
            assert q * b + r == a and r.degree < b.degree


def test_edge_cases(field):
    f = field
    zero, one = Poly.zero(f), Poly.one(f)
    a = random_poly(f, random.Random(f.q)) + Poly.monomial(f, 3)
    top = f.q - 1
    # the zero polynomial
    for x in (0, 1, top):
        assert zero(x) == 0
    assert (zero * a).is_zero and (a * zero).is_zero
    assert divmod(zero, a) == (zero, zero)
    assert zero.scale(top).is_zero and zero.derivative().is_zero
    # constants, and scaling to zero
    c = Poly(f, (top,))
    for x in (0, 1, top):
        assert c(x) == top
    assert c.derivative().is_zero
    assert (c * a).coeffs == a.scale(top).coeffs
    assert a.scale(0).is_zero
    # evaluation at 0 reads the constant term
    assert a(0) == a.coeff(0)
    # division by a degree-0 divisor leaves no remainder
    q, r = divmod(a, c)
    assert r.is_zero and q == a.scale(f.inv(top))
    assert divmod(a, one) == (a, zero)
    # a dividend of lower degree is its own remainder
    assert divmod(c, a) == (zero, c)
    with pytest.raises(ZeroDivisionError):
        divmod(a, zero)
    with pytest.raises(ZeroDivisionError):
        a % zero
