"""BCH codes: generators, dimensions, and decoding."""

import random
from itertools import combinations

import pytest

from blockfec import (BCHCode, CyclicCode, FiniteField, Poly, RSCode, linear,
                      minimal_polynomial)
from blockfec.errors import InvalidSymbol, SubfieldViolation
from blockfec.linear import linear_view


def P(field, *coeff_logs):
    return Poly(field, [0 if l is None else field.exp(l) for l in coeff_logs])


# -- construction ---------------------------------------------------------------

def test_construction_divides_x_n_minus_1_once(gf16, monkeypatch):
    # a BCH code is one cyclic code; an RS code builds none
    runs, init = [], CyclicCode.__init__

    def counted(self, *args):
        runs.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(CyclicCode, "__init__", counted)
    RSCode(gf16, 15, 9)
    RSCode(gf16, 15, 11, shorten_by=5)
    assert runs == []
    code = BCHCode(gf16, 2, 7)
    assert runs == ["BCHCode"]
    assert isinstance(code, CyclicCode)
    assert not hasattr(code, "_cyclic") and not hasattr(code.rs, "_cyclic")


def test_inherited_contains_checks_the_subfield(gf16):
    code = BCHCode(gf16, 2, 7)
    rng = random.Random(4)
    for _ in range(20):
        assert code.contains(code.encode([rng.randrange(2) for _ in range(5)]))
    word = list(code.encode((1, 0, 1, 1, 0)))
    word[3] ^= 1
    assert not code.contains(word)
    with pytest.raises(InvalidSymbol):
        code.contains((gf16.exp(3),) + (0,) * 14)


# -- generator polynomials ------------------------------------------------------

def test_binary_length7(gf8):
    single = BCHCode(gf8, 2, 3)
    assert single.g == Poly(gf8, (1, 1, 0, 1))
    assert (single.n, single.k) == (7, 4)
    double = BCHCode(gf8, 2, 5)
    assert double.g == Poly(gf8, (1, 1, 1, 1, 1, 1, 1))
    assert double.k == 1


def test_binary_length15(gf16):
    b3 = BCHCode(gf16, 2, 3)
    assert b3.g == Poly(gf16, (1, 1, 0, 0, 1))
    assert (b3.n, b3.k) == (15, 11)
    b5 = BCHCode(gf16, 2, 5)
    assert int(b5.g.degree) == 8 and b5.k == 7
    assert b5.g == (minimal_polynomial(gf16, gf16.exp(1), 2)
                    * minimal_polynomial(gf16, gf16.exp(3), 2))
    b7 = BCHCode(gf16, 2, 7)
    assert int(b7.g.degree) == 10 and b7.k == 5
    assert b7.g == (minimal_polynomial(gf16, gf16.exp(1), 2)
                    * minimal_polynomial(gf16, gf16.exp(3), 2)
                    * minimal_polynomial(gf16, gf16.exp(5), 2))


def test_gf4_length15(gf16):
    b3 = BCHCode(gf16, 4, 3)
    assert b3.g == P(gf16, 5, 0, 0) * P(gf16, 10, 0, 0)
    assert (int(b3.g.degree), b3.k) == (4, 11)
    b5 = BCHCode(gf16, 4, 5)
    assert (int(b5.g.degree), b5.k) == (6, 9)
    b7 = BCHCode(gf16, 4, 7)
    assert (int(b7.g.degree), b7.k) == (9, 6)


def test_length31_dimension_table():
    f32 = FiniteField(2, 5)
    dims = {d: BCHCode(f32, 2, d).k for d in range(3, 10)}
    assert dims == {3: 26, 4: 21, 5: 21, 6: 16, 7: 16, 8: 11, 9: 11}


def test_generator_coefficients_stay_in_subfield(gf16):
    for sub in (2, 4):
        for d in (3, 5, 7):
            code = BCHCode(gf16, sub, d)
            members = code.subfield
            assert all(c in members for c in code.g.coeffs)


# -- decoding ------------------------------------------------------------------

def test_decode_three_errors(gf16):
    code = BCHCode(gf16, 2, 7)
    R = (1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0)
    out = code.decode(R)
    assert out.corrected
    assert out.error_positions == (2, 3, 8)
    assert out.codeword == (1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0)
    assert out.key_state.sigma == P(gf16, 2, 1, 14, 0)


def test_decode_codeword_passthrough(gf16):
    code = BCHCode(gf16, 2, 7)
    u = (1, 0, 1, 1, 0)
    c = code.encode(u)
    out = code.decode(c)
    assert out.corrected and out.codeword == c and out.info == u


def test_binary_weight3_sweep_on_zero(gf16):
    code = BCHCode(gf16, 2, 7)
    zero = (0,) * 15
    for pos in combinations(range(15), 3):
        r = [0] * 15
        for p in pos:
            r[p] = 1
        out = code.decode(tuple(r))
        assert out.corrected and out.codeword == zero
        assert out.error_positions == pos


def test_binary_weight4_detection_or_honest_failure(gf16):
    code = BCHCode(gf16, 2, 7)
    rng = random.Random(123)
    for _ in range(300):
        pos = rng.sample(range(15), 4)
        r = [0] * 15
        for p in pos:
            r[p] = 1
        out = code.decode(tuple(r))
        if out.corrected:
            # a wrong but valid codeword: never a non-codeword
            assert code.rs.syndromes(out.codeword).is_zero


def test_subfield_violation_detected(gf16):
    code = BCHCode(gf16, 2, 7)
    with pytest.raises(SubfieldViolation):
        code.decode((gf16.exp(3),) + (0,) * 14)
    with pytest.raises(SubfieldViolation):
        code.encode((gf16.exp(3), 0, 0, 0, 0))


def test_gf4_roundtrip(gf16):
    code = BCHCode(gf16, 4, 5)  # corrects 2 symbol errors
    members = sorted(code.subfield)
    rng = random.Random(9)
    for _ in range(200):
        u = tuple(rng.choice(members) for _ in range(code.k))
        c = code.encode(u)
        w = list(c)
        for p in rng.sample(range(15), 2):
            w[p] = rng.choice([m for m in members if m != w[p]])
        out = code.decode(tuple(w))
        assert out.corrected and out.codeword == c and out.info == u


def test_binary_roundtrip_with_erasures(gf16):
    code = BCHCode(gf16, 2, 7)
    rng = random.Random(10)
    for _ in range(200):
        u = tuple(rng.randrange(2) for _ in range(5))
        c = code.encode(u)
        w = list(c)
        errs = rng.sample(range(15), 2)
        for p in errs:
            w[p] ^= 1
        erasures = rng.sample([i for i in range(15) if i not in errs], 2)
        out = code.decode(tuple(w), erasures=erasures)
        assert out.corrected and out.codeword == c


def test_true_distance_meets_designed_by_enumeration(gf16):
    # the [15,5] code has exactly 32 codewords: check d = 7 directly
    from itertools import product as iproduct

    code = BCHCode(gf16, 2, 7)
    weights = sorted(
        sum(1 for x in code.encode(u) if x)
        for u in iproduct((0, 1), repeat=5) if any(u)
    )
    assert weights[0] == 7


def test_true_distance_can_exceed_designed(gf8):
    # the [7,1] code built from designed distance 5 is the repetition
    # code with true distance 7, but decoding stops at the designed radius
    code = BCHCode(gf8, 2, 5)
    assert code.k == 1
    r = (1, 1, 0, 1, 0, 1, 1)  # repetition word with two flips
    out = code.decode(r)
    assert out.corrected and out.codeword == (1,) * 7


def test_exhaustive_bounded_distance_decoding(gf16):
    # every binary received word of the [15,5,7] code: corrected iff it
    # lies within distance 3 of a codeword, and then to that codeword
    from itertools import product as iproduct

    code = BCHCode(gf16, 2, 7)
    nearest = {}
    for u in iproduct((0, 1), repeat=5):
        c = code.encode(u)
        for w in range(4):
            for flips in combinations(range(15), w):
                r = list(c)
                for p in flips:
                    r[p] ^= 1
                nearest[tuple(r)] = c
    assert len(nearest) == 32 * (1 + 15 + 105 + 455)  # the spheres are disjoint
    for word in iproduct((0, 1), repeat=15):
        out = code.decode(word)
        assert out.corrected == (word in nearest), word
        if out.corrected:
            assert out.codeword == nearest[word] and out.info == nearest[word][:5]


def test_erasures_never_raise(gf16):
    # a correction outside GF(2) used to raise SubfieldViolation
    code = BCHCode(gf16, 2, 7)
    rng = random.Random(11)
    for _ in range(3000):
        word = tuple(rng.randrange(2) for _ in range(15))
        erasures = rng.sample(range(15), rng.randint(1, 7))
        out = code.decode(word, erasures=erasures)
        if out.corrected:
            assert all(x in (0, 1) for x in out.codeword)
            assert code.rs.syndromes(out.codeword).is_zero


def test_linear_view_of_a_gf4_code_is_over_gf4(gf16):
    from itertools import product as iproduct

    # the view maps the subfield onto GF(4) by a field isomorphism, and
    # every codeword of the view maps back to a codeword of the code
    code = BCHCode(gf16, 4, 9)
    view = linear_view(code)
    small = view.field
    assert (small.q, view.n, view.k) == (4, 15, 4)
    # gamma = alpha^5 is written x
    image = {0: 0, **{gf16.exp(5 * i): small.exp(i) for i in range(3)}}
    for a, b in iproduct(code.subfield, repeat=2):
        assert image[gf16.add(a, b)] == small.add(image[a], image[b])
        assert image[gf16.mul(a, b)] == small.mul(image[a], image[b])
    back = {b: a for a, b in image.items()}
    for u in iproduct(range(4), repeat=view.k):
        assert code.contains([back[x] for x in view.encode(u)])
    assert view.min_distance() == 10


def test_decode_checks_the_word_once(gf16, monkeypatch):
    # against the subfield; the RS code takes the checked word as it is
    bch = BCHCode(gf16, 2, 7)
    calls = []
    check = linear.check_word

    def counted(symbols, n, alphabet):
        calls.append(n)
        return check(symbols, n, alphabet)

    monkeypatch.setattr(linear, "check_word", counted)
    word = list(bch.encode([1, 0, 1, 1, 0]))
    word[3] ^= 1
    for erasures in ((), (5,)):
        calls.clear()
        assert bch.decode(word, erasures).corrected
        assert calls == [15]
