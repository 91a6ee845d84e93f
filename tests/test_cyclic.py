"""Cyclic codes: divisibility, encoders, matrices, enumeration."""

import random

import pytest

from blockfec import BCHCode, CyclicCode, LinearCode, Poly, RSCode, enumerate_cyclic_codes
from blockfec.cyclic import x_n_minus_1
from blockfec.errors import (
    DegreeTooHigh,
    InvalidSymbol,
    LengthMismatch,
    NotADivisor,
    TooLarge,
)


@pytest.fixture(scope="module")
def gf3(gf9):
    from blockfec import FiniteField
    return FiniteField(3)


@pytest.fixture(scope="module")
def c83(gf3):
    return CyclicCode(gf3, 8, [2, 0, 1, 1, 2, 1])


@pytest.fixture(scope="module")
def c74(gf2):
    return CyclicCode(gf2, 7, [1, 1, 0, 1])


def test_parity_polynomial(c83, gf3):
    assert c83.h == Poly(gf3, (1, 0, 1, 1))
    assert (c83.k, c83.n) == (3, 8)


def test_not_a_divisor(gf2):
    with pytest.raises(NotADivisor):
        CyclicCode(gf2, 7, [1, 1, 1])  # 1 + x + x^2 does not divide x^7 - 1


@pytest.mark.parametrize("word,error", [
    ([0] * 8, LengthMismatch), ([1, 1, 0, 1, 0, 0], LengthMismatch),
    ([2, 0, 0, 0, 0, 0, 0], InvalidSymbol), ([-1, 1, 0, 1, 0, 0, 0], InvalidSymbol),
])
def test_contains_checks_its_word(c74, word, error):
    # as LinearCode.contains does; the word is not read as a polynomial
    with pytest.raises(error):
        c74.contains(word)
    with pytest.raises(error):
        LinearCode.from_generator(c74.field, c74.matrices()[0]).contains(word)
    assert c74.contains([1, 1, 0, 1, 0, 0, 0])
    assert not c74.contains([1, 1, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("g", [[-1, 1, 0, 1], [3, 1, 0, 1], [1.0, 1, 0, 1], [1, 1, 0, None]])
def test_generator_coefficients_outside_the_field_are_rejected(gf2, g):
    # -1 would index the log table from its end and pass the divisor check
    with pytest.raises(InvalidSymbol):
        CyclicCode(gf2, 7, g)
    with pytest.raises(InvalidSymbol):
        CyclicCode(gf2, 7, Poly(gf2, g))


def test_whole_space_generator(gf2):
    code = CyclicCode(gf2, 5, [1])
    assert code.k == 5
    assert code.encode((1, 0, 1, 1, 0)) == (1, 0, 1, 1, 0)


def test_nonsystematic_encoding(c83, gf3):
    assert c83.encode((2, 0, 1), systematic=False) == (1, 0, 1, 2, 2, 0, 2, 1)
    assert c83.encode((0, 0, 0), systematic=False) == (0,) * 8
    assert c83.encode((1, 0, 0), systematic=False) == c83.g.to_vector(8)


def test_systematic_encoding(c83, c74, gf3):
    assert c83.encode((2, 0, 1)) == (2, 0, 1, 1, 2, 1, 0, 0)
    assert c74.encode((1, 0, 1, 1)) == (1, 0, 1, 1, 1, 0, 0)
    c85 = CyclicCode(gf3, 8, [1, 1, 0, 1])
    assert c85.encode((2, 1, 0, 1, 1)) == (2, 1, 0, 1, 1, 2, 1, 1)


def test_degree_guard(c83):
    with pytest.raises(DegreeTooHigh):
        c83.encode((1, 1, 1, 1))


def test_long_messages_with_trailing_zeros_are_rejected(c74, gf16):
    # Poly would drop the extra zeros before a degree check saw them
    bch = BCHCode(gf16, 2, 7)
    for code in (c74, bch):
        for systematic in (True, False):
            with pytest.raises(DegreeTooHigh):
                code.encode([1] + [0] * code.k, systematic=systematic)
        assert code.encode([1] + [0] * (code.k - 1)) == code.encode([1])


def test_message_symbols_are_checked_as_given(c74, gf8):
    # a trailing 0.0 would vanish into the polynomial unchecked
    for systematic in (True, False):
        with pytest.raises(InvalidSymbol):
            c74.encode([1, 0.0], systematic=systematic)
        with pytest.raises(InvalidSymbol):
            RSCode(gf8, 7, 3).encode([1, 0.0], systematic=systematic)


def test_matrices(c74, gf2):
    G, H = c74.matrices()
    assert G.rows == (
        (1, 1, 0, 1, 0, 0, 0),
        (0, 1, 1, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 1, 0),
        (0, 0, 0, 1, 1, 0, 1),
    )
    assert H.rows == (
        (1, 0, 1, 1, 1, 0, 0),
        (0, 1, 0, 1, 1, 1, 0),
        (0, 0, 1, 0, 1, 1, 1),
    )
    z = G @ H.transpose()
    assert all(not any(r) for r in z.rows)


def test_hamming_equivalence_and_distance(c74, gf2):
    lin = LinearCode.from_generator(gf2, c74.matrices()[0])
    assert lin.min_distance() == 3
    _, H = c74.matrices()
    cols = set(zip(*H.rows))
    assert cols == {c for c in cols if any(c)} and len(cols) == 7


def test_dual_pair(c83, gf3):
    # the reversed parity polynomial of the [8,3] code generates [8,5]
    c85 = CyclicCode(gf3, 8, [1, 1, 0, 1])
    assert c83.h.reversed_coeffs().monic() == c85.g
    G83, H83 = c83.matrices()
    G85, _ = c85.matrices()
    z = G83 @ G85.transpose()
    assert all(not any(r) for r in z.rows)


def test_cyclic_closure(c83, c74, gf3):
    rng = random.Random(17)
    for code in (c83, c74):
        q = code.field.q
        for _ in range(250):
            u = tuple(rng.randrange(q) for _ in range(code.k))
            c = list(code.encode(u))
            shifted = tuple([c[-1]] + c[:-1])
            assert code.contains(shifted)


def test_systematic_words_divisible_by_g(c83, gf3):
    rng = random.Random(5)
    for _ in range(100):
        u = tuple(rng.randrange(3) for _ in range(3))
        c = code_vec = c83.encode(u)
        assert c83.contains(code_vec)
        assert code_vec[:3] == u


def test_encoders_span_same_code(c74):
    sys_words = set()
    nonsys_words = set()
    from itertools import product
    for u in product((0, 1), repeat=4):
        sys_words.add(c74.encode(u))
        nonsys_words.add(c74.encode(u, systematic=False))
    assert sys_words == nonsys_words


def test_enumerate_gf3_length4(gf3):
    gens = enumerate_cyclic_codes(gf3, 4)
    expected = {
        Poly(gf3, (2, 1)),
        Poly(gf3, (1, 1)),
        Poly(gf3, (1, 0, 1)),
        Poly(gf3, (2, 0, 1)),
        Poly(gf3, (2, 1, 2, 1)),
        Poly(gf3, (1, 1, 1, 1)),
    }
    assert set(gens) == expected and len(gens) == 6


def test_enumerate_gf2_length7(gf2):
    gens = enumerate_cyclic_codes(gf2, 7)
    assert len(gens) == 6  # divisors of (1+x)(1+x+x^3)(1+x^2+x^3) minus ends
    for g in gens:
        assert (x_n_minus_1(gf2, 7) % g).is_zero


def test_enumerate_length1(gf2):
    assert enumerate_cyclic_codes(gf2, 1) == []


def test_enumerate_with_repeated_factors(gf2):
    # x^4 - 1 = (x - 1)^4 over GF(2)
    gens = enumerate_cyclic_codes(gf2, 4)
    assert [int(g.degree) for g in gens] == [1, 2, 3]


def test_enumerate_caps(gf2):
    with pytest.raises(TooLarge):
        enumerate_cyclic_codes(gf2, 64)
