"""Reed-Solomon construction, encoding, and the two decoders."""

import ast
import hashlib
import importlib.util
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest

from blockfec import (
    BCHCode,
    CyclicCode,
    FiniteField,
    InterleavedCode,
    LinearCode,
    Poly,
    ReceivedWord,
    RSCode,
    euclid_key_equation,
    ml_decode,
    reed_solomon,
)
from blockfec.errors import (DegreeTooHigh, FecError, InvalidParams, InvalidSymbol,
                             LengthMismatch)


def logs(field, word):
    return [field.log(x) if x else None for x in word]


def P(field, *coeff_logs):
    """Poly from logarithm list; None stands for the zero coefficient."""
    return Poly(field, [0 if l is None else field.exp(l) for l in coeff_logs])


# -- construction ----------------------------------------------------------

def test_generator_7_3(gf8):
    rs = RSCode(gf8, 7, 3)
    assert rs.g == P(gf8, 3, 1, 0, 3, 0)
    assert rs.d == 5


def test_generator_15_9(gf16):
    rs = RSCode(gf16, 15, 9)
    assert rs.g == P(gf16, 6, 9, 6, 4, 14, 10, 0)


def test_generator_8_4(gf9):
    rs = RSCode(gf9, 8, 4)
    assert rs.g == P(gf9, 2, 4, 2, 7, 0)


def test_bad_params(gf8):
    with pytest.raises(InvalidParams):
        RSCode(gf8, 6, 3)  # 6 does not divide 7
    with pytest.raises(InvalidParams):
        RSCode(gf8, 7, 7)
    with pytest.raises(InvalidParams):
        RSCode(gf8, 7, 3, shorten_by=3)


def test_parity_matrix_independent_columns(gf8):
    rs = RSCode(gf8, 7, 3)
    H = rs.parity_matrix()
    for cols in combinations(range(7), 4):
        assert H.select_columns(cols).det() != 0


def test_generator_divides_xn_minus_1(gf8, gf16, gf9):
    for rs in (RSCode(gf8, 7, 3), RSCode(gf16, 15, 9), RSCode(gf9, 8, 2)):
        xn1 = Poly.monomial(rs.field, rs.n) - Poly.one(rs.field)
        assert (xn1 % rs.g).is_zero
        assert rs.g.degree == rs.n - rs.k


# -- encoding -----------------------------------------------------------------

def test_encode_7_3_both_ways(gf8):
    rs = RSCode(gf8, 7, 3)
    e = gf8.exp
    u = (e(6), e(2), e(5))
    nonsys = rs.encode(u, systematic=False)
    assert [gf8.format_element(x, "vector") for x in nonsys] == [
        "001", "011", "001", "101", "101", "011", "111",
    ]
    sys = rs.encode(u)
    assert [gf8.format_element(x, "vector") for x in sys] == [
        "101", "001", "111", "101", "111", "011", "011",
    ]


def test_encode_15_9(gf16):
    rs = RSCode(gf16, 15, 9)
    e = gf16.exp
    u = (e(3), 0, e(9), e(7), e(5), 0, e(10), e(2), e(12))
    c = rs.encode(u)
    assert c[:9] == u
    assert logs(gf16, c[9:]) == [14, 8, 11, 4, 2, None]


def test_encode_8_4(gf9):
    rs = RSCode(gf9, 8, 4)
    e = gf9.exp
    c = rs.encode((e(2), e(2), e(7), e(3)))
    assert [gf9.format_element(x, "vector") for x in c] == [
        "12", "12", "11", "22", "22", "20", "10", "01",
    ]


def test_systematic_words_are_code_polynomials(gf16):
    rs = RSCode(gf16, 15, 9)
    rng = random.Random(1)
    for _ in range(50):
        u = tuple(rng.randrange(16) for _ in range(9))
        c = rs.encode(u)
        assert (Poly(gf16, c) % rs.g).is_zero


def test_shortened_nonsystematic_rejected(gf16):
    rs = RSCode(gf16, 15, 9, shorten_by=5)
    with pytest.raises(InvalidParams):
        rs.encode((1, 2, 3, 4), systematic=False)


# -- syndromes ------------------------------------------------------------------

def test_syndromes_single_error_example(gf8):
    rs = RSCode(gf8, 7, 5)
    e = gf8.exp
    R = (e(6), e(2), e(3), e(2), e(4), e(1), 1)
    S = rs.syndromes(R)
    assert S == P(gf8, 2, 4)


def test_syndromes_two_error_example(gf8):
    rs = RSCode(gf8, 7, 3)
    e = gf8.exp
    R = (e(4), e(6), e(5), e(5), e(5), e(6), e(1))
    assert rs.syndromes(R) == P(gf8, 5, 1, None, 3)


def test_syndromes_of_codeword_vanish(gf8):
    rs = RSCode(gf8, 7, 3)
    rng = random.Random(4)
    for _ in range(20):
        u = tuple(rng.randrange(8) for _ in range(3))
        assert rs.syndromes(rs.encode(u)).is_zero


# -- single-error decoding -------------------------------------------------------

def test_decode_single_error(gf8):
    rs = RSCode(gf8, 7, 5)
    e = gf8.exp
    R = (e(6), e(2), e(3), e(2), e(4), e(1), 1)
    out = rs.pgz_decode(R)
    assert out.corrected
    assert out.error_positions == (2,)
    assert out.error_vector[2] == 1
    assert logs(gf8, out.codeword) == [6, 2, 1, 2, 4, 1, 0]


def test_decode_single_error_15_13(gf16):
    rs = RSCode(gf16, 15, 13)
    e = gf16.exp
    R = (e(3), e(1), e(6), e(5), e(8), 1, e(3), e(8), e(6), e(6), e(3),
         e(4), e(12), e(12), e(13))
    out = rs.euclid_decode(R)
    assert out.error_positions == (4,)
    assert gf16.log(out.error_vector[4]) == 14
    assert gf16.log(out.codeword[4]) == 6
    assert logs(gf16, out.info) == [3, 1, 6, 5, 6, 0, 3, 8, 6, 6, 3, 4, 12]


# -- two- and three-error golden decodes --------------------------------------------

def test_pgz_two_errors_7_3(gf8):
    rs = RSCode(gf8, 7, 3)
    e = gf8.exp
    R = (e(4), e(6), e(5), e(5), e(5), e(6), e(1))
    out = rs.pgz_decode(R)
    ks = out.key_state
    assert ks.sigma == P(gf8, 5, 4, 0)
    assert ks.omega == P(gf8, 3, 0)
    assert out.error_positions == (0, 2)
    assert gf8.log(out.error_vector[0]) == 4
    assert gf8.log(out.error_vector[2]) == 5
    assert [gf8.format_element(x, "vector") for x in out.info] == [
        "000", "101", "000",
    ]


def test_pgz_three_errors_shortened_10_4(gf16):
    rs = RSCode(gf16, 15, 9, shorten_by=5)
    recv = ["1110", "1110", "0010", "0110", "1110",
            "0101", "0110", "0001", "0001", "0011"]
    R = [gf16.parse_element(s) for s in recv]
    out = rs.pgz_decode(R)
    ks = out.key_state
    assert ks.sigma == P(gf16, 1, 10, 2, 0)
    assert ks.omega == P(gf16, 4, 8, 2)
    assert out.error_positions == (0, 2, 12)
    assert [gf16.log(out.error_vector[i]) for i in (0, 2, 12)] == [11, 2, 11]
    assert [gf16.format_element(x, "vector") for x in out.info] == [
        "1001", "1110", "0000", "0110",
    ]


def test_pgz_two_errors_8_4(gf9):
    rs = RSCode(gf9, 8, 4)
    R = [gf9.parse_element(s) for s in
         ["11", "01", "22", "20", "11", "21", "21", "12"]]
    out = rs.pgz_decode(R)
    assert out.key_state.sigma == P(gf9, 1, 4, 0)
    assert out.key_state.omega == P(gf9, 2, 5)
    assert out.error_positions == (2, 5)
    assert [gf9.log(out.error_vector[i]) for i in (2, 5)] == [4, 2]
    assert [gf9.format_element(x, "vector") for x in out.codeword] == [
        "11", "01", "02", "20", "11", "12", "21", "12",
    ]
    assert [gf9.format_element(x, "vector") for x in out.info] == [
        "11", "01", "02", "20",
    ]


def test_pgz_three_errors_8_2(gf9):
    rs = RSCode(gf9, 8, 2)
    R = [gf9.parse_element(s) for s in
         ["21", "00", "22", "11", "20", "00", "02", "01"]]
    out = rs.pgz_decode(R)
    assert out.key_state.sigma == P(gf9, 5, 7, 0, 0)
    assert out.key_state.omega == P(gf9, 0, 2, 5)
    assert out.error_positions == (0, 2, 5)
    assert [gf9.log(out.error_vector[i]) for i in (0, 2, 5)] == [5, 2, 6]
    assert [gf9.format_element(x, "vector") for x in out.info] == ["22", "00"]


def test_pgz_four_errors_10_2(gf11):
    rs = RSCode(gf11, 10, 2)
    out = rs.pgz_decode((7, 1, 3, 3, 4, 7, 10, 5, 6, 8))
    assert out.key_state.sigma.coeffs == (4, 2, 5, 10, 1)
    assert out.key_state.omega.coeffs == (5, 6, 9, 3)
    assert out.error_positions == (0, 1, 3, 4)
    assert [out.error_vector[i] for i in (0, 1, 3, 4)] == [6, 3, 1, 4]
    assert out.codeword == (1, 9, 3, 2, 0, 7, 10, 5, 6, 8)
    assert out.info == (1, 9)


def test_pgz_syndrome_table_10_2(gf11):
    rs = RSCode(gf11, 10, 2)
    S = rs.syndromes((7, 1, 3, 3, 4, 7, 10, 5, 6, 8))
    assert S.coeffs == (7, 6, 8, 6, 6, 1, 8, 3)


# -- erasure decoding ----------------------------------------------------------------

def test_erasure_decode_pgz(gf16):
    rs = RSCode(gf16, 15, 9, shorten_by=5)
    recv = ["0011", "1100", "1111", "0110", "0000",
            "1101", "1010", "0000", "0001", "1110"]
    R = [gf16.parse_element(s) for s in recv]
    out = rs.pgz_decode(R, erasures=[4, 7])
    ks = out.key_state
    assert ks.sigma == P(gf16, 12, 0)
    assert ks.sigma2 == Poly.from_roots(
        gf16, [gf16.exp(-9), gf16.exp(-12)]
    )
    assert ks.omega == P(gf16, 5, 6, 12)
    assert out.error_positions == (3, 9, 12)
    assert [gf16.log(out.error_vector[i]) for i in (3, 9, 12)] == [2, 13, 5]
    assert [gf16.format_element(x, "vector") for x in out.info] == [
        "0011", "1100", "1111", "0100",
    ]


def test_erasure_decode_euclid_matches(gf16):
    rs = RSCode(gf16, 15, 9, shorten_by=5)
    recv = ["0011", "1100", "1111", "0110", "0000",
            "1101", "1010", "0000", "0001", "1110"]
    R = [gf16.parse_element(s) for s in recv]
    a = rs.pgz_decode(R, erasures=[4, 7])
    b = rs.euclid_decode(R, erasures=[4, 7])
    assert b.corrected and b.codeword == a.codeword
    assert b.key_state.sigma == P(gf16, 12, 0)
    assert b.key_state.omega == P(gf16, 5, 6, 12)


def test_erasures_only(gf8):
    rs = RSCode(gf8, 7, 3)
    u = (gf8.exp(6), gf8.exp(2), gf8.exp(5))
    c = rs.encode(u)
    out = rs.euclid_decode(c, erasures=[0, 3, 5, 6])
    assert out.corrected and out.codeword == c
    out2 = rs.pgz_decode(c, erasures=[0, 3, 5, 6])
    assert out2.corrected and out2.codeword == c


def test_too_many_erasures(gf8):
    rs = RSCode(gf8, 7, 3)
    c = rs.encode((1, 1, 1))
    assert not rs.pgz_decode(c, erasures=[0, 1, 2, 3, 4]).corrected


# -- general root offset ---------------------------------------------------------------

def test_m0_zero_errors_only(gf16):
    rs = RSCode(gf16, 15, 9, m0=0)
    e = gf16.exp
    R = (1, e(12), e(10), 0, e(1), e(8), e(10), e(6), e(8), 0, e(5),
         e(14), e(10), 1, e(12))
    out = rs.pgz_decode(R)
    assert out.key_state.syndrome == P(gf16, 5, 7, 8, 6, 9, 0)
    assert out.key_state.sigma == P(gf16, 5, 0, 0)
    assert out.key_state.omega == P(gf16, 10, 14)
    assert out.error_positions == (11, 14)
    assert [gf16.log(out.error_vector[i]) for i in (11, 14)] == [8, 4]
    assert logs(gf16, out.codeword) == [
        0, 12, 10, None, 1, 8, 10, 6, 8, None, 5, 6, 10, 0, 6,
    ]
    assert rs.euclid_decode(R).codeword == out.codeword


def test_m0_zero_errors_and_erasures(gf16):
    rs = RSCode(gf16, 15, 9, m0=0)
    e = gf16.exp
    R = (1, 0, e(10), 0, e(1), e(8), e(10), e(6), e(8), e(6), e(5),
         e(6), e(7), 1, e(6))
    for decode in (rs.pgz_decode, rs.euclid_decode):
        out = decode(R, [1, 3])
        assert out.corrected
        assert out.key_state.sigma == P(gf16, 9, 2, 0)
        assert out.key_state.sigma2 == P(gf16, 11, 5, 0)
        assert out.key_state.omega == P(gf16, 2, 1, 8, 7)
        assert out.error_positions == (1, 3, 9, 12)
        vals = {i: out.error_vector[i] for i in out.error_positions}
        assert gf16.log(vals[1]) == 12 and vals[3] == 0
        assert gf16.log(vals[9]) == 6 and gf16.log(vals[12]) == 6
        assert logs(gf16, out.codeword) == [
            0, 12, 10, None, 1, 8, 10, 6, 8, None, 5, 6, 10, 0, 6,
        ]


def test_m0_two_roundtrip(gf8):
    rs = RSCode(gf8, 7, 3, m0=2)
    rng = random.Random(12)
    for _ in range(100):
        u = tuple(rng.randrange(8) for _ in range(3))
        c = list(rs.encode(u))
        for pos in rng.sample(range(7), 2):
            c[pos] ^= rng.randrange(1, 8)
        for decode in (rs.pgz_decode, rs.euclid_decode):
            out = decode(tuple(c))
            assert out.corrected and out.info == u


# -- Euclid recursion tables -------------------------------------------------------------

def test_euclid_table_7_3(gf8):
    S = P(gf8, 5, 1, None, 3)
    r, t, trace = euclid_key_equation(gf8, 4, S, threshold=1)
    assert [(ri, qi, ti) for ri, qi, ti in trace] == [
        (P(gf8, None, 2, 5), P(gf8, None, 4), P(gf8, None, 4)),
        (P(gf8, 5, 2), P(gf8, 2, 5), P(gf8, 0, 6, 2)),
    ]
    lam = gf8.inv(t.lc)
    assert lam == gf8.exp(5)
    assert t.scale(lam) == P(gf8, 5, 4, 0)
    assert (-r.scale(lam)) == P(gf8, 3, 0)


def test_euclid_table_10_4(gf16):
    S = P(gf16, 3, 2, 12, None, 12, 1)
    r, t, trace = euclid_key_equation(gf16, 6, S, threshold=2)
    rows = [(ri, qi, ti) for ri, qi, ti in trace]
    assert rows[0] == (
        P(gf16, 13, 7, 14, 11, 7), P(gf16, 10, 14), P(gf16, 10, 14),
    )
    assert rows[1] == (
        P(gf16, 11, 5, 0, 13), P(gf16, 7, 9), P(gf16, 8, 12, 8),
    )
    assert rows[2] == (
        P(gf16, 6, 10, 4), P(gf16, 4, 9), P(gf16, 3, 12, 4, 2),
    )
    lam = gf16.inv(t.lc)
    assert lam == gf16.exp(13)
    assert t.scale(lam) == P(gf16, 1, 10, 2, 0)
    assert (-r.scale(lam)) == P(gf16, 4, 8, 2)


def test_euclid_table_8_4(gf9):
    S = P(gf9, 5, None, 0, 7)
    r, t, trace = euclid_key_equation(gf9, 4, S, threshold=1)
    rows = [(ri, qi, ti) for ri, qi, ti in trace]
    assert rows[0] == (P(gf9, 7, 2, 2), P(gf9, 6, 1), P(gf9, 2, 5))
    assert rows[1] == (P(gf9, 4, 7), P(gf9, 3, 5), P(gf9, 7, 2, 6))
    lam = gf9.inv(t.lc)
    assert lam == gf9.exp(2)
    assert t.scale(lam) == P(gf9, 1, 4, 0)
    assert (-r.scale(lam)) == P(gf9, 2, 5)


def test_euclid_table_8_2(gf9):
    S = P(gf9, 7, None, 7, 4, None, 0)
    r, t, trace = euclid_key_equation(gf9, 6, S, threshold=2)
    rows = [(ri, qi, ti) for ri, qi, ti in trace]
    assert rows[0] == (P(gf9, None, 3, None, 3, 0), P(gf9, None, 0),
                       P(gf9, None, 4))
    assert rows[1] == (P(gf9, 7, 6, 3, 7), P(gf9, 7, 0), P(gf9, 0, 7, 0))
    # the quotient in the last row is pinned by the surrounding
    # remainders: r1 = q3 * r2 + r3
    assert rows[2] == (P(gf9, 1, 3, 6), P(gf9, 6, 1),
                       P(gf9, 2, 4, 5, 5))
    r1, r2, r3 = rows[0][0], rows[1][0], rows[2][0]
    assert r1 - rows[2][1] * r2 == r3
    lam = gf9.inv(t.lc)
    assert lam == gf9.exp(3)
    assert t.scale(lam) == P(gf9, 5, 7, 0, 0)
    assert (-r.scale(lam)) == P(gf9, 0, 2, 5)


def test_euclid_table_10_2(gf11):
    S = Poly(gf11, (7, 6, 8, 6, 6, 1, 8, 3))
    r, t, trace = euclid_key_equation(gf11, 8, S, threshold=3)
    rows = [(ri, qi, ti) for ri, qi, ti in trace]
    assert rows[0][0] == Poly(gf11, (5, 3, 10, 10, 7, 5, 8))
    assert rows[0][1] == Poly(gf11, (4, 4))
    assert rows[0][2] == Poly(gf11, (7, 7))
    assert rows[1][0] == Poly(gf11, (3, 2, 3, 8, 6, 4))
    assert rows[1][2] == Poly(gf11, (2, 8, 7))
    assert rows[2][0] == Poly(gf11, (2, 6, 3, 7, 7))
    assert rows[2][2] == Poly(gf11, (5, 6, 10, 8))
    assert rows[3][0] == Poly(gf11, (4, 7, 5, 9))
    assert rows[3][2] == Poly(gf11, (10, 5, 7, 3, 8))
    assert t.scale(7).coeffs == (4, 2, 5, 10, 1)
    assert (-t.scale(7) * Poly.zero(gf11)).is_zero  # sanity
    assert r.scale(gf11.neg(7)).coeffs == (5, 6, 9, 3)


def test_euclid_erasure_bezout_coefficient(gf16):
    # with two erasures the generalized syndrome has degree n-k+1 and
    # the recursion passes through a leading trivial division step
    rs = RSCode(gf16, 15, 9, shorten_by=5)
    recv = ["0011", "1100", "1111", "0110", "0000",
            "1101", "1010", "0000", "0001", "1110"]
    R = [gf16.parse_element(s) for s in recv]
    w = rs._expand_word(__import__("blockfec").linear.as_received(R, [4, 7]))
    S = rs._syndromes_full(w)
    sigma2 = Poly.from_roots(gf16, [gf16.exp(-9), gf16.exp(-12)])
    s_hat = sigma2 * S
    assert s_hat == P(gf16, 8, 2, 10, 13, 1, 4, 13, 14)
    r, t, trace = euclid_key_equation(gf16, 6, s_hat, threshold=3)
    assert r == P(gf16, 1, 2, 8)
    assert t == P(gf16, 8, 11)
    lam = gf16.inv(t.lc)
    assert lam == gf16.exp(4)
    assert t.scale(lam) == P(gf16, 12, 0)
    assert (-r.scale(lam)) == P(gf16, 5, 6, 12)


# -- randomized equivalence and capability ------------------------------------------------

def _trial_codes():
    from blockfec import FiniteField

    gf8 = FiniteField(2, 3, (1, 1, 0, 1))
    gf16 = FiniteField(2, 4, (1, 1, 0, 0, 1))
    gf9 = FiniteField(3, 2, (2, 1, 1))
    return [
        RSCode(gf8, 7, 3),
        RSCode(gf16, 15, 9, m0=0),
        RSCode(gf9, 8, 4),
        RSCode(gf16, 15, 9, shorten_by=5),
    ]


def _corrupt(rng, rs, c, s, t):
    word = list(c)
    n_out = rs.n_out
    positions = rng.sample(range(n_out), s + t)
    err_pos, era_pos = positions[:s], positions[s:]
    for p in err_pos:
        v = rng.randrange(1, rs.field.q)
        word[p] = rs.field.add(word[p], v)
    for p in era_pos:
        word[p] = rng.randrange(rs.field.q)
    return tuple(word), era_pos


@pytest.mark.parametrize("code_index", [0, 1, 2, 3])
def test_decoders_agree_randomized(code_index):
    rs = _trial_codes()[code_index]
    rng = random.Random(1000 + code_index)
    nk = rs.n - rs.k
    trials = 400
    for _ in range(trials):
        u = tuple(rng.randrange(rs.field.q) for _ in range(rs.k_out))
        c = rs.encode(u)
        t = rng.randrange(0, nk + 1)
        s = rng.randrange(0, (nk - t) // 2 + 1)
        word, era = _corrupt(rng, rs, c, s, t)
        a = rs.pgz_decode(word, era)
        b = rs.euclid_decode(word, era)
        assert a.verdict == b.verdict
        assert a.codeword == b.codeword
        assert a.corrected and a.codeword == c and a.info == u


@pytest.mark.parametrize("code_index", [0, 2])
def test_full_capability_sweep(code_index):
    rs = _trial_codes()[code_index]
    rng = random.Random(55 + code_index)
    nk = rs.n - rs.k
    for t in range(nk + 1):
        for s in range((nk - t) // 2 + 1):
            for _ in range(30):
                u = tuple(rng.randrange(rs.field.q) for _ in range(rs.k_out))
                c = rs.encode(u)
                word, era = _corrupt(rng, rs, c, s, t)
                for decode in (rs.pgz_decode, rs.euclid_decode):
                    out = decode(word, era)
                    assert out.corrected and out.codeword == c


def test_key_equation_residue_and_forney_consistency(gf16):
    rs = RSCode(gf16, 15, 9)
    rng = random.Random(77)
    nk = 6
    for _ in range(200):
        u = tuple(rng.randrange(16) for _ in range(9))
        c = rs.encode(u)
        t = rng.randrange(0, nk + 1)
        s = rng.randrange(0, (nk - t) // 2 + 1)
        word, era = _corrupt(rng, rs, c, s, t)
        out = rs.euclid_decode(word, era)
        assert out.corrected
        ks = out.key_state
        if ks is None:
            continue
        residue = (ks.locator * ks.syndrome + ks.omega).truncate(nk)
        assert residue.is_zero
        deriv = ks.locator.derivative()
        for i in out.error_positions:
            x = gf16.pow(rs.beta, -i)
            expected = gf16.div(ks.omega(x), deriv(x))
            assert out.error_vector[i] == expected


def test_sigma_omega_coprime_without_erasures(gf16):
    rs = RSCode(gf16, 15, 9)
    rng = random.Random(31)
    for _ in range(100):
        u = tuple(rng.randrange(16) for _ in range(9))
        word, _ = _corrupt(rng, rs, rs.encode(u), 3, 0)
        ks = rs.euclid_decode(word).key_state
        # no common roots
        for x in (gf16.pow(rs.beta, -i) for i in range(15)):
            assert not (ks.sigma(x) == 0 and ks.omega(x) == 0)


def test_beyond_capability_never_emits_noncodeword(gf8):
    rs = RSCode(gf8, 7, 3)
    rng = random.Random(13)
    emitted = 0
    for _ in range(10000):
        u = tuple(rng.randrange(8) for _ in range(3))
        c = list(rs.encode(u))
        for p in rng.sample(range(7), 3):  # one beyond the radius
            c[p] = gf8.add(c[p], rng.randrange(1, 8))
        out = rs.euclid_decode(tuple(c))
        if out.corrected:
            emitted += 1
            assert rs.syndromes(out.codeword).is_zero
    assert emitted > 0  # miscorrections to valid codewords do occur


def test_full_code_is_mds_by_brute_force(gf8):
    rs = RSCode(gf8, 7, 3)
    from itertools import product as iproduct
    weights = [
        sum(1 for x in rs.encode(u) if x)
        for u in iproduct(range(8), repeat=3) if any(u)
    ]
    assert min(weights) == 5 == rs.d


def test_shortened_code_is_mds_by_brute_force(gf8):
    # [6,3] from shortening [7,4]: enumerate all 512 codewords
    rs = RSCode(gf8, 7, 4, shorten_by=1)
    from itertools import product as iproduct
    weights = [
        sum(1 for x in rs.encode(u) if x)
        for u in iproduct(range(8), repeat=3) if any(u)
    ]
    assert min(weights) == rs.n_out - rs.k_out + 1 == 4


def test_ml_oracle_agrees_on_small_code(gf8):
    # compare the algebraic decoder with exhaustive nearest-codeword
    # search on the [7,5] single-error code
    rs = RSCode(gf8, 7, 5)
    lin = LinearCode.from_generator(
        gf8, [rs.encode(tuple(1 if i == j else 0 for i in range(5)))
              for j in range(5)]
    )
    rng = random.Random(8)
    for _ in range(50):
        u = tuple(rng.randrange(8) for _ in range(5))
        c = list(rs.encode(u))
        p = rng.randrange(7)
        c[p] = gf8.add(c[p], rng.randrange(1, 8))
        out = rs.euclid_decode(tuple(c))
        best, dist = ml_decode(lin, tuple(c))
        assert out.corrected and out.codeword in best


def test_decode_keeps_erasures_of_a_received_word(gf8):
    # three errors exceed t = 2 of RS(7,3) but are within reach as erasures
    rs = RSCode(gf8, 7, 3)
    c = rs.encode((gf8.exp(6), gf8.exp(2), gf8.exp(5)))
    r = list(c)
    for i in (0, 1, 2):
        r[i] = gf8.add(r[i], gf8.exp(i))
    for decode in (rs.pgz_decode, rs.euclid_decode):
        for word, erasures in [(r, [0, 1, 2]),
                               (ReceivedWord.make(r), [0, 1, 2]),
                               (ReceivedWord.make(r, [0]), [1, 2])]:
            out = decode(word, erasures=erasures)
            assert out.corrected and out.codeword == c


@pytest.mark.parametrize("method,word", [
    ("decode", (9, 0, 0, 0, 0, 0, 0)),
    ("encode", (8, 0, 0, 0, 0)),
    ("decode", (-1, 0, 0, 0, 0, 0, 0)),
    ("encode", (-1, 0, 0, 0, 0)),
], ids=["decode-9", "encode-8", "decode-neg", "encode-neg"])
def test_symbols_outside_the_field_are_rejected(gf8, method, word):
    rs = RSCode(gf8, 7, 5)
    with pytest.raises(InvalidSymbol, match=f"symbol {word[0]} "):
        getattr(rs, method)(word)


# -- regression corpus ----------------------------------------------------------

# Eleven codes over eight fields, root offsets 0, 1 and 3, two shortened.
# The last two have n(n - k) >= VECTOR_WORK, so they take the gathered
# syndromes and Chien search; their digests were recorded with Horner.
CORPUS_CODES = {
    "gf5-4-2": lambda: RSCode(FiniteField(5), 4, 2),
    "gf7-6-2-m0": lambda: RSCode(FiniteField(7), 6, 2, m0=0),
    "gf8-7-3": lambda: RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 3),
    "gf8-7-5-m3": lambda: RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 5, m0=3),
    "gf9-8-4-m0": lambda: RSCode(FiniteField(3, 2, (2, 1, 1)), 8, 4, m0=0),
    "gf11-10-4": lambda: RSCode(FiniteField(11), 10, 4),
    "gf16-15-9": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 9),
    "gf16-15-7-m3": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 7,
                                   m0=3),
    "gf16-15-11-short5": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)),
                                        15, 11, shorten_by=5),
    "gf64-63-47-m0": lambda: RSCode(FiniteField(2, 6, (1, 1, 0, 0, 0, 0, 1)),
                                    63, 47, m0=0),
    "gf32-31-19-short7": lambda: RSCode(FiniteField(2, 5, (1, 0, 1, 0, 0, 1)),
                                        31, 19, shorten_by=7),
}


def corpus_words(rs, size, seed):
    """`size` seeded (word, erasures) pairs: codewords hit by up to n - k
    erasures plus errors within the radius, codewords hit beyond it,
    and random words, in turn."""
    f, rng = rs.field, random.Random(seed)
    n, k, nk = rs.n, rs.k, rs.n - rs.k
    for i in range(size):
        s = rng.randint(0, nk)
        if i % 4 == 3:
            word = tuple(rng.randrange(f.q) for _ in range(n))
            yield word, tuple(rng.sample(range(n), s))
            continue
        word = list(rs.encode([rng.randrange(f.q) for _ in range(k)]))
        radius = (nk - s) // 2
        e = rng.randint(0, radius) if i % 4 < 2 else rng.randint(radius + 1, n - s)
        where = rng.sample(range(n), s + e)
        for p in where[:s]:
            word[p] = rng.randrange(f.q)
        for p in where[s:]:
            word[p] = f.add(word[p], rng.randrange(1, f.q))
        yield tuple(word), tuple(where[:s])


def corpus_digest(rs, solver, size, seed):
    h = hashlib.sha256()
    decode = getattr(rs, f"{solver}_decode")
    for word, erasures in corpus_words(rs, size, seed):
        h.update(repr(decode(word, erasures)).encode())
    return h.hexdigest()


CORPUS_DIGESTS = {
    'gf5-4-2':
        "1639878b67b396727f59a2dc30436a75af1a6a8f88aefa9fd00776b0ac4d1d33",
    'gf7-6-2-m0':
        "9eede13c7c5d71b916f2919cec4ee79df279417468054b9d94051b5ddb0b1dc3",
    'gf8-7-3':
        "a3016a3bf077ba4ce1c0b4a85adaecec3b075a0e58b42e1228c0d65ad1a22869",
    'gf8-7-5-m3':
        "7e89fbc7db4ab6174da3019ef3ee011f9007628e3f82b5ae9483f8b56ace0dc8",
    'gf9-8-4-m0':
        "d03292045fa1ac2d77228599889e110d306931205a231a6773a6f2a58d3657fb",
    'gf11-10-4':
        "2f97aff0bb6ae5002257afe62c593eaf325269618dba507676ef23529f68e970",
    'gf16-15-9':
        "ea1ef478d4b6cb3ea8295d806d853792229a2eb78e28c969d1051ba5caedb2af",
    'gf16-15-7-m3':
        "28e433d160ebdda6d656048a8c596d1e84ddcce5c0a5b4cd221427cecee7a5f3",
    'gf16-15-11-short5':
        "aa9419a36c3a405b470dee39f795aa48903f419ae975eeb2b2237da3bc0d453c",
    'gf64-63-47-m0':
        "272c0652eddc728304f39138ac61fa52de4daad3b9321e6941fb36969c863b1e",
    'gf32-31-19-short7':
        "c36dbcd59902690303510c940c60b7fdd7f43d238e4101a7eb6793dc943dc0da",
}


@pytest.mark.parametrize("solver", RSCode.DECODERS)
@pytest.mark.parametrize("name", CORPUS_CODES)
def test_decode_corpus_digest(name, solver):
    # every DecodeOutcome, key_state included, as PGZ gave them before
    # the two solvers were given one (sigma, omega) return shape; Euclid,
    # stopping at Sugiyama's bound, gives the same outcomes
    rs = CORPUS_CODES[name]()
    assert corpus_digest(rs, solver, 500, seed=6) == CORPUS_DIGESTS[name]


# -- the key-equation memo of small codes -------------------------------------------

@pytest.mark.parametrize("solver", RSCode.DECODERS)
@pytest.mark.parametrize("name", CORPUS_CODES)
def test_decode_corpus_digest_twice_with_one_code(name, solver):
    # the second pass is all memo hits on the words with few keys: every
    # word of the GF(5) code and of the GF(8) [7,5] code, and the
    # erasure-free words of the GF(7) code and of the GF(8) [7,3] code
    rs = CORPUS_CODES[name]()
    for _ in range(2):
        assert corpus_digest(rs, solver, 500, seed=6) == CORPUS_DIGESTS[name]


@pytest.mark.parametrize("n,k,m0,shorten_by", [(7, 3, 1, 0), (7, 5, 0, 2)])
def test_memo_cleared_when_full_keeps_outcomes(gf8, monkeypatch, n, k, m0, shorten_by):
    monkeypatch.setattr(reed_solomon, "MEMO_CAP", 4)
    rs = RSCode(gf8, n, k, m0=m0, shorten_by=shorten_by)
    for word, erasures in corpus_words(rs, 200, seed=9):
        for solver in RSCode.DECODERS:
            fresh = RSCode(gf8, n, k, m0=m0, shorten_by=shorten_by)
            want = getattr(fresh, f"{solver}_decode")(word, erasures)
            assert getattr(rs, f"{solver}_decode")(word, erasures) == want


def test_memo_shares_key_state_on_small_codes_only(gf8):
    small = RSCode(gf8, 7, 5)
    word = list(small.encode((1, 2, 3, 4, 5)))
    word[2] ^= 6
    a, b = small.decode(word), small.decode(word)
    assert a.corrected and a == b and a.key_state is b.key_state
    a, b = small.decode(word, [2, 3]), small.decode(word, [2, 3])
    assert a.corrected and a == b and a.key_state is b.key_state
    assert a.key_state.sigma2.degree == 2

    # 8^4 syndromes times 7 single erasures are too many keys for RS(7,3)
    rs73 = RSCode(gf8, 7, 3)
    word = list(rs73.encode((1, 2, 3)))
    word[2] ^= 6
    a, b = rs73.decode(word, [4]), rs73.decode(word, [4])
    assert a.corrected and a == b and a.key_state is not b.key_state

    large = RSCode(FiniteField(2, 8), 255, 223)
    word = list(large.encode(range(223)))
    word[7] ^= 9
    a, b = large.decode(word), large.decode(word)
    assert a.corrected and a == b and a.key_state is not b.key_state


def test_erasure_free_words_share_one_empty_erasure_set(gf8):
    # memo keys hold the erasures of every word they saw; erasure-free
    # words, shortened ones and interleaved columns included, hold one set
    empty = ReceivedWord.make((1, 2)).erasures
    assert ReceivedWord.make((3, 4), []).erasures is empty
    rs = RSCode(gf8, 7, 5, shorten_by=2)
    columns = InterleavedCode(RSCode(gf8, 7, 5), 3)
    rng = random.Random(4)
    for _ in range(20):
        word = list(rs.encode([rng.randrange(8) for _ in range(3)]))
        word[rng.randrange(5)] ^= rng.randrange(1, 8)
        assert rs.decode(word).corrected
        word = list(columns.encode([rng.randrange(8) for _ in range(15)]))
        word[rng.randrange(21)] ^= rng.randrange(1, 8)
        assert columns.decode(word).corrected
    for code in (rs, columns.base):
        assert code._memo and all(e is empty for _, e, _ in code._memo)


# -- the erasure-only step ---------------------------------------------------------

def erasure_words(rs, erasures, rng):
    """Words with `erasures` garbled: a codeword, a codeword with errors
    within the rest of the radius, and beyond it, and a random word."""
    f, n, nk = rs.field, rs.n, rs.n - rs.k
    others = [i for i in range(n) if i not in erasures]
    for e in (0, (nk - len(erasures)) // 2, (nk - len(erasures)) // 2 + 1, None):
        if e is None:
            yield [rng.randrange(f.q) for _ in range(n)]
            continue
        word = list(rs.encode([rng.randrange(f.q) for _ in range(rs.k)]))
        for p in erasures:
            word[p] = rng.randrange(f.q)
        for p in rng.sample(others, min(e, len(others))):
            word[p] = f.add(word[p], rng.randrange(1, f.q))
        yield word


@pytest.mark.parametrize("k", [3, 5])
def test_erasure_only_step_equals_both_solvers(gf8, k):
    # on every erasure set with s <= n - k, wherever the step fires its
    # (sigma, omega) is what Euclid and PGZ return for the same s_hat
    rs, nk = RSCode(gf8, 7, k), 7 - k
    rng, fired, passed = random.Random(k), 0, 0
    for s in range(nk + 1):
        for erasures in combinations(range(7), s):
            sigma2 = Poly.from_roots(gf8, [rs._chien_points[e] for e in erasures])
            for _ in range(3):
                for word in erasure_words(rs, erasures, rng):
                    S = rs.syndromes(ReceivedWord.make(word, erasures))
                    s_hat = sigma2 * S
                    found = rs._solve_erasures(s_hat, nk, s)
                    if found is None:
                        passed += 1
                        continue
                    fired += 1
                    assert found == rs._solve_euclid(s_hat, nk, s)
                    assert found == rs._solve_pgz(s_hat, nk, s)
    assert fired and passed


@pytest.mark.parametrize("k", [3, 5])
def test_erasure_only_step_keeps_every_outcome(gf8, k, monkeypatch):
    # with the step or without it, every word decodes to the same
    # outcome, key_state included, by either solver
    words, rng = [], random.Random(10 + k)
    for s in range(7 - k + 1):
        for erasures in combinations(range(7), s):
            words += [(w, erasures) for w in erasure_words(RSCode(gf8, 7, k), erasures, rng)]
    with_step = [[RSCode(gf8, 7, k, decoder=d).decode(w, e) for w, e in words]
                 for d in RSCode.DECODERS]
    monkeypatch.setattr(RSCode, "_solve_erasures", lambda self, s_hat, nk, t: None)
    without = [[RSCode(gf8, 7, k, decoder=d).decode(w, e) for w, e in words]
               for d in RSCode.DECODERS]
    assert with_step == without
    assert any(out.corrected and out.key_state and out.key_state.sigma.degree == 0
               for out in with_step[0])


def test_erasure_only_step_skips_the_solver(gf8, monkeypatch):
    # a word whose only corruption is erasures never reaches a solver
    rs = RSCode(gf8, 7, 3)
    word = list(rs.encode((1, 2, 3)))
    for p in (0, 2, 5, 6):
        word[p] ^= 7
    calls = []
    for name in ("_solve_euclid", "_solve_pgz"):
        monkeypatch.setattr(RSCode, name, lambda self, *a: calls.append(a))
    out = rs.decode(word, (0, 2, 5, 6))
    assert out.corrected and out.codeword == rs.encode((1, 2, 3)) and not calls


# -- the one log-matrix kernel and its two backends -----------------------------------

def numpy_backend(rows):
    import numpy as np

    return np.array(rows, dtype=np.intp)


# (prime, m, backend): GF(2^m) over both backends, odd p over the pure-Python one
KERNEL_CASES = {
    "2": (2, 2, numpy_backend), "8": (2, 8, numpy_backend), "10": (2, 10, numpy_backend),
    "2-python": (2, 2, list), "8-python": (2, 8, list), "10-python": (2, 10, list),
    "gf9-python": (3, 2, list), "gf11-python": (11, 1, list),
}


@pytest.mark.parametrize("prime,m,backend", KERNEL_CASES.values(), ids=KERNEL_CASES)
def test_gather_eval_matches_horner(prime, m, backend):
    f = FiniteField(prime, m)
    rng = random.Random(m)
    points = [f.exp(rng.randrange(f.q - 1)) for _ in range(9)] + [1]
    rows = reed_solomon.power_log_rows(f, points, 12)
    powers = [[f.pow(x, i) for i in range(12)] for x in points]
    assert rows == reed_solomon.log_rows(f, powers)
    E = backend(rows)
    for size in [0, 1, 5, 12]:
        for _ in range(20):
            # zero coefficients, trailing ones included, read the zero tail
            coeffs = [rng.choice((0, rng.randrange(f.q))) for _ in range(size)]
            p = Poly(f, coeffs)
            assert reed_solomon.gather_eval(f, E, coeffs) == [p(x) for x in points]


@pytest.mark.parametrize("prime,m,backend", KERNEL_CASES.values(), ids=KERNEL_CASES)
def test_gather_eval_reads_the_listed_rows_and_columns(prime, m, backend):
    f = FiniteField(prime, m)
    rng = random.Random(f.q)
    M = [[rng.randrange(f.q) for _ in range(6)] for _ in range(5)]
    E = backend(reed_solomon.log_rows(f, M))
    for rows, cols in [([], [0]), ([4, 0, 4], [5, 1]), ([2], []), (None, [3, 0, 2])]:
        coeffs = [rng.randrange(f.q) for _ in cols]
        want = [reduce(f.add, [f.mul(M[j][i], c) for i, c in zip(cols, coeffs)], 0)
                for j in (range(5) if rows is None else rows)]
        assert reed_solomon.gather_eval(f, E, coeffs, rows=rows, cols=cols) == want


@pytest.mark.parametrize("solver", RSCode.DECODERS)
def test_gathered_corpus_matches_horner_digests(monkeypatch, solver):
    # with the gate at 0 every GF(2^m) corpus code gathers; the digests
    # were recorded with Horner's rule
    monkeypatch.setattr(reed_solomon, "VECTOR_WORK", 0)
    for name, build in CORPUS_CODES.items():
        rs = build()
        assert rs._gathered == (rs.field.p == 2)
        assert corpus_digest(rs, solver, 500, seed=6) == CORPUS_DIGESTS[name]


def test_rs255_gathered_decodes_equal_horner(monkeypatch):
    f = FiniteField(2, 8)
    gathered = RSCode(f, 255, 223)
    monkeypatch.setattr(reed_solomon, "VECTOR_WORK", 255 * 32 + 1)
    horner = RSCode(f, 255, 223)
    assert gathered._gathered and not horner._gathered
    # errors, erasures and words beyond the radius, by both solvers
    verdicts = set()
    for word, erasures in corpus_words(gathered, 200, seed=11):
        for solver in RSCode.DECODERS:
            want = getattr(horner, f"{solver}_decode")(word, erasures)
            assert getattr(gathered, f"{solver}_decode")(word, erasures) == want
            verdicts.add((want.verdict, bool(erasures)))
    assert len(verdicts) == 4

    # Forney's values on erasures alone, and words whose locator passes
    # the Chien count and whose re-check then rejects them: with n - k - 1
    # erasures PGZ solves for no error locator, so the locator is the
    # erasure locator, and two errors outside the erasures fail the re-check
    rng = random.Random(12)
    seen = set()
    for i in range(60):
        word = list(horner.encode([rng.randrange(256) for _ in range(223)]))
        s, e = (rng.randint(1, 32), 0) if i % 2 else (31, 2)
        where = rng.sample(range(255), s + e)
        for p in where[:s]:
            word[p] = rng.randrange(256)
        for p in where[s:]:
            word[p] ^= rng.randrange(1, 256)
        for solver in RSCode.DECODERS:
            want = getattr(horner, f"{solver}_decode")(word, where[:s])
            assert getattr(gathered, f"{solver}_decode")(word, where[:s]) == want
            seen.add((want.verdict, e, solver))
    assert {("corrected", 0, "euclid"), ("corrected", 0, "pgz"),
            ("uncorrectable", 2, "pgz")} <= seen


LARGE_CODES = {
    "rs255": lambda: RSCode(FiniteField(2, 8), 255, 223),
    "gf64-63-47-short10": lambda: RSCode(FiniteField(2, 6, (1, 1, 0, 0, 0, 0, 1)),
                                         63, 47, shorten_by=10),
}


@pytest.mark.parametrize("name", LARGE_CODES)
def test_gathered_encode_equals_horner(monkeypatch, name):
    gathered = LARGE_CODES[name]()
    monkeypatch.setattr(reed_solomon, "VECTOR_WORK", 1 << 30)
    horner = LARGE_CODES[name]()
    assert gathered._gathered and not horner._gathered
    q, k, rng = gathered.field.q, gathered.k, random.Random(16)
    for i in range(300):
        # full and short messages, zero symbols included
        size = k if i % 3 else rng.randint(0, k)
        msg = [rng.choice((0, rng.randrange(q))) for _ in range(size)]
        assert gathered.encode(msg) == horner.encode(msg)
    # non-systematic encodes are the product u*g on both
    if not gathered.shorten_by:
        assert gathered.encode(msg, systematic=False) == horner.encode(msg, systematic=False)
    for bad, error in [([256] + [0] * (k - 1), InvalidSymbol),
                       ([q - 1, -1], InvalidSymbol),
                       ([1] * (k + 1), DegreeTooHigh)]:
        for rs in (gathered, horner):
            with pytest.raises(FecError) as raised:
                rs.encode(bad)
            assert type(raised.value) is error


# every corpus code, RS(7,5) over GF(8) and the large codes: small, odd-p,
# shortened and gathered codes, with m0 of 0, 1 and 3
ENCODE_CODES = {**CORPUS_CODES, **LARGE_CODES,
                "gf8-7-5": lambda: RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 5)}


@pytest.mark.parametrize("name", ENCODE_CODES)
def test_systematic_encode_equals_cyclic_division(name):
    # every systematic encode reads the parity map -P^T; the oracle is the
    # long division of the cyclic encoder, with the suppressed block removed
    rs = ENCODE_CODES[name]()
    cut = rs.shorten_by
    oracle = CyclicCode(rs.field, rs.n + cut, rs.g)
    q, k, rng = rs.field.q, rs.k, random.Random(name)
    for i in range(300):
        # full and short messages, zero symbols included
        size = k if i % 3 else rng.randint(0, k)
        msg = [rng.choice((0, rng.randrange(q))) for _ in range(size)]
        want = oracle.encode(msg + [0] * (k + cut - size))
        assert rs.encode(msg) == want[:k] + want[k + cut:]
    # the exception types of the encoder these encodes left, and of the
    # gathered one; a trailing 0.0, which the cyclic encoder's Poly
    # dropped, is no symbol for the word check either
    for bad, error in [([1] * (k + 1), DegreeTooHigh), ([q] + [0] * (k - 1), InvalidSymbol),
                       ([q - 1, -1], InvalidSymbol), ([1.0], InvalidSymbol),
                       ([0.0, 1], InvalidSymbol), (["1"], InvalidSymbol),
                       ([None], InvalidSymbol), ([1, None], InvalidSymbol),
                       ([1, 0.0], InvalidSymbol)]:
        with pytest.raises(FecError) as raised:
            rs.encode(bad)
        assert type(raised.value) is error


# every unshortened corpus code, RS(7,3) over GF(8) among them, and binary
# BCH codes over GF(16) and GF(32)
NONSYSTEMATIC_CODES = {
    **{name: build for name, build in CORPUS_CODES.items() if "short" not in name},
    "bch-15-5": lambda: BCHCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 2, 7),
    "bch-15-7": lambda: BCHCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 2, 5),
    "bch-31-16": lambda: BCHCode(FiniteField(2, 5, (1, 0, 1, 0, 0, 1)), 2, 7),
}


@pytest.mark.parametrize("name", NONSYSTEMATIC_CODES)
def test_nonsystematic_encode_equals_cyclic_product(name):
    code = NONSYSTEMATIC_CODES[name]()
    oracle = CyclicCode(code.field, code.n, code.g)
    symbols, k, rng = sorted(code.subfield), code.k, random.Random(name)
    for i in range(300):
        # full and short messages, zero symbols included
        size = k if i % 3 else rng.randint(0, k)
        msg = [rng.choice((0, rng.choice(symbols))) for _ in range(size)]
        assert code.encode(msg, systematic=False) == oracle.encode(msg, systematic=False)
    # bad messages raise the cyclic encoder's exception types
    q = code.field.q
    for bad, error in [([q] + [0] * (k - 1), InvalidSymbol), ([1, -1], InvalidSymbol),
                       ([1, 0.0], InvalidSymbol), ([1] * (k + 1), DegreeTooHigh)]:
        with pytest.raises(FecError) as raised:
            code.encode(bad, systematic=False)
        assert type(raised.value) is error


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def pool_digest(name, seed, monkeypatch):
    """sha256 over the benchmark pool's codewords and outcomes, and over
    the outcome, key_state included, of every RS decode they ran."""
    spec = importlib.util.spec_from_file_location("blockfec_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    h, decode = hashlib.sha256(), RSCode._decode

    def traced(*args):
        out = decode(*args)
        h.update(repr(out).encode())
        return out

    monkeypatch.setattr(RSCode, "_decode", traced)
    w = workloads.WORKLOADS[name]
    codes = w.build()
    for op in islice(w.ops(seed), w.pool_len):
        result = w.step(codes, op)
        h.update(repr((result.get("sent"), result.get("out"), result.get("error"))).encode())
    return h.hexdigest()


# recorded while the small and odd-p codes still ran Horner's rule and
# cyclic division, and only the large codes the numpy gathers
POOL_DIGESTS = {
    'burst_gf8/1':
        "0e9ddcb1afeaed3bce00cabc1e6f8728418da1032c9f4783673f7811fbbe0452",
    'burst_gf8/7':
        "46fe9f63ffbcc1ad26ea991e02cf5ba3f5694288283912101f8676a26c6c7459",
    'rs255/1':
        "7ab09ca498db2a7df0994deac7cab4b087dbcb66eba320d2f4dd82e5a42430d4",
    'rs255/7':
        "7714ffa118655df01af9a61a90d320ae6e34d3c0747e8d0ac659537e025e00d6",
}


@pytest.mark.parametrize("key", POOL_DIGESTS)
def test_bench_pool_outcomes_unchanged(key, monkeypatch):
    name, seed = key.split("/")
    assert pool_digest(name, int(seed), monkeypatch) == POOL_DIGESTS[key]


def test_gathered_code_takes_words_of_bools():
    # bools are ints to the word check, and to the gather they must stay
    # indices, never a mask
    rs = LARGE_CODES["rs255"]()
    word = rs.encode([True] * 223)
    assert word == rs.encode([1] * 223)
    assert rs.decode([bool(x) for x in word]).verdict == rs.decode(word).verdict


def test_small_codes_code_without_numpy():
    # importing the package and its CLI loads no numpy, nor does coding
    # with small codes, their interleaves and products; the large codes'
    # gathered backend loads it
    probe = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        import blockfec, blockfec.cli
        from blockfec.codespec import build
        from blockfec.galois import GF
        from blockfec.reed_solomon import RSCode
        print("numpy" in sys.modules)
        rs = RSCode(GF(2, 4), 15, 9)
        word = list(rs.encode(range(9)))
        word[3] ^= 5
        assert rs.decode(word).corrected
        gf8 = "GF(2^3)[1,1,0,1]"
        for spec in (f"interleaved:depth=4,base={{rs:field={gf8},n=7,k=5}}",
                     f"product:outer={{rs:field={gf8},n=7,k=3}},"
                     f"inner={{rs:field={gf8},n=7,k=5}}"):
            code = build(spec)
            word = list(code.encode([1] * code.k))
            word[0] ^= 3
            assert code.decode(word, [5]).corrected
        print("numpy" in sys.modules)
        RSCode(GF(2, 8), 255, 223).encode([1])
        print("numpy" in sys.modules)
    """
    where = str(Path(reed_solomon.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", probe, where], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == ["False", "False", "True"]


# -- the batch decoder ----------------------------------------------------------

BATCH_CODES = {
    "rs7_3": lambda: RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 3),
    "rs7_5": lambda: RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 5),
    # t = 0: every error is detected
    "rs7_6": lambda: RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 6),
    "rs10_4-pgz": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 9,
                                 shorten_by=5, decoder="pgz"),
    "rs10_4-euclid": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 9,
                                    shorten_by=5),
    "rs15_11-m0=0": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 11, m0=0),
    "rs15_11-m0=2": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 11, m0=2),
    "rs255": lambda: RSCode(FiniteField(2, 8), 255, 223),
    # 64 % m != 0 and (n - k) m > 64: the syndromes fill more than one
    # lane, and a symbol packed at bit m j would straddle two
    "rs31_15": lambda: RSCode(FiniteField(2, 5), 31, 15),
    "rs63_39": lambda: RSCode(FiniteField(2, 6), 63, 39),
    # odd n - k: one syndrome more than 2t
    "rs15_8": lambda: RSCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 8),
    # n q lanes above BATCH_WORK: the log matrices stand in for the tables
    "rs15_7-gf65536": lambda: RSCode(FiniteField(2, 16), 15, 7),
}
# beyond the radius these codes miscorrect too rarely to show in a test
RARE_MISCORRECTION = ("rs255", "rs31_15", "rs63_39", "rs15_7-gf65536")


def batch_words(rs, count, seed):
    """(sent codewords, received words) as arrays: random messages, each
    word hit by 0 to n - k + 2 errors at random positions."""
    rng = np.random.default_rng(seed)
    q, n, k = rs.field.q, rs.n, rs.k
    sent = np.array([rs.encode(u) for u in rng.integers(0, q, (count, k)).tolist()])
    hits = rng.random((count, n)).argsort(axis=1) < rng.integers(0, n - k + 3, (count, 1))
    return sent, sent ^ np.where(hits, rng.integers(1, q, (count, n)), 0)


@pytest.mark.parametrize("name", BATCH_CODES)
def test_decode_batch_equals_decode(name):
    rs = BATCH_CODES[name]()
    sent, words = batch_words(rs, 300 if name == "rs255" else 10_000, seed=len(name))
    ok, codewords = rs.decode_batch(words)
    want_ok, want = [], []
    for word in words.tolist():
        out = rs.decode(word)
        want_ok.append(out.corrected)
        want.append(out.codeword if out.corrected else word)
    assert ok.tolist() == want_ok
    assert codewords.tolist() == [list(c) for c in want]
    # beyond the radius some words are detected, and on the small codes
    # some are miscorrected
    assert not ok.all()
    if name not in RARE_MISCORRECTION + ("rs7_6",):
        assert (ok & (codewords != sent).any(axis=1)).any()


@pytest.mark.parametrize("name", ["rs7_3", "rs10_4-pgz", "rs255", "rs31_15", "rs63_39",
                                  "rs15_8", "rs15_7-gf65536"])
def test_batch_encoder_equals_encode(name):
    # the Monte Carlo kernel encodes its messages with it
    rs = BATCH_CODES[name]()
    messages = np.random.default_rng(7).integers(0, rs.field.q, (200, rs.k))
    assert rs._batch.encode(messages).tolist() == [
        list(rs.encode(u)) for u in messages.tolist()]


def test_packed_tables_up_to_batch_work(monkeypatch):
    # RS(10,4) over GF(16) packs its 6 syndromes in one lane: 10 * 16 * 1
    # table entries.  At BATCH_WORK = 160 it is packed, at 159 it takes
    # the log matrices, and both decode as the scalar decoder does
    assert BATCH_CODES["rs255"]()._batch.packed
    assert not BATCH_CODES["rs15_7-gf65536"]()._batch.packed
    _, words = batch_words(BATCH_CODES["rs10_4-pgz"](), 2000, seed=5)
    results = []
    for work in (160, 159):
        monkeypatch.setattr(reed_solomon, "BATCH_WORK", work)
        rs = BATCH_CODES["rs10_4-pgz"]()
        assert rs._batch.packed == (work == 160)
        results.append(rs.decode_batch(words))
        messages = np.random.default_rng(9).integers(0, 16, (100, rs.k))
        assert rs._batch.encode(messages).tolist() == [
            list(rs.encode(u)) for u in messages.tolist()]
    want = [rs.decode(word) for word in words.tolist()]
    for ok, codewords in results:
        assert ok.tolist() == [out.corrected for out in want]
        assert codewords.tolist() == [list(out.codeword) if out.corrected else word
                                      for out, word in zip(want, words.tolist())]


@pytest.mark.parametrize("name", ["rs10_4-pgz", "rs15_8", "rs15_7-gf65536"])
def test_batch_recheck_rejects_a_faulty_forney_stage(name):
    # every error value is off by a factor alpha: the re-check at the
    # roots turns each correction into a rejection, and no word comes
    # out miscorrected
    rs = BATCH_CODES[name]()
    batch = rs._batch
    batch.forney = (batch.forney + 1) % batch.order
    sent, words = batch_words(rs, 2000, seed=6)
    ok, codewords = rs.decode_batch(words)
    clean = ~(words != sent).any(axis=1)
    assert clean.any() and not clean.all()
    assert (ok == clean).all() and (codewords == words).all()


def test_batch_input_is_checked(gf9):
    rs = BATCH_CODES["rs7_5"]()
    for bad, error in [([[0] * 6], LengthMismatch), ([0] * 7, LengthMismatch),
                       ([[0] * 6 + [8]], InvalidSymbol), ([[0] * 6 + [-1]], InvalidSymbol),
                       ([[0.0] * 7], InvalidSymbol)]:
        with pytest.raises(error):
            rs.decode_batch(bad)
    with pytest.raises(InvalidParams):
        RSCode(gf9, 8, 4).decode_batch([[0] * 8])
    ok, codewords = rs.decode_batch(np.zeros((0, 7), dtype=int))
    assert ok.shape == (0,) and codewords.shape == (0, 7)
    word = [True, False] * 3 + [True]
    assert rs.decode_batch([word])[0][0] == rs.decode(word).corrected


def test_batch_decodes_in_chunks(monkeypatch):
    # chunks of one word decode as one batch does
    monkeypatch.setattr(reed_solomon, "BATCH_WORK", 1)
    rs = BATCH_CODES["rs10_4-pgz"]()
    _, words = batch_words(rs, 500, seed=3)
    ok, codewords = rs.decode_batch(words)
    monkeypatch.undo()
    fresh = BATCH_CODES["rs10_4-pgz"]()
    assert rs._batch.chunk == 1 and fresh._batch.chunk > 500
    ok2, codewords2 = fresh.decode_batch(words)
    assert (ok == ok2).all() and (codewords == codewords2).all()


def test_reed_solomon_imports_numpy_only_inside_functions():
    # and so do `linear` and `channel`, which the package imports
    package = Path(reed_solomon.__file__).parent
    for module in ("reed_solomon", "linear", "channel"):
        tree = ast.parse((package / f"{module}.py").read_text())
        top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        names = [alias.name for node in top for alias in node.names]
        names += [node.module or "" for node in top if isinstance(node, ast.ImportFrom)]
        assert names and not any(name.split(".")[0] == "numpy" for name in names), module


def test_monte_carlo_reaches_families_only_through_batch_codec():
    # `channel` imports no family, so it cannot grow a branch per family,
    # and no module probes an object for an attribute
    package = Path(reed_solomon.__file__).parent
    channel = ast.parse((package / "channel.py").read_text())
    imported = {alias.name for node in ast.walk(channel)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    families = {"RSCode", "GolayCode", "HammingCode", "BCHCode", "InterleavedCode",
                "SerialProduct"}
    assert imported and not imported & families
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "hasattr", path.name
                assert not (node.func.id == "getattr" and len(node.args) == 3), path.name
