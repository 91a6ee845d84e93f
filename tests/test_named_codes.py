"""Hamming and Golay codes with their dedicated decoders."""

from itertools import combinations

import pytest

from blockfec import GolayCode, HammingCode, golay23_decode, golay24_decode
from blockfec.errors import InvalidParams
from blockfec.linear import hamming_weight
from blockfec.named_codes import _P, _Q


def bits(s):
    return tuple(int(c) for c in s if c in "01")


# -- Hamming ------------------------------------------------------------------

@pytest.mark.parametrize("make", [lambda: HammingCode(1), lambda: HammingCode(0),
                                  lambda: GolayCode("G22"), lambda: GolayCode("g24")],
                         ids=["hamming-1", "hamming-0", "golay-G22", "golay-g24"])
def test_bad_parameters_raise_invalid_params(make):
    with pytest.raises(InvalidParams):
        make()


def test_hamming_r3_parity_matrix():
    h = HammingCode(3)
    assert h.code.H.rows == (
        (0, 0, 0, 1, 1, 1, 1),
        (0, 1, 1, 0, 0, 1, 1),
        (1, 0, 1, 0, 1, 0, 1),
    )


def test_hamming_r2_is_repetition():
    h = HammingCode(2)
    assert (h.n, h.k) == (3, 1)
    assert h.code.min_distance() == 3
    assert set(c for u, c in h.code.codewords()) == {(0, 0, 0), (1, 1, 1)}


def test_hamming_r4_distance():
    h = HammingCode(4)
    assert (h.n, h.k) == (15, 11)
    assert h.code.min_distance() == 3


def test_hamming_syndrome_points_at_error():
    h = HammingCode(3)
    out = h.decode(bits("1100101"))
    assert out.error_positions == (0,)
    assert out.codeword == bits("0100101")


def test_hamming_zero_syndrome_keeps_word():
    h = HammingCode(3)
    c = h.encode((1, 0, 1, 1))
    out = h.decode(c)
    assert out.codeword == c and out.error_positions == ()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_hamming_corrects_every_single_error(r):
    h = HammingCode(r)
    messages = (
        list(h.code.messages()) if r == 3 else
        [tuple(1 if i == j else 0 for i in range(h.k)) for j in range(h.k)]
    )
    for u in messages:
        c = h.encode(u)
        for i in range(h.n):
            w = list(c)
            w[i] ^= 1
            out = h.decode(tuple(w))
            assert out.codeword == c
            assert out.error_positions == (i,)
            assert out.info == u


# -- Golay construction ----------------------------------------------------------

def test_q_rows_pairwise_distance_and_orthogonality():
    rows = _Q
    for a, b in combinations(rows, 2):
        assert sum(x ^ y for x, y in zip(a, b)) == 6
        assert sum(x & y for x, y in zip(a, b)) % 2 == 0


def test_q_columns_pairwise_distance():
    cols = list(zip(*_Q))
    for a, b in combinations(cols, 2):
        assert sum(x ^ y for x, y in zip(a, b)) == 6


def test_rotation_structure():
    p0 = _P[0][:11]
    for i, row in enumerate(_P):
        assert row[:11] == p0[-i:] + p0[:-i] if i else row[:11] == p0


def test_h1_row_weights():
    g = GolayCode("G24")
    weights = [sum(r) for r in g.H1.rows]
    assert weights[:11] == [8] * 11
    assert all(w % 4 == 0 for w in weights)


def test_g24_self_dual():
    g = GolayCode("G24")
    prod = g.H1 @ g.H1.transpose()
    assert all(not any(r) for r in prod.rows)


def test_g24_codeword_weights_divisible_by_4():
    g = GolayCode("G24")
    for u, c in g.code.codewords():
        assert hamming_weight(c) % 4 == 0


def test_g23_is_perfect():
    g = GolayCode("G23")
    rep = g.code.bounds_report()
    assert rep["perfect"]
    assert g.code.sphere_size(3) == 2048
    assert g.code.min_distance() == 7


def test_g24_min_distance():
    g = GolayCode("G24")
    assert min(hamming_weight(c) for u, c in g.code.codewords() if any(u)) == 8


# -- Golay decoding -----------------------------------------------------------------

def test_extended_decode_worked_example():
    r = bits("011110111010 001100000010")
    out = golay24_decode(r)
    assert out.corrected
    assert out.info == bits("011110011010")
    assert 6 in out.error_positions


def test_extended_decode_codeword_passthrough():
    g = GolayCode("G24")
    u = bits("101010101010")
    c = g.encode(u)
    out = golay24_decode(c)
    assert out.info == u and out.codeword == c


def test_g23_decode_first_vector():
    r = bits("11001110110 001111011101")
    assert golay23_decode(r).info == bits("100011101100")


def test_g23_decode_second_vector_needs_odd_parity():
    r = bits("01001111101 101111000000")
    # the even-parity completion is undecodable; the odd one is used
    assert not golay24_decode(r + (0,)).corrected
    assert golay23_decode(r).info == bits("011011111111")


def test_g23_zero_word():
    assert golay23_decode((0,) * 23).info == (0,) * 12


def test_g23_encode_satisfies_parity_matrix():
    import random

    g = GolayCode("G23")
    rng = random.Random(6)
    for _ in range(100):
        u = tuple(rng.randrange(2) for _ in range(12))
        assert g.code.contains(g.encode(u))
        assert g.encode(u)[:12] == u


def test_g24_corrects_all_weight_le3_on_zero():
    zero = (0,) * 24
    out = golay24_decode(zero)
    assert out.info == (0,) * 12
    count = 0
    for w in (1, 2, 3):
        for pos in combinations(range(24), w):
            r = [0] * 24
            for p in pos:
                r[p] = 1
            out = golay24_decode(tuple(r))
            assert out.corrected and out.info == (0,) * 12
            assert set(out.error_positions) == set(pos)
            count += 1
    assert count == 24 + 276 + 2024


def test_g23_corrects_all_weight_le3_on_zero():
    for w in (1, 2, 3):
        for pos in combinations(range(23), w):
            r = [0] * 23
            for p in pos:
                r[p] = 1
            out = golay23_decode(tuple(r))
            assert out.corrected and out.info == (0,) * 12


def test_g24_weight4_never_miscorrects():
    # every weight-4 pattern on the zero codeword must be rejected: a
    # silent decode would be a codeword within distance 3 of the
    # pattern, hence of weight < 8
    for pos in combinations(range(24), 4):
        r = [0] * 24
        for p in pos:
            r[p] = 1
        out = golay24_decode(tuple(r))
        assert not out.corrected


def test_g24_random_roundtrip():
    import random

    g = GolayCode("G24")
    rng = random.Random(99)
    for _ in range(200):
        u = tuple(rng.randrange(2) for _ in range(12))
        c = g.encode(u)
        w = list(c)
        for p in rng.sample(range(24), rng.randrange(4)):
            w[p] ^= 1
        assert g.decode(tuple(w)).info == u
