"""Bursts, interleaving, product codes, and the redundancy bound."""

import random
from fractions import Fraction

import pytest

from blockfec import (
    BurstPattern,
    FiniteField,
    InterleavedCode,
    LinearCode,
    ProductCode,
    ProductDecodePolicy,
    RSCode,
    burst_span,
    is_burst,
    product_min_distance,
    reiger_report,
    rs_binary_burst_efficiency,
)
from blockfec.errors import InvalidSpan


# -- burst predicates ----------------------------------------------------------

def bits(s):
    return tuple(int(c) for c in s)


def test_is_burst_examples():
    assert is_burst(bits("000101100000000"), 4)
    assert is_burst(bits("000000111100000"), 4)
    assert is_burst(bits("100000000000100"), 4)      # cyclic wrap
    assert not is_burst(bits("100000010000000"), 4)
    assert not is_burst(bits("000000000000000"), 4)


def test_single_entry_is_length1_burst():
    v = bits("000010000")
    assert burst_span(v) == 1
    assert is_burst(v, 1)


def test_burst_span_edge_cases():
    assert burst_span(bits("0000")) == 0
    assert burst_span(bits("1111")) == 4
    assert burst_span(bits("1001")) == 2  # wraps: positions 3,0


def test_burst_pattern_constructor():
    b = BurstPattern(10, 8, (1, 0, 1))
    assert b.vector() == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0)
    assert is_burst(b.vector(), 3)
    with pytest.raises(InvalidSpan):
        BurstPattern(10, 0, (0, 1))
    with pytest.raises(InvalidSpan):
        BurstPattern(10, 0, ())
    with pytest.raises(InvalidSpan):
        is_burst(bits("101"), 5)


# -- interleaving ------------------------------------------------------------------

def test_depth1_is_base_code(gf8):
    rs = RSCode(gf8, 7, 5)
    il = InterleavedCode(rs, 1)
    u = tuple(range(5))
    assert il.encode(u) == rs.encode(u)


def test_burst_touches_each_column_once():
    # structural property of the row-order read-out
    n, m = 7, 4
    for start in range(n * m):
        for length in range(1, m + 1):
            cols = [(start + i) % (n * m) % m for i in range(length)]
            assert len(cols) == len(set(cols))


def test_interleaved_corrects_every_single_burst(gf8):
    rs = RSCode(gf8, 7, 5)  # corrects one symbol error
    il = InterleavedCode(rs, 4)
    rng = random.Random(21)
    u = tuple(rng.randrange(8) for _ in range(il.total_k))
    c = il.encode(u)
    for start in range(28):
        for length in range(1, 5):
            vals = [rng.randrange(1, 8) for _ in range(length)]
            w = list(c)
            for i, v in enumerate(vals):
                pos = (start + i) % 28
                w[pos] = gf8.add(w[pos], v)
            out = il.decode(tuple(w))
            assert out.corrected and out.codeword == c and out.info == u


def test_interleaved_multi_burst(gf8):
    # a 2-error base code corrects two bursts of up to m symbols when
    # they land in disjoint column sets per row window
    rs = RSCode(gf8, 7, 3)
    il = InterleavedCode(rs, 3)
    rng = random.Random(5)
    u = tuple(rng.randrange(8) for _ in range(il.total_k))
    c = il.encode(u)
    w = list(c)
    for start in (2, 12):  # two bursts of 3 symbols each
        for i in range(3):
            pos = (start + i) % 21
            w[pos] = gf8.add(w[pos], rng.randrange(1, 8))
    out = il.decode(tuple(w))
    assert out.corrected and out.info == u


def test_interleaved_erasure_burst(gf8):
    # a burst of erasures twice as long as the error burst budget:
    # each column sees at most two erasures, within 2s + t <= 2
    rs = RSCode(gf8, 7, 5)
    il = InterleavedCode(rs, 4)
    rng = random.Random(33)
    u = tuple(rng.randrange(8) for _ in range(il.total_k))
    c = il.encode(u)
    for start in (0, 5, 20):
        positions = [(start + i) % 28 for i in range(8)]
        w = list(c)
        for p in positions:
            w[p] = 0
        out = il.decode(tuple(w), erasures=positions)
        assert out.corrected and out.codeword == c


@pytest.mark.parametrize("field", [FiniteField(2, 3, (1, 1, 0, 1)), FiniteField(7)],
                         ids=["GF8", "GF7"])
def test_interleaved_error_vector_is_received_minus_codeword(field):
    # one error in each column at most: within every column's radius
    rs = RSCode(field, field.q - 1, field.q - 3)
    il = InterleavedCode(rs, 3)
    rng = random.Random(field.q)
    for _ in range(40):
        u = tuple(rng.randrange(field.q) for _ in range(il.total_k))
        c = il.encode(u)
        w = list(c)
        for col in range(3):
            if rng.random() < 0.8:
                pos = 3 * rng.randrange(rs.n) + col
                w[pos] = field.add(w[pos], rng.randrange(1, field.q))
        out = il.decode(tuple(w))
        assert out.corrected and out.codeword == c
        err = tuple(field.sub(r, x) for r, x in zip(w, c))
        assert out.error_vector == err
        assert out.error_positions == tuple(i for i, e in enumerate(err) if e)


def test_interleaved_beyond_capability_fails(gf8):
    rs = RSCode(gf8, 7, 5)
    il = InterleavedCode(rs, 2)
    u = (0,) * il.total_k
    c = il.encode(u)
    w = list(c)
    for pos in (0, 2, 4, 6):  # two errors in column 0
        w[pos] = gf8.add(w[pos], 3)
    out = il.decode(tuple(w))
    # either an honest failure or a miscorrection to some other codeword
    if out.corrected:
        assert out.codeword != c


# -- product codes -------------------------------------------------------------------

H5 = [[0, 1, 1, 0, 0], [1, 1, 0, 1, 0], [1, 0, 0, 0, 1]]


@pytest.fixture(scope="module")
def small_pair(gf2):
    code = LinearCode.from_parity(gf2, H5)

    class SystematicWrapper:
        """Adapter giving the linear code the encode surface the
        product construction expects."""

        def __init__(self, code):
            self.code = code
            self.field = code.field
            self.n, self.k = code.n, code.k

        def encode(self, u):
            return self.code.encode(tuple(u))

    return SystematicWrapper(code)


def test_product_min_distance_is_product(small_pair):
    assert product_min_distance(small_pair, small_pair) == 9


def test_product_encode_order_independence(gf8):
    outer = RSCode(gf8, 7, 3)
    inner = RSCode(gf8, 7, 5)
    pc = ProductCode(outer, inner)
    rng = random.Random(3)
    info = [[rng.randrange(8) for _ in range(pc.k2)] for _ in range(pc.k1)]
    arr = pc.encode(info)  # order independence asserted inside
    assert len(arr) == 7 and all(len(r) == 7 for r in arr)


def test_product_zero_info(gf8):
    pc = ProductCode(RSCode(gf8, 7, 3), RSCode(gf8, 7, 5))
    arr = pc.encode([[0] * pc.k2 for _ in range(pc.k1)])
    assert all(not any(r) for r in arr)


def test_product_roundtrip_clean(gf8):
    pc = ProductCode(RSCode(gf8, 7, 3), RSCode(gf8, 7, 5))
    rng = random.Random(14)
    info = [[rng.randrange(8) for _ in range(pc.k2)] for _ in range(pc.k1)]
    arr = pc.encode(info)
    out = pc.decode(arr)
    assert out.corrected
    assert out.info == pc.serialize(info)


def test_product_recovers_row_beyond_inner_capability(gf8):
    outer = RSCode(gf8, 7, 3)   # corrects 2 errors or 4 erasures
    inner = RSCode(gf8, 7, 5)   # corrects 1 error
    pc = ProductCode(outer, inner)
    rng = random.Random(40)
    info = [[rng.randrange(8) for _ in range(pc.k2)] for _ in range(pc.k1)]
    arr = pc.encode(info)
    # find a 3-error row pattern the inner decoder *detects*
    row_idx = 2
    found = False
    for attempt in range(200):
        corrupt = [list(r) for r in arr]
        for pos in rng.sample(range(7), 3):
            corrupt[row_idx][pos] = gf8.add(
                corrupt[row_idx][pos], rng.randrange(1, 8)
            )
        if not inner.euclid_decode(tuple(corrupt[row_idx])).corrected:
            found = True
            break
    assert found, "no detectable 3-error row found"
    out = pc.decode([tuple(r) for r in corrupt])
    assert out.corrected
    assert out.codeword == pc.serialize(arr)


def test_product_miscorrected_row_fixed_by_outer(gf8):
    outer = RSCode(gf8, 7, 3)
    inner = RSCode(gf8, 7, 5)
    pc = ProductCode(outer, inner)
    rng = random.Random(41)
    info = [[rng.randrange(8) for _ in range(pc.k2)] for _ in range(pc.k1)]
    arr = pc.encode(info)
    # find a 2-error row pattern the inner decoder miscorrects
    row_idx = 4
    for attempt in range(500):
        corrupt = [list(r) for r in arr]
        for pos in rng.sample(range(7), 2):
            corrupt[row_idx][pos] = gf8.add(
                corrupt[row_idx][pos], rng.randrange(1, 8)
            )
        inner_out = inner.euclid_decode(tuple(corrupt[row_idx]))
        if inner_out.corrected and inner_out.codeword != tuple(arr[row_idx]):
            break
    else:
        pytest.skip("no miscorrecting pattern found")
    # a miscorrected row differs from the true row in <= 3 places
    # (1 fixed + 2 original), within each column's outer radius
    out = pc.decode([tuple(r) for r in corrupt])
    assert out.corrected
    assert out.codeword == pc.serialize(arr)


def test_product_policy_rerun_inner(gf8):
    pc = ProductCode(RSCode(gf8, 7, 3), RSCode(gf8, 7, 5))
    info = [[1, 2, 3, 4, 5] for _ in range(3)]
    arr = pc.encode(info)
    out = pc.decode(arr, ProductDecodePolicy(rerun_inner=True))
    assert out.corrected and out.codeword == pc.serialize(arr)


def test_product_overload_reports_failure(gf8):
    pc = ProductCode(RSCode(gf8, 7, 3), RSCode(gf8, 7, 5))
    info = [[0] * pc.k2 for _ in range(pc.k1)]
    arr = [list(r) for r in pc.encode(info)]
    rng = random.Random(8)
    # wreck five whole rows: outer capability (4 erasures) is exceeded
    for i in range(5):
        for j in range(7):
            arr[i][j] = rng.randrange(1, 8)
    out = pc.decode([tuple(r) for r in arr])
    if out.corrected:
        # only acceptable if the result is a genuine product codeword
        rows = pc.deserialize(out.codeword)
        for r in rows:
            assert RSCode(gf8, 7, 5).syndromes(r).is_zero


# -- bound reporting --------------------------------------------------------------------

def test_reiger_report(gf8):
    rs = RSCode(gf8, 7, 3)
    rep = reiger_report(rs, 2)
    assert rep == {"bound_ok": True, "efficiency": Fraction(2 * 2, 4)}
    assert reiger_report(rs, 3) == {
        "bound_ok": False, "efficiency": Fraction(6, 4),
    }
    assert reiger_report(rs, 0)["efficiency"] == 0


def test_rs_binary_burst_efficiency():
    assert rs_binary_burst_efficiency(8, 1) == Fraction(1, 8)
    assert rs_binary_burst_efficiency(8, 10) == Fraction(73, 80)
    # approaches 1 from below as the correction power grows
    vals = [rs_binary_burst_efficiency(8, s) for s in (1, 2, 5, 20, 100)]
    assert vals == sorted(vals) and all(v < 1 for v in vals)


def test_reiger_holds_for_verified_interleave(gf8):
    # depth-4 interleave of [7,5] corrects bursts of 4 symbols; as a
    # [28,20] symbol code that meets the bound with equality
    rep = reiger_report(InterleavedCode(RSCode(gf8, 7, 5), 4), 4)
    assert rep["bound_ok"] and rep["efficiency"] == 1


def test_dvd_scale_smoke():
    # the classic configuration over GF(256): one encode/decode pass
    from blockfec import FiniteField

    f256 = FiniteField(2, 8)
    assert f256.modulus == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    outer = RSCode(f256, 255, 239, shorten_by=47)   # [208,192]
    inner = RSCode(f256, 255, 245, shorten_by=73)   # [182,172]
    assert (outer.n_out, outer.k_out) == (208, 192)
    assert (inner.n_out, inner.k_out) == (182, 172)
    rng = random.Random(0)
    u = tuple(rng.randrange(256) for _ in range(192))
    c = list(outer.encode(u))
    for pos in rng.sample(range(208), 8):
        c[pos] = f256.add(c[pos], rng.randrange(1, 256))
    out = outer.euclid_decode(tuple(c))
    assert out.corrected and out.info == u


# -- product encoding and the codeword guarantee ------------------------------

def _column_first(pc, info):
    """Encode the columns of the info array, then every row."""
    cols = [pc.outer.encode(col) for col in zip(*info)]
    return tuple(pc.inner.encode(row) for row in zip(*cols))


@pytest.mark.parametrize("pair", ["rs", "hamming_golay"])
def test_product_encode_matches_column_first(gf8, pair):
    from blockfec import GolayCode, HammingCode

    if pair == "rs":
        pc, q = ProductCode(RSCode(gf8, 7, 3), RSCode(gf8, 7, 5)), 8
    else:
        pc, q = ProductCode(HammingCode(3), GolayCode("G24")), 2
    rng = random.Random(pair)
    for _ in range(20):
        info = [tuple(rng.randrange(q) for _ in range(pc.k2)) for _ in range(pc.k1)]
        assert pc.encode(info) == _column_first(pc, info)


def test_product_beyond_capability_emits_no_noncodeword():
    # a 12-symbol burst from position 5 that stage 2 used to "correct"
    # into an array whose rows are not inner codewords
    from blockfec.codespec import build

    built = build("product:outer={rs:field=GF(2^3)[1,1,0,1],n=7,k=3},"
                  "inner={rs:field=GF(2^3)[1,1,0,1],n=7,k=5}")
    msg = (0, 5, 3, 4, 6, 1, 2, 5, 2, 7, 1, 7, 7, 2, 1)
    burst = (3, 5, 4, 7, 3, 1, 3, 5, 5, 7, 7, 3)
    err = (0,) * 5 + burst + (0,) * (49 - 5 - len(burst))
    sent = built.encode(msg)
    out = built.decode(tuple(c ^ e for c, e in zip(sent, err)))
    if out.corrected:
        assert built.encode(out.info) == out.codeword
