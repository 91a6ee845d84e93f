"""Linear-code machinery: matrices, standard arrays, ML decoding,
duals, extension, shortening, and bound checks."""

import random
from collections import Counter
from itertools import combinations, product

import pytest

from blockfec import (
    BCHCode,
    GF,
    FiniteField,
    GolayCode,
    HammingCode,
    LinearCode,
    MatrixGF,
    ReceivedWord,
    StandardArray,
    golay24_decode,
    hamming_distance,
    hamming_weight,
    ml_decode,
    parity_from_generator,
    systematic_form,
)
from blockfec import linear
from blockfec.errors import (
    InvalidParams,
    InvalidSymbol,
    NotSystematic,
    RankDeficient,
    TooLarge,
)
from blockfec.linear import _solve_square

H5 = [[0, 1, 1, 0, 0], [1, 1, 0, 1, 0], [1, 0, 0, 0, 1]]
H6 = [[0, 1, 1, 1, 0, 0], [1, 0, 1, 0, 1, 0], [1, 1, 0, 0, 0, 1]]
H7 = [[0, 1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0, 1]]


@pytest.fixture(scope="module")
def c5(gf2):
    return LinearCode.from_parity(gf2, H5)


@pytest.fixture(scope="module")
def c6(gf2):
    return LinearCode.from_parity(gf2, H6)


@pytest.fixture(scope="module")
def ham74(gf2):
    return LinearCode.from_parity(gf2, H7)


def bits(s):
    return tuple(int(c) for c in s)


# -- encoding -------------------------------------------------------------

def test_systematic_encoding(c5):
    assert c5.G.rows == ((1, 0, 0, 1, 1), (0, 1, 1, 1, 0))
    assert c5.encode((1, 1)) == bits("11101")
    assert c5.encode((0, 0)) == bits("00000")


def test_hamming_generator_fourth_row(ham74):
    assert ham74.G.rows[3] == bits("0001111")
    assert ham74.encode((0, 0, 0, 1)) == bits("0001111")


def test_systematic_form_properties(gf2):
    G = MatrixGF(gf2, [[0, 0, 1, 1, 1], [1, 1, 1, 0, 0]])
    gs, perm = systematic_form(G)
    k, n = gs.shape
    assert all(gs.rows[i][j] == (1 if i == j else 0)
               for i in range(k) for j in range(k))
    assert sorted(perm) == list(range(n))
    # permuting the original columns reproduces the row space
    permuted = G.select_columns(perm)
    spanned = {tuple(permuted.mul_vec(u))
               for u in LinearCode.from_generator(gf2, gs).messages()}
    # same set of codewords row-space-wise
    old = {LinearCode.from_generator(gf2, permuted).encode(u)
           for u in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    new = {LinearCode.from_generator(gf2, gs).encode(u)
           for u in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert old == new


def test_systematic_form_identity_permutation(gf2):
    G = MatrixGF(gf2, [[1, 0, 0, 1, 1], [0, 1, 1, 1, 0]])
    gs, perm = systematic_form(G)
    assert gs == G
    assert perm == (0, 1, 2, 3, 4)


def test_systematic_form_random(gf2):
    rng = random.Random(7)
    for _ in range(20):
        while True:
            rows = [[rng.randrange(2) for _ in range(7)] for _ in range(4)]
            m = MatrixGF(gf2, rows)
            if m.rank() == 4:
                break
        gs, perm = systematic_form(m)
        assert all(gs.rows[i][j] == (1 if i == j else 0)
                   for i in range(4) for j in range(4))


def test_systematic_form_rank_deficient(gf2):
    with pytest.raises(RankDeficient):
        systematic_form(MatrixGF(gf2, [[1, 0, 1], [1, 0, 1]]))


def test_parity_from_generator(gf2):
    G = MatrixGF(gf2, [[1, 0, 0, 1, 1], [0, 1, 1, 1, 0]])
    assert parity_from_generator(G).rows == tuple(tuple(r) for r in H5)
    # degenerate n = k: empty parity matrix
    assert parity_from_generator(MatrixGF.identity(gf2, 3)).rows == ()
    with pytest.raises(NotSystematic):
        parity_from_generator(MatrixGF(gf2, [[0, 1, 0], [1, 0, 0]]))


def test_parity_of_extended_hamming(gf2, ham74):
    ext = ham74.extend()
    h2 = parity_from_generator(ext.G)
    assert h2.rows == (
        (0, 1, 1, 1, 1, 0, 0, 0),
        (1, 0, 1, 1, 0, 1, 0, 0),
        (1, 1, 0, 1, 0, 0, 1, 0),
        (1, 1, 1, 0, 0, 0, 0, 1),
    )


# -- syndromes ----------------------------------------------------------------

def test_syndromes(c5):
    assert c5.syndrome(bits("10111")) == (1, 0, 0)
    assert c5.syndrome(bits("00111")) == (1, 1, 1)
    for u, c in c5.codewords():
        assert c5.syndrome(c) == (0, 0, 0)


def test_syndrome_depends_only_on_error(c5, gf2):
    rng = random.Random(3)
    for _ in range(100):
        e = tuple(rng.randrange(2) for _ in range(5))
        base = c5.syndrome(e)
        for u, c in c5.codewords():
            r = tuple(a ^ b for a, b in zip(c, e))
            assert c5.syndrome(r) == base


# -- standard array --------------------------------------------------------------

EXPECTED_ARRAY_5 = [
    ("00000", ["00000", "01110", "10011", "11101"], "000"),
    ("10000", ["10000", "11110", "00011", "01101"], "011"),
    ("01000", ["01000", "00110", "11011", "10101"], "110"),
    ("00100", ["00100", "01010", "10111", "11001"], "100"),
    ("00010", ["00010", "01100", "10001", "11111"], "010"),
    ("00001", ["00001", "01111", "10010", "11100"], "001"),
    ("11000", ["11000", "10110", "01011", "00101"], "101"),
    ("10100", ["10100", "11010", "00111", "01001"], "111"),
]


def test_standard_array_verbatim(c5):
    arr = StandardArray(c5)
    assert [tuple("".join(map(str, m)) for m in arr.messages)] == [
        ("00", "01", "10", "11")
    ]
    got = [
        (
            "".join(map(str, leader)),
            ["".join(map(str, w)) for w in row],
            "".join(map(str, s)),
        )
        for leader, row, s in zip(arr.leaders, arr.rows, arr.syndromes)
    ]
    assert got == EXPECTED_ARRAY_5


def test_standard_array_6_3(c6):
    arr = StandardArray(c6)
    assert ["".join(map(str, m)) for m in arr.messages] == [
        "000", "001", "010", "100", "011", "101", "110", "111",
    ]
    leaders = {"".join(map(str, l)) for l in arr.leaders}
    assert leaders == {
        "000000", "000001", "000010", "000100",
        "001000", "010000", "100000", "100100",
    }
    # the lone double-error coset is led by 100100 and sits last
    assert "".join(map(str, arr.leaders[-1])) == "100100"
    assert "".join(map(str, arr.syndromes[-1])) == "111"
    # code row from the published table
    assert ["".join(map(str, w)) for w in arr.rows[0]] == [
        "000000", "001110", "010101", "100011",
        "011011", "101101", "110110", "111000",
    ]
    # every vector appears exactly once
    seen = {w for row in arr.rows for w in row}
    assert len(seen) == 64


def test_standard_array_whole_space(gf2):
    code = LinearCode.from_generator(gf2, MatrixGF.identity(gf2, 3))
    arr = StandardArray(code)
    assert len(arr.rows) == 1


def test_zero_dimensional_code_is_rejected(gf2):
    # a full-rank square parity matrix leaves only the zero word
    with pytest.raises(InvalidParams, match="k = 0"):
        LinearCode.from_parity(gf2, [[1, 0], [0, 1]])


def test_decode_standard_array(c5):
    arr = StandardArray(c5)
    out = arr.decode(bits("10111"))
    assert out.codeword == bits("10011") and out.info == (1, 0)
    for u, c in c5.codewords():
        got = arr.decode(c)
        assert got.codeword == c and got.info == u
    out2 = arr.decode(bits("00111"))
    assert out2.error_vector == bits("10100")
    assert out2.codeword == bits("10011")


def test_standard_array_corrects_within_radius(c5, c6, ham74):
    for code in (c5, c6, ham74):
        arr = StandardArray(code)
        t = (code.min_distance() - 1) // 2
        for u, c in code.codewords():
            for i in range(code.n):
                r = list(c)
                r[i] ^= 1
                out = arr.decode(tuple(r))
                if t >= 1:
                    assert out.codeword == c
                    assert out.info == u


def test_too_large_guard(gf2):
    big = LinearCode.from_generator(gf2, MatrixGF.identity(gf2, 25))
    with pytest.raises(TooLarge):
        StandardArray(big)
    with pytest.raises(TooLarge):
        ml_decode(big, (0,) * 25)
    with pytest.raises(TooLarge):
        big.min_distance()


def test_length_guards(c5):
    from blockfec.errors import LengthMismatch
    with pytest.raises(LengthMismatch):
        c5.encode((1, 0, 1))
    with pytest.raises(LengthMismatch):
        c5.syndrome((1, 0, 1))
    with pytest.raises(LengthMismatch):
        ReceivedWord.make((1, 0, 1), erasures=[5])


def _exhaustive_array(code):
    """The reference standard array: the syndrome of every one of the
    q^n words, each row led by the least word of its coset under
    (weight, reversed coordinates), rows in the order of their leaders
    after the code row."""
    f, n, k = code.field, code.n, code.k

    def leader_key(v):
        return (hamming_weight(v), tuple(reversed(v)))

    messages = sorted(code.messages(), key=lambda u: (hamming_weight(u), tuple(u)))
    code_row = [code.encode(u) for u in messages]
    leaders = {}
    for v in product(f.elements(), repeat=n):
        s = code.syndrome(v)
        if s not in leaders or leader_key(v) < leader_key(leaders[s]):
            leaders[s] = v
    order = sorted((s for s in leaders if any(s)), key=lambda s: leader_key(leaders[s]))
    syndromes = [tuple([0] * (n - k))] + order
    row_leaders = [leaders[s] for s in syndromes]
    rows = [
        [tuple(f.add(a, b) for a, b in zip(leader, c)) for c in code_row]
        for leader in row_leaders
    ]
    return messages, syndromes, row_leaders, rows


def _assert_matches_exhaustive(code):
    arr = StandardArray(code)
    messages, syndromes, leaders, rows = _exhaustive_array(code)
    assert arr.syndromes == syndromes
    assert arr.leaders == leaders
    assert arr.messages == messages
    assert arr.rows == rows
    assert [arr.row_index(s) for s in syndromes] == list(range(len(syndromes)))


def test_weight_ordered_search_matches_exhaustive_on_suite_codes(c5, c6, ham74, gf2):
    whole = LinearCode.from_generator(gf2, MatrixGF.identity(gf2, 3))
    for code in (c5, c6, ham74, whole, HammingCode(3).code, HammingCode(4).code):
        _assert_matches_exhaustive(code)


@pytest.mark.parametrize("p,nu,max_n", [(2, 1, 16), (3, 1, 10), (2, 2, 8)])
def test_weight_ordered_search_matches_exhaustive_on_random_codes(p, nu, max_n):
    f = FiniteField(p, nu)
    rng = random.Random(900 + 10 * p + nu)
    built = 0
    while built < 8:
        # one code at the largest n, the rest spread below it
        n = max_n if built == 0 else rng.randint(2, max_n - 2)
        k = rng.randint(1, n - 1)
        G = _random_matrix(f, rng, k, n)
        if G.rank() < k:
            continue
        code = LinearCode.from_generator(f, G)
        if built % 4 == 3 and n - k >= 2:
            # an explicit H with a repeated row reaches only part of
            # the syndromes, so the search runs to weight n
            H = code.H.rows
            code = LinearCode(f, code.G, MatrixGF(f, H[:-1] + H[:1]))
        _assert_matches_exhaustive(code)
        built += 1


def test_golay24_standard_array():
    golay = GolayCode("G24")
    arr = StandardArray(golay.code)
    assert len(arr.leaders) == 4096
    weights = Counter(hamming_weight(v) for v in arr.leaders)
    assert weights == {0: 1, 1: 24, 2: 276, 3: 2024, 4: 1771}
    c = golay.encode((1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0))
    for w in range(4):
        for support in combinations(range(24), w):
            r = tuple(x ^ (i in support) for i, x in enumerate(c))
            out = arr.decode(r)
            assert out == golay24_decode(r)
            assert out.codeword == c


# binary codes whose family decoder is bounded-distance at `radius`
RADIUS_CODES = {
    "golay24": lambda: GolayCode("G24"),
    "golay23": lambda: GolayCode("G23"),
    "bch15_5": lambda: BCHCode(FiniteField(2, 4), 2, 7),
    "bch15_7": lambda: BCHCode(FiniteField(2, 4), 2, 5),
    "bch31_21": lambda: BCHCode(FiniteField(2, 5), 2, 5),
    "hamming15": lambda: HammingCode(4),
}


def _binary_view(code):
    """The code as a LinearCode over GF(2), spanned by its encoded unit
    messages, so it encodes every message as the code does."""
    units = [[int(i == j) for i in range(code.k)] for j in range(code.k)]
    return LinearCode.from_generator(FiniteField(2), [code.encode(u) for u in units])


@pytest.mark.parametrize("name", RADIUS_CODES)
def test_radius_array_decodes_every_coset_like_the_family(name):
    code = RADIUS_CODES[name]()
    view = _binary_view(code)
    arr = StandardArray(view, code.radius)
    rng = random.Random(name)
    # words supported on n - k independent columns of H: one per syndrome
    _, pivots = view.H.rref()
    verdicts = Counter()
    for bits_ in product((0, 1), repeat=code.n - code.k):
        rep = [0] * code.n
        for i, b in zip(pivots, bits_):
            rep[i] = b
        words = [tuple(rep)]
        for _ in range(3):
            c = code.encode([rng.randrange(2) for _ in range(code.k)])
            words.append(tuple(a ^ b for a, b in zip(rep, c)))
        for w in words:
            got, want = arr.decode(w), code.decode(w)
            assert (got.verdict, got.codeword, got.info) == \
                (want.verdict, want.codeword, want.info), w
            verdicts[got.verdict] += 1
    assert verdicts["corrected"] == 4 * len(arr.leaders)
    perfect = name in ("golay23", "hamming15")
    assert verdicts["uncorrectable"] == 4 * (2 ** (code.n - code.k) - len(arr.leaders))
    assert (verdicts["uncorrectable"] == 0) == perfect


def test_radius_array_guards(gf2):
    golay = GolayCode("G24").code
    # Golay24 has d = 8: weight-4 patterns share syndromes
    with pytest.raises(InvalidParams):
        StandardArray(golay, 4)
    with pytest.raises(InvalidParams):
        StandardArray(golay, -1)
    # the cap counts the leaders of a radius array, the q^n words otherwise
    bch31 = _binary_view(BCHCode(FiniteField(2, 5), 2, 5))
    with pytest.raises(TooLarge):
        StandardArray(bch31)
    arr = StandardArray(bch31, 2)
    assert len(arr.leaders) == 1 + 31 + 465
    with pytest.raises(TooLarge):
        arr.rows
    repetition21 = LinearCode.from_generator(gf2, [[1] * 21])   # 2^20 * 21 > 2^24
    with pytest.raises(TooLarge):
        StandardArray(repetition21, 0)


def test_decode_checks_the_word_once(monkeypatch, c5):
    arr = StandardArray(c5)
    ham = HammingCode(4)
    c5.decode(bits("00000"))   # builds c5's own array
    calls = []
    check = linear.check_word

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(linear, "check_word", counted)
    for decode, word in [
        (arr.decode, bits("10111")),
        (c5.decode, bits("00111")),
        (ham.decode, bits("000000000000000")),
        (ham.decode, bits("000000100000000")),
    ]:
        calls.clear()
        assert decode(word).corrected
        assert len(calls) == 1
    # message_of stays a checked entry point
    with pytest.raises(InvalidSymbol):
        c5.message_of((2, 0, 0, 0, 0))


# -- ML decoding ------------------------------------------------------------------

def test_ml_decode_tie(c5):
    best, dist = ml_decode(c5, bits("00111"))
    assert dist == 2
    assert set(best) == {bits("10011"), bits("01110")}


def test_ml_decode_codeword(c5):
    for u, c in c5.codewords():
        best, dist = ml_decode(c5, c)
        assert best == [c] and dist == 0


def test_ml_decode_agrees_with_array_on_unique_leaders(c5):
    arr = StandardArray(c5)
    from itertools import product
    for r in product((0, 1), repeat=5):
        s = c5.syndrome(r)
        row = arr.rows[arr.row_index(s)]
        leader = arr.leaders[arr.row_index(s)]
        w = hamming_weight(leader)
        unique = sum(1 for v in row if hamming_weight(v) == w) == 1
        if unique:
            best, _ = ml_decode(c5, r)
            assert arr.decode(r).codeword in best
            if len(best) == 1:
                assert best[0] == arr.decode(r).codeword


def test_erasure_only_recovery(c5):
    # up to d - 1 = 2 erasures, no errors: the codeword is the unique
    # nearest answer
    from itertools import combinations
    for u, c in c5.codewords():
        for t in (1, 2):
            for pos in combinations(range(5), t):
                w = ReceivedWord.make(c, pos)
                best, dist = ml_decode(c5, w)
                assert best == [c]
                assert dist == 0


def test_error_plus_erasure_recovery(c5):
    # 2s + t <= d - 1 = 2: s errors with t erasures always recover
    for u, c in c5.codewords():
        for epos in range(5):
            for flip in range(5):
                if flip == epos:
                    continue
                # s = 0, t in {1,2} covered above; here s = 1, t = 0
                r = list(c)
                r[flip] ^= 1
                best, dist = ml_decode(c5, tuple(r))
                assert best == [c] and dist == 1


# -- distance axioms ------------------------------------------------------------

def test_hamming_distance_axioms():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randrange(1, 12)
        u, v, w = (
            tuple(rng.randrange(4) for _ in range(n)) for _ in range(3)
        )
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert (hamming_distance(u, v) == 0) == (u == v)
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


# -- distances / duals / bounds ----------------------------------------------------

def test_min_distances(c5, ham74):
    assert c5.min_distance() == 3
    assert ham74.min_distance() == 3
    assert ham74.dual().min_distance() == 4


def test_simplex_constant_weight(ham74):
    dual = ham74.dual()
    weights = {hamming_weight(c) for u, c in dual.codewords() if any(u)}
    assert weights == {4}


def test_repetition_distance(gf2):
    for n in (3, 5, 7):
        rep = LinearCode.from_generator(gf2, [[1] * n])
        assert rep.min_distance() == n


def test_dual_of_dual(c5):
    assert c5.dual().dual() == c5


def test_extend_hamming_is_self_dual(ham74):
    ext = ham74.extend()
    assert (ext.n, ext.k, ext.min_distance()) == (8, 4, 4)
    prod = ext.G @ ext.G.transpose()
    assert all(not any(r) for r in prod.rows)


def test_shorten(ham74):
    short = ham74.shorten([5, 6])
    assert (short.n, short.k) == (5, 2)
    assert short.min_distance() >= 3


def test_message_of_inverts_encoding(gf2):
    # a deliberately non-systematic generator
    G = MatrixGF(gf2, [[1, 1, 1, 0, 0, 1], [0, 1, 1, 1, 0, 0],
                       [1, 1, 0, 1, 1, 0]])
    code = LinearCode.from_generator(gf2, G)
    for u, c in code.codewords():
        assert code.message_of(c) == u


def test_g_h_orthogonal(c5, c6, ham74):
    for code in (c5, c6, ham74):
        z = code.G @ code.H.transpose()
        assert all(not any(r) for r in z.rows)


def test_bounds_report(c5, ham74, gf2):
    assert ham74.bounds_report() == {
        "singleton_met": False, "hamming_slack": 0.0, "perfect": True,
    }
    rep5 = c5.bounds_report()
    assert not rep5["perfect"] and not rep5["singleton_met"]
    assert rep5["hamming_slack"] > 0
    assert c5.sphere_size(1) == 6


def test_decode_keeps_erasures_of_a_received_word(ham74):
    # two bit errors are beyond the code, but erasing one of them, at a
    # position where the codeword is 0, leaves one error it corrects
    c = ham74.encode((1, 0, 1, 1))
    i, j = 0, 6
    assert c[j] == 0
    r = list(c)
    r[i] ^= 1
    r[j] ^= 1
    assert ham74.decode(r).codeword != c
    for word, erasures in [(r, [j]), (ReceivedWord.make(r), [j]),
                           (ReceivedWord.make(r, [j]), []),
                           (ReceivedWord.make(r, [j]), [j])]:
        assert ham74.decode(word, erasures=erasures).codeword == c


# -- one elimination: algebra cross-checks ---------------------------------

ALGEBRA_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)]


def _random_matrix(f, rng, nrows, ncols, singular=False):
    rows = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(nrows)]
    if singular:
        # the last row a combination of two others (a zero row if none)
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        top, mid = rows[0], rows[max(nrows - 2, 0)]
        rows[-1] = [0] * ncols if nrows == 1 else [
            f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(top, mid)
        ]
    return MatrixGF(f, rows)


@pytest.mark.parametrize("p,nu", ALGEBRA_FIELDS)
def test_rref_is_idempotent_and_keeps_the_row_space(p, nu):
    f = FiniteField(p, nu)
    rng = random.Random(100 * p + nu)
    for trial in range(40):
        M = _random_matrix(f, rng, rng.randint(1, 5), rng.randint(1, 7),
                           singular=trial % 3 == 0)
        red, pivots = M.rref()
        assert red.rref() == (red, pivots)
        rank = len(pivots)
        assert M.rank() == rank
        assert not any(any(row) for row in red.rows[rank:])
        for r, c in enumerate(pivots):
            assert [row[c] for row in red.rows] == [int(i == r) for i in range(M.shape[0])]
        # the reduced rows span exactly the rows of M
        both = MatrixGF(f, M.rows + red.rows)
        assert both.rank() == rank


@pytest.mark.parametrize("p,nu", ALGEBRA_FIELDS)
def test_det_is_multiplicative_and_zero_iff_singular(p, nu):
    f = FiniteField(p, nu)
    rng = random.Random(200 * p + nu)
    for trial in range(40):
        n = rng.randint(1, 5)
        A = _random_matrix(f, rng, n, n, singular=trial % 3 == 0)
        B = _random_matrix(f, rng, n, n, singular=trial % 5 == 0)
        dA, dB = A.det(), B.det()
        assert (dA == 0) == (A.rank() < n)
        assert (A @ B).det() == f.mul(dA, dB)
        if n > 1:
            # one row swap flips the sign, which only odd p can see
            swapped = MatrixGF(f, (A.rows[1], A.rows[0]) + A.rows[2:])
            assert swapped.det() == f.neg(dA)
    assert MatrixGF.identity(f, 4).det() == 1


@pytest.mark.parametrize("p,nu", ALGEBRA_FIELDS)
def test_solve_square_solves_iff_nonsingular(p, nu):
    f = FiniteField(p, nu)
    rng = random.Random(300 * p + nu)
    for trial in range(40):
        n = rng.randint(1, 5)
        A = _random_matrix(f, rng, n, n, singular=trial % 3 == 0)
        b = [rng.randrange(f.q) for _ in range(n)]
        x = _solve_square(f, A.rows, b)
        if A.det() == 0:
            assert x is None
        else:
            # A x^T = b, read as the row vector x times A^T
            assert A.transpose().mul_vec(x) == tuple(b)


@pytest.mark.parametrize("p,nu", [(2, 3), (3, 2)])
@pytest.mark.parametrize("where", [(0, 0), (1, 0), (1, 1), (0, 1)])
@pytest.mark.parametrize("bad", ["neg", "q", "float", "str"])
def test_matrix_entries_outside_the_field_are_rejected(p, nu, where, bad):
    # the elimination reads the log/exp tables unchecked, so it checks
    # every entry on entry, wherever it sits: -1 and q raised
    # InvalidSymbol from the field methods before, non-ints TypeError
    f = FiniteField(p, nu)
    rows = [[1, 1], [0, 1]] if where == (0, 1) else [[1, 0], [0, 1]]
    rows[where[0]][where[1]] = {"neg": -1, "q": f.q, "float": 1.5, "str": "1"}[bad]
    with pytest.raises(InvalidSymbol, match="is not an element of"):
        MatrixGF(f, rows).rref()
    with pytest.raises(InvalidSymbol):
        MatrixGF(f, rows).det()
    with pytest.raises(InvalidSymbol):
        _solve_square(f, rows, [1, 0])
    with pytest.raises(InvalidSymbol):
        _solve_square(f, [[1, 0], [0, 1]], [1, rows[where[0]][where[1]]])


def test_message_of_inverts_nonsystematic_generators_over_gf3():
    f = FiniteField(3)
    rng = random.Random(7)
    built = 0
    while built < 20:
        k = rng.randint(1, 4)
        G = _random_matrix(f, rng, k, k + rng.randint(1, 3))
        # a zero leading column keeps the pivots off the identity block
        G = MatrixGF(f, [(0,) + row for row in G.rows])
        if G.rank() < k:
            continue
        code = LinearCode.from_generator(f, G)
        built += 1
        for u in code.messages():
            assert code.message_of(code.encode(u)) == u


@pytest.mark.parametrize("p,nu", ALGEBRA_FIELDS + [(17, 2)])
def test_codebook_lists_the_encoder_output_in_message_order(p, nu):
    f = FiniteField(p, nu)
    rng = random.Random(400 * p + nu)
    for _ in range(6):
        k = rng.randint(1, 1 if f.q > 16 else 3)
        G = _random_matrix(f, rng, k, k + rng.randint(1, 3))
        if G.rank() < k:
            continue
        code = LinearCode.from_generator(f, G)
        encoded = [c for _, c in code.codewords()]
        assert [tuple(row) for row in code.codebook().tolist()] == encoded
        assert code.min_distance() == min(hamming_weight(c) for c in encoded[1:])


def _recursive_patterns(f, Ht, radius):
    """The recursive search order that `linear._patterns` keeps, frozen:
    each level peels off the last position, a zero there sorting first."""
    add = (lambda a, b: a ^ b) if f.p == 2 else f.add
    terms = [[tuple(f.mul(a, y) for y in row) for a in f.elements()] for row in Ht.rows]
    zero = (0,) * Ht.shape[1]

    def level(m, w):
        if w == 0:
            yield (0,) * m, zero
            return
        if m > w:
            for head, s in level(m - 1, w):
                yield head + (0,), s
        for a in f.nonzero():
            term = terms[m - 1][a]
            for head, s in level(m - 1, w - 1):
                yield head + (a,), tuple(map(add, s, term))

    for w in range(radius + 1):
        yield from level(len(Ht.rows), w)


@pytest.mark.parametrize("p,nu,n", [(2, 1, 9), (3, 1, 6), (2, 2, 5)])
def test_patterns_keep_the_recursive_search_order(p, nu, n):
    # the order picks the leader among tied patterns, and the row order
    f = FiniteField(p, nu)
    rng = random.Random(10 * p + nu)
    built = 0
    while built < 3:
        k = rng.randint(1, n - 2)
        G = _random_matrix(f, rng, k, n)
        if G.rank() < k:
            continue
        built += 1
        Ht = LinearCode.from_generator(f, G)._Ht
        for radius in range(n + 1):
            assert list(linear._patterns(f, Ht, radius)) == list(
                _recursive_patterns(f, Ht, radius))


def test_message_of_reads_the_pivots_when_inv_is_the_identity():
    f = FiniteField(3)
    nonsystematic = LinearCode.from_generator(f, [[1, 2, 0, 1, 1], [2, 0, 1, 1, 2]])
    rng = random.Random(3)
    for code, identity in [(HammingCode(4).code, True), (HammingCode(7).code, True),
                           (nonsystematic, False)]:
        pivots, inv = code.pivot_inverse()
        assert code._pivots_are_message == identity
        for _ in range(50):
            c = code.encode([rng.randrange(f.q if code is nonsystematic else 2)
                             for _ in range(code.k)])
            assert code._message_of(c) == inv.mul_vec([c[p] for p in pivots])


# (m, a, b): bit maps across the byte and lane edges, and symbol maps
# with one lane full and with one symbol more, where a symbol packed at
# bit m j would straddle two lanes
PACKED_MAP_SHAPES = ([(1, a, b) for a in (1, 7, 8, 9, 24) for b in (0, 1, 64, 65)]
                     + [(m, 5, 64 // m + extra) for m in (3, 4, 5, 8) for extra in (0, 1)]
                     + [(16, a, 4 + extra) for a in (1, 3) for extra in (0, 1)])


@pytest.mark.parametrize("m,a,b", PACKED_MAP_SHAPES)
def test_packed_map_equals_the_matrix_product(m, a, b):
    # the kernel of a random (a, b) matrix M over GF(2^m) against the
    # field's own arithmetic: row u maps to u M
    import numpy as np

    f = GF(2, m)
    rng = np.random.default_rng(100 * m + 10 * a + b)
    M = rng.integers(0, f.q, (a, b)).tolist()
    basis = np.zeros((a, m, b), dtype=np.int64)
    for i, c, j in product(range(a), range(m), range(b)):
        basis[i, c, j] = f.mul(1 << c, M[i][j])
    kernel = linear.PackedMap(basis)
    rows = rng.integers(0, f.q, (40, a))
    want = [[0] * b for _ in rows]
    for out, u in zip(want, rows.tolist()):
        for i, j in product(range(a), range(b)):
            out[j] = f.add(out[j], f.mul(u[i], M[i][j]))
    assert kernel.symbols(kernel(rows)).tolist() == want
    # `entries` is the image of a row holding one symbol; a digit holds
    # one symbol, or eight bits when m = 1
    per_digit = 8 if m == 1 else 1
    at = np.arange(a)
    values = rng.integers(1, f.q, a)
    entries = kernel.entries(at // per_digit, values << at % per_digit)
    one_symbol = np.diag(values)
    assert entries.tolist() == kernel(one_symbol).tolist()
    assert kernel.symbols(entries).tolist() == [
        [f.mul(v, x) for x in row] for v, row in zip(values.tolist(), M)]
