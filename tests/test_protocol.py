"""Every family implements one protocol -- field, subfield, n, k, radius,
encode(u) and decode(word, erasures=()) -> DecodeOutcome, in transmitted
coordinates -- so each composes as the base of an interleave and as
either part of a product code, and each rejects a malformed word with a
FecError."""

import random
from itertools import count

import numpy as np
import pytest

from blockfec import (BCHCode, FiniteField, InterleavedCode, Poly, RSCode, SerialProduct,
                      golay23_decode, golay24_decode, monte_carlo)
from blockfec.cli import main
from blockfec.codespec import build
from blockfec.errors import FecError, InvalidParams, InvalidSymbol, LengthMismatch
from blockfec.linear import ReceivedWord

GF8 = "GF(2^3)[1,1,0,1]"
GF16 = "GF(2^4)[1,1,0,0,1]"

# name: (spec, errors, erasures, partner).  Any `errors` error positions
# plus any `erasures` erased positions are within the code's guaranteed
# capability; erasures only for families whose decoders use them.  The
# partner is a code over the same alphabet that pairs with it in a
# product; every partner corrects one error.
HAMMING7 = "hamming:r=3"
RS75 = f"rs:field={GF8},n=7,k=5"
CASES = {
    "linear": ("linear:rows=1.0.0.1.1;0.1.1.1.0", 1, 0, HAMMING7),
    "hamming": (HAMMING7, 1, 0, HAMMING7),
    "golay23": ("golay23", 3, 0, HAMMING7),
    "golay24": ("golay24", 3, 0, HAMMING7),
    "cyclic": ("cyclic:n=7,g=1.1.0.1", 1, 0, HAMMING7),
    "rs": (f"rs:field={GF8},n=7,k=3", 1, 2, RS75),
    "rs_shortened": (f"rs:field={GF16},n=15,k=9,shorten=5", 2, 2,
                     f"rs:field={GF16},n=15,k=13"),
    "rs_pgz": (f"rs:field={GF8},n=7,k=3,decoder=pgz", 1, 2, RS75),
    "bch": (f"bch:field={GF16},sub=2,d=7", 2, 2, f"bch:field={GF16},sub=2,d=3"),
    # one error and two erasures anywhere leave each column of the
    # RS(7,3) interleave within 2t + s <= 4
    "interleaved": (f"interleaved:depth=2,base={{rs:field={GF8},n=7,k=3}}", 1, 2,
                    RS75),
    # one error and one erasure anywhere leave at most one row that the
    # inner RS(7,5) erases or miscorrects, which costs each column of the
    # outer RS(7,5) one erasure or one error
    "product": (f"product:outer={{{RS75}}},inner={{{RS75}}}", 1, 1, RS75),
}
TRIALS = 12

# the radius of each family's bounded-distance decoder, which decodes a
# word to the codeword within it, if there is one, and detects every
# other word; None for complete and composite decoders
RADIUS = {"linear": None, "hamming": 1, "golay23": 3, "golay24": 3, "cyclic": None,
          "rs": 2, "rs_shortened": 3, "rs_pgz": 2, "bch": 3, "interleaved": None,
          "product": None}


class Channel:
    """Random messages and corruptions over one code's alphabet (the
    subfield, for BCH codes and their compositions)."""

    def __init__(self, name, built):
        base = build(CASES[name][0]).code
        self.rng = random.Random(f"{name}:{built.spec.render()}")
        self.built = built
        self.alphabet = sorted(getattr(base, "subfield", base.field.elements()))

    def send(self):
        u = tuple(self.rng.choice(self.alphabet) for _ in range(self.built.k))
        return u, self.built.encode(u)

    def hit(self, word, positions):
        """Add a nonzero symbol at each position."""
        nonzero = [a for a in self.alphabet if a]
        for p in positions:
            word[p] = self.built.field.add(word[p], self.rng.choice(nonzero))

    def erase(self, word, positions):
        for p in positions:
            word[p] = self.rng.choice(self.alphabet)

    def check(self, word, erasures, u, c):
        out = self.built.decode(tuple(word), erasures)
        assert out.corrected
        assert tuple(out.codeword) == tuple(c)
        assert tuple(out.info) == u


@pytest.mark.parametrize("name", CASES)
def test_standalone(name):
    spec, t, s, _ = CASES[name]
    ch = Channel(name, build(spec))
    for _ in range(TRIALS):
        u, c = ch.send()
        word = list(c)
        positions = ch.rng.sample(range(ch.built.n), t + s)
        ch.hit(word, positions[:t])
        ch.erase(word, positions[t:])
        ch.check(word, positions[t:], u, c)


@pytest.mark.parametrize("name", CASES)
def test_radius(name):
    built = build(CASES[name][0])
    assert built.radius == built.code.radius == RADIUS[name]


@pytest.mark.parametrize("name", CASES)
def test_as_interleaved_base(name):
    spec, t, s, _ = CASES[name]
    depth = 3
    ch = Channel(name, build(f"interleaved:depth={depth},base={{{spec}}}"))
    base_n = ch.built.n // depth
    for _ in range(TRIALS):
        u, c = ch.send()
        word = list(c)
        errors, erasures = [], []
        for j in range(depth):
            rows = ch.rng.sample(range(base_n), t + s)
            errors += [i * depth + j for i in rows[:t]]
            erasures += [i * depth + j for i in rows[t:]]
        ch.hit(word, errors)
        ch.erase(word, erasures)
        ch.check(word, sorted(erasures), u, c)


def _product_trials(ch, wrecked_rows, row_errors):
    """Wreck whole rows and put `row_errors` errors in every other row.
    The inner decoder erases or miscorrects a wrecked row, which costs
    each column at most one error, so `wrecked_rows` up to the outer
    code's error capability stay within the product's."""
    n1, n2 = ch.built.code.n1, ch.built.code.n2
    for _ in range(TRIALS):
        u, c = ch.send()
        word = list(c)
        wrecked = ch.rng.sample(range(n1), wrecked_rows)
        for i in range(n1):
            cols = range(n2) if i in wrecked else ch.rng.sample(range(n2), row_errors)
            ch.hit(word, [i * n2 + j for j in cols])
        ch.check(word, (), u, c)


@pytest.mark.parametrize("name", CASES)
def test_as_product_outer(name):
    spec, t, _, partner = CASES[name]
    ch = Channel(name, build(f"product:outer={{{spec}}},inner={{{partner}}}"))
    _product_trials(ch, wrecked_rows=t, row_errors=1)


@pytest.mark.parametrize("name", CASES)
def test_as_product_inner(name):
    spec, t, _, partner = CASES[name]
    ch = Channel(name, build(f"product:outer={{{partner}}},inner={{{spec}}}"))
    _product_trials(ch, wrecked_rows=1, row_errors=t)


@pytest.mark.parametrize("name", CASES)
def test_batch_codec_exactly_with_a_radius(name, codec_calls):
    # a codec reproduces a bounded-distance decoder, so a family has one
    # exactly when it shows a radius, and its own decoder runs on it with
    # the loop's results
    built = build(CASES[name][0])
    assert (built.batch_codec() is None) == (RADIUS[name] is None)
    loop = monte_carlo(built, lambda w: built.decode(w), 0.05, 1000, seed=6)
    assert not codec_calls
    assert monte_carlo(built, built.decode, 0.05, 1000, seed=6) == loop
    assert bool(codec_calls) == (RADIUS[name] is not None)


def test_monte_carlo_raw_shortened_rs():
    rs = RSCode(FiniteField(2, 4), 15, 9, shorten_by=5)
    assert (rs.n, rs.k) == (10, 4)
    mc = monte_carlo(rs, rs.decode, 0.02, 200, seed=4)
    assert mc["trials"] == 200 and mc["P_err_hat"] <= 0.05


def test_monte_carlo_and_simulate_on_bch_spec(capsys):
    spec = f"bch:field={GF16},sub=2,d=7"
    built = build(spec)
    mc = monte_carlo(built, built.decode, 0.05, 300, seed=2)
    assert mc["trials"] == 300
    status = main(["simulate", "--code", spec, "--p", "0.05",
                   "--trials", "300", "--seed", "2"])
    assert status == 0
    assert "P_det: estimate=" in capsys.readouterr().out


@pytest.mark.parametrize("spec", [
    f"interleaved:depth=2,base={{bch:field={GF16},sub=2,d=7}}",
    f"product:outer={{bch:field={GF16},sub=2,d=7}},inner={{bch:field={GF16},sub=2,d=3}}",
])
def test_monte_carlo_and_simulate_on_composed_bch(spec, capsys):
    # the composition draws its symbols from the BCH subfield
    built = build(spec)
    assert built.subfield == built.code.subfield == frozenset({0, 1})
    mc = monte_carlo(built, built.decode, 0.02, 100, seed=2)
    assert mc["trials"] == 100
    status = main(["simulate", "--code", spec, "--p", "0.02",
                   "--trials", "100", "--seed", "2"])
    assert status == 0
    assert "P_det: estimate=" in capsys.readouterr().out


def test_product_parts_must_share_an_alphabet():
    with pytest.raises(InvalidParams):
        build(f"product:outer={{bch:field={GF16},sub=2,d=7}},"
              f"inner={{rs:field={GF16},n=15,k=13}}")


# -- malformed input ---------------------------------------------------------

MALFORMED = {name: case[0] for name, case in CASES.items()}
MALFORMED["hamming_x_golay"] = f"product:outer={{{HAMMING7}}},inner={{golay24}}"


def malformed_words(n, bad):
    """(word, expected error) pairs: a symbol outside the alphabet, a
    negative symbol, and words one symbol short and one too long."""
    zeros = (0,) * (n - 1)
    return [((bad,) + zeros, InvalidSymbol), ((-1,) + zeros, InvalidSymbol),
            (zeros, LengthMismatch), (zeros + (0, 0), LengthMismatch)]


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_raises_a_fec_error(name):
    built = build(MALFORMED[name])
    n, k = built.n, built.k
    bad = next(s for s in count() if s not in built.subfield)
    for word, error in malformed_words(n, bad):
        with pytest.raises(error):
            built.decode(word)
    # an erasure past the end
    with pytest.raises(FecError):
        built.decode((0,) * n, (n,))
    with pytest.raises(InvalidSymbol):
        built.encode((bad,) + (0,) * (k - 1))


@pytest.mark.parametrize("name", MALFORMED)
def test_a_bad_symbol_in_a_user_word_raises_at_every_decode(name):
    # composites check their word once and hand their parts words they
    # built; a word a user built, a ReceivedWord included, is checked
    built = build(MALFORMED[name])
    n = built.n
    bad = next(s for s in count() if s not in built.subfield)
    for code in (built, built.code):
        for pos in (0, n // 2, n - 1):
            word = (0,) * pos + (bad,) + (0,) * (n - 1 - pos)
            other = (pos + 1) % n
            for given, erasures in [(word, ()), (ReceivedWord(word), ()),
                                    (ReceivedWord.make(word, [other]), ()),
                                    (ReceivedWord(word), (other,))]:
                with pytest.raises(InvalidSymbol):
                    code.decode(given, erasures)


@pytest.mark.parametrize("decode,n", [(golay23_decode, 23), (golay24_decode, 24)])
def test_public_golay_decoders_check_the_word(decode, n):
    for word, error in malformed_words(n, 2):
        with pytest.raises(error):
            decode(word)


@pytest.mark.parametrize("name", CASES)
def test_duplicate_erasures_are_merged(name):
    ch = Channel(name, build(CASES[name][0]))
    _, c = ch.send()
    word = list(c)
    ch.hit(word, [0])
    word = tuple(word)
    assert ch.built.decode(word, (1, 1)) == ch.built.decode(word, (1,))


@pytest.mark.parametrize("name", CASES)
def test_a_word_that_is_no_sequence_raises_a_fec_error(name):
    built = build(CASES[name][0])
    for code in (built, built.code):
        for word in (None, 5):
            with pytest.raises(LengthMismatch):
                code.decode(word)


@pytest.mark.parametrize("name", CASES)
def test_non_integer_input_raises_a_fec_error(name):
    built = build(CASES[name][0])
    n, k = built.n, built.k
    # 1.0 hashes like the symbol 1, so only its type gives it away
    with pytest.raises(InvalidSymbol):
        built.decode((1.0,) + (0,) * (n - 1))
    with pytest.raises(InvalidSymbol):
        built.encode((1.0,) + (0,) * (k - 1))
    for erasures in (("1",), (1.5,)):
        with pytest.raises(LengthMismatch):
            built.decode((0,) * n, erasures)


@pytest.mark.parametrize("name", CASES)
def test_numpy_integers_are_accepted(name):
    ch = Channel(name, build(CASES[name][0]))
    u, c = ch.send()
    word = list(c)
    ch.hit(word, [0])
    as_numpy = np.array(word, dtype=np.int64)
    assert ch.built.decode(as_numpy, np.array([1])) == ch.built.decode(tuple(word), (1,))
    assert tuple(ch.built.encode(np.array(u, dtype=np.uint8))) == tuple(c)


# -- the outcome contract ----------------------------------------------------

# RS and BCH outcomes index the mother code and list every erased
# position, even one whose error value is 0; every other family reports
# received - codeword and its support.
RS_LIKE = ("rs", "rs_shortened", "rs_pgz", "bch")


def assert_received_minus_codeword(built, word, erasures):
    out = built.decode(tuple(word), erasures)
    assert out.corrected
    received = ReceivedWord.make(word, erasures).symbols
    err = tuple(map(built.field.sub, received, out.codeword))
    assert out.error_vector == err
    assert out.error_positions == tuple(i for i, e in enumerate(err) if e)


@pytest.mark.parametrize("name", [name for name in CASES if name not in RS_LIKE])
def test_error_vector_is_received_minus_codeword(name):
    spec, t, s, _ = CASES[name]
    ch = Channel(name, build(spec))
    for _ in range(TRIALS):
        _, c = ch.send()
        word = list(c)
        positions = ch.rng.sample(range(ch.built.n), t + s)
        ch.hit(word, positions[:t])
        ch.erase(word, positions[t:])
        assert_received_minus_codeword(ch.built, word, positions[t:])


@pytest.mark.parametrize("name", CASES)
def test_compositions_report_received_minus_codeword(name):
    # RS and BCH included: an interleave or a product of them reports
    # in its own coordinates
    spec, _, _, partner = CASES[name]
    for composed in (f"interleaved:depth=2,base={{{spec}}}",
                     f"product:outer={{{partner}}},inner={{{spec}}}"):
        ch = Channel(name, build(composed))
        for _ in range(TRIALS):
            _, c = ch.send()
            word = list(c)
            ch.hit(word, [ch.rng.randrange(ch.built.n)])
            assert_received_minus_codeword(ch.built, word, ())


@pytest.mark.parametrize("spec", ["hamming:r=4", f"interleaved:depth=4,base={{{RS75}}}"])
def test_a_decode_builds_one_received_word(spec, monkeypatch):
    code = build(spec).code
    word = list(code.encode((1,) * code.k))
    word[0] ^= 1
    make = ReceivedWord.make.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(ReceivedWord, "make", classmethod(counted))
    assert code.decode(tuple(word)).corrected
    assert len(calls) == 1


# -- the packed syndrome key ---------------------------------------------------------

def rs_parts(code):
    """The RS codes that a family's `decode` reaches."""
    if isinstance(code, RSCode):
        return [code]
    if isinstance(code, BCHCode):
        return [code.rs]
    if isinstance(code, InterleavedCode):
        return rs_parts(code.base)
    if isinstance(code, SerialProduct):
        return rs_parts(code.product.outer) + rs_parts(code.product.inner)
    return []


def test_packed_syndrome_key_equals_the_gathered_syndromes():
    # every pure-backend GF(2^m) RS code of the protocol cases, as a code
    # or as a part: each table entry, and so by linearity every word
    from blockfec.reed_solomon import gather_eval

    codes = {}
    for spec, _, _, partner in CASES.values():
        for part in rs_parts(build(spec).code) + rs_parts(build(partner).code):
            codes[repr((part.field, part._full_n, part._full_k, part.m0))] = part
    assert len(codes) == 4
    rng = random.Random(5)
    for rs in codes.values():
        f, n = rs.field, rs._full_n
        assert rs._packed and f.p == 2 and isinstance(rs._syndrome_logs, list)

        def gathered(word):
            return Poly(f, gather_eval(f, rs._syndrome_logs, word))

        for i in range(n):
            for a in range(f.q):
                unit = [0] * n
                unit[i] = a
                assert rs._syndrome_poly(rs._packed_rows[i][a]) == gathered(unit)
        for _ in range(200):
            word = [rng.randrange(f.q) for _ in range(n)]
            key = rs._syndrome_key(word)
            assert rs._syndrome_poly(key) == gathered(word)
            assert (key == 0) == gathered(word).is_zero


def test_codes_over_larger_fields_key_by_the_coefficients_of_s():
    # a table of n q ints is kept to fields of at most 256 elements
    rs = RSCode(FiniteField(2, 10), 31, 27)
    assert not rs._packed and not rs._gathered
    word = list(rs.encode(range(1, 28)))
    word[4] ^= 700
    out = rs.decode(word, [9])
    assert out.corrected and out.codeword == rs.encode(range(1, 28))
    assert rs._syndrome_key(word) == rs.syndromes(word).coeffs
