"""Exact BSC event probabilities and Monte Carlo estimation."""

import ast
import gc
import math
import sys
import types
import weakref
from fractions import Fraction
from functools import cached_property
from itertools import product
from pathlib import Path

import pytest

from blockfec import (
    BCHCode,
    FiniteField,
    GolayCode,
    HammingCode,
    LinearCode,
    Poly,
    StandardArray,
    capacity,
    event_polynomials,
    golay23_decode,
    linear,
    monte_carlo,
    named_codes,
    perr_bound,
    perr_first_term,
    reed_solomon,
    round_to_places,
)
from blockfec.codespec import build
from blockfec.errors import TooLarge
from blockfec.linear import _RADIUS_CODECS, DecodeOutcome, as_received
from blockfec.reed_solomon import RSCode

H5 = [[0, 1, 1, 0, 0], [1, 1, 0, 1, 0], [1, 0, 0, 0, 1]]
H6 = [[0, 1, 1, 1, 0, 0], [1, 0, 1, 0, 1, 0], [1, 1, 0, 0, 0, 1]]
H7 = [[0, 1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0, 1]]

P01 = Fraction(1, 100)


def r5(x):
    return round_to_places(x, 5)


@pytest.fixture(scope="module")
def c5(gf2):
    return LinearCode.from_parity(gf2, H5)


@pytest.fixture(scope="module")
def arr5(c5):
    return StandardArray(c5)


# -- tail bound -----------------------------------------------------------------

def test_tail_bound_values():
    assert r5(perr_bound(5, 1, P01)) == Fraction(98, 100000)
    assert r5(perr_first_term(5, 1, P01)) == Fraction(97, 100000)
    assert perr_bound(5, 1, 0) == 0
    assert perr_bound(3, 3, 0.3) == 0


def test_tail_bound_identity():
    # both forms of the tail agree: 1 - head == tail
    p = Fraction(3, 100)
    head = sum(
        math.comb(7, i) * p**i * (1 - p) ** (7 - i) for i in range(2)
    )
    assert perr_bound(7, 1, p) == 1 - head


# -- exact event polynomials ---------------------------------------------------------

def test_full_correction_polynomials(c5, arr5):
    ev = event_polynomials(c5, arr5)
    assert ev["P_err"].coeffs == (0, 0, 8, 10, 5, 1)
    assert ev["p_err"].coeffs == (0, 0, 5, 7, 3, 1)
    assert ev["P_det"].coeffs == (0,) * 6
    assert r5(ev["P_err"](P01)) == Fraction(79, 100000)
    assert r5(ev["p_err"](P01)) == Fraction(49, 100000)
    # the two information bits fail symmetrically
    assert ev["p_bits"][0].coeffs == ev["p_bits"][1].coeffs == (0, 0, 5, 7, 3, 1)


def test_detect_only_rows(c5, arr5):
    ev = event_polynomials(
        c5, arr5, detect_syndromes={(1, 0, 1), (1, 1, 1)}
    )
    assert ev["P_err"].coeffs == (0, 0, 6, 6, 5, 1)
    assert ev["p_err"].coeffs == (0, 0, 3, 5, 3, 1)
    assert ev["P_det"].coeffs == (0, 0, 4, 4, 0, 0)
    assert r5(ev["P_err"](P01)) == Fraction(59, 100000)
    assert r5(ev["p_err"](P01)) == Fraction(30, 100000)
    assert r5(ev["P_det"](P01)) == Fraction(39, 100000)


def test_shortened_hamming_with_detect_row(gf2):
    code = LinearCode.from_parity(gf2, H6)
    arr = StandardArray(code)
    ev = event_polynomials(code, arr, detect_syndromes={(1, 1, 1)})
    assert ev["P_err"].coeffs == (0, 0, 12, 16, 15, 6, 0)
    assert ev["P_det"].coeffs == (0, 0, 3, 4, 0, 0, 1)
    for bit in ev["p_bits"]:
        assert bit.coeffs == (0, 0, 6, 10, 8, 4, 0)
    assert r5(ev["P_err"](P01)) == Fraction(117, 100000)
    # the exact polynomials evaluate to .00059 and .00029 at p = .01
    assert r5(ev["p_err"](P01)) == Fraction(59, 100000)
    assert r5(ev["P_det"](P01)) == Fraction(29, 100000)


def test_every_pattern_classified_once(c5, arr5, gf2):
    for detect in (frozenset(), {(1, 0, 1), (1, 1, 1)}):
        ev = event_polynomials(c5, arr5, detect_syndromes=detect)
        for w in range(6):
            total = (
                ev["P_err"].coeffs[w]
                + ev["P_det"].coeffs[w]
                + ev["P_correct"].coeffs[w]
            )
            assert total == math.comb(5, w)


def test_perr_complements_correct(c5, arr5):
    ev = event_polynomials(c5, arr5)
    p = Fraction(7, 200)
    assert ev["P_err"](p) + ev["P_correct"](p) == 1


def test_p_err_below_block_error(c5, arr5, gf2):
    cases = [
        (c5, arr5, frozenset()),
        (c5, arr5, {(1, 0, 1), (1, 1, 1)}),
    ]
    c6 = LinearCode.from_parity(gf2, H6)
    cases.append((c6, StandardArray(c6), {(1, 1, 1)}))
    for code, arr, detect in cases:
        ev = event_polynomials(code, arr, detect_syndromes=detect)
        assert ev["p_err"](P01) < ev["P_err"](P01)


def test_perfect_code_meets_tail_exactly(gf2):
    ham = LinearCode.from_parity(gf2, H7)
    arr = StandardArray(ham)
    ev = event_polynomials(ham, arr)
    # spheres of radius 1 tile the space: P_err is the full tail
    assert ev["P_err"].coeffs == tuple(
        0 if w < 2 else math.comb(7, w) for w in range(8)
    )
    p = Fraction(1, 100)
    assert ev["P_err"](p) == perr_bound(7, 1, p)


def test_detecting_code_row_rejected(c5, arr5):
    with pytest.raises(ValueError):
        event_polynomials(c5, arr5, detect_syndromes={(0, 0, 0)})


# -- capacity ---------------------------------------------------------------------

def test_capacity_values():
    assert abs(capacity(0.01) - 0.9192) < 5e-5
    assert capacity(0.5) == 0.0
    assert capacity(0) == 1.0
    assert capacity(1) == 1.0
    assert abs(capacity(0.11) - (1 - 0.4999) ) < 1e-3


# -- Monte Carlo --------------------------------------------------------------------

def test_monte_carlo_matches_exact(c5, arr5):
    ev = event_polynomials(c5, arr5)
    mc = monte_carlo(c5, arr5, 0.01, 1_000_000, seed=20240801)
    for key, exact in (
        ("P_err", float(ev["P_err"](P01))),
        ("p_err", float(ev["p_err"](P01))),
    ):
        hat, se = mc[f"{key}_hat"], mc[f"{key}_stderr"]
        assert abs(hat - exact) <= 3 * max(se, 1e-9), key
    assert mc["P_det_hat"] == 0


def test_monte_carlo_detect_policy(c5, arr5):
    detect = {(1, 0, 1), (1, 1, 1)}
    ev = event_polynomials(c5, arr5, detect_syndromes=detect)
    mc = monte_carlo(c5, arr5, 0.01, 500_000, seed=7, detect_syndromes=detect)
    for key in ("P_err", "p_err", "P_det"):
        exact = float(ev[key](P01))
        assert abs(mc[f"{key}_hat"] - exact) <= 3 * max(mc[f"{key}_stderr"], 1e-9)


def test_monte_carlo_reproducible(c5, arr5):
    a = monte_carlo(c5, arr5, 0.01, 200_000, seed=42)
    b = monte_carlo(c5, arr5, 0.01, 200_000, seed=42)
    assert a == b
    c = monte_carlo(c5, arr5, 0.01, 200_000, seed=43)
    assert c != a


def test_monte_carlo_zero_noise(c5, arr5):
    mc = monte_carlo(c5, arr5, 0.0, 50_000, seed=1)
    assert mc["P_err_hat"] == 0 and mc["p_err_hat"] == 0


def test_monte_carlo_perfect_code_tail(gf2):
    ham = LinearCode.from_parity(gf2, H7)
    arr = StandardArray(ham)
    exact = float(perr_bound(7, 1, Fraction(1, 100)))
    mc = monte_carlo(ham, arr, 0.01, 400_000, seed=99)
    assert abs(mc["P_err_hat"] - exact) <= 3 * mc["P_err_stderr"]


@pytest.mark.parametrize("p,trials,seed,name", [
    (2.0, 100, 1, "p"),
    (-0.1, 100, 1, "p"),
    (float("nan"), 100, 1, "p"),
    (0.1, 0, 1, "trials"),
    (0.1, 100.0, 1, "trials"),
    (0.1, 100, -1, "seed"),
    (0.1, 100, 1.5, "seed"),
])
def test_monte_carlo_rejects_bad_arguments(c5, arr5, p, trials, seed, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        monte_carlo(c5, arr5, p, trials, seed)


def test_monte_carlo_generic_decoder_golay(gf2):
    # the [23,12] code is perfect, so its block-error rate equals the
    # weight > 3 tail exactly
    g = GolayCode("G23")
    exact = float(perr_bound(23, 3, Fraction(1, 100)))

    mc = monte_carlo(g, lambda w: golay23_decode(w), 0.01, 40_000, seed=5)
    se = max(mc["P_err_stderr"], math.sqrt(exact * (1 - exact) / 40_000))
    assert abs(mc["P_err_hat"] - exact) <= 3 * se
    assert mc["P_det_hat"] == 0  # a perfect code never detects


def test_rounding_helper():
    assert round_to_places(Fraction(786, 1000000), 5) == Fraction(79, 100000)
    assert round_to_places(Fraction(1, 3), 5) == Fraction(33333, 100000)
    assert float(round_to_places(Fraction(1, 2), 0)) == 1.0


# -- one Monte Carlo driver, two kernels ---------------------------------------------


@pytest.mark.parametrize("p", [0.01, 0.1])
@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", ["c5", "hamming15"])
def test_array_kernel_matches_scalar_decoder(c5, arr5, name, p, seed):
    # 70 000 trials span two Philox batches; both kernels see the same
    # messages and noise, so whole result dicts agree
    if name == "c5":
        code, array, decoder = c5, arr5, c5.decode
    else:
        ham = HammingCode(4)
        code, array, decoder = ham.code, StandardArray(ham.code), ham.decode
    fast = monte_carlo(code, array, p, 70_000, seed)
    assert fast == monte_carlo(code, decoder, p, 70_000, seed)
    assert fast["P_err_hat"] > 0


GF16 = "GF(2^4)[1,1,0,0,1]"


def _pinned(P_err, P_det, p_err, P_err_se, P_det_se, p_err_se):
    return {
        "P_err_hat": P_err, "P_det_hat": P_det, "p_err_hat": p_err,
        "P_err_stderr": P_err_se, "P_det_stderr": P_det_se,
        "p_err_stderr": p_err_se, "trials": 300, "seed": 11,
    }


_ZERO = _pinned(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

# recorded from the per-trial loop before the two Monte Carlo paths
# became one driver; the scalar kernel must reproduce them bit for bit
LOOP_PINS = [
    ("golay24", 0.05, _pinned(
        0.01, 0.03333333333333333, 0.0030555555555555557,
        0.005744562646538029, 0.010363754503432016, 0.0009198760689176301)),
    ("golay24", 0.15, _pinned(
        0.24, 0.29333333333333333, 0.08083333333333333,
        0.024657656011875907, 0.026286174369104437, 0.004542983159516918)),
    ("bch15", 0.05, _ZERO),
    ("bch15", 0.15, _pinned(
        0.08333333333333333, 0.10666666666666667, 0.03933333333333333,
        0.015957118462605634, 0.01782216680512304, 0.005019045209481063)),
    ("rs10", 0.05, _ZERO),
    ("rs10", 0.3, _pinned(
        0.006666666666666667, 0.33666666666666667, 0.005,
        0.0046983054470813275, 0.02728383051199753, 0.0020361319538117696)),
    ("gf4", 0.15, _pinned(
        0.10666666666666667, 0.0, 0.08833333333333333,
        0.01782216680512304, 0.0, 0.01158523165899554)),
]


@pytest.mark.parametrize("name,p,expected", LOOP_PINS)
def test_scalar_kernel_reproduces_loop_path(name, p, expected):
    code = {
        "golay24": lambda: build("golay24"),
        "bch15": lambda: build(f"bch:field={GF16},sub=2,d=7").code,
        "rs10": lambda: build(f"rs:field={GF16},n=15,k=9,shorten=5,decoder=pgz"),
        "gf4": lambda: build("linear:field=GF(2^2),rows=1.0.1.1;0.1.1.a2"),
    }[name]()
    assert monte_carlo(code, code.decode, p, 300, 11) == expected


# -- a code's own bounded-distance decoder on the array kernel -------------------

RADIUS_SPECS = {
    "golay24": "golay24",
    "bch15_5": f"bch:field={GF16},sub=2,d=7",
    "bch31_21": "bch:field=GF(2^5),sub=2,d=5",   # n > 24
}


@pytest.mark.parametrize("p", [0.01, 0.1])
@pytest.mark.parametrize("name", RADIUS_SPECS)
def test_own_decoder_takes_the_radius_array_kernel(name, p, codec_calls):
    # a wrapped decode is not the code's own, so it is called once per
    # trial: the scalar oracle.  70 000 trials span two Philox batches.
    built = build(RADIUS_SPECS[name])
    bare = built.code
    scalar = monte_carlo(bare, lambda w: bare.decode(w), p, 70_000, seed=5)
    assert not codec_calls
    # BCH(15,5) at p = 0.01 meets about one word beyond its radius
    assert p < 0.1 or scalar["P_err_hat"] + scalar["P_det_hat"] > 0
    for code in (built, bare):
        codec_calls.clear()
        assert monte_carlo(code, code.decode, p, 70_000, seed=5) == scalar
        assert codec_calls == ["ArrayCodec"] * 2


BIG_RADIUS_SPECS = {
    "hamming127_120": "hamming:r=7",   # two uint64 lanes per codeword
    "bch63_45": "bch:field=GF(2^6),sub=2,d=7",   # 18 syndrome bits over 8 bytes
}


@pytest.fixture(scope="module")
def big_radius_codes():
    return {name: build(spec).code for name, spec in BIG_RADIUS_SPECS.items()}


@pytest.mark.parametrize("p", [0.02, 0.05])
@pytest.mark.parametrize("name", BIG_RADIUS_SPECS)
def test_long_codes_take_the_radius_array_kernel(name, p, big_radius_codes, codec_calls):
    # longer words than above, one past a single uint64 lane; their
    # scalar decoders are slow, so fewer trials
    code = big_radius_codes[name]
    scalar = monte_carlo(code, lambda w: code.decode(w), p, 1_000, seed=4)
    assert not codec_calls
    assert scalar["P_err_hat"] + scalar["P_det_hat"] > 0
    assert monte_carlo(code, code.decode, p, 1_000, seed=4) == scalar
    assert codec_calls == ["ArrayCodec"]


def _pinned_70k(*values):
    return {**_pinned(*values), "trials": 70_000, "seed": 10}


# recorded while the binary codes still drew a noise value for each hit
# symbol, always 1; 70 000 trials span two Philox batches
BINARY_PINS = [
    ("hamming15_array", 0.01, _pinned_70k(
        0.009557142857142858, 0.0, 0.0019142857142857143,
        0.00036773056669156605, 0.0, 4.9812912638904814e-05)),
    ("hamming15_array", 0.2, _pinned_70k(
        0.8330285714285715, 0.0, 0.22805714285714285,
        0.0014096198606729042, 0.0, 0.0004781553875144192)),
    ("golay24", 0.01, _pinned_70k(
        0.0, 0.00012857142857142858, 0.0,
        0.0, 4.2854387666539495e-05, 0.0)),
    ("golay24", 0.2, _pinned_70k(
        0.359, 0.38221428571428573, 0.12158333333333333,
        0.001813122799402811, 0.0018366371657780425, 0.0003565723502168297)),
    ("bch15_5", 0.01, _pinned_70k(
        2.857142857142857e-05, 2.857142857142857e-05, 8.571428571428571e-06,
        2.0202762273969922e-05, 2.0202762273969922e-05, 4.948695384223088e-06)),
    ("bch15_5", 0.2, _pinned_70k(
        0.1487857142857143, 0.20218571428571427, 0.07152,
        0.001345089086323197, 0.0015180186862415184, 0.0004355780710733726)),
]


@pytest.mark.parametrize("name,p,expected", BINARY_PINS)
def test_binary_codes_draw_no_noise_values(name, p, expected):
    if name == "hamming15_array":
        code = HammingCode(4).code
        decoder = StandardArray(code)
    else:
        code = build(RADIUS_SPECS[name]).code
        decoder = code.decode
    assert monte_carlo(code, decoder, p, 70_000, seed=10) == expected


def test_array_codec_is_built_once_per_array_and_detect_policy(gf2, monkeypatch):
    built = []

    def counted(self, array, detect_rows=(), init=linear.ArrayCodec.__init__):
        built.append(frozenset(detect_rows))
        init(self, array, detect_rows)

    monkeypatch.setattr(linear.ArrayCodec, "__init__", counted)
    code = LinearCode.from_parity(gf2, H6)
    array = StandardArray(code)
    ps = (0.01, 0.05, 0.2)
    sweep = [monte_carlo(code, array, p, 3_000, seed=6) for p in ps]
    assert len(built) == 1
    detect = {array.syndromes[-1]}
    policy = monte_carlo(code, array, 0.2, 3_000, seed=6, detect_syndromes=detect)
    assert len(built) == 2 and built[1] != built[0]
    assert monte_carlo(code, array, 0.2, 3_000, seed=6, detect_syndromes=detect) == policy
    assert monte_carlo(code, array, 0.2, 3_000, seed=6) == sweep[-1]
    assert len(built) == 2
    # a new array of the same code builds fresh codecs with the same results
    fresh = StandardArray(code)
    assert [monte_carlo(code, fresh, p, 3_000, seed=6) for p in ps] == sweep
    assert monte_carlo(code, fresh, 0.2, 3_000, seed=6, detect_syndromes=detect) == policy
    assert len(built) == 4
    assert policy != sweep[-1]


def test_array_kernel_on_a_code_without_parity(gf2):
    # n = k: no syndrome bits, one leader, every word a codeword
    code = LinearCode.from_generator(gf2, [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    mc = monte_carlo(code, StandardArray(code), 0.1, 2_000, seed=3)
    assert mc == monte_carlo(code, code.decode, 0.1, 2_000, seed=3)
    assert mc["P_err_hat"] > 0 and mc["P_det_hat"] == 0


# -- a GF(2^m) RS code's own decoder on the batch kernel ------------------------

RS_SPECS = {
    "rs10_pgz": f"rs:field={GF16},n=15,k=9,shorten=5,decoder=pgz",
    "rs7_5": "rs:field=GF(2^3)[1,1,0,1],n=7,k=5",
    "rs15_11_m0": f"rs:field={GF16},n=15,k=11,m0=0",
}


@pytest.mark.parametrize("p", [0.01, 0.05, 0.3, 0.5])
@pytest.mark.parametrize("name", RS_SPECS)
def test_own_rs_decoder_takes_the_batch_kernel(name, p, codec_calls):
    # the wrapped decode is the scalar oracle; 70 000 trials span two
    # Philox batches
    built = build(RS_SPECS[name])
    bare = built.code
    trials = 70_000 if (name, p) == ("rs7_5", 0.05) else 2_000
    scalar = monte_carlo(bare, lambda w: bare.decode(w), p, trials, seed=9)
    assert not codec_calls
    assert p < 0.3 or scalar["P_err_hat"] > 0 and scalar["P_det_hat"] > 0
    for code in (built, bare):
        codec_calls.clear()
        assert monte_carlo(code, code.decode, p, trials, seed=9) == scalar
        assert codec_calls and set(codec_calls) == {"BatchCoder"}


def test_rs255_batch_kernel_equals_the_loop():
    rs = build("rs:field=GF(2^8)[1,0,1,1,1,0,0,0,1],n=255,k=223").code
    scalar = monte_carlo(rs, lambda w: rs.decode(w), 0.07, 300, seed=2)
    assert 0 < scalar["P_det_hat"] < 1
    assert monte_carlo(rs, rs.decode, 0.07, 300, seed=2) == scalar


def test_other_decoders_of_rs_codes_stay_on_the_loop(codec_calls):
    rs = build("rs:field=GF(2^3)[1,1,0,1],n=7,k=5").code
    monte_carlo(rs, rs.pgz_decode, 0.1, 200, seed=1)
    odd = build("rs:field=GF(3^2),n=8,k=4").code
    monte_carlo(odd, odd.decode, 0.1, 200, seed=1)
    bch = build(f"bch:field={GF16},sub=4,d=5").code
    monte_carlo(bch, bch.decode, 0.1, 200, seed=1)
    assert not codec_calls


def returns_received(self, word, erasures=()):
    """A planted bad decoder: every word "corrected" as received."""
    word = as_received(word).symbols
    return DecodeOutcome("corrected", codeword=word, info=word[:self.k])


def test_replaced_rs_decoders_stay_on_the_loop(monkeypatch, codec_calls):
    # the batch kernel reproduces RSCode's own decoders, so a code whose
    # solver a subclass or a patch replaced is called once per trial, and
    # a bad one shows as errors
    class Received(RSCode):
        pgz_decode = returns_received

    sub = Received(FiniteField(2, 4, (1, 1, 0, 0, 1)), 15, 9, shorten_by=5, decoder="pgz")
    on_object = build(RS_SPECS["rs10_pgz"])
    monkeypatch.setattr(on_object.code, "pgz_decode",
                        types.MethodType(returns_received, on_object.code))
    monkeypatch.setattr(RSCode, "euclid_decode", returns_received)
    on_class = build(RS_SPECS["rs7_5"])
    for code in (sub, on_object, on_object.code, on_class, on_class.code):
        scalar = monte_carlo(code, lambda w: code.decode(w), 0.05, 1000, seed=4)
        assert scalar["P_err_hat"] > 0
        assert monte_carlo(code, code.decode, 0.05, 1000, seed=4) == scalar
        assert not codec_calls


# a Golay24, Hamming(15,11) and BCH(15,5) code built by its family class
BINARY_FAMILIES = {
    "golay24": (GolayCode, ("G24",)),
    "hamming15": (HammingCode, (4,)),
    "bch15_5": (BCHCode, (FiniteField(2, 4, (1, 1, 0, 0, 1)), 2, 7)),
}


def reads_first_k(self, codeword):
    """A planted bad message read: the first k symbols of a codeword."""
    return tuple(codeword[:self.k])


# a part that a code's `decode` calls: the attribute that holds it, the
# method planted on that object, the class method planted in its place
# and the plant.  BCH calls its RS code's decoder, Hamming the message
# read of its linear code.
PARTS = {"bch15_5": ("rs", "decode", RSCode, "euclid_decode", returns_received),
         "hamming15": ("code", "_message_of", LinearCode, "_message_of", reads_first_k)}
# how the bad decoder is planted: in `decode` by a subclass, on the
# object or on the class, or in a part on its object or its class
PLANTS = [(name, how) for name in BINARY_FAMILIES for how in ("subclass", "object", "class")]
PLANTS += [(name, how) for name in PARTS for how in ("part_object", "part_class")]
# P_err_hat of the planted decoder at p = 0.05, 2000 trials, seed 1
PLANTED_P_ERR = {"golay24": 0.4635, "hamming15": 0.6995, "bch15_5": 0.2335,
                 ("hamming15", "part"): 0.5905}


@pytest.mark.parametrize("name,how", PLANTS)
def test_replaced_decoders_of_binary_codes_stay_on_the_loop(name, how, monkeypatch,
                                                            codec_calls):
    # the radius array reproduces the family's own decoder, so a code
    # whose decoder was replaced is called once per trial, and a bad one
    # shows as errors
    cls, args = BINARY_FAMILIES[name]
    honest = cls(*args)
    own = monte_carlo(honest, honest.decode, 0.05, 2000, seed=1)
    assert codec_calls
    code = cls(*args)
    if how == "subclass":
        code = type("Received", (cls,), {"decode": returns_received})(*args)
    elif how == "object":
        monkeypatch.setattr(code, "decode", types.MethodType(returns_received, code))
    elif how == "class":
        monkeypatch.setattr(cls, "decode", returns_received)
    else:
        part, method, part_cls, class_method, plant = PARTS[name]
        target = getattr(code, part)
        if how == "part_object":
            monkeypatch.setattr(target, method, types.MethodType(plant, target))
        else:
            monkeypatch.setattr(part_cls, class_method, plant)
    codec_calls.clear()
    loop = monte_carlo(code, lambda w: code.decode(w), 0.05, 2000, seed=1)
    assert monte_carlo(code, code.decode, 0.05, 2000, seed=1) == loop
    assert not codec_calls
    planted = PLANTED_P_ERR.get((name, how[:4]), PLANTED_P_ERR[name])
    assert loop["P_err_hat"] == planted > own["P_err_hat"]


def golay_received(word):
    """A planted bad public Golay decoder: every word "corrected" as received."""
    word = as_received(word).symbols
    return DecodeOutcome("corrected", codeword=word, info=word[:12])


def test_patched_golay_decoder_sends_golay_to_the_loop(monkeypatch, codec_calls):
    # GolayCode.decode calls the module's public decoder, so a patch of it
    # is a replaced decoder: the loop runs it, and its errors show
    code = GolayCode("G24")
    own = monte_carlo(code, code.decode, 0.05, 2000, seed=1)
    assert codec_calls and own["P_err_hat"] == 0.004
    monkeypatch.setattr(named_codes, "golay24_decode", golay_received)
    codec_calls.clear()
    assert code.batch_codec() is None
    loop = monte_carlo(code, code.decode, 0.05, 2000, seed=1)
    assert not codec_calls and loop["P_err_hat"] == PLANTED_P_ERR["golay24"]


def test_patched_key_equation_sends_rs_to_the_loop(monkeypatch, codec_calls):
    # a class patch of the key-equation stage that `decode` reaches: here
    # one that gives up on every word it sees
    built = build(RS_SPECS["rs10_pgz"])
    own = monte_carlo(built, built.decode, 0.05, 1000, seed=4)
    assert codec_calls
    monkeypatch.setattr(RSCode, "_keyeq", lambda self, syndromes, erasures, solver: None)
    codec_calls.clear()
    assert built.code.batch_codec() is None
    loop = monte_carlo(built, built.decode, 0.05, 1000, seed=4)
    assert not codec_calls
    assert loop == monte_carlo(built, lambda w: built.decode(w), 0.05, 1000, seed=4)
    assert loop["P_det_hat"] > own["P_det_hat"]


# every entry of the snapshot that the trust rule holds the library to:
# the callable globals of each module, and the functions and descriptors
# of each class but the codecs
SNAPSHOT = [(owner, name) for owner, names, _, _ in linear._SNAPSHOT for name in names]
# a code of each family that has a codec
TRUST_CODES = {"rs7_5": RS_SPECS["rs7_5"], "golay24": "golay24",
               "bch15_5": RADIUS_SPECS["bch15_5"], "hamming15": "hamming:r=4"}


def honest(value, owner, name):
    """A wrapper of a snapshot entry that does what the entry does."""
    if isinstance(value, (classmethod, staticmethod)):
        return type(value)(honest(value.__func__, owner, name))
    if isinstance(value, property):
        return property(honest(value.fget, owner, name), value.fset)
    if isinstance(value, cached_property):
        wrapped = cached_property(honest(value.func, owner, name))
        wrapped.__set_name__(owner, name)
        return wrapped
    return lambda *args, **kwargs: value(*args, **kwargs)


@pytest.fixture(scope="module")
def trust_codes():
    codes = [build(spec).code for spec in TRUST_CODES.values()]
    assert all(code.batch_codec() is not None for code in codes)
    return codes


@pytest.mark.parametrize("owner,name", SNAPSHOT,
                         ids=[f"{owner.__name__}.{name}" for owner, name in SNAPSHOT])
def test_every_noted_decoder_is_in_the_trust_rule(owner, name, trust_codes, monkeypatch):
    # an honest wrapper of any entry of the snapshot counts as a replaced
    # decoder, for every family
    monkeypatch.setattr(owner, name, honest(vars(owner)[name], owner, name))
    assert [code.batch_codec() for code in trust_codes] == [None] * len(trust_codes)


def test_the_snapshot_holds_what_the_hand_kept_lists_noted():
    # the 16 methods and functions that the name lists the snapshot
    # replaced noted, and every module the package imports
    noted = [(RSCode, name) for name in (
        "decode", "pgz_decode", "euclid_decode", "_decode", "_expand_word",
        "_syndrome_key", "_syndrome_poly", "_keyeq", "_solve_erasures", "_solve_pgz",
        "_solve_euclid", "_emit")]
    noted += [(reed_solomon, "gather_eval"), (reed_solomon, "euclid_key_equation"),
              (named_codes, "golay24_decode"), (named_codes, "golay23_decode")]
    assert set(noted) < set(SNAPSHOT)
    init = Path(linear.__file__).with_name("__init__.py")
    imported = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module else
                            [alias.name for alias in node.names])
    owners = {owner for owner, _ in SNAPSHOT}
    assert imported and all(sys.modules[f"blockfec.{name}"] in owners for name in imported)


# the library functions that the hand-kept lists missed
MISSED = {"_solve_square": (reed_solomon, "_solve_square"),
          "Poly.__divmod__": (Poly, "__divmod__"),
          "FiniteField.inv": (FiniteField, "inv"),
          "check_word": (linear, "check_word")}
MISSED_CODES = {"rs10": RS_SPECS["rs10_pgz"], "golay24": "golay24",
                "bch15_5": RADIUS_SPECS["bch15_5"]}


@pytest.mark.parametrize("patch", MISSED)
def test_a_patched_library_function_sends_every_family_to_the_loop(patch, monkeypatch,
                                                                   codec_calls):
    # PGZ's square solve is planted to find no locator, the others are
    # wrapped honestly
    owner, name = MISSED[patch]
    plant = (lambda *args: None) if patch == "_solve_square" else honest(vars(owner)[name],
                                                                        owner, name)
    monkeypatch.setattr(owner, name, plant)
    for spec_name, spec in MISSED_CODES.items():
        code = build(spec).code
        loop = monte_carlo(code, lambda w: code.decode(w), 0.05, 2000, seed=1)
        assert monte_carlo(code, code.decode, 0.05, 2000, seed=1) == loop
        assert not codec_calls
        if (patch, spec_name) == ("_solve_square", "rs10"):
            # the codec that name lists trusted read 0.0015 here
            assert loop["P_det_hat"] == 0.389


CODEC_SPECS = {"rs7_5": RS_SPECS["rs7_5"], "golay24": "golay24",
               "bch15_5": RADIUS_SPECS["bch15_5"], "golay24_built": "golay24"}


@pytest.mark.parametrize("name", CODEC_SPECS)
def test_codec_cache_does_not_keep_the_code_alive(name, codec_calls):
    built = build(CODEC_SPECS[name])
    code = built if name.endswith("_built") else built.code
    monte_carlo(code, code.decode, 0.1, 100, seed=1)
    # the codec ran and is cached: on the RS code, or in the radius cache
    assert codec_calls
    assert "_batch" in vars(built.code) or built.code in _RADIUS_CODECS
    refs = [weakref.ref(built), weakref.ref(built.code)]
    del built, code
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_radius_array_detect_policy_and_events():
    golay = GolayCode("G24").code
    arr = StandardArray(golay, 3)
    unleadered = next(s for s in product((0, 1), repeat=12)
                      if s not in arr.syndromes)
    plain = monte_carlo(golay, arr, 0.1, 5_000, seed=3)
    assert plain["P_det_hat"] > 0
    # a syndrome beyond the radius is detected already
    assert monte_carlo(golay, arr, 0.1, 5_000, seed=3,
                       detect_syndromes={unleadered}) == plain
    with pytest.raises(ValueError):
        monte_carlo(golay, arr, 0.1, 100, seed=3, detect_syndromes={(1,) * 11})
    with pytest.raises(ValueError):
        event_polynomials(golay, arr)


def test_array_kernel_rejects_nonbinary_code():
    code = build("linear:field=GF(2^2),rows=1.0.1.1;0.1.1.a2").code
    with pytest.raises(TooLarge):
        monte_carlo(code, StandardArray(code), 0.1, 100, seed=1)


def test_detect_policy_needs_standard_array(c5):
    with pytest.raises(ValueError):
        monte_carlo(c5, c5.decode, 0.1, 100, seed=1,
                    detect_syndromes={(1, 1, 1)})


@pytest.mark.parametrize("syndrome", [(1, 1), (1, 0, 1, 1), (1, 2, 1), (0, 0, 0)])
def test_bad_detect_syndrome_rejected(c5, arr5, syndrome):
    with pytest.raises(ValueError):
        event_polynomials(c5, arr5, detect_syndromes={syndrome})
    with pytest.raises(ValueError):
        monte_carlo(c5, arr5, 0.1, 100, seed=1, detect_syndromes={syndrome})
