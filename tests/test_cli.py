"""Command-line interface: round trips, formats, and exit statuses."""

import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blockfec.cli import main
from blockfec.codespec import SpecError, build, parse_field, parse_spec
from blockfec.errors import FecError


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


# -- code specifications ---------------------------------------------------------

def test_parse_render_identity():
    specs = [
        "golay24",
        "hamming:r=3",
        "rs:field=GF(2^3)[1,1,0,1],k=3,n=7",
        "cyclic:field=GF(3^1),g=2.0.1.1.2.1,n=8",
        "interleaved:base={rs:field=GF(2^3)[1,1,0,1],k=5,n=7},depth=4",
        "product:inner={rs:field=GF(2^3)[1,1,0,1],k=5,n=7},"
        "outer={rs:field=GF(2^3)[1,1,0,1],k=3,n=7}",
    ]
    for text in specs:
        spec = parse_spec(text)
        assert spec.render() == text
        assert parse_spec(spec.render()) == spec


def test_parse_field_variants():
    assert parse_field("GF(2^3)[1,1,0,1]").q == 8
    assert parse_field("GF(11)").q == 11
    assert parse_field("GF(2^4)").modulus == (1, 1, 0, 0, 1)
    with pytest.raises(Exception):
        parse_field("GF(six)")


def test_builds_of_one_spec_share_one_field():
    assert build(RS73).field is build(RS73).field
    assert parse_field("GF(3^2)") is parse_field("GF(3^2)")


@pytest.mark.parametrize("text", ["GF(six)", "GF(2^3", "GF(7)[1,2]", "GF(7^1)[1,2]"])
def test_bad_field_specs_raise_spec_errors(text):
    for _ in range(2):      # a failed construction is not cached
        with pytest.raises(SpecError):
            parse_field(text)


def test_build_families():
    for text, n, k in [
        ("hamming:r=3", 7, 4),
        ("golay23", 23, 12),
        ("golay24", 24, 12),
        ("linear:rows=1.0.0.1.1;0.1.1.1.0", 5, 2),
        ("cyclic:field=GF(3^1),n=8,g=2.0.1.1.2.1", 8, 3),
        ("rs:field=GF(2^3)[1,1,0,1],n=7,k=3", 7, 3),
        ("rs:field=GF(2^4)[1,1,0,0,1],n=15,k=9,shorten=5", 10, 4),
        ("bch:field=GF(2^4)[1,1,0,0,1],sub=2,d=7", 15, 5),
        ("interleaved:base={rs:field=GF(2^3)[1,1,0,1],k=5,n=7},depth=4",
         28, 20),
    ]:
        built = build(text)
        assert (built.n, built.k) == (n, k), text


@pytest.mark.parametrize("text,key,family", [
    ("rs:field=GF(2^4)[1,1,0,0,1],n=15,k=9,shorten_by=5", "shorten_by", "rs"),
    ("bch:field=GF(2^4)[1,1,0,0,1],sub=2,d=7,m=0", "m", "bch"),
    ("golay24:r=3", "r", "golay24"),
    ("interleaved:depth=2,base={hamming:r=3,n=7}", "n", "hamming"),
])
def test_build_rejects_unknown_parameters(capsys, text, key, family):
    with pytest.raises(SpecError, match=f"{key!r} for family {family!r}"):
        build(text)
    status, out, err = run(capsys, "decode", "--code", text, "--received", "0")
    assert status == 1 and out == ""
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("text,message", [
    ("rs:field=GF(2^3),n=7,k=5,k=3", "'k' given twice"),
    ("interleaved:depth=2,base={hamming:r=3,r=4}", "'r' given twice"),
    ("product:outer={hamming:r=3},inner={hamming:r=3},rerun_inner=yes",
     "rerun_inner must be 0 or 1"),
    ("product:outer={hamming:r=3},inner={hamming:r=3},max_inner_errors=x",
     "bad integer for 'max_inner_errors'"),
])
def test_build_rejects_repeated_keys_and_bad_policies(text, message):
    with pytest.raises(SpecError, match=message):
        build(text)


# -- field table -------------------------------------------------------------------

def test_field_table(capsys):
    status, out, _ = run(capsys, "field", "GF(2^3)[1,1,0,1]")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    vectors = [line.split()[0] for line in lines[1:]]
    assert vectors == ["000", "100", "010", "001", "110", "011", "111", "101"]
    assert lines[1].split()[-1] == "-inf"


def test_field_table_gf9(capsys):
    status, out, _ = run(capsys, "field", "GF(3^2)[2,1,1]")
    assert status == 0
    vectors = [line.split()[0] for line in out.strip().splitlines()[1:]]
    assert vectors == ["00", "10", "01", "12", "22", "20", "02", "21", "11"]


@pytest.mark.parametrize("spec", ["GF(2^3)[3,1,0,1]", "GF(3^2)[5,4,1]"])
def test_field_table_rejects_modulus_digits_outside_the_prime_field(capsys, spec):
    status, out, err = run(capsys, "field", spec)
    assert (status, out) == (1, "")
    assert "is not a digit of" in err


def test_field_table_trivial(capsys):
    status, out, _ = run(capsys, "field", "GF(2)")
    assert status == 0
    assert len(out.strip().splitlines()) == 3


# -- encode / decode round trips ----------------------------------------------------

RS73 = "rs:field=GF(2^3)[1,1,0,1],n=7,k=3"


def test_encode_systematic_bytes(capsys):
    status, out, _ = run(
        capsys, "encode", "--code", RS73, "--message", "a6,a2,a5", "--vector"
    )
    assert status == 0
    assert out.strip() == "101,001,111,101,111,011,011"


def test_encode_nonsystematic(capsys):
    status, out, _ = run(
        capsys, "encode", "--code", RS73, "--message", "a6,a2,a5",
        "--vector", "--nonsystematic",
    )
    assert out.strip() == "001,011,001,101,101,011,111"


def test_decode_record_format(capsys):
    status, out, _ = run(
        capsys, "decode", "--code", RS73,
        "--received", "a4,a6,a5,a5,a5,a6,a1", "--format", "record",
    )
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["verdict"] == "corrected"
    assert record["error_positions"] == "0,2"
    assert record["error_values"] == "a4,a5"
    assert record["info"] == "0,a6,0"


def test_decode_with_erasures(capsys):
    code = "rs:field=GF(2^4)[1,1,0,0,1],n=15,k=9,shorten=5"
    status, out, _ = run(
        capsys, "decode", "--code", code,
        "--received",
        "0011,1100,1111,0110,0000,1101,1010,0000,0001,1110",
        "--erasures", "4,7", "--vector", "--format", "record",
    )
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["info"] == "0011,1100,1111,0100"
    assert record["error_positions"] == "3,9,12"


def test_decode_merges_duplicate_erasures(capsys):
    # a position listed twice is erased once
    argv = ("decode", "--code", RS73, "--received", "a6,0,a5,a6,a5,a4,a0",
            "--format", "record", "--erasures")
    once = run(capsys, *argv, "1")
    assert once[0] == 0 and "error_positions=1,6" in once[1]
    assert run(capsys, *argv, "1,1") == once


def test_decode_golay_example(capsys):
    word = ",".join("011110111010001100000010")
    status, out, _ = run(capsys, "decode", "--code", "golay24",
                         "--received", word)
    assert status == 0
    assert "0,1,1,1,1,0,0,1,1,0,1,0" in out


def test_decode_intact_word(capsys):
    status, out, _ = run(
        capsys, "decode", "--code", RS73,
        "--received", "a6,a2,a5,a6,a5,a4,a4", "--format", "record",
    )
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["error_positions"] == ""


def test_decode_uncorrectable_exit_status(capsys):
    # more erased symbols than redundancy: always rejected
    status, out, _ = run(
        capsys, "decode", "--code", RS73,
        "--received", "0,0,0,0,0,0,0", "--erasures", "0,1,2,3,4",
    )
    assert status == 2
    assert "uncorrectable" in out


def test_bad_input_exit_status(capsys):
    status, _, err = run(capsys, "decode", "--code", "nosuch",
                         "--received", "0")
    assert status == 1
    assert "error" in err


@pytest.mark.parametrize(
    "code,message",
    [
        ("hamming:r=3", "1,0,1,1"),
        ("golay23", "1,0,1,1,0,0,1,0,1,0,1,0"),
        ("golay24", "1,0,1,1,0,0,1,0,1,0,1,0"),
        ("linear:rows=1.0.0.1.1;0.1.1.1.0", "1,1"),
        ("cyclic:field=GF(3^1),n=8,g=2.0.1.1.2.1", "2,0,1"),
        (RS73, "a6,a2,a5"),
        ("bch:field=GF(2^4)[1,1,0,0,1],sub=2,d=7", "1,0,1,1,0"),
        ("interleaved:base={rs:field=GF(2^3)[1,1,0,1],k=5,n=7},depth=2",
         ",".join(["a1"] * 10)),
        ("product:outer={rs:field=GF(2^3)[1,1,0,1],k=3,n=7},"
         "inner={rs:field=GF(2^3)[1,1,0,1],k=5,n=7}",
         ",".join(["a2"] * 15)),
    ],
)
def test_family_roundtrip_with_noise(capsys, code, message):
    status, encoded, _ = run(capsys, "encode", "--code", code,
                             "--message", message)
    assert status == 0
    symbols = encoded.strip().split(",")
    # flip one symbol (within every family's correction radius)
    built = build(code)
    original = built.field.parse_element(symbols[0])
    flipped = built.field.add(original, 1)
    symbols[0] = built.field.format_element(flipped)
    status, out, _ = run(capsys, "decode", "--code", code,
                         "--received", ",".join(symbols),
                         "--format", "record")
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["verdict"] == "corrected"
    got = [built.field.parse_element(s) for s in record["info"].split(",")]
    want = [built.field.parse_element(s) for s in message.split(",")]
    assert got == want


# -- array / simulate / analyze ---------------------------------------------------------

def test_array_dump_matches_reference(capsys):
    status, out, _ = run(
        capsys, "array", "--code", "linear:parity=0.1.1.0.0;1.1.0.1.0;1.0.0.0.1"
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["message", "00", "01", "10", "11", "syndrome"]
    assert lines[1].split("\t") == ["00000", "01110", "10011", "11101", "000"]
    assert lines[-1].split("\t") == ["10100", "11010", "00111", "01001", "111"]
    assert len(lines) == 9


def test_array_and_simulate_for_6_3(capsys):
    spec = "linear:parity=0.1.1.1.0.0;1.0.1.0.1.0;1.1.0.0.0.1"
    status, out, _ = run(capsys, "array", "--code", spec)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1].split("\t")[0] == "100100"
    status, out, _ = run(
        capsys, "simulate", "--code", spec, "--p", "0.01",
        "--trials", "20000", "--seed", "3", "--policy", "detect=111",
    )
    assert status == 0
    assert "P_det" in out and "exact" in out


def test_simulate_exact_column(capsys):
    status, out, _ = run(
        capsys, "simulate", "--code", "linear:rows=1.0.0.1.1;0.1.1.1.0",
        "--p", "0.01", "--trials", "50000", "--seed", "11",
    )
    assert status == 0
    line = next(l for l in out.splitlines() if l.startswith("P_err"))
    assert "exact=0.00078609" in line


def test_simulate_csv_sweep(capsys):
    status, out, _ = run(
        capsys, "simulate", "--code", "linear:rows=1.0.0.1.1;0.1.1.1.0",
        "--p", "0.005,0.01", "--trials", "5000", "--seed", "8",
        "--format", "csv",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,metric,exact,estimate,stderr"
    assert len(lines) == 1 + 2 * 3
    assert lines[4].startswith("0.01,P_err,0.0007860898,")


def test_simulate_text_reports_exact_rational(capsys):
    status, out, _ = run(
        capsys, "simulate", "--code", "linear:rows=1.0.0.1.1;0.1.1.1.0",
        "--p", "0.01", "--trials", "2000", "--seed", "8",
    )
    assert status == 0
    assert "exact_rational=3930449/5000000000" in out


def test_analyze_prints_generator(capsys):
    status, out, _ = run(
        capsys, "analyze", "--code", "cyclic:field=GF(3^1),n=8,g=2.0.1.1.2.1"
    )
    assert status == 0
    assert out.splitlines()[0] == "g=a1,0,1,1,a1,1"


def test_simulate_p_zero(capsys):
    status, out, _ = run(
        capsys, "simulate", "--code", "hamming:r=3", "--p", "0",
        "--trials", "1000", "--seed", "2",
    )
    assert status == 0
    assert "P_err: estimate=0 " in out


def test_simulate_rejects_large_p(capsys):
    status, _, err = run(
        capsys, "simulate", "--code", "hamming:r=3", "--p", "0.9",
        "--trials", "10", "--seed", "1",
    )
    assert status == 1


def test_linear_code_from_file(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text(
        "# a [5,2,3] code\n"
        "GF(2^1)\n"
        "1 0 0 1 1\n"
        "0 1 1 1 0\n"
    )
    status, out, _ = run(
        capsys, "encode", "--code", f"linear:file={path}", "--message", "1,1",
        "--vector",
    )
    assert status == 0
    assert out.strip() == "1,1,1,0,1"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_code_file_is_a_spec_error(tmp_path, capsys, where):
    path = tmp_path / "absent.txt" if where == "missing" else tmp_path
    with pytest.raises(FecError, match="cannot read code file") as info:
        build(f"linear:file={path}")
    assert isinstance(info.value.__cause__, OSError)
    status, out, err = run(capsys, "decode", "--code", f"linear:file={path}",
                           "--received", "0")
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_hex_symbols_for_byte_field():
    from blockfec import FiniteField

    f256 = FiniteField(2, 8)
    assert f256.parse_element("0xff") == 255
    assert f256.parse_element("0x1d") == 0x1D
    with pytest.raises(ValueError):
        f256.parse_element("0x100")


def test_product_policy_flags(capsys):
    code = ("product:outer={rs:field=GF(2^3)[1,1,0,1],k=3,n=7},"
            "inner={rs:field=GF(2^3)[1,1,0,1],k=5,n=7}")
    message = ",".join(["a2"] * 15)
    status, encoded, _ = run(capsys, "encode", "--code", code,
                             "--message", message)
    assert status == 0
    status, out, _ = run(
        capsys, "decode", "--code", code, "--received", encoded.strip(),
        "--rerun-inner", "--max-inner-errors", "1", "--format", "record",
    )
    assert status == 0
    assert "verdict=corrected" in out
    # policy flags are product-only
    status, _, err = run(
        capsys, "decode", "--code", RS73,
        "--received", "0,0,0,0,0,0,0", "--rerun-inner",
    )
    assert status == 1


def test_product_decode_record_lists_corrected_positions(capsys):
    message = ",".join(["a2"] * 15)
    _, encoded, _ = run(capsys, "encode", "--code", PRODUCT, "--message", message)
    word = encoded.strip().split(",")
    word[3] = "a1" if word[3] != "a1" else "a3"
    word[30] = "0" if word[30] != "0" else "1"
    status, out, _ = run(capsys, "decode", "--code", PRODUCT,
                         "--received", ",".join(word), "--format", "record")
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["verdict"] == "corrected"
    assert record["error_positions"] == "3,30"
    assert len(record["error_values"].split(",")) == 2


def test_analyze(capsys):
    status, out, _ = run(capsys, "analyze", "--code", "golay23")
    assert status == 0
    assert "perfect=True" in out
    status, out, _ = run(capsys, "analyze", "--code", RS73, "--burst", "2")
    assert status == 0
    assert "singleton_met=True" in out
    assert "efficiency=1" in out


BCH15_5 = "bch:field=GF(2^4)[1,1,0,0,1],sub=2,d=7"
BCH3_1 = "bch:field=GF(2^2),sub=2,d=3"


@pytest.mark.parametrize("code,lines", [
    # 2^10 syndromes against V_2(15, 3) = 576 words
    (BCH15_5, ["n=15 k=5 d=7", "hamming_slack=0.830075", "perfect=False"]),
    # the [3,1,3] repetition code is perfect
    (BCH3_1, ["g=1,1,1", "n=3 k=1 d=3", "singleton_met=True", "hamming_slack=0",
              "perfect=True"]),
    ("bch:field=GF(2^4)[1,1,0,0,1],sub=2,d=5", ["n=15 k=7 d=5", "hamming_slack=1.08114"]),
    ("interleaved:depth=2,base={" + BCH15_5 + "}", ["n=30 k=10 d=7"]),
])
def test_analyze_binary_bch_over_gf2(capsys, code, lines):
    status, out, _ = run(capsys, "analyze", "--code", code)
    assert status == 0
    assert set(lines) <= set(out.splitlines())


def test_analyze_bch_over_gf4_is_over_gf4(capsys):
    # the [15,4,10] code over GF(4): q = 4 in the sphere bound
    # V_4(15, 4) = 1 + 15*3 + 105*9 + 455*27 + 1365*81
    status, out, _ = run(capsys, "analyze", "--code",
                         "bch:field=GF(2^4)[1,1,0,0,1],sub=4,d=9")
    assert status == 0
    assert {"n=15 k=4 d=10", "hamming_slack=2.54094"} <= set(out.splitlines())


def test_array_of_binary_bch_is_over_gf2(capsys):
    status, out, _ = run(capsys, "array", "--code", BCH3_1)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["message", "0", "1", "syndrome"]
    assert lines[1].split("\t") == ["000", "111", "00"]
    assert len(lines) == 5


@pytest.mark.parametrize("code,burst", [(RS73, "8"), ("hamming:r=3", "-1")])
def test_analyze_checks_the_burst_length_before_printing(capsys, code, burst):
    status, out, err = run(capsys, "analyze", "--code", code, "--burst", burst)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and "burst length" in err


PRODUCT = ("product:outer={rs:field=GF(2^3)[1,1,0,1],k=3,n=7},"
           "inner={rs:field=GF(2^3)[1,1,0,1],k=5,n=7}")


@pytest.mark.parametrize(
    "argv",
    [
        # parts over different fields
        ("encode", "--code",
         "product:outer={rs:field=GF(2^3)[1,1,0,1],k=3,n=7},inner={golay24}",
         "--message", ",".join(["a1"] * 36)),
        # unknown RS decoder
        ("decode", "--code", RS73 + ",decoder=bogus",
         "--received", "0,0,0,0,0,0,0"),
        # no non-systematic encoder
        ("encode", "--code", "hamming:r=3", "--message", "1,0,1,1",
         "--nonsystematic"),
        # a nested code that is missing
        ("encode", "--code", "interleaved:depth=2", "--message", "0"),
        # a key given twice
        ("encode", "--code", "rs:field=GF(2^3)[1,1,0,1],n=7,k=5,k=3",
         "--message", "0,0,0"),
        # a blank symbol
        ("decode", "--code", "rs:field=GF(2^3)[1,1,0,1],n=7,k=5",
         "--received", " ,1,0,0,0,0,0"),
        # a Hamming code too large to build
        ("encode", "--code", "hamming:r=30", "--message", "1"),
    ],
    ids=["mixed-fields", "unknown-decoder", "no-nonsystematic", "missing-base",
         "duplicate-key", "blank-symbol", "hamming-too-large"],
)
def test_bad_compositions_and_specs_exit_1(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("field", "GF(2305843009213693951)"),
    ("field", "GF(3^100000)"),
    ("decode", "--code", "rs:field=GF(2305843009213693951),n=6,k=2",
     "--received", "1,2,3,4,5,6"),
], ids=["huge-prime", "huge-degree", "huge-prime-code"])
def test_huge_fields_exit_1_at_once(capsys, argv):
    # the field cap is read off p and nu, before the primality test and
    # before p^nu is formed
    start = time.perf_counter()
    status, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert status == 1
    assert err.startswith("error: field order ") and "Traceback" not in err


@pytest.mark.parametrize("code", [
    f"interleaved:depth=2,base={{{PRODUCT}}}",
    f"product:outer={{{PRODUCT}}},inner={{{RS73}}}",
], ids=["product-in-interleaved", "product-in-product"])
def test_nested_product_round_trip(capsys, code):
    built = build(code)
    message = ",".join(["a3", "0", "a5"] * (built.k // 3))
    status, encoded, _ = run(capsys, "encode", "--code", code, "--message", message)
    assert status == 0
    word = encoded.strip().split(",")
    word[5] = "a1" if word[5] != "a1" else "a2"
    status, out, _ = run(capsys, "decode", "--code", code,
                         "--received", ",".join(word), "--format", "record")
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["codeword"] == encoded.strip()
    assert record["info"] == message
    assert record["error_positions"] == "5"


def test_product_decode_fills_an_erasure(capsys):
    message = ",".join(["a2"] * 15)
    _, encoded, _ = run(capsys, "encode", "--code", PRODUCT, "--message", message)
    word = encoded.strip().split(",")
    word[3] = "a1" if word[3] != "a1" else "a3"
    status, out, _ = run(capsys, "decode", "--code", PRODUCT, "--received",
                         ",".join(word), "--erasures", "3", "--format", "record")
    assert status == 0
    record = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert record["codeword"] == encoded.strip()
    assert record["info"] == message


def test_policy_flags_set_the_product_spec_keys(capsys):
    message = ",".join(["a2"] * 15)
    _, encoded, _ = run(capsys, "encode", "--code", PRODUCT, "--message", message)
    word = encoded.strip().split(",")
    word[8] = "a1" if word[8] != "a1" else "a3"
    argv = ["decode", "--received", ",".join(word), "--format", "record"]
    by_flags = run(capsys, *argv, "--code", PRODUCT,
                   "--rerun-inner", "--max-inner-errors", "0")
    by_keys = run(capsys, *argv,
                  "--code", PRODUCT + ",rerun_inner=1,max_inner_errors=0")
    assert by_flags == by_keys and by_flags[0] == 0
    # a flag may not repeat a key the spec already sets
    status, _, err = run(capsys, *argv, "--code", PRODUCT + ",rerun_inner=1",
                         "--rerun-inner")
    assert status == 1 and "'rerun_inner' given twice" in err


def test_simulate_nonbinary_extension_field_uses_family_decoder(capsys):
    # GF(4) has characteristic 2 but is not binary: no standard-array
    # kernel, so simulate falls back to the family decoder
    status, out, err = run(
        capsys, "simulate", "--code", "linear:field=GF(2^2),rows=1.0.1.1;0.1.1.a2",
        "--p", "0.1", "--trials", "2000", "--seed", "1",
    )
    assert status == 0
    assert "P_err: estimate=" in out and "exact=" not in out
    assert "family decoder" in err


# recorded while every RS code ran on the per-trial loop; the batch
# kernel must print the same bytes
RS_SIMULATE_PINS = [
    (("--code", "rs:field=GF(2^4)[1,1,0,0,1],n=15,k=9,shorten=5,decoder=pgz",
      "--p", "0.05,0.3", "--trials", "2000", "--seed", "3"),
     "trials=2000 seed=3 p=0.05\n"
     "P_err: estimate=0 stderr=0\n"
     "p_err: estimate=0 stderr=0\n"
     "P_det: estimate=0.0015 stderr=0.000865\n"
     "trials=2000 seed=3 p=0.3\n"
     "P_err: estimate=0.0015 stderr=0.000865\n"
     "p_err: estimate=0.001375 stderr=0.000414\n"
     "P_det: estimate=0.351 stderr=0.0107\n"),
    (("--code", "rs:field=GF(2^3)[1,1,0,1],n=7,k=5", "--p", "0.05,0.2",
      "--trials", "2000", "--seed", "4", "--format", "csv"),
     "p,metric,exact,estimate,stderr\n"
     "0.05,P_err,,0.0275,0.003657\n"
     "0.05,p_err,,0.012,0.001089\n"
     "0.05,P_det,,0.0125,0.002484\n"
     "0.2,P_err,,0.333,0.01054\n"
     "0.2,p_err,,0.1565,0.003633\n"
     "0.2,P_det,,0.102,0.006767\n"),
]


@pytest.mark.parametrize("argv,expected", RS_SIMULATE_PINS, ids=["rs10-pgz", "rs7-5"])
def test_simulate_rs_output_is_pinned(capsys, argv, expected):
    status, out, err = run(capsys, "simulate", *argv)
    assert status == 0
    assert out == expected
    assert "family decoder" in err


@pytest.mark.parametrize("code,policy", [
    ("hamming:r=3", "bogus"),
    ("hamming:r=3", "detect=11"),      # syndromes of hamming:r=3 have 3 bits
    ("hamming:r=3", "detect=000"),     # the code row
    ("golay24", "detect=111"),         # too large for the exact path
    ("linear:field=GF(2^2),rows=1.0.1.1;0.1.1.a2", "detect=11"),
])
def test_simulate_never_drops_a_detect_policy(capsys, code, policy):
    status, out, err = run(
        capsys, "simulate", "--code", code, "--p", "0.05",
        "--trials", "100", "--seed", "1", "--policy", policy,
    )
    assert status == 1
    assert out == "" and err.startswith("error:")


def test_simulate_sweep_builds_one_standard_array(capsys, monkeypatch):
    import blockfec.cli as cli

    builds = []

    class CountingArray(cli.StandardArray):
        def __init__(self, code):
            builds.append(code)
            super().__init__(code)

    monkeypatch.setattr(cli, "StandardArray", CountingArray)
    args = ("simulate", "--code", "hamming:r=3", "--trials", "3000",
            "--seed", "5", "--policy", "detect=111")
    singles = []
    for p in ("0.01", "0.05", "0.1"):
        status, out, _ = run(capsys, *args, "--p", p)
        assert status == 0
        singles.append(out)
    assert len(builds) == 3
    status, out, _ = run(capsys, *args, "--p", "0.01,0.05,0.1")
    assert status == 0
    assert len(builds) == 4
    assert out == "".join(singles)


@pytest.mark.parametrize("argv,flag,token", [
    (("simulate", "--code", "hamming:r=3", "--p", "0.05", "--trials", "100",
      "--seed", "1", "--policy", "detect=1a1"), "--policy", "a"),
    (("decode", "--code", "rs:field=GF(2^3)[1,1,0,1],k=3,n=7",
      "--received", "0,0,0,0,0,0,0", "--erasures", "1,x"), "--erasures", "x"),
], ids=["policy-syndrome", "erasure-position"])
def test_bad_integers_name_the_flag(capsys, argv, flag, token):
    status, out, err = run(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith(f"error: {flag}: ") and repr(token) in err


def test_bad_probability_names_the_flag(capsys):
    status, out, err = run(
        capsys, "simulate", "--code", "hamming:r=3", "--p", "0.1,x",
        "--trials", "10", "--seed", "1",
    )
    assert status == 1 and out == ""
    assert err.startswith("error: --p: ") and "'x'" in err


def readme_commands(*names):
    """The README's example command lines of the named CLI commands."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text().replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("blockfec ")]
    return [argv for argv in commands if argv[0] in names]


@pytest.mark.parametrize("argv", readme_commands("field", "encode", "decode", "array"),
                         ids=lambda argv: argv[0])
def test_readme_commands_run_without_numpy(argv):
    # the package, its import-time snapshot and these commands load no numpy
    probe = """if True:
        import runpy, sys
        sys.path.insert(0, sys.argv[1])
        sys.argv[:2] = ["blockfec"]
        try:
            runpy.run_module("blockfec.cli", run_name="__main__")
        except SystemExit as done:
            print(done.code, "numpy" in sys.modules, file=sys.stderr)
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", probe, src, *argv], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stderr.split() == ["0", "False"]


def test_one_parser_serves_every_call_alike(capsys):
    # each call in one process prints what a fresh process prints
    rs = build("rs:field=GF(2^4)[1,1,0,0,1],n=15,k=9,shorten=5")
    word = list(rs.encode((1, 2, 3, 4)))
    word[1] ^= 3
    received = ",".join(rs.field.format_element(x, "vector") for x in word)
    product = build(PRODUCT)
    noisy = list(product.encode([4] * 15))
    noisy[3] ^= 1
    noisy[30] ^= 2
    received_product = ",".join(map(product.field.format_element, noisy))
    calls = [
        ("decode", "--code", RS73),
        ("decode", "--code", rs.spec.render(), "--received", received,
         "--format", "record", "--erasures", "4,7", "--vector"),
        ("decode", "--code", rs.spec.render(), "--received", received),
        ("decode", "--code", PRODUCT, "--received", received_product,
         "--rerun-inner", "--max-inner-errors", "1", "--format", "record"),
        ("decode", "--code", PRODUCT, "--received", received_product,
         "--format", "record"),
        ("simulate", "--code", "hamming:r=3", "--p", "0.05", "--trials", "200",
         "--seed", "3"),
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    statuses = []
    for argv in calls:
        status, out, _ = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "blockfec.cli", *argv],
                               capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": src})
        assert (status, out) == (fresh.returncode, fresh.stdout), argv
        statuses.append(status)
    assert statuses == [1, 0, 0, 0, 0, 0]
