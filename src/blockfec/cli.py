"""Command-line front end.

Subcommands: field, encode, decode, array, simulate, analyze.
Messages and received words are comma- or dot-separated element
symbols ('0', '1', 'a<k>', or radix-p digit groups); --vector switches
output to digit groups.  Exit status: 0 on success / corrected,
2 on an uncorrectable word, 1 on malformed input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .burst import reiger_report
from .channel import event_polynomials, monte_carlo
from .codespec import SpecError, build, parse_field, parse_spec
from .cyclic import CyclicCode
from .errors import FecError, TooLarge
from .galois import LOG_ZERO
from .linear import LinearCode, StandardArray, linear_view
from .named_codes import GolayCode, HammingCode
from .reed_solomon import RSCode

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_UNCORRECTABLE = 2

# families with a generator polynomial and a non-systematic encoder
# (a BCHCode is a CyclicCode)
_POLYNOMIAL_CODES = (CyclicCode, RSCode)


def _number(flag: str, token: str, kind=int):
    """`kind(token)`; a bad token raises a ValueError naming the flag."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag}: {token!r} is not {noun}") from None


def _parse_word(field, text: str):
    seps = "," if "," in text else "."
    return tuple(field.parse_element(s) for s in text.split(seps) if s)


def _fmt_word(field, word, vector: bool) -> str:
    style = "vector" if vector else "log"
    return ",".join(field.format_element(x, style) for x in word)


def cmd_field(args) -> int:
    fld = parse_field(args.field)
    header = ("Vector", "Polynomial", "Power", "Logarithm")
    rows = [header]
    elements = [0] + [fld.exp(i) for i in range(fld.q - 1)]
    for a in elements:
        lg = fld.log(a)
        power = "0" if a == 0 else ("1" if lg == 0 else ("a" if lg == 1 else f"a^{lg}"))
        logtxt = "-inf" if lg == LOG_ZERO else str(lg)
        rows.append((
            fld.format_element(a, "vector"),
            fld.poly_one_letter(a),
            power,
            logtxt,
        ))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    for r in rows:
        print("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
    return EXIT_OK


def cmd_encode(args) -> int:
    built = build(args.code)
    u = _parse_word(built.field, args.message)
    if not args.nonsystematic:
        word = built.encode(u)
    elif isinstance(built.code, _POLYNOMIAL_CODES):
        word = built.code.encode(u, systematic=False)
    else:
        raise SpecError(f"{built.spec.family} codes have no non-systematic encoder")
    print(_fmt_word(built.field, word, args.vector))
    return EXIT_OK


def cmd_decode(args) -> int:
    spec = parse_spec(args.code)
    if args.rerun_inner:
        spec.add("rerun_inner", "1")
    if args.max_inner_errors is not None:
        spec.add("max_inner_errors", str(args.max_inner_errors))
    built = build(spec)
    received = _parse_word(built.field, args.received)
    erasures = tuple(_number("--erasures", x) for x in args.erasures.split(",") if x)
    out = built.decode(received, erasures=erasures)
    fld = built.field
    if args.format == "record":
        print(f"verdict={out.verdict}")
        if out.corrected:
            print(f"codeword={_fmt_word(fld, out.codeword, args.vector)}")
            print(f"info={_fmt_word(fld, out.info, args.vector)}")
            print("error_positions=" + ",".join(map(str, out.error_positions)))
            if out.error_vector:
                vals = [
                    fld.format_element(out.error_vector[i])
                    for i in out.error_positions
                ]
                print("error_values=" + ",".join(vals))
    else:
        if out.corrected:
            print(f"corrected: {_fmt_word(fld, out.codeword, args.vector)}")
            print(f"info:      {_fmt_word(fld, out.info, args.vector)}")
            if out.error_positions:
                print(f"errors at: {','.join(map(str, out.error_positions))}")
        else:
            print("uncorrectable")
    return EXIT_OK if out.corrected else EXIT_UNCORRECTABLE


def _linear_of(built):
    code = built.code
    if isinstance(code, LinearCode):
        return code
    if isinstance(code, (HammingCode, GolayCode)):
        return code.code
    if isinstance(code, CyclicCode):
        return linear_view(code, code.matrices()[0].rows)
    return linear_view(code)


def cmd_array(args) -> int:
    built = build(args.code)
    code = _linear_of(built)
    array = StandardArray(code)
    fld = code.field

    def vec(w):
        return "".join(fld.format_element(x, "vector") for x in w)

    print("\t".join(["message"] + [vec(m) for m in array.messages] + ["syndrome"]))
    for row, syndrome in zip(array.rows, array.syndromes):
        print("\t".join([vec(w) for w in row] + [vec(syndrome)]))
    return EXIT_OK


def cmd_simulate(args) -> int:
    ps = [_number("--p", x, float) for x in str(args.p).split(",") if x]
    if not ps or not all(0 <= p <= 0.5 for p in ps):
        raise ValueError("crossover probabilities must be in [0, 0.5]")
    built = build(args.code)
    detect = set()
    if args.policy.startswith("detect="):
        for s in args.policy[len("detect="):].split("|"):
            detect.add(tuple(_number("--policy", b) for b in s))
    elif args.policy != "full":
        raise ValueError(f"--policy must be 'full' or 'detect=...', "
                         f"got {args.policy!r}")

    # a small binary code gets the standard-array kernel and the exact
    # event polynomials, both built once for the whole sweep
    if built.field.q != 2 or built.n > 20:
        if detect:
            raise ValueError("a detect policy needs the standard-array path, "
                             "which takes binary codes with n <= 20")
        print("warning: exact classification skipped (not a binary code "
              "with n <= 20); using the family decoder", file=sys.stderr)
        code, decoder, events = built, built.decode, None
    else:
        code = _linear_of(built)
        decoder = StandardArray(code)
        events = event_polynomials(code, decoder, detect_syndromes=detect)

    if args.format == "csv":
        print("p,metric,exact,estimate,stderr")
    for p in ps:
        mc = monte_carlo(code, decoder, p, args.trials, args.seed,
                         detect_syndromes=detect)
        exact_vals = None
        if events is not None:
            pfrac = Fraction(p).limit_denominator(10**9)
            exact_vals = {key: Fraction(events[key](pfrac))
                          for key in ("P_err", "p_err", "P_det")}
        if args.format == "csv":
            for key in ("P_err", "p_err", "P_det"):
                exact = ("" if exact_vals is None
                         else f"{float(exact_vals[key]):.10g}")
                print(f"{p},{key},{exact},{mc[f'{key}_hat']:.10g},"
                      f"{mc[f'{key}_stderr']:.4g}")
            continue
        print(f"trials={args.trials} seed={args.seed} p={p}")
        for key in ("P_err", "p_err", "P_det"):
            line = (f"{key}: estimate={mc[f'{key}_hat']:.6g} "
                    f"stderr={mc[f'{key}_stderr']:.3g}")
            if exact_vals is not None:
                frac = exact_vals[key]
                line += f" exact={float(frac):.6g} exact_rational={frac}"
            print(line)
    return EXIT_OK


def cmd_analyze(args) -> int:
    built = build(args.code)
    # a bad --burst fails before anything is printed
    burst = None if args.burst is None else reiger_report(built, args.burst)
    if isinstance(built.code, _POLYNOMIAL_CODES):
        gen = built.code.g
        coeffs = ",".join(
            built.field.format_element(c) for c in gen.to_vector(
                len(gen.coeffs))
        )
        print(f"g={coeffs}")
    try:
        code = _linear_of(built)
        rep = code.bounds_report()
        print(f"n={code.n} k={code.k} d={code.min_distance()}")
        print(f"singleton_met={rep['singleton_met']}")
        print(f"hamming_slack={rep['hamming_slack']:.6g}")
        print(f"perfect={rep['perfect']}")
    except TooLarge:
        print("bounds: skipped (too large for exhaustive distance)")
    if burst is not None:
        print(f"burst_l={args.burst} bound_ok={burst['bound_ok']} "
              f"efficiency={burst['efficiency']}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockfec",
        description="Block error-correcting codes: fields, encoders, "
                    "decoders, and channel analysis.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="print a finite-field table")
    p.add_argument("field", help="e.g. 'GF(2^3)[1,1,0,1]'")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("encode", help="encode a message")
    p.add_argument("--code", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--nonsystematic", action="store_true")
    p.add_argument("--vector", action="store_true",
                   help="print symbols as digit groups")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("--code", required=True)
    p.add_argument("--received", required=True)
    p.add_argument("--erasures", default="",
                   help="comma-separated positions in the received word")
    p.add_argument("--vector", action="store_true")
    p.add_argument("--format", choices=("text", "record"), default="text")
    p.add_argument("--rerun-inner", action="store_true",
                   help="product codes: run the inner decoder once more")
    p.add_argument("--max-inner-errors", type=int, default=None,
                   help="product codes: erase rows whose inner decode "
                        "corrected more than this many symbols")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("array", help="dump the standard array")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_array)

    p = sub.add_parser("simulate", help="Monte Carlo vs exact analysis")
    p.add_argument("--code", required=True)
    p.add_argument("--p", required=True,
                   help="crossover probability, or a comma list to sweep")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", default="full",
                   help="'full' or 'detect=101|111' (syndrome bit strings)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="bound checks and burst efficiency")
    p.add_argument("--code", required=True)
    p.add_argument("--burst", type=int, default=None)
    p.set_defaults(func=cmd_analyze)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FecError, SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
