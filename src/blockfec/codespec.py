"""Textual code specifications for the command-line front end.

Grammar (one line, no spaces required):

    family[:key=value,key=value,...]

with families linear, hamming, golay23, golay24, cyclic, rs, bch,
interleaved, product.  Field values use 'GF(p^nu)[c0,c1,...,cnu]'
(brackets optional: the default primitive polynomial is used).
Element lists (generator coefficients, matrix rows) are dot-separated
symbols in the same syntax the decoders print: '0', '1', 'a<k>' or
radix-p digit groups.  Nested codes use braces:

    interleaved:depth=4,base={rs:field=GF(2^3)[1,1,0,1],n=7,k=5}

A key may be given once.  A product builds a `SerialProduct`, which nests
like any other code; rerun_inner=0|1 and max_inner_errors=<int> set its
decode policy.  Parsing then rendering a canonical spec is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .bch import BCHCode
from .burst import InterleavedCode, ProductCode, ProductDecodePolicy, SerialProduct
from .cyclic import CyclicCode
from .errors import FecError
from .galois import FiniteField, GF
from .linear import LinearCode, MatrixGF
from .named_codes import GolayCode, HammingCode
from .poly import Poly
from .reed_solomon import RSCode

# each family with the parameter keys `build` reads for it
_KEYS = {
    "linear": {"field", "rows", "parity", "file"},
    "hamming": {"r"},
    "golay23": set(),
    "golay24": set(),
    "cyclic": {"field", "n", "g"},
    "rs": {"field", "n", "k", "m0", "shorten", "decoder"},
    "bch": {"field", "sub", "d", "m0"},
    "interleaved": {"depth", "base"},
    "product": {"outer", "inner", "rerun_inner", "max_inner_errors"},
}
FAMILIES = tuple(_KEYS)

_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)(?:\[([0-9,]*)\])?$")


class SpecError(FecError):
    """Malformed code specification."""


@dataclass
class CodeSpec:
    family: str
    params: dict = dc_field(default_factory=dict)

    def add(self, key, value):
        if key in self.params:
            raise SpecError(f"parameter {key!r} given twice")
        self.params[key] = value

    def render(self) -> str:
        if not self.params:
            return self.family
        parts = []
        for key in sorted(self.params):
            val = self.params[key]
            if isinstance(val, CodeSpec):
                parts.append(f"{key}={{{val.render()}}}")
            else:
                parts.append(f"{key}={val}")
        return f"{self.family}:" + ",".join(parts)


def parse_field(text: str) -> FiniteField:
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise SpecError(f"bad field spec {text!r}")
    p = int(m.group(1))
    nu = int(m.group(2) or 1)
    coeffs = m.group(3)
    if coeffs is None or coeffs == "":
        return GF(p, nu, None)
    modulus = tuple(int(c) for c in coeffs.split(","))
    if nu == 1:
        raise SpecError("prime fields take no defining polynomial")
    return GF(p, nu, modulus)


def _split_top(text: str, sep: str):
    """Split on `sep` outside of brackets and braces."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_spec(text: str) -> CodeSpec:
    text = text.strip()
    if ":" not in text:
        family, rest = text, ""
    else:
        family, rest = text.split(":", 1)
    family = family.strip()
    if family not in FAMILIES:
        raise SpecError(f"unknown family {family!r}")
    spec = CodeSpec(family)
    if rest:
        for item in _split_top(rest, ","):
            if "=" not in item:
                raise SpecError(f"expected key=value, got {item!r}")
            key, val = item.split("=", 1)
            key, val = key.strip(), val.strip()
            if val.startswith("{") and val.endswith("}"):
                val = parse_spec(val[1:-1])
            spec.add(key, val)
    return spec


class BuiltCode:
    """A code object with the spec it was built from; `encode` and
    `decode` are the code's own."""

    def __init__(self, spec, code):
        self.spec = spec
        self.code = code
        self.field = code.field
        self.subfield = code.subfield
        self.radius = code.radius
        self.n = code.n
        self.k = code.k
        self.encode = code.encode
        self.decode = code.decode

    def batch_codec(self):
        """The code's batch codec, while `decode` is the code's own."""
        return self.code.batch_codec() if self.decode == self.code.decode else None


def _parse_symbols(field, text: str):
    return tuple(field.parse_element(s) for s in text.split(".") if s != "")


def load_code_file(path: str):
    """Code-spec text file: a field spec on the first line, then one
    generator row per line (whitespace- or comma-separated symbols)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise SpecError(f"cannot read code file {path!r}: {exc.strerror or exc}") from exc
    if not lines:
        raise SpecError(f"{path}: empty code file")
    fld = parse_field(lines[0])
    rows = [
        tuple(fld.parse_element(s) for s in ln.replace(",", " ").split())
        for ln in lines[1:]
    ]
    if not rows:
        raise SpecError(f"{path}: no generator rows")
    return fld, rows


def _param(params, key):
    if key not in params:
        raise SpecError(f"missing parameter {key!r}")
    return params[key]


def _int(params, key, default=...):   # no default: the key is required
    if key not in params and default is not ...:
        return default
    try:
        return int(_param(params, key))
    except ValueError as exc:
        raise SpecError(f"bad integer for {key!r}: {params[key]!r}") from exc


def _field(params, default=None):
    if "field" not in params and default is not None:
        return default
    return parse_field(_param(params, "field"))


def build(spec) -> BuiltCode:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    params = dict(spec.params)
    family = spec.family
    if family not in _KEYS:
        raise SpecError(f"unknown family {family!r}")
    unknown = sorted(set(params) - _KEYS[family])
    if unknown:
        raise SpecError(f"unknown parameter {unknown[0]!r} for family {family!r}")

    if family == "hamming":
        return BuiltCode(spec, HammingCode(_int(params, "r")))

    if family in ("golay23", "golay24"):
        return BuiltCode(spec, GolayCode("G23" if family == "golay23" else "G24"))

    if family == "linear":
        if "file" in params:
            fld, rows = load_code_file(params["file"])
            code = LinearCode.from_generator(fld, MatrixGF(fld, rows))
        else:
            fld = _field(params, GF(2))
            if "rows" in params:
                rows = [_parse_symbols(fld, r) for r in params["rows"].split(";")]
                code = LinearCode.from_generator(fld, MatrixGF(fld, rows))
            elif "parity" in params:
                rows = [_parse_symbols(fld, r)
                        for r in params["parity"].split(";")]
                code = LinearCode.from_parity(fld, MatrixGF(fld, rows))
            else:
                raise SpecError("linear codes need rows=, parity= or file=")
        return BuiltCode(spec, code)

    if family == "cyclic":
        fld = _field(params, GF(2))
        g = Poly(fld, _parse_symbols(fld, _param(params, "g")))
        return BuiltCode(spec, CyclicCode(fld, _int(params, "n"), g))

    if family == "rs":
        code = RSCode(_field(params), _int(params, "n"), _int(params, "k"),
                      m0=_int(params, "m0", 1),
                      shorten_by=_int(params, "shorten", 0),
                      decoder=params.get("decoder", "euclid"))
        return BuiltCode(spec, code)

    if family == "bch":
        return BuiltCode(spec, BCHCode(_field(params), _int(params, "sub", 2),
                                       _int(params, "d"), m0=_int(params, "m0", 1)))

    if family == "interleaved":
        base = build(_param(params, "base"))
        return BuiltCode(spec, InterleavedCode(base.code, _int(params, "depth")))

    if family == "product":
        rerun = params.get("rerun_inner", "0")
        if rerun not in ("0", "1"):
            raise SpecError(f"rerun_inner must be 0 or 1, got {rerun!r}")
        policy = ProductDecodePolicy(_int(params, "max_inner_errors", None), rerun == "1")
        code = ProductCode(build(_param(params, "outer")).code,
                           build(_param(params, "inner")).code)
        return BuiltCode(spec, SerialProduct(code, policy))
