"""Per-layer tracing of `blockfec` from outside the library.

`Tracer.install` replaces public functions and methods of the library's
modules with wrappers; `uninstall` puts the originals back.  Only the
traced process installs them.

- Finite-field operations (`FiniteField.mul`, `add`, ...) are counted,
  not spanned: an RS(255,223) decode makes ~15k of them, and a span each
  would swamp the run.  Their time therefore shows up as self time of
  the layer that called them.
- Every other wrapped call records a span of seven integers: name id,
  start and end (ns), parent span index, op id (-1 outside an op), the
  id of the object a method was called on, and whether a returned
  `DecodeOutcome` was corrected (1), not (0), or neither (-1).

Spans live in one flat `array('q')` until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

FIELDS = 7  # name, start, end, parent, op, obj, ok
NAME, START, END, PARENT, OP, OBJ, OK, SELF = range(FIELDS + 1)

COUNTED = {
    "galois.FiniteField": ("mul", "add", "sub", "pow", "inv", "div"),
}
SPANNED = {
    "galois.FiniteField": ("__init__",),
    "poly.Poly": (
        "__init__", "__add__", "__neg__", "__sub__", "__mul__", "scale",
        "shift", "__divmod__", "__call__", "derivative", "monic", "truncate",
        "reversed_coeffs", "to_vector",
    ),
    "cyclic.CyclicCode": ("__init__", "encode"),
    "reed_solomon.RSCode": (
        "__init__", "encode", "syndromes", "pgz_decode", "euclid_decode",
    ),
    "bch.BCHCode": ("__init__", "encode", "decode"),
    "named_codes.GolayCode": ("encode", "decode"),
    "linear.StandardArray": ("__init__",),
    "burst.InterleavedCode": ("encode", "decode"),
    "burst.ProductCode": ("encode", "decode"),
    "channel": ("monte_carlo",),
    "codespec": ("build",),
    "cli": ("main",),
}
RS_DECODE = ("reed_solomon.RSCode.pgz_decode", "reed_solomon.RSCode.euclid_decode")


class Tracer:
    def __init__(self):
        self.buf = array("q")
        self.names: list[str] = []
        self.counts: dict[str, list] = {}
        self.op = -1
        # (code, word, erasures, outcome, solver) of every RS decode inside
        # an op, replayed untraced through the public API afterwards
        self.rs_calls: list = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _spanner(self, name, fn, method):
        name_id = len(self.names)
        self.names.append(name)
        buf, stack, clock = self.buf, self._stack, time.perf_counter_ns
        solver = name.rsplit(".", 1)[1].split("_")[0] if name in RS_DECODE else None

        def wrapper(*args, **kwargs):
            base = len(buf)
            buf.extend((name_id, 0, 0, stack[-1] if stack else -1, self.op,
                        id(args[0]) if method and args else 0, -1))
            stack.append(base // FIELDS)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf[base + START] = t0
                buf[base + END] = t1
            corrected = getattr(result, "corrected", None)
            if corrected is not None:
                buf[base + OK] = int(corrected)
                if solver and self.op >= 0:
                    erasures = args[2] if len(args) > 2 else kwargs.get("erasures", ())
                    self.rs_calls.append((args[0], args[1], erasures, result, solver))
            return result

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        for table, make in ((COUNTED, self._counter), (SPANNED, None)):
            for target, attrs in table.items():
                module_name, _, class_name = target.partition(".")
                module = importlib.import_module(f"blockfec.{module_name}")
                owner = getattr(module, class_name) if class_name else module
                for attr in attrs:
                    name = f"{target}.{attr}"
                    original = vars(owner)[attr]
                    wrapped = (make(name, original) if make
                               else self._spanner(name, original, bool(class_name)))
                    self._replace(owner, attr, wrapped)
                    if not class_name:
                        # modules that imported the function by name
                        for other in list(sys.modules.values()):
                            if (other is not module
                                    and getattr(other, "__name__", "").startswith("blockfec")
                                    and vars(other).get(attr) is original):
                                self._replace(other, attr, wrapped)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the trace --------------------------------------------------

    def spans(self):
        """List of (name, start, end, parent, op, obj, ok, self_ns)."""
        buf = self.buf
        n = len(buf) // FIELDS
        child = [0] * n
        for i in range(n):
            parent = buf[i * FIELDS + PARENT]
            if parent >= 0:
                child[parent] += buf[i * FIELDS + END] - buf[i * FIELDS + START]
        out = []
        for i in range(n):
            row = buf[i * FIELDS:(i + 1) * FIELDS]
            out.append((self.names[row[NAME]], *row[1:],
                        row[END] - row[START] - child[i]))
        return out


def write_spans(path, spans, header: dict):
    """`Tracer.spans()` as gzipped JSON lines, after one header line."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({**header, "columns": [
            "name", "start_ns", "end_ns", "parent", "op", "obj", "ok", "self_ns"]}) + "\n")
        for row in spans:
            fh.write(json.dumps(row) + "\n")


def layer_metrics(spans, counts, ctx) -> dict:
    """The per-layer metrics of one traced run.

    `spans` is `Tracer.spans()`, `counts` maps a field method name to its
    call count inside ops.  `ctx` holds what the spans cannot say:
    `units` (top-level words or trials in the traced pass), `op_kinds`
    (kind of each op id), `array_trials`, `inner_id` (id of a product
    code's inner code, or 0), `builds_per_op` (true when every op builds
    its own code, as a CLI call does), the untraced replay times
    `syndromes_ns` and `key_equation_ns`, `import_ms` and
    `overhead_ratio`.
    """
    per = 1.0 / ctx["units"]
    in_op = [s for s in spans if s[OP] >= 0]
    setup = [s for s in spans if s[OP] < 0]
    kinds = ctx["op_kinds"]

    def dur(rows):
        return sum(s[END] - s[START] for s in rows)

    def self_ns(rows):
        return sum(s[SELF] for s in rows)

    def named(rows, name):
        return [s for s in rows if s[NAME] == name]

    def ratio(num, den):
        return num / den if den else 0.0

    # build-time metrics: per traced set-up, or per op when ops build
    builds, build_div = (in_op, ctx["units"]) if ctx["builds_per_op"] else (setup, 1)
    top_builds = [s for s in named(builds, "codespec.build")
                  if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "codespec.build"]
    rs = [s for s in in_op if s[NAME] in RS_DECODE]
    products = {i for i, s in enumerate(spans) if s[NAME] == "burst.ProductCode.decode"}
    inner = [s for s in rs if s[PARENT] in products and s[OBJ] == ctx["inner_id"]]
    mc = named(in_op, "channel.monte_carlo")
    mc_loop = [s for s in mc if kinds[s[OP]] == "mc_loop"]
    mc_array = [s for s in mc if kinds[s[OP]] == "mc_array"]
    ms, us = 1e-6, 1e-3
    return {
        "galois.mul_per_word": counts["mul"] * per,
        "galois.add_per_word": (counts["add"] + counts["sub"]) * per,
        "galois.pow_per_word": counts["pow"] * per,
        "galois.inv_div_per_word": (counts["inv"] + counts["div"]) * per,
        "galois.build_ms":
            dur(named(builds, "galois.FiniteField.__init__")) * ms / build_div,
        "poly.alloc_per_word": len(named(in_op, "poly.Poly.__init__")) * per,
        "poly.eval_per_word": len(named(in_op, "poly.Poly.__call__")) * per,
        "poly.self_ms_per_word":
            self_ns(s for s in in_op if s[NAME].startswith("poly.")) * ms * per,
        "poly.divmod_per_word": len(named(in_op, "poly.Poly.__divmod__")) * per,
        "cyclic.encode_ms_per_word":
            dur(named(in_op, "cyclic.CyclicCode.encode")) * ms * per,
        "reed_solomon.decode_self_ms_per_word": self_ns(rs) * ms * per,
        "reed_solomon.syndromes_ms_per_word": ctx["syndromes_ns"] * ms * per,
        "reed_solomon.key_equation_ms_per_word": ctx["key_equation_ns"] * ms * per,
        "reed_solomon.calls_per_word": len(rs) * per,
        "reed_solomon.uncorrectable_ratio":
            ratio(sum(1 for s in rs if s[OK] == 0), len(rs)),
        "bch.decode_us_per_trial": dur(named(in_op, "bch.BCHCode.decode")) * us * per,
        "named_codes.golay_decode_us_per_trial":
            dur(named(in_op, "named_codes.GolayCode.decode")) * us * per,
        "linear.standard_array_build_s":
            dur(named(setup, "linear.StandardArray.__init__")) * 1e-9,
        "burst.interleaved_self_us_per_word":
            self_ns(named(in_op, "burst.InterleavedCode.decode")) * us * per,
        "burst.product_self_us_per_word":
            self_ns(named(in_op, "burst.ProductCode.decode")) * us * per,
        "burst.product_encode_us_per_word":
            dur(named(in_op, "burst.ProductCode.encode")) * us * per,
        "burst.inner_erased_ratio":
            ratio(sum(1 for s in inner if s[OK] == 0), len(inner)),
        "channel.loop_self_share": ratio(self_ns(mc_loop), dur(mc_loop)),
        "channel.array_ms_per_1e5_trials":
            ratio(dur(mc_array) * ms * 1e5, ctx["array_trials"]),
        "codespec.build_ms": dur(top_builds) * ms / build_div,
        "cli.import_ms": ctx["import_ms"],
        "cli.main_ms": dur(named(in_op, "cli.main")) * ms * per,
        "trace.overhead_ratio": ctx["overhead_ratio"],
    }
