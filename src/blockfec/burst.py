"""Burst-error modeling, interleaving, product codes, and the
redundancy bound for burst correction.

A burst of length l is a vector whose nonzero entries fall in l
cyclically consecutive positions with nonzero first and last entries.
Interleaving to depth m spreads any burst of up to m symbols across m
independent codewords; a product code adds a second decoding dimension
whose erasure capability mops up rows the inner code gives up on.

A composite checks its word once, at its own intake.  Every word it
hands a part is a `linear._CheckedWord` built from those checked symbols,
or from the parts' codewords over the alphabet they share, with the
erased symbols zeroed, and the part's intake takes it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Integral

from .errors import InvalidParams, InvalidSpan, LengthMismatch, TooLarge
from .linear import (
    NO_ERASURES, DecodeOutcome, ReceivedWord, _CheckedWord, as_received, check_word,
    received,
)


@dataclass(frozen=True)
class BurstPattern:
    """A cyclic burst: `values` occupy positions start..start+len-1
    (mod n) and must have nonzero endpoints."""

    n: int
    start: int
    values: tuple

    def __post_init__(self):
        l = len(self.values)
        if not 1 <= l <= self.n:
            raise InvalidSpan(f"burst length {l} out of range")
        if self.values[0] == 0 or self.values[-1] == 0:
            raise InvalidSpan("burst endpoints must be nonzero")
        if not 0 <= self.start < self.n:
            raise InvalidSpan(f"start {self.start} out of range")

    @property
    def length(self) -> int:
        return len(self.values)

    def vector(self) -> tuple:
        v = [0] * self.n
        for i, x in enumerate(self.values):
            v[(self.start + i) % self.n] = x
        return tuple(v)


def burst_span(v) -> int:
    """Length of the shortest cyclic window containing all nonzero
    entries (0 for the zero vector)."""
    n = len(v)
    support = [i for i, x in enumerate(v) if x]
    if not support:
        return 0
    if len(support) == n:
        return n
    # the minimal window is n minus the largest run of zeros
    gaps = []
    for a, b in zip(support, support[1:] + [support[0] + n]):
        gaps.append(b - a - 1)
    return n - max(gaps)


def is_burst(v, l: int) -> bool:
    """True iff v is a (nonzero) burst of length at most l."""
    if not 1 <= l <= len(v):
        raise InvalidSpan(f"span {l} out of range")
    s = burst_span(v)
    return 0 < s <= l


class InterleavedCode:
    """Depth-m interleave of a base code: column j of the n x m array
    is a base codeword and symbols are serialized in row order, so a
    serial burst of up to m symbols hits each column at most once.
    `n` and `k` are the totals (`total_n`/`total_k` are aliases)."""

    def __init__(self, base, depth: int):
        if not isinstance(depth, Integral) or depth < 1:
            raise InvalidSpan(f"depth must be an integer >= 1, got {depth!r}")
        if isinstance(base, ProductCode):
            raise InvalidParams("interleave a SerialProduct, not a 2-D ProductCode")
        self.base = base
        self.depth = depth
        self.field = base.field
        self.subfield = base.subfield
        self.radius = None   # each column has its own
        self.n = base.n * depth
        self.k = base.k * depth

    @property
    def total_n(self) -> int:
        return self.n

    @property
    def total_k(self) -> int:
        return self.k

    def encode(self, info):
        info = check_word(tuple(info), self.k, self.subfield)
        m = self.depth
        columns = [self.base.encode(info[j::m]) for j in range(m)]
        return _interleave(columns)

    def decode(self, word, erasures=()) -> DecodeOutcome:
        w = received(self, word, erasures)
        m = self.depth
        outcomes = []
        for j in range(m):
            # erased symbols are zero already: a column is a checked word
            erased = (frozenset(p // m for p in w.erasures if p % m == j)
                      or NO_ERASURES)
            out = self.base.decode(_CheckedWord(w.symbols[j::m], erased))
            if not out.corrected:
                return DecodeOutcome.failure()
            outcomes.append(out)
        return DecodeOutcome.correction(
            self.field, w.symbols,
            _interleave([out.codeword for out in outcomes]),
            _interleave([out.info for out in outcomes]),
        )

    def batch_codec(self):
        """None: an interleave runs once per trial."""
        return None


def _interleave(columns) -> tuple:
    """Read equal-length columns out in row order."""
    return tuple(chain.from_iterable(zip(*columns)))


@dataclass(frozen=True)
class ProductDecodePolicy:
    """Stage-1 policy: rows the inner decoder cannot (or may not,
    given `max_inner_errors`) correct are erased for the outer stage;
    `rerun_inner` lets the inner decoder correct rows once more at the
    end."""

    max_inner_errors: int | None = None
    rerun_inner: bool = False


class ProductCode:
    """Product of an outer [n1,k1] code on columns with an inner
    [n2,k2] code on rows; read-out is row order.

    `field`, `n` = n1 n2 and `k` = k1 k2 describe the serialized code,
    but `encode` and `decode` work on k1 x k2 and n1 x n2 arrays; its
    `SerialProduct` is the flat code that composes like any other.
    """

    def __init__(self, outer, inner):
        if isinstance(outer, ProductCode) or isinstance(inner, ProductCode):
            raise InvalidParams("a part must be a SerialProduct, not a 2-D ProductCode")
        if outer.field != inner.field:
            raise InvalidParams(
                f"outer code over {outer.field!r} and inner code over "
                f"{inner.field!r}: the parts must share a field"
            )
        self.outer = outer
        self.inner = inner
        self.field = outer.field
        self.n1, self.k1 = outer.n, outer.k
        self.n2, self.k2 = inner.n, inner.k
        self.n = self.n1 * self.n2
        self.k = self.k1 * self.k2

    @property
    def subfield(self):
        """The symbol alphabet the parts share."""
        if self.outer.subfield != self.inner.subfield:
            raise InvalidParams("the parts must share a symbol alphabet")
        return self.outer.subfield

    def encode(self, info_rows):
        """info_rows: k1 x k2.  Encodes the rows, then the columns; by
        linearity the rows of the result are inner codewords too."""
        rows = [tuple(r) for r in info_rows]
        if len(rows) != self.k1 or any(len(r) != self.k2 for r in rows):
            raise LengthMismatch(f"info must be {self.k1} x {self.k2}")
        a = [self.inner.encode(r) for r in rows]
        cols = [self.outer.encode(col) for col in zip(*a)]
        return tuple(zip(*cols))

    def serialize(self, array):
        return tuple(chain.from_iterable(array))

    def deserialize(self, word):
        word = tuple(word)
        if len(word) != self.n:
            raise LengthMismatch("word does not fill the array")
        return tuple(
            word[i * self.n2:(i + 1) * self.n2] for i in range(self.n1)
        )

    def decode(self, array, policy=ProductDecodePolicy(), erasures=()):
        """Stage 1 decodes the rows, each with its share of the row-order
        `erasures`, and erases those it gives up on; stage 2 decodes the
        columns with those erasures.  Rows stage 2 filled in or changed are
        rechecked by the inner decoder, so only product codewords are emitted.
        `array` may also be the row-order word as a ReceivedWord, as a
        SerialProduct hands it."""
        if not isinstance(array, ReceivedWord):
            rows = [tuple(r) for r in array]
            if len(rows) != self.n1 or any(len(r) != self.n2 for r in rows):
                raise LengthMismatch(f"array must be {self.n1} x {self.n2}")
            array = self.serialize(rows)
        word = received(self, array, erasures)
        n2 = self.n2
        rows = list(self.deserialize(word.symbols))

        # stage 1: inner decoding; failures erase the whole row
        row_outs = []     # the inner outcome of each row, None if erased
        erased_rows = []
        for i, row in enumerate(rows):
            erased = (frozenset(p - i * n2 for p in word.erasures if p // n2 == i)
                      or NO_ERASURES)
            out = self.inner.decode(_CheckedWord(row, erased))
            bad = not out.corrected
            if not bad and policy.max_inner_errors is not None:
                bad = len(out.error_positions) > policy.max_inner_errors
            if bad:
                erased_rows.append(i)
                row_outs.append(None)
                rows[i] = (0,) * n2
            else:
                rows[i] = out.codeword
                row_outs.append(out)

        # stage 2: outer error-erasure decoding per column, erased rows zeroed
        col_outs = []
        erased = frozenset(erased_rows) or NO_ERASURES
        for col in zip(*rows):
            out = self.outer.decode(_CheckedWord(col, erased))
            if not out.corrected:
                return DecodeOutcome.failure()
            col_outs.append(out)
        result = list(zip(*(out.codeword for out in col_outs)))

        # rows filled in or changed by stage 2 must be inner codewords;
        # with rerun_inner the inner decoder may still correct them, and
        # the columns it touches must stay outer codewords
        touched = set()
        for i, row in enumerate(result):
            if row_outs[i] is not None and row == row_outs[i].codeword:
                continue
            out = self.inner.decode(_CheckedWord(row))
            if not out.corrected:
                return DecodeOutcome.failure()
            if out.codeword != row:
                if not policy.rerun_inner:
                    return DecodeOutcome.failure()
                touched.update(j for j, (a, b) in enumerate(zip(row, out.codeword))
                               if a != b)
                result[i] = out.codeword
            row_outs[i] = out
        for j in touched:
            col = tuple(row[j] for row in result)
            out = self.outer.decode(_CheckedWord(col))
            if not out.corrected or out.codeword != col:
                return DecodeOutcome.failure()
            col_outs[j] = out

        # the outer info of the columns is k1 rows of inner codewords;
        # for a systematic outer code they are the first k1 rows
        info = []
        for i, a in enumerate(zip(*(out.info for out in col_outs))):
            out = row_outs[i] if a == result[i] else self.inner.decode(_CheckedWord(a))
            info.extend(out.info)
        return DecodeOutcome.correction(
            self.field, word.symbols, self.serialize(result), tuple(info)
        )


class SerialProduct:
    """A ProductCode as a flat code decoded under one `policy`: messages
    and words in row order, so it composes like any other code."""

    def __init__(self, product, policy=ProductDecodePolicy()):
        self.product, self.policy = product, policy
        self.field, self.subfield = product.field, product.subfield
        self.radius = None   # the two-stage decoder's is not shown
        self.n, self.k = product.n, product.k
        self.inner, self.n1, self.n2 = product.inner, product.n1, product.n2

    def encode(self, u):
        p = self.product
        u = check_word(tuple(u), self.k, self.subfield)
        return p.serialize(p.encode([u[i * p.k2:(i + 1) * p.k2] for i in range(p.k1)]))

    def decode(self, word, erasures=()) -> DecodeOutcome:
        return self.product.decode(as_received(word, erasures), self.policy)

    def batch_codec(self):
        """None: a product runs once per trial."""
        return None


def product_min_distance(outer, inner) -> int:
    """Brute-force minimum weight of the product code (small codes)."""
    from itertools import product as iproduct

    pc = ProductCode(outer, inner)
    field = outer.field
    total = field.q ** (pc.k1 * pc.k2)
    if total > 1 << 16:
        raise TooLarge(f"{total} product codewords")
    best = None
    for flat in iproduct(field.elements(), repeat=pc.k1 * pc.k2):
        if not any(flat):
            continue
        rows = [flat[i * pc.k2:(i + 1) * pc.k2] for i in range(pc.k1)]
        w = sum(1 for x in pc.serialize(pc.encode(rows)) if x)
        best = w if best is None else min(best, w)
    return best


def reiger_report(code, l: int) -> dict:
    """Check 2l <= n - k and report the burst-correcting efficiency
    2l/(n-k) as an exact rational, for 0 <= l <= n."""
    n, k = code.n, code.k
    if l < 0:
        raise InvalidSpan("negative burst length")
    if l > n:
        raise InvalidSpan(f"burst length {l} exceeds n = {n}")
    if l == 0:
        return {"bound_ok": True, "efficiency": Fraction(0)}
    if n == k:
        raise InvalidSpan("code has no redundancy")
    return {
        "bound_ok": 2 * l <= n - k,
        "efficiency": Fraction(2 * l, n - k),
    }


def rs_binary_burst_efficiency(b: int, s: int) -> Fraction:
    """Efficiency of an s-symbol-correcting RS code over GF(2^b) viewed
    as a binary burst corrector: ((s-1)b + 1) / (b s)."""
    return Fraction((s - 1) * b + 1, b * s)
