"""Hamming codes and the binary Golay codes with their dedicated decoders.

The Golay construction keeps the classical 11x12 matrix as a literal
constant and cross-checks it at import time against its defining
right-rotation structure, so a transcription slip and a generation slip
would have to coincide to go unnoticed.
"""

from __future__ import annotations

from .errors import InvalidParams, TooLarge
from .galois import GF
from .linear import (MAX_HAMMING_R, DecodeOutcome, LinearCode, MatrixGF,
                     as_received, check_word, radius_codec, received, runs_own_decoders)

_GF2 = GF(2)


class HammingCode:
    """[2^r - 1, 2^r - r - 1, 3] code whose parity columns count in
    binary, so a syndrome read as a number is the 1-based error
    position."""

    def __init__(self, r: int):
        if r < 2:
            raise InvalidParams(f"need r >= 2, got {r}")
        if r > MAX_HAMMING_R:
            raise TooLarge(f"r = {r} exceeds the Hamming cap {MAX_HAMMING_R}")
        self.r = r
        self.field = _GF2
        self.subfield = _GF2.alphabet
        self.radius = 1
        n = (1 << r) - 1
        cols = [[(i >> (r - 1 - b)) & 1 for i in range(1, n + 1)] for b in range(r)]
        H = MatrixGF(_GF2, cols)
        self.code = LinearCode.from_parity(_GF2, H)
        self.n, self.k = self.code.n, self.code.k

    def encode(self, u):
        return self.code.encode(u)

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Any syndrome is a position, so this never fails.  Erased
        symbols are read as zeros.  The binary-counting H is not
        systematic, so the info comes from inverting the encoding."""
        w = received(self, word, erasures)
        pos = 0
        for bit in self.code._Ht.mul_vec(w.symbols):
            pos = (pos << 1) | bit
        fixed = tuple(x ^ (i == pos - 1) for i, x in enumerate(w.symbols))
        return DecodeOutcome.correction(
            _GF2, w.symbols, fixed, self.code._message_of(fixed)
        )

    def batch_codec(self):
        """`radius_codec` while `runs_own_decoders` holds."""
        return radius_codec(self) if runs_own_decoders(self) else None


# The 11x12 block of the Golay parity-check matrix.
_P = (
    (1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1),
    (0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1),
    (1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1),
    (1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1),
    (1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1),
    (0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1),
    (0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1),
    (0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1),
    (1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1),
    (0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1),
)


def _rot_right(v, i):
    i %= len(v)
    return v[-i:] + v[:-i]


def _validate_p():
    p0 = _P[0][:11]
    for i, row in enumerate(_P):
        if row[:11] != _rot_right(p0, i):
            raise ValueError(f"row {i} breaks rotation structure")
        if row[11] != 1:
            raise ValueError("last column must be all ones")


_validate_p()

# Q is P extended with the row (1...1, 0); H1 = (Q | I12), H2 = (I12 | Q^T).
_Q = _P + ((1,) * 11 + (0,),)
_QT = tuple(zip(*_Q))


def _to_mask(bits):
    m = 0
    for i, b in enumerate(bits):
        if b:
            m |= 1 << i
    return m


_Q_MASKS = [_to_mask(row) for row in _Q]
_QT_MASKS = [_to_mask(row) for row in _QT]
# H1 row i as a 24-bit mask: Q row i in positions 0..11, identity bit at 12+i
_H1_MASKS = [_Q_MASKS[i] | (1 << (12 + i)) for i in range(12)]
# H2 row i: identity bit at i, Q^T row i in positions 12..23
_H2_MASKS = [(1 << i) | (_QT_MASKS[i] << 12) for i in range(12)]


def _syndrome(mask, rows):
    s = 0
    for i, row in enumerate(rows):
        if (mask & row).bit_count() & 1:
            s |= 1 << i
    return s


def _bits(mask, n):
    return tuple((mask >> i) & 1 for i in range(n))


def golay24_decode(word) -> DecodeOutcome:
    """Four-stage syndrome-weight decoder for the extended Golay code:
    corrects any pattern of weight <= 3 and declares weight-4 patterns
    uncorrectable."""
    word = check_word(tuple(word), 24, _GF2.alphabet)
    r = _to_mask(word)
    err = next((e for e in _golay24_errors(r) if e.bit_count() <= 3), None)
    if err is None:
        return DecodeOutcome.failure()
    fixed = _bits(r ^ err, 24)
    return DecodeOutcome.correction(_GF2, word, fixed, fixed[:12])


def _golay24_errors(r):
    # the error masks the four stages try for the received mask r, in
    # order; the first of weight <= 3 is the error
    s1 = _syndrome(r, _H1_MASKS)
    yield s1 << 12
    s2 = _syndrome(r, _H2_MASKS)
    yield s2
    for i in range(12):
        yield (1 << i) | (s1 ^ _QT_MASKS[i]) << 12
    for i in range(12):
        yield (s2 ^ _Q_MASKS[i]) | 1 << (12 + i)


def golay23_decode(word) -> DecodeOutcome:
    """Decode the [23,12] code by trying both parity completions."""
    word = check_word(tuple(word), 23, _GF2.alphabet)
    for pad in (0, 1):
        out = golay24_decode(word + (pad,))
        if out.corrected:
            return DecodeOutcome.correction(_GF2, word, out.codeword[:23], out.info)
    return DecodeOutcome.failure()


class GolayCode:
    """The perfect [23,12,7] code or its self-dual [24,12,8] extension."""

    def __init__(self, variant: str = "G23"):
        if variant not in ("G23", "G24"):
            raise InvalidParams(f"variant must be 'G23' or 'G24', got {variant!r}")
        self.variant = variant
        self.field = _GF2
        self.subfield = _GF2.alphabet
        self.radius = 3
        self.P = MatrixGF(_GF2, _P)
        self.Q = MatrixGF(_GF2, _Q)
        self.H1 = MatrixGF(_GF2, [r + e for r, e in
                                  zip(_Q, MatrixGF.identity(_GF2, 12).rows)])
        self.H2 = MatrixGF(_GF2, [e + r for e, r in
                                  zip(MatrixGF.identity(_GF2, 12).rows, _QT)])
        if variant == "G24":
            # self-dual: H1 is both parity-check and generator; H2 is
            # the systematic generator used for encoding
            self.code = LinearCode(_GF2, self.H2, self.H1)
            self.n, self.k = 24, 12
        else:
            H = MatrixGF(_GF2, [p + e for p, e in
                                zip(_P, MatrixGF.identity(_GF2, 11).rows)])
            self.code = LinearCode.from_parity(_GF2, H)
            self.n, self.k = 23, 12

    def encode(self, u):
        word24 = self.H2.mul_vec(check_word(tuple(u), self.k, self.subfield))
        return word24 if self.variant == "G24" else word24[:23]

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Erased symbols are read as zeros; the public decoders below
        check the word."""
        word = as_received(word, erasures).symbols
        if self.variant == "G24":
            return golay24_decode(word)
        return golay23_decode(word)

    def batch_codec(self):
        """`radius_codec` while `runs_own_decoders` holds."""
        return radius_codec(self) if runs_own_decoders(self) else None
