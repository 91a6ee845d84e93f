"""Hamming codes and the binary Golay codes with their dedicated decoders.

The Golay construction keeps the classical 11x12 matrix as a literal
constant and cross-checks it at import time against its defining
right-rotation structure, so a transcription slip and a generation slip
would have to coincide to go unnoticed.
"""

from __future__ import annotations

from .errors import InvalidParams
from .galois import GF
from .linear import DecodeOutcome, LinearCode, MatrixGF, as_received, check_word

_GF2 = GF(2)


class HammingCode:
    """[2^r - 1, 2^r - r - 1, 3] code whose parity columns count in
    binary, so a syndrome read as a number is the 1-based error
    position."""

    def __init__(self, r: int):
        if r < 2:
            raise InvalidParams(f"need r >= 2, got {r}")
        self.r = r
        self.field = _GF2
        self.subfield = _GF2.alphabet
        n = (1 << r) - 1
        cols = [[(i >> (r - 1 - b)) & 1 for i in range(1, n + 1)] for b in range(r)]
        H = MatrixGF(_GF2, cols)
        self.code = LinearCode.from_parity(_GF2, H)
        self.n, self.k = self.code.n, self.code.k

    def encode(self, u):
        return self.code.encode(u)

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Any syndrome is a position, so this never fails.  Erased
        symbols are read as zeros."""
        word = as_received(word, erasures).symbols
        s = self.code.syndrome(word)   # checks the word
        pos = 0
        for bit in s:
            pos = (pos << 1) | bit
        if pos == 0:
            return DecodeOutcome(
                "corrected", codeword=word, error_vector=(0,) * self.n,
                info=self._info(word),
            )
        fixed = list(word)
        fixed[pos - 1] ^= 1
        err = [0] * self.n
        err[pos - 1] = 1
        return DecodeOutcome(
            "corrected", codeword=tuple(fixed), error_vector=tuple(err),
            error_positions=(pos - 1,), info=self._info(tuple(fixed)),
        )

    def _info(self, codeword):
        # the binary-counting H is not systematic; invert the encoding
        return self.code.message_of(codeword)


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


class GolayCode:
    """The perfect [23,12,7] code or its self-dual [24,12,8] extension."""

    def __init__(self, variant: str = "G23"):
        if variant not in ("G23", "G24"):
            raise InvalidParams(f"variant must be 'G23' or 'G24', got {variant!r}")
        self.variant = variant
        self.field = _GF2
        self.subfield = _GF2.alphabet
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


def _syndrome(mask, rows):
    s = 0
    for i, row in enumerate(rows):
        if (mask & row).bit_count() & 1:
            s |= 1 << i
    return s


def _bits(mask, n):
    return tuple((mask >> i) & 1 for i in range(n))


def _outcome24(word_mask, err_mask) -> DecodeOutcome:
    fixed = word_mask ^ err_mask
    return DecodeOutcome(
        "corrected",
        codeword=_bits(fixed, 24),
        error_vector=_bits(err_mask, 24),
        error_positions=tuple(i for i in range(24) if (err_mask >> i) & 1),
        info=_bits(fixed, 12),
    )


def golay24_decode(word) -> DecodeOutcome:
    """Four-stage syndrome-weight decoder for the extended Golay code:
    corrects any pattern of weight <= 3 and declares weight-4 patterns
    uncorrectable."""
    r = _to_mask(check_word(tuple(word), 24, _GF2.alphabet))
    s1 = _syndrome(r, _H1_MASKS)
    if s1.bit_count() <= 3:
        return _outcome24(r, s1 << 12)
    s2 = _syndrome(r, _H2_MASKS)
    if s2.bit_count() <= 3:
        return _outcome24(r, s2)
    for i in range(12):
        s1i = s1 ^ _QT_MASKS[i]
        if s1i.bit_count() <= 2:
            return _outcome24(r, (1 << i) | (s1i << 12))
    for i in range(12):
        s2i = s2 ^ _Q_MASKS[i]
        if s2i.bit_count() <= 2:
            return _outcome24(r, s2i | (1 << (12 + i)))
    return DecodeOutcome.failure()


def golay23_decode(word) -> DecodeOutcome:
    """Decode the [23,12] code by trying both parity completions."""
    word = check_word(tuple(word), 23, _GF2.alphabet)
    for pad in (0, 1):
        out = golay24_decode(word + (pad,))
        if out.corrected:
            return DecodeOutcome(
                "corrected",
                codeword=out.codeword[:23],
                error_vector=out.error_vector[:23],
                error_positions=tuple(p for p in out.error_positions if p < 23),
                info=out.info,
            )
    return DecodeOutcome.failure()
