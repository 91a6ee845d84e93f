"""Binary symmetric channel analysis.

Exact decoding-event probabilities come from classifying every error
pattern through the standard array of a code (correct, miscorrected,
or detected, per a detect-only syndrome policy) into weight histograms;
the histograms evaluate to probabilities at any crossover p, exactly
when p is a Fraction.

`monte_carlo` is the empirical counterpart: one driver draws messages
and noise from a counter-based Philox stream and hands each batch to a
kernel.  There are three: the scalar decoder, called once per trial; a
binary standard array, table lookups over the batch; and the batch
decoder of a GF(2^m) Reed-Solomon code (`RSCode.decode_batch`), numpy
over the batch.  Every kernel sees the same draws, so for one seed they
give the same estimates.

The kernel is chosen from the decoder.  A StandardArray takes the
array kernel.  A code's own `decode` (the bound method, as `code.decode`
gives it for the code or for a BuiltCode of it) takes a batch kernel
when it is a bounded-distance decoder that a batch kernel reproduces:

- a binary code with a `radius` and 2^(n-k)*n <= MAX_ARRAY_VECTORS runs
  as its standard array cut at that radius;
- a Reed-Solomon code over GF(2^m) runs as inversionless
  Berlekamp-Massey in lockstep over the batch, unless a subclass or a
  patch has replaced its `decode`, `pgz_decode` or `euclid_decode`:
  the batch decoder reproduces those methods as RSCode defines them.

Both rest on one fact.  These decoders emit the codeword within
distance t of the word when there is one and detect every other word,
and that codeword is unique because 2t < d.  So any decoder with that
property, a radius array or another key-equation solver, returns the
same verdict and codeword on every word, and `monte_carlo` the same
result dict bit for bit.  The kernel's tables are built on the first
call and kept per code object.  Every other decoder, a function
wrapping `code.decode` included, is called once per trial, and the
tests use it as the oracle.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import TooLarge
from .linear import (MAX_ARRAY_VECTORS, LinearCode, StandardArray, _in_alphabet,
                     hamming_weight, linear_view)
from .reed_solomon import RSCode

_PHILOX_BATCH = 1 << 16
# code -> the array kernel of its own bounded-distance decoder
_RADIUS_KERNELS = weakref.WeakKeyDictionary()
# code -> the batch kernel of its own GF(2^m) Reed-Solomon decoder
_RS_KERNELS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class EventPolynomial:
    """Weight histogram c_w of an event; its probability at crossover p
    is sum_w c_w p^w (1-p)^(n-w)."""

    n: int
    coeffs: tuple  # length n + 1, index = error weight

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need one coefficient per weight 0..n")

    def __call__(self, p):
        one = Fraction(1) if isinstance(p, Fraction) else 1.0
        q = one - p
        return sum(
            c * p**w * q ** (self.n - w)
            for w, c in enumerate(self.coeffs)
            if c
        )

    def __add__(self, other: "EventPolynomial") -> "EventPolynomial":
        if self.n != other.n:
            raise ValueError("mismatched lengths")
        return EventPolynomial(
            self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, factor) -> "EventPolynomial":
        return EventPolynomial(self.n, tuple(c * factor for c in self.coeffs))


def round_to_places(x, places: int = 5) -> Fraction:
    """Round an exact rational to `places` decimals, half away from zero."""
    x = Fraction(x)
    scale = 10**places
    n = (2 * x.numerator * scale + x.denominator) // (2 * x.denominator)
    return Fraction(n, scale)


def perr_bound(n: int, t: int, p):
    """Probability that more than t errors hit n channel uses."""
    one = Fraction(1) if isinstance(p, Fraction) else 1.0
    return sum(
        math.comb(n, i) * p**i * (one - p) ** (n - i) for i in range(t + 1, n + 1)
    )


def perr_first_term(n: int, t: int, p):
    """Leading term of the tail: exactly t + 1 errors."""
    one = Fraction(1) if isinstance(p, Fraction) else 1.0
    return math.comb(n, t + 1) * p ** (t + 1) * (one - p) ** (n - t - 1)


def capacity(p: float) -> float:
    """BSC capacity 1 + p log2 p + (1-p) log2 (1-p)."""
    if p in (0, 1):
        return 1.0
    return 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)


def _detect_rows(array: StandardArray, detect_syndromes) -> set:
    """The array rows of a detect-only syndrome policy; ValueError for
    a syndrome the array lacks and for the code row's zero syndrome.  A
    syndrome that a radius array leaves without a leader is detected
    already and adds no row."""
    code = array.code
    rows = set()
    for s in detect_syndromes:
        try:
            row = array.row_index(s)
        except KeyError:
            if (array.radius is not None and len(s) == code.n - code.k
                    and _in_alphabet(s, code.field.alphabet)):
                continue
            raise ValueError(f"{tuple(s)} is not a syndrome of the code") from None
        if row == 0:
            raise ValueError("the code row cannot be detect-only")
        rows.add(row)
    return rows


def event_polynomials(
    code: LinearCode, array: StandardArray, detect_syndromes=frozenset()
) -> dict:
    """Classify every error pattern by its coset row and code column.

    Patterns in rows whose syndrome is in `detect_syndromes` are
    detected; elsewhere the decoder subtracts the coset leader, so the
    pattern is decoded correctly iff it *is* the leader (column 0) and
    information bit i is wrong iff the pattern's column message has a
    nonzero symbol i.  Returns exact weight histograms:

    - "P_err":  miscorrected-block event
    - "P_det":  detected-block event
    - "P_correct": complementary correct-decoding event
    - "p_bits": one histogram per information symbol
    - "p_err":  their average (Fraction coefficients)

    A radius array (bounded-distance decoding) raises ValueError.
    """
    if array.radius is not None:
        raise ValueError("exact events need a complete standard array, "
                         "not one cut at a radius")
    n, k = code.n, code.k
    detect_rows = _detect_rows(array, detect_syndromes)
    err = [0] * (n + 1)
    det = [0] * (n + 1)
    correct = [0] * (n + 1)
    bits = [[0] * (n + 1) for _ in range(k)]

    for i, row in enumerate(array.rows):
        if i in detect_rows:
            for pattern in row:
                det[hamming_weight(pattern)] += 1
            continue
        for msg, pattern in zip(array.messages, row):
            w = hamming_weight(pattern)
            if any(msg):
                err[w] += 1
                for i, m in enumerate(msg):
                    if m:
                        bits[i][w] += 1
            else:
                correct[w] += 1

    p_bits = [EventPolynomial(n, tuple(b)) for b in bits]
    p_err = EventPolynomial(
        n, tuple(Fraction(sum(b[w] for b in bits), k) for w in range(n + 1))
    )
    return {
        "P_err": EventPolynomial(n, tuple(err)),
        "P_det": EventPolynomial(n, tuple(det)),
        "P_correct": EventPolynomial(n, tuple(correct)),
        "p_bits": p_bits,
        "p_err": p_err,
    }


def _stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def monte_carlo(
    code,
    decoder,
    p: float,
    trials: int,
    seed: int,
    detect_syndromes=frozenset(),
) -> dict:
    """Estimate block-error, bit-error and detection probabilities by
    transmitting random codewords through a symmetric channel.

    Batch b of up to 2^16 trials draws from a Philox stream keyed by
    `seed` with counter b, in this order: the messages (uniform over
    `code.subfield`), the noise mask (each symbol hit with probability
    p) and the noise values (uniform nonzero symbols).  A StandardArray
    `decoder` decodes a binary code by table lookups and honours
    `detect_syndromes`; a callable word -> DecodeOutcome is called once
    per trial, and its uncorrectable verdicts count as detections.  A
    binary code's own bounded-distance `decode` is run as table lookups
    too, and a GF(2^m) RS code's own `decode` as its batch decoder (see
    the module docstring), with the same results.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if isinstance(decoder, StandardArray):
        kernel = _array_kernel(decoder, detect_syndromes)
    elif detect_syndromes:
        raise ValueError("a detect policy needs a StandardArray decoder")
    else:
        kernel = (_radius_kernel(code, decoder) or _rs_kernel(code, decoder)
                  or _scalar_kernel(code, decoder))
    n, k = code.n, code.k
    # the smallest unsigned dtype that holds every symbol keeps the
    # batch arrays small
    alphabet = np.array(sorted(code.subfield))
    alphabet = alphabet.astype(np.min_scalar_type(alphabet[-1]))
    q = len(alphabet)
    n_err = n_det = bit_errs = 0
    for batch_index, start in enumerate(range(0, trials, _PHILOX_BATCH)):
        batch = min(_PHILOX_BATCH, trials - start)
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, 0, 0, batch_index])
        )
        messages = alphabet[rng.integers(0, q, size=(batch, k))]
        noise_mask = rng.random((batch, n)) < p
        noise_values = alphabet[rng.integers(1, q, size=(batch, n))]
        detected, info = kernel(messages, noise_mask, noise_values)
        wrong = (info != messages) & ~detected[:, None]
        n_det += int(detected.sum())
        n_err += int(wrong.any(axis=1).sum())
        bit_errs += int(wrong.sum())

    P_err, P_det, p_err = n_err / trials, n_det / trials, bit_errs / (k * trials)
    return {
        "P_err_hat": P_err, "P_det_hat": P_det, "p_err_hat": p_err,
        "P_err_stderr": _stderr(P_err, trials),
        "P_det_stderr": _stderr(P_det, trials),
        "p_err_stderr": _stderr(p_err, k * trials),
        "trials": trials, "seed": seed,
    }


def _scalar_kernel(code, decoder):
    """Encode, add the noise and call `decoder` once per trial."""
    add = code.field.add

    def kernel(messages, noise_mask, noise_values):
        noise = np.where(noise_mask, noise_values, 0).tolist()
        detected, info = [], []
        for u, e in zip(map(tuple, messages.tolist()), noise):
            out = decoder(tuple(
                add(c, x) if x else c for c, x in zip(code.encode(u), e)
            ))
            detected.append(not out.corrected)
            info.append(out.info if out.corrected else u)
        return np.array(detected, dtype=bool), np.array(info)

    return kernel


def _radius_kernel(code, decoder):
    """The array kernel of `code`'s own bounded-distance decoder, or None
    unless `decoder` is `code.decode`, the code is binary with a
    `radius` and its radius array is within MAX_ARRAY_VECTORS.  The
    array is that of the binary view spanned by the encoded unit
    messages, so it encodes and reports messages as the code does."""
    n, k = code.n, code.k
    if (decoder != code.decode or code.subfield != {0, 1} or code.radius is None
            or 2 ** (n - k) * n > MAX_ARRAY_VECTORS):
        return None
    kernel = _RADIUS_KERNELS.get(code)
    if kernel is None:
        kernel = _array_kernel(StandardArray(linear_view(code), code.radius), ())
        _RADIUS_KERNELS[code] = kernel
    return kernel


def _rs_kernel(code, decoder):
    """The batch kernel of a GF(2^m) RSCode's own `decode`, or None
    unless `decoder` is that method and `code.decode` too (the RSCode
    itself, or a BuiltCode of it), and the code's public decoders are
    those `decode_batch` reproduces.  It encodes, adds the noise and
    decodes the batch with the code's `BatchCoder`, which holds no
    reference to the code, so the cache does not keep the code alive."""
    rs = getattr(decoder, "__self__", None)
    if (not isinstance(rs, RSCode) or not decoder == rs.decode == code.decode
            or not rs._batch_is_decode()):
        return None
    kernel = _RS_KERNELS.get(code)
    if kernel is None:
        batch = rs._batch

        def kernel(messages, noise_mask, noise_values):
            words = batch.encode(messages) ^ np.where(noise_mask, noise_values, 0)
            ok, words = batch.decode(words)
            return ~ok, words[:, :batch.k]

        _RS_KERNELS[code] = kernel
    return kernel


def _array_kernel(array, detect_syndromes):
    """Coset-leader decoding of a binary code by table lookups: syndrome
    -> leader and syndrome -> detect flag, then the message through the
    inverse of G's pivot block.  The detected syndromes are those of
    the policy and those a radius array leaves without a leader."""
    code = array.code
    if code.field.q != 2:
        raise TooLarge("the standard-array kernel supports binary codes only")
    n, k = code.n, code.k
    G = np.array(code.G.rows, dtype=np.uint8)
    Ht = np.array(code.H.rows, dtype=np.uint8).reshape(n - k, n).T
    weights = 1 << np.arange(n - k - 1, -1, -1)   # syndrome bits -> index
    row_index = (np.array(array.leaders) @ Ht & 1) @ weights
    leader_lut = np.zeros((1 << (n - k), n), dtype=np.uint8)
    leader_lut[row_index] = array.leaders
    detect_lut = np.ones(1 << (n - k), dtype=bool)
    detect_lut[row_index] = False
    detect_lut[row_index[list(_detect_rows(array, detect_syndromes))]] = True
    pivots, inv = code.pivot_inverse()
    pivots, inv = list(pivots), np.array(inv.rows, dtype=np.uint8)

    def kernel(messages, noise_mask, noise_values):
        # a binary noise value is always 1, so the mask is the noise; the
        # uint8 products wrap mod 256, which keeps their parity, so the
        # bits read after & 1 are exact for any n
        received = (messages @ G & 1) ^ noise_mask
        syndrome = (received @ Ht & 1) @ weights
        decoded = received ^ leader_lut[syndrome]
        return detect_lut[syndrome], decoded[:, pivots] @ inv & 1

    return kernel
