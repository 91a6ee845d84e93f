"""Binary symmetric channel analysis.

Exact decoding-event probabilities come from classifying every error
pattern through the standard array of a code (correct, miscorrected,
or detected, per a detect-only syndrome policy) into weight histograms;
the histograms evaluate to probabilities at any crossover p, exactly
when p is a Fraction.

`monte_carlo` is the empirical counterpart: one driver draws messages
and noise from a counter-based Philox stream and decodes each batch on
a batch codec, numpy over the batch, or on the loop, which calls the
decoder once per trial; both see the same draws.  One rule picks the
path.  A StandardArray decoder runs on its array codec, built once per
array and detect policy and kept while the array lives, so a sweep over
p builds it once.  A code's own `decode` (of the code or of a BuiltCode
of it) runs on its family's codec, `code.batch_codec()`: the lookup
tables of the radius array for Golay, Hamming and binary BCH codes,
`BatchCoder` for a GF(2^m) Reed-Solomon code.  Every other decoder runs
on the loop: a function wrapping `code.decode`, which the tests use as
the oracle, and the decoder of a family with no codec or of a code whose
class, object, or any library function has been replaced since import
(`linear.runs_own_decoders`).

The codecs rest on one fact.  These decoders emit the codeword within
distance t of the word when there is one and detect every other word,
and that codeword is unique because 2t < d.  So a codec and the decoder
give the same verdict and codeword on every word, and `monte_carlo` the
same result dict bit for bit.

numpy is imported inside `monte_carlo`, so importing the package, or
`blockfec.cli`, does not load it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .linear import ArrayCodec, LinearCode, StandardArray, _in_alphabet, hamming_weight

_PHILOX_BATCH = 1 << 16
# StandardArray -> {frozenset of detect rows: its ArrayCodec}
_ARRAY_CODECS = weakref.WeakKeyDictionary()


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


def _detect_rows(array: StandardArray, detect_syndromes) -> frozenset:
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
    return frozenset(rows)


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
    p) and, over a larger alphabet than {0, 1}, the noise values
    (uniform nonzero symbols).  A hit binary symbol is flipped and draws
    no value; the values are each batch's last draw, so every other draw
    is as it would be with them.  A StandardArray `decoder` decodes a
    binary code by table lookups and honours `detect_syndromes`; the
    code's own `decode` runs on `code.batch_codec()` when the family
    gives one, with the results of the loop (see the module docstring);
    any other callable word -> DecodeOutcome is called once per trial.
    Rejected words and uncorrectable verdicts count as detections.
    """
    import numpy as np

    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if isinstance(decoder, StandardArray):
        rows = _detect_rows(decoder, detect_syndromes)
        codecs = _ARRAY_CODECS.setdefault(decoder, {})
        if rows not in codecs:
            codecs[rows] = ArrayCodec(decoder, rows)
        codec = codecs[rows]
    elif detect_syndromes:
        raise ValueError("a detect policy needs a StandardArray decoder")
    else:
        codec = code.batch_codec() if decoder == code.decode else None
    n, k, add = code.n, code.k, code.field.add
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
        hit = rng.random((batch, n)) < p
        noise = (hit.view(alphabet.dtype) if q == 2 else
                 np.where(hit, alphabet[rng.integers(1, q, size=(batch, n))], 0))
        if codec is None:   # the loop
            detected, info = [], []
            for u, e in zip(messages.tolist(), noise.tolist()):
                out = decoder(tuple(add(c, x) if x else c for c, x in zip(code.encode(u), e)))
                detected.append(not out.corrected)
                info.append(out.info if out.corrected else u)
            detected, info = np.array(detected, dtype=bool), np.array(info)
        else:
            ok, words = codec.decode(codec.encode(messages) ^ noise)
            detected, info = ~ok, codec.info(words)
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

