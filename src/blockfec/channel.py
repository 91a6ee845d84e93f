"""Binary symmetric channel analysis.

Exact decoding-event probabilities come from classifying every error
pattern through the standard array of a code (correct, miscorrected,
or detected, per a detect-only syndrome policy) into weight histograms;
the histograms evaluate to probabilities at any crossover p, exactly
when p is a Fraction.  A counter-based Monte Carlo estimator provides
the empirical counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TooLarge
from .linear import LinearCode, StandardArray, hamming_weight

_PHILOX_BATCH = 1 << 16


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
    """
    n, k = code.n, code.k
    detect_syndromes = {tuple(s) for s in detect_syndromes}
    zero = tuple([0] * (n - k))
    if zero in detect_syndromes:
        raise ValueError("the code row cannot be detect-only")

    err = [0] * (n + 1)
    det = [0] * (n + 1)
    correct = [0] * (n + 1)
    bits = [[0] * (n + 1) for _ in range(k)]

    for syndrome, leader, row in zip(array.syndromes, array.leaders, array.rows):
        if syndrome in detect_syndromes:
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
    transmitting random codewords through a BSC.

    `decoder` is either a StandardArray (vectorized binary fast path,
    honouring `detect_syndromes`) or a callable word -> DecodeOutcome.
    Randomness is a Philox counter-based stream keyed by `seed` with
    the batch index as counter, so results do not depend on how the
    batches would be scheduled.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(decoder, StandardArray):
        return _monte_carlo_array(code, decoder, p, trials, seed, detect_syndromes)
    return _monte_carlo_loop(code, decoder, p, trials, seed)


def _monte_carlo_array(code, array, p, trials, seed, detect_syndromes):
    if code.field.p != 2:
        raise TooLarge("vectorized path supports binary codes only")
    n, k = code.n, code.k
    if n > 24:
        raise TooLarge("vectorized path caps n at 24")

    messages = list(array.messages)
    cw = np.array(array.code_row, dtype=np.uint8)          # q^k x n
    msg_arr = np.array(messages, dtype=np.uint8)           # q^k x k
    ht = np.array(code.H.rows, dtype=np.uint8).T           # n x (n-k)
    pow2_s = 1 << np.arange(code.n - k - 1, -1, -1, dtype=np.int64)

    # syndrome value -> leader bits; detect rows flagged separately
    leader_lut = np.zeros((1 << (n - k), n), dtype=np.uint8)
    detect_lut = np.zeros(1 << (n - k), dtype=bool)
    detect_set = {tuple(s) for s in detect_syndromes}
    for s, leader in zip(array.syndromes, array.leaders):
        idx = int(np.dot(np.array(s, dtype=np.int64), pow2_s))
        leader_lut[idx] = leader
        detect_lut[idx] = tuple(s) in detect_set
    # codeword bits -> message index
    pow2_n = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    cw_to_msg = np.full(1 << n, -1, dtype=np.int64)
    for i, c in enumerate(array.code_row):
        cw_to_msg[int(np.dot(np.array(c, dtype=np.int64), pow2_n))] = i

    n_err = n_det = 0
    bit_err = np.zeros(k, dtype=np.int64)
    done = 0
    batch_index = 0
    while done < trials:
        batch = min(_PHILOX_BATCH, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, 0, 0, batch_index])
        )
        sent = rng.integers(0, len(messages), size=batch)
        noise = (rng.random((batch, n)) < p).astype(np.uint8)
        received = cw[sent] ^ noise
        syndrome = (received @ ht) % 2
        syn_idx = syndrome.astype(np.int64) @ pow2_s
        detected = detect_lut[syn_idx]
        decoded = received ^ leader_lut[syn_idx]
        decoded_msg = cw_to_msg[decoded.astype(np.int64) @ pow2_n]
        wrong = (~detected) & (decoded_msg != sent)
        n_err += int(wrong.sum())
        n_det += int(detected.sum())
        live = ~detected
        if live.any():
            diff = msg_arr[decoded_msg[live]] ^ msg_arr[sent[live]]
            bit_err += diff.sum(axis=0, dtype=np.int64)
        done += batch
        batch_index += 1

    p_err_hat = float(bit_err.sum()) / (k * trials)
    out = {
        "P_err_hat": n_err / trials,
        "P_det_hat": n_det / trials,
        "p_err_hat": p_err_hat,
        "P_err_stderr": _stderr(n_err / trials, trials),
        "P_det_stderr": _stderr(n_det / trials, trials),
        "p_err_stderr": _stderr(p_err_hat, k * trials),
        "trials": trials,
        "seed": seed,
    }
    return out


def _monte_carlo_loop(code, decoder, p, trials, seed):
    n, k, fld = code.n, code.k, code.field
    # subfield codes draw their symbols from the subfield alphabet
    alphabet = sorted(getattr(code, "subfield", None) or fld.elements())
    q = len(alphabet)
    n_err = n_det = 0
    bit_errs = 0
    done = 0
    batch_index = 0
    while done < trials:
        batch = min(_PHILOX_BATCH, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, 0, 0, batch_index])
        )
        msgs = rng.integers(0, q, size=(batch, k))
        noise_mask = rng.random((batch, n)) < p
        noise_vals = rng.integers(1, q, size=(batch, n))
        for b in range(batch):
            u = tuple(alphabet[int(x)] for x in msgs[b])
            r = list(code.encode(u))
            for i in range(n):
                if noise_mask[b, i]:
                    r[i] = fld.add(r[i], alphabet[int(noise_vals[b, i])])
            out = decoder(tuple(r))
            if not out.corrected:
                n_det += 1
            else:
                if out.info != u:
                    n_err += 1
                bit_errs += sum(1 for a, b2 in zip(out.info, u) if a != b2)
        done += batch
        batch_index += 1
    p_err_hat = bit_errs / (k * trials)
    return {
        "P_err_hat": n_err / trials,
        "P_det_hat": n_det / trials,
        "p_err_hat": p_err_hat,
        "P_err_stderr": _stderr(n_err / trials, trials),
        "P_det_stderr": _stderr(n_det / trials, trials),
        "p_err_stderr": _stderr(p_err_hat, k * trials),
        "trials": trials,
        "seed": seed,
    }
