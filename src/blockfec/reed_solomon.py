"""Reed-Solomon codes and their algebraic decoders.

Both decoders solve the key equation

    sigma(x) * sigma2(x) * S(x)  =  -omega(x)  (mod x^(n-k))

where sigma locates errors, sigma2 locates the (known) erasures, S
packs the syndromes R(beta^(m0+j)) low-first, and omega evaluates the
error magnitudes through the formal derivative of the full locator.
The root exponents may start at any offset m0; erased positions are
zeroed before syndromes are taken.

The decoders differ only in the key-equation solver, and each solver
returns the pair (sigma, omega).  `pgz_decode` finds sigma by
inverting the largest non-singular Hankel matrix of generalized
syndromes (sigma = 1 when none is) and reads omega off sigma*sigma2*S;
`euclid_decode` runs the extended Euclidean recursion on
(x^(n-k), sigma2*S) until the remainder degree drops below the
erasure-adjusted threshold, and takes both from its last row.  Once
sigma and omega are known, every stage is shared: the Chien search,
the Forney values and the final re-check.  A word is only ever emitted
if its error polynomial reproduces every syndrome, so the decoders
never output a non-codeword.

A word with t erasures and no errors needs no solver (Forney 1965).
When the generalized syndromes s_hat_t .. s_hat_(n-k-1) are all zero,
both solvers return sigma = 1 and omega = -(s_hat mod x^(n-k)).  Every
Hankel matrix PGZ tries holds only s_hat_(t+1) .. s_hat_(n-k-1), so
none is invertible.  Euclid stops at s_hat mod x^(n-k), of degree below
t and so within its threshold, after at most two division steps: none
when deg s_hat < n-k; one, by a constant, when deg s_hat = n-k; and
when deg s_hat > n-k a swap, then the reduction mod x^(n-k).  Each
leaves t_i a constant, which the solver divides out.  So `_keyeq`
skips the solver and the Chien search on such a word: the locator is
sigma2, whose roots are the erasure positions.  The Forney values and
the re-check are shared as ever, and the outcome, key_state included,
is the one either solver gives.

Everything from the erasure locator to the re-check verdict is a
function of (S, erasure set, solver) alone (Berlekamp 1968), so a code
memoises that stage where the keys are few.  Words with t erasures have
q^(n-k) syndromes times C(n, t) erasure sets as keys; they are memoised
for every t up to the first whose keys outnumber MEMO_KEYS.  A memoised
word costs its syndromes and the emitted outcome.

The memo key is the word's `_syndrome_key`.  On the pure-Python backend
over GF(2^m), m <= 8 (a `_packed` code), each pair of a position i and
a symbol a owns one int that holds the n - k contributions a x_j^i, m
bits apiece (`packed_rows`, built on first use and shared by equal
codes, as a warm CLI call builds its code afresh).  A word's key is the
XOR of its n entries, zero exactly when S is, and S is unpacked only
when the key-equation stage runs.  The numpy backend, larger fields
and odd characteristic key a word by the coefficients of S, taken by
`gather_eval`.

Five fixed linear maps, one kernel.  Each stage below maps a vector
to the values of fixed field-element combinations of it, O(n(n-k))
work each: the syndromes (the word at the n - k roots beta^(m0+j)),
the Chien search (the locator at the n inverse positions beta^-i), the
systematic parity (the message times -P, whose row i is
x^(n-k+i) mod g), the Forney values (omega and sigma' at the roots the
search found) and the re-check (the syndromes of the error vector).
Each is one `gather_eval` over a log matrix: L[j][i] is the log of the
matrix entry M[j][i], with log 0 = 2(q-1), and output j sums
exp[L[j][i] + log c_i] over i.  A zero entry reads the zero tail of the
padded exp table, so nothing branches.  The syndrome and Chien matrices
are the powers x_j^i of their points (`power_log_rows`); Forney takes
the Chien rows of the roots and the re-check the syndrome columns of
the error positions.  A code builds each matrix on its first use.  A
`_packed` code takes a word's syndromes from its packed table instead.

The kernel has two backends, chosen once per code by the form of its
matrices.  A GF(2^m) code whose full n(n-k) is at least VECTOR_WORK
holds them as numpy arrays and gathers every product at once, summed
by XOR.  Every other code holds rows of ints and walks them in pure
Python, over the nonzero coefficients only.  numpy is imported by the
first backend alone, so building a code and coding with a small one
never touch numpy.

A GF(2^m) code also decodes a batch of erasure-free words at once:
`decode_batch` runs `BatchCoder`, numpy over the whole batch.  It turns
the syndrome and parity log matrices, cut to the transmitted positions,
into packed tables (one uint64 entry per position and symbol, unless
that exceeds BATCH_WORK), solves the key equation by the reformulated
inversionless Berlekamp-Massey algorithm in lockstep, which yields the
locator and the evaluator together, and runs Forney and the re-check at
the roots alone.  Its verdicts and codewords are those of `decode` with
either solver (see `BatchCoder`), so it is the code's `batch_codec`
while nothing the library runs has been replaced since import
(`linear.runs_own_decoders`).  It imports numpy when first used, as the
gathered backend does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb
from operator import getitem, xor

from .errors import DegreeTooHigh, InvalidParams, InvalidSymbol, LengthMismatch
from .linear import (
    DecodeOutcome,
    MatrixGF,
    ReceivedWord,
    _solve_square,
    check_word,
    received,
    runs_own_decoders,
)
from .poly import Poly

# words whose erasure count gives at most MEMO_KEYS keys have their
# key-equation stage memoised, in a dict cleared once it holds MEMO_CAP
# entries
MEMO_KEYS = 1 << 12
MEMO_CAP = 1 << 12
# GF(2^m) codes with full n(n - k) >= VECTOR_WORK take the numpy
# backend of the linear maps.  On a dense word the pure-Python one is
# twice as fast at n(n - k) = 28 and ties at RS(15,9)'s 90; the gate is
# higher, so that codes up to RS(15,9) decode without numpy
VECTOR_WORK = 256
# a batch decodes in chunks of BATCH_WORK // (n(n - k)) words, so that
# its largest temporaries hold about BATCH_WORK entries; a batch codec
# packs its tables while they hold at most BATCH_WORK lanes
BATCH_WORK = 1 << 20


@dataclass(frozen=True, slots=True)
class KeyEquationState:
    """Internals of a decoding attempt, for inspection and tests.

    Immutable, like the `Poly` fields it holds, so one state may be
    shared by the outcomes of every word with the same syndrome and
    erasures."""

    syndrome: Poly        # S(x), coefficients S_{m0+j} low-first
    s_hat: Poly           # sigma2 * S, the generalized syndrome
    sigma: Poly           # error locator (monic; 1 when no errors)
    sigma2: Poly          # erasure locator (1 when no erasures)
    omega: Poly           # error evaluator

    @property
    def locator(self) -> Poly:
        return self.sigma * self.sigma2


def euclid_key_equation(field, nk: int, s_hat: Poly, threshold):
    """Run r_i = r_{i-2} - q_i r_{i-1} on (x^(n-k), s_hat), tracking the
    coefficient t_i that multiplies s_hat.  Stops at the first remainder
    of degree <= threshold.  Returns (r_i, t_i, trace) where trace lists
    the (r_i, q_i, t_i) rows of the recursion.
    """
    r_prev, r_cur = Poly.monomial(field, nk), s_hat
    t_prev, t_cur = Poly.zero(field), Poly.one(field)
    trace = []
    while r_cur.degree > threshold:
        q, r = divmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, r
        t_prev, t_cur = t_cur, t_prev - q * t_cur
        trace.append((r_cur, q, t_cur))
    return r_cur, t_cur, trace


def gather_eval(field, L, coeffs, rows=None, cols=None) -> list:
    """M c, where L is the log matrix of M, over the rows of M listed in
    `rows` and the columns in `cols` (when None: every row, and the
    first len(coeffs) columns): output j sums M[rows[j]][cols[i]] c_i
    over i.  Every exp index is at most 4(q - 1), inside the padded
    table.  The coefficients must lie in range(q), unchecked: a negative
    one would wrap.  L picks the backend: a numpy array (GF(2^m) only)
    gathers every product at once and XORs along each row; rows of ints
    are walked in pure Python over the nonzero coefficients alone."""
    if not isinstance(L, list):
        import numpy as np

        if rows is not None:
            L = L[rows]
        L = L[:, :len(coeffs)] if cols is None else L[:, cols]
        coeffs = np.array(coeffs, dtype=np.intp)
        return _log_matvec(*_gather_tables(field), L, coeffs).tolist()
    exp, log = field._exp_pad, field._log_pad
    terms = [(i, log[c]) for i, c in enumerate(coeffs) if c]
    if cols is not None:
        terms = [(cols[i], lc) for i, lc in terms]
    if rows is not None:
        L = [L[j] for j in rows]
    if field.p != 2:
        add = field.add
        return [reduce(add, [exp[row[i] + lc] for i, lc in terms], 0) for row in L]
    out = []
    for row in L:
        acc = 0
        for i, lc in terms:
            acc ^= exp[row[i] + lc]
        out.append(acc)
    return out


class RSCode:
    """[n, k] Reed-Solomon code over GF(q) with n | q - 1, root offset
    m0, and optional shortening by `shorten_by` information symbols.

    `n` and `k` are the transmitted lengths n - shorten_by and
    k - shorten_by (`n_out`/`k_out` are aliases).  Internally the
    suppressed zeros sit at positions k - shorten_by .. k - 1 of the
    full-length code, between the information block and the redundancy;
    error vectors and positions use that full-length indexing.

    `decode` runs the key-equation solver named by `decoder`, "euclid"
    or "pgz"; `euclid_decode` and `pgz_decode` name it explicitly.
    On a code with q^(n-k) <= MEMO_KEYS the key-equation stage of words
    with few erasures is memoised per code (see the module docstring):
    such words with equal syndrome and erasures, decoded by one solver,
    share one `key_state`.
    """

    DECODERS = ("euclid", "pgz")

    def __init__(self, field, n: int, k: int, m0: int = 1, shorten_by: int = 0,
                 decoder: str = "euclid"):
        if n < 2 or (field.q - 1) % n != 0:
            raise InvalidParams(f"n = {n} must divide q - 1 = {field.q - 1}")
        if not 0 < k < n:
            raise InvalidParams(f"need 0 < k < n, got [{n},{k}]")
        if not 0 <= shorten_by < k:
            raise InvalidParams(f"bad shortening {shorten_by}")
        if decoder not in self.DECODERS:
            raise InvalidParams(f"decoder must be one of {self.DECODERS}, "
                                f"got {decoder!r}")
        self.field = field
        self.subfield = field.alphabet
        self.radius = (n - k) // 2
        self._full_n = n
        self._full_k = k
        self._no_errors = (0,) * n
        self.n = n - shorten_by
        self.k = k - shorten_by
        self.m0 = m0
        self.shorten_by = shorten_by
        self.decoder = decoder
        self.beta = field.exp((field.q - 1) // n)
        # the roots beta^(m0+j) of g, where syndromes are taken, and the
        # inverse positions beta^-i that the Chien search tries
        self._syndrome_points = [field.pow(self.beta, m0 + j) for j in range(n - k)]
        self._chien_points = [field.pow(self.beta, -i) for i in range(n)]
        self.g = Poly.from_roots(field, self._syndrome_points)
        # the most erasures a memoised word may have (-1: none is)
        syndromes, t = field.q ** (n - k), -1
        while t < n - k and syndromes * comb(n, t + 1) <= MEMO_KEYS:
            t += 1
        self._memo_erasures, self._memo = t, {}
        # the backend of the linear maps; their log matrices are built on
        # first use, not here, to keep numpy and their cost out of set-up
        self._gathered = field.p == 2 and n * (n - k) >= VECTOR_WORK
        # the pure-Python backend in characteristic 2 keys a word by its
        # packed syndromes (see the module docstring), up to GF(256): the
        # table holds n q ints
        self._packed = field.p == 2 and not self._gathered and field.q <= 256

    # -- shape ------------------------------------------------------------

    @property
    def n_out(self) -> int:
        return self.n

    @property
    def k_out(self) -> int:
        return self.k

    @property
    def d(self) -> int:
        return self.n - self.k + 1

    def parity_matrix(self) -> MatrixGF:
        """Parity-check matrix of the full-length code."""
        f = self.field
        rows = [
            [f.pow(self.beta, (self.m0 + j) * i) for i in range(self._full_n)]
            for j in range(self.n - self.k)
        ]
        return MatrixGF(f, rows)

    # -- shortening plumbing ----------------------------------------------

    def _expand_word(self, w: ReceivedWord) -> ReceivedWord:
        """Insert the suppressed zero symbols of a shortened code."""
        l = self.shorten_by
        if l == 0:
            return w
        cut = self.k
        symbols = w.symbols[:cut] + (0,) * l + w.symbols[cut:]
        # an empty erasure set is kept, so memo keys share it
        erasures = w.erasures and frozenset(e if e < cut else e + l
                                             for e in w.erasures)
        return ReceivedWord(symbols, erasures)

    # -- encoding -----------------------------------------------------------

    def encode(self, u, systematic: bool = True):
        u = tuple(u)
        if len(u) > self.k:
            raise DegreeTooHigh(f"message length {len(u)} > k = {self.k}")
        if self.shorten_by and not systematic:
            raise InvalidParams(
                "shortened codes only support systematic encoding"
            )
        # short messages and the suppressed block are zero-padded
        full = u + (0,) * (self._full_k - len(u))
        # neither encoder checks the message (the kernel's log[-1] would
        # wrap, and Poly drops a trailing 0.0), so it is checked here
        check_word(full, self._full_k, self.subfield)
        if not systematic:
            return (Poly(self.field, full) * self.g).to_vector(self._full_n)
        return full[: self.k] + tuple(gather_eval(self.field, self._parity_logs, u))

    # -- syndromes ------------------------------------------------------------

    def syndromes(self, word) -> Poly:
        """S(x) with S_{m0+j} as coefficient j (erasures zeroed)."""
        return self._syndromes_full(self._expand_word(received(self, word)))

    def _syndromes_full(self, w: ReceivedWord) -> Poly:
        return self._syndrome_poly(self._syndrome_key(w.symbols))

    def _syndrome_key(self, symbols):
        """The syndromes of a full-length word as its memo key, falsy when
        they are all zero: the XOR of the word's packed syndrome
        contributions on a `_packed` code, the coefficients of S on any
        other."""
        if self._packed:
            return reduce(xor, map(getitem, self._packed_rows, symbols), 0)
        return Poly(self.field, gather_eval(self.field, self._syndrome_logs, symbols)).coeffs

    def _syndrome_poly(self, key) -> Poly:
        """S(x) from a `_syndrome_key`."""
        if not self._packed:
            return Poly(self.field, key)
        m = self.field.nu
        mask = (1 << m) - 1
        return Poly(self.field, [key >> m * j & mask for j in range(self.n - self.k)])

    # -- log matrices of the linear maps, built on first use ----------------

    def _backend(self, rows):
        """The one choice of `gather_eval`'s backend: a gathered code
        holds its log matrices as numpy arrays, any other as rows."""
        if self._gathered:
            import numpy as np

            return np.array(rows, dtype=np.intp)
        return rows

    @cached_property
    def _syndrome_logs(self):
        """log x_j^i: row j evaluates a full-length word at the root
        beta^(m0+j)."""
        return self._backend(
            power_log_rows(self.field, self._syndrome_points, self._full_n))

    @cached_property
    def _packed_rows(self):
        """`packed_rows` of the syndrome points, shared by equal codes."""
        return packed_rows(self.field, tuple(self._syndrome_points), self._full_n)

    @cached_property
    def _chien_logs(self):
        """log (beta^-i)^l: row i evaluates a locator, or any polynomial
        of degree at most n - k, at position i."""
        nk = self._full_n - self._full_k
        return self._backend(power_log_rows(self.field, self._chien_points, nk + 1))

    @cached_property
    def _parity_logs(self):
        """log (-P^T), with row i of P = x^(n-k+i) mod g for the k
        transmitted information positions, so the parity of u is -u P."""
        nk = self._full_n - self._full_k
        # x^(n-k) mod g, then x r mod g = x r - r_(n-k-1) g for monic g
        r, rows = Poly.monomial(self.field, nk) - self.g, []
        for _ in range(self.k):
            rows.append((-r).to_vector(nk))
            r = r.shift(1) - self.g.scale(r.coeff(nk - 1))
        return self._backend(log_rows(self.field, zip(*rows)))

    # -- decoding ---------------------------------------------------------------

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Decode with the solver chosen at construction."""
        if self.decoder == "pgz":
            return self.pgz_decode(word, erasures)
        return self.euclid_decode(word, erasures)

    def pgz_decode(self, word, erasures=()) -> DecodeOutcome:
        return self._decode(word, erasures, "pgz")

    def euclid_decode(self, word, erasures=()) -> DecodeOutcome:
        return self._decode(word, erasures, "euclid")

    def _decode(self, word, erasures, solver: str) -> DecodeOutcome:
        w = self._expand_word(received(self, word, erasures))
        if len(w.erasures) > self.n - self.k:
            return DecodeOutcome.failure()

        syndromes = self._syndrome_key(w.symbols)
        if not syndromes:
            # erased symbols zeroed are already consistent: no errors
            return self._emit(w, {}, None)

        if len(w.erasures) > self._memo_erasures:
            found = self._keyeq(syndromes, w.erasures, solver)
        else:
            memo, key = self._memo, (syndromes, w.erasures, solver)
            try:
                found = memo[key]
            except KeyError:
                if len(memo) >= MEMO_CAP:
                    memo.clear()
                found = memo[key] = self._keyeq(syndromes, w.erasures, solver)
        if found is None:
            return DecodeOutcome.failure()
        return self._emit(w, *found)

    def _keyeq(self, syndromes, erasures: frozenset, solver: str):
        """The syndrome-determined stage, for a nonzero `_syndrome_key`:
        erasure locator, key equation, Chien search, Forney values and the
        syndrome re-check.  Returns (error values by position,
        KeyEquationState), or None when the word is uncorrectable."""
        f = self.field
        nk = self.n - self.k
        t = len(erasures)
        S = self._syndrome_poly(syndromes)
        sigma2 = Poly.from_roots(
            f, [self._chien_points[e] for e in sorted(erasures)]
        )
        s_hat = sigma2 * S
        chien = self._chien_logs
        found = self._solve_erasures(s_hat, nk, t)
        if found is not None:
            # no errors: the roots of the locator sigma2 are the erasures
            (sigma, omega), locator, roots = found, sigma2, sorted(erasures)
        else:
            solve = self._solve_pgz if solver == "pgz" else self._solve_euclid
            sigma, omega = solve(s_hat, nk, t)
            locator = sigma * sigma2
            # chien search over all positions
            at = gather_eval(f, chien, locator.coeffs)
            roots = [i for i, v in enumerate(at) if v == 0]
            if len(roots) != locator.degree:
                return None

        # error magnitudes through the derivative of the full locator,
        # which is nonzero at its deg-many distinct roots
        num = gather_eval(f, chien, omega.coeffs, rows=roots)
        den = gather_eval(f, chien, locator.derivative().coeffs, rows=roots)
        points = self._chien_points
        values = {
            i: f.div(f.mul(o, f.pow(points[i], self.m0 - 1)), d)
            for i, o, d in zip(roots, num, den)
        }

        # re-verify every syndrome before emitting: S_j is the sum of
        # e_i * x_j^i over the error positions i
        check = gather_eval(f, self._syndrome_logs, list(values.values()), cols=roots)
        if Poly(f, check) != S:
            return None
        return values, KeyEquationState(S, s_hat, sigma, sigma2, omega)

    # -- batch decoding: GF(2^m), no erasures -----------------------------------

    @cached_property
    def _batch(self):
        if self.field.p != 2:
            raise InvalidParams("batch decoding needs a field of characteristic 2")
        return BatchCoder(self)

    def decode_batch(self, words):
        """Decode the erasure-free rows of a (B, n) array at once (GF(2^m)
        codes only).  Returns (ok, codewords): ok[b] is False where
        `decode` finds row b uncorrectable, and codewords[b] is the
        codeword `decode` emits for it, or row b as received when not ok.
        See `BatchCoder` for why the verdicts and codewords are those of
        either solver."""
        return self._batch.decode(words)

    def batch_codec(self):
        """The `BatchCoder` over GF(2^m), while `runs_own_decoders` holds."""
        own = self.field.p == 2 and runs_own_decoders(self)
        return self._batch if own else None

    def _emit(self, w: ReceivedWord, values: dict, state) -> DecodeOutcome:
        fixed, err = w.symbols, self._no_errors
        if values:
            f, fixed, err = self.field, list(fixed), list(err)
            for i, e in values.items():
                fixed[i] = f.sub(fixed[i], e)
                err[i] = e
            # a shortened code cannot have symbols in the suppressed block
            if any(fixed[self.k:self._full_k]):
                return DecodeOutcome.failure()
            fixed, err = tuple(fixed), tuple(err)
        codeword = fixed[: self.k] + fixed[self._full_k:] if self.shorten_by else fixed
        return DecodeOutcome(
            "corrected",
            codeword=codeword,
            error_vector=err,
            error_positions=tuple(sorted(w.erasures.union(values))),
            info=codeword[: self.k],
            key_state=state,
        )

    # -- key-equation solvers ----------------------------------------------------

    def _solve_erasures(self, s_hat: Poly, nk: int, t: int):
        """(1, -(s_hat mod x^(n-k))) when the generalized syndromes
        s_hat_t .. s_hat_(n-k-1) are all zero, as either solver would
        return (see the module docstring); None otherwise."""
        if any(s_hat.coeffs[t:nk]):
            return None
        return Poly.one(self.field), -s_hat.truncate(nk)

    def _solve_pgz(self, s_hat: Poly, nk: int, t: int):
        """Largest-nonsingular-Hankel-matrix solver.  Returns (sigma,
        omega); sigma = 1 when no Hankel matrix is invertible, and the
        syndrome re-check decides whether zero errors is consistent."""
        f = self.field
        c = s_hat.coeff
        sigma = Poly.one(f)
        for r in range((nk - t) // 2, 0, -1):
            rows = [[c(t + 1 + i + j) for j in range(r)] for i in range(r)]
            rhs = [f.neg(c(t + i)) for i in range(r)]
            sol = _solve_square(f, rows, rhs)
            if sol is not None:
                # sol = (sigma_{r-1}, ..., sigma_0)
                sigma = Poly(f, list(reversed(sol)) + [1])
                break
        return sigma, -(sigma * s_hat).truncate(nk)

    def _solve_euclid(self, s_hat: Poly, nk: int, t: int):
        """Extended-Euclid solver; returns (lam*t_i, -lam*r_i) with
        lam = 1/lc(t_i).  With t erasures it stops at the first
        remainder of degree < (n - k + t)/2 (Sugiyama's bound), which
        leaves deg sigma <= (n - k - t)/2, the largest system PGZ
        solves.  The threshold is below n - k, so the recursion never
        stops on the remainder x^(n-k), the only one whose t_i is zero."""
        threshold = (nk - t + 1) // 2 + t - 1
        r, tpoly, _ = euclid_key_equation(self.field, nk, s_hat, threshold)
        lam = self.field.inv(tpoly.lc)
        return tpoly.scale(lam), -r.scale(lam)


class BatchCoder:
    """Systematic encoding and erasure-free decoding of a batch of words
    of a GF(2^m) RS code, in numpy over the whole batch, each stage a few
    numpy calls over a chunk of BATCH_WORK // (n(n-k)) words.

    Packed tables (after Plank, Greenan & Miller 2013).  The syndromes
    and the parity are fixed GF(2)-linear maps of the word.  Entry
    [i, a] of a map's table holds the n - k symbols that symbol a at
    position i adds to the output, packed floor(64/m) symbols to a
    uint64 lane: output j sits in lane j // floor(64/m), at bit
    m (j mod floor(64/m)), so no symbol straddles two lanes.  A word's
    syndromes are one `take` of its n entries and one XOR reduce; a zero
    packed row is a codeword, and only the other rows are unpacked.  The
    table holds n q lanes entries.  A code whose n q lanes exceeds
    BATCH_WORK (a long code over a large field) keeps the log matrices
    of `gather_eval` in its place, and takes the same images as
    exp[log M[i] + log a], one symbol to a lane.

    Key equation: the reformulated inversionless Berlekamp-Massey
    algorithm (riBM; Sarwate & Shanbhag 2001), n - k lockstep steps with
    no division.  After step r, delta holds the coefficients r and up of
    Lambda (S + x^(n-k+t)), shifted down by r, and theta the same for
    the shift register B.  It tracks kappa = r - 2L in place of the
    register length L: the register grows when delta_0 is nonzero and
    kappa >= 0.  After the last step delta_t .. delta_2t hold Lambda, up
    to a nonzero scalar, and delta_0 .. delta_(t-1) the high part
    Omega^h of Lambda S, scaled alike, whenever L <= t: Lambda S then
    has degree below n - k + t, clear of the copy of Lambda above it.
    So no stage computes Omega.

    Forney from the high part.  For Lambda = prod (1 - X_l x) and S_j =
    sum Y_l X_l^(m0+j), summing each geometric series gives

        Lambda S = sum_l Y_l X_l^m0 (1 - (X_l x)^(n-k)) prod_(i!=l) (1 - X_i x),

    so Omega^h = -sum_l Y_l X_l^(m0+n-k) prod_(i!=l) (1 - X_i x), and at
    a root X_j^-1 it is -Y_j X_j^(m0+n-k) prod_(i!=j) (1 - X_i / X_j).
    In characteristic 2 the odd part of Lambda is x Lambda'(x), which
    at X_j^-1 is -prod_(i!=j) (1 - X_i / X_j); hence
    Y_j = Omega^h(X_j^-1) X_j^-(m0+n-k) / odd(X_j^-1), in which the
    scalar cancels.  The Chien search tries the transmitted positions
    only, splitting Lambda into its even and odd parts; Forney runs at
    the roots it found, taken by `np.nonzero`.

    A word is corrected only if Lambda has L = (n - k - kappa) / 2 roots
    (so L <= t: a nonzero Lambda of degree at most t has at most t roots,
    and a zero one n, more than n - k) and the packed syndrome images of its
    error values at those roots XOR to its packed syndromes.  A root in
    the shortened block is not searched, so such a word is rejected, as
    `decode` rejects an error there.

    Why the verdicts and codewords are those of `decode`, with either
    solver: both scalar solvers are bounded-distance decoders.  They
    emit the codeword within distance t of the word when there is one,
    and reject every other word, since an emitted word passes the same
    re-check with at most t error positions.  That codeword is unique,
    because 2t < d.  When it exists, the error locator is the shortest
    LFSR of the n - k syndromes, which Berlekamp-Massey finds, and the
    checks above pass; when it does not, no error vector with at most t
    positions passes the re-check.  So this decoder emits the same
    codeword on the same words.
    """

    def __init__(self, code: RSCode):
        import numpy as np

        f = code.field
        self.order = order = f.q - 1
        self.q = f.q
        self.n, self.k, self.nk, self.t = code.n, code.k, code.n - code.k, code.radius
        nk, t = self.nk, self.t
        self.exp, self.log = _gather_tables(f)
        self.dtype = self.exp.dtype
        # the transmitted positions in full-length indexing
        sent = list(range(code.k)) + list(range(code._full_k, code._full_n))
        self.at = np.arange(self.n)[:, None]
        # symbol j of an image in lane j // per, at bit m (j % per)
        per = 64 // f.nu
        self.packed = self.n * f.q * -(-nk // per) <= BATCH_WORK
        per = per if self.packed else 1
        self.lane = np.arange(nk) // per
        self.shift = (f.nu * (np.arange(nk) % per)).astype(np.uint64)[:, None]
        self.mask = np.uint64(order)
        self.syndrome = self._table(np.asarray(code._syndrome_logs, dtype=np.intp)[:, sent].T)
        self.parity = self._table(np.asarray(code._parity_logs, dtype=np.intp).T)
        chien = np.asarray(code._chien_logs, dtype=np.intp)[sent]
        # log X^-l for l <= t, a row per l, a column per position X
        self.chien = chien[:, :t + 1].T[:, None, :].copy()
        # log X^-(m0+n-k+l) for l < t: the term of Omega^h_l
        self.forney = (np.arange(t)[:, None] + code.m0 + nk) * chien[:, 1] % order
        # riBM's first state, a column per word: delta in half 0; gamma,
        # then theta one place up, in half 1.  S goes in below the ones
        self.start = np.full((2, nk + t + 2, 1), self.log[0])
        self.start[0, nk + t] = self.start[1, 0] = self.start[1, nk + t + 1] = 0
        self.chunk = max(1, BATCH_WORK // (code.n * nk))

    def _table(self, logs):
        """The packed table of the map with log matrix `logs` (row i: the
        logs of what position i adds to each output), flat over (i, a);
        `logs` itself when the code is not packed."""
        import numpy as np

        if not self.packed:
            return logs
        lanes = self.lane[-1] + 1
        table = np.empty((len(logs) * self.q, lanes), dtype=np.uint64)
        la = self.log[np.arange(self.q)][:, None]
        for lane in range(lanes):
            out = self.lane == lane
            images = self.exp[logs[:, None, out] + la].astype(np.uint64) << self.shift[out, 0]
            table[:, lane] = np.bitwise_or.reduce(images, axis=2).ravel()
        return table

    def _images(self, table, at, values):
        """The images of the symbols `values` at positions `at` under the
        map of `table`, a row of lanes each."""
        if self.packed:
            return table.take(at * self.q + values, axis=0)
        return self.exp[table.take(at, axis=0) + self.log[values][..., None]]

    def _unpack(self, lanes):
        """The n - k symbols packed in each row of lanes, a column each."""
        return (lanes.T.take(self.lane, axis=0) >> self.shift) & self.mask

    def _chunks(self, size: int):
        return (slice(s, s + self.chunk) for s in range(0, size, self.chunk))

    def encode(self, messages):
        """The systematic codewords of a (B, k) array of messages in
        range(q), unchecked."""
        import numpy as np

        out = np.empty((len(messages), self.n), dtype=self.dtype)
        out[:, :self.k] = messages
        for s in self._chunks(len(messages)):
            parity = self._images(self.parity, self.at[:self.k], messages[s].T)
            out[s, self.k:] = self._unpack(np.bitwise_xor.reduce(parity, axis=0)).T
        return out

    def decode(self, words):
        """`RSCode.decode_batch`."""
        import numpy as np

        words = np.asarray(words)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise LengthMismatch(f"need rows of length {self.n}, got shape {words.shape}")
        # bools are symbols 0 and 1, as they are to `check_word`
        if words.size and (words.dtype.kind not in "biu" or words.min() < 0
                           or words.max() > self.order):
            raise InvalidSymbol(f"batch symbols must be integers in range({self.order + 1})")
        out = words.astype(self.dtype)
        ok = np.ones(len(words), dtype=bool)
        for s in self._chunks(len(words)):
            S = np.bitwise_xor.reduce(self._images(self.syndrome, self.at, out[s].T), axis=0)
            rows = np.flatnonzero(S.any(axis=1))
            if rows.size:
                good, which, at, values = self._errors(S.take(rows, axis=0))
                rows += s.start
                ok[rows] = good
                out[rows.take(which), at] ^= values
        return ok, out

    def info(self, codewords):
        return codewords[:, :self.k]

    def _errors(self, S):
        """(ok, rows, positions, values) for the words with the nonzero
        packed syndromes S: the verdicts, and one entry per root of the
        words that passed the root count, its error value zeroed where the
        re-check failed."""
        import numpy as np

        exp, log, t = self.exp, self.log, self.t
        delta, kappa = self._ribm(log[self._unpack(S)])
        # the Chien search: Lambda's even and odd parts at each position
        terms = exp[self.chien + delta[t:2 * t + 1, :, None]]
        odd = np.bitwise_xor.reduce(terms[1::2], axis=0)
        root = np.bitwise_xor.reduce(terms[0::2], axis=0) == odd
        # the root count: Lambda has L roots
        L = (self.nk - kappa) >> 1
        kept = np.flatnonzero(root.sum(axis=1) == L)
        rows, at = np.nonzero(root.take(kept, axis=0))
        rows = kept.take(rows)
        # Forney; odd is nonzero at the L distinct roots of a kept word,
        # and a zero Omega^h value reads the zero tail of exp
        terms = self.forney.take(at, axis=1) + delta[:t].take(rows, axis=1)
        num = np.bitwise_xor.reduce(exp[terms], axis=0)
        values = exp[log[num] - log[odd[rows, at]] + self.order]
        # the re-check at the roots: a kept word's L errors are consecutive
        counts = L.take(kept)
        check = np.bitwise_xor.reduceat(self._images(self.syndrome, at, values),
                                        np.cumsum(counts) - counts, axis=0)
        ok = np.zeros(len(S), dtype=bool)
        ok[kept] = (check == S.take(kept, axis=0)).all(axis=1)
        values *= ok.take(rows)
        return ok, rows, at, values

    def _ribm(self, lS):
        """riBM over the syndrome logs lS, a column per word: the logs of
        the last delta (Omega^h in rows 0 .. t-1, Lambda in t .. 2t when
        L <= t) and kappa = n - k - 2L.  The state's second half holds
        gamma, then theta one place up, so a step multiplies the state's
        tail by (gamma, delta_0), its first row reversed, and XORs the
        two halves."""
        import numpy as np

        exp, log, nk, order = self.exp, self.log, self.nk, self.order
        state = np.repeat(self.start, lS.shape[1], axis=2)
        state[0, :nk] = state[1, 1:nk + 1] = lS
        delta, theta, factors = state[0], state[1], state[::-1, :1]
        kappa = np.zeros(lS.shape[1], dtype=np.intp)
        for _ in range(nk):
            grow = (delta[0] < order) & (kappa >= 0)
            products = exp[state[:, 1:] + factors]
            np.copyto(theta, delta, where=grow)
            # symbols index log in range; "clip" skips take's buffering
            np.take(log, products[0] ^ products[1], out=delta[:-1], mode="clip")
            kappa += 1
            np.negative(kappa, out=kappa, where=grow)
        return delta[:-1], kappa


@lru_cache(maxsize=None)
def _gather_tables(field):
    """numpy copies of the field's padded exp and log tables."""
    import numpy as np

    return (np.array(field._exp_pad, dtype=np.min_scalar_type(field.q - 1)),
            np.array(field._log_pad, dtype=np.intp))


def _log_matvec(exp, log, L, coeffs):
    """M c over GF(2^m) in numpy, for the log matrix L of M, the tables of
    `_gather_tables` and c each row of the integer array coeffs: a (B, c)
    coeffs gives a (B, rows of M) result, a vector a vector."""
    import numpy as np

    return np.bitwise_xor.reduce(exp[L + log[coeffs][..., None, :]], axis=-1)


@lru_cache(maxsize=None)
def packed_rows(field, points, width: int):
    """The packed table of the evaluation at nonzero points x_j over
    GF(2^m): row i (i < width) maps a symbol a to the values a x_j^i, m
    bits apiece, the value at x_j in bits mj .. mj + m - 1, so a word's
    values are the XOR of one entry per position.  a -> a x is
    GF(2)-linear, so a row is doubled once per basis symbol 2^b: the
    entries of a + 2^b are those of a XOR that of 2^b."""
    exp, log, m = field._exp_pad, field._log_pad, field.nu
    rows = []
    for powers in zip(*power_log_rows(field, points, width)):
        row = [0]
        for b in range(m):
            lb = log[1 << b]
            unit = sum(exp[lx + lb] << m * j for j, lx in enumerate(powers))
            row += [x ^ unit for x in row]
        rows.append(row)
    return rows


def log_rows(field, rows):
    """The logs of the entries of a matrix over the field, given as rows,
    with log 0 stored as 2(q - 1): the operand of `gather_eval`."""
    log = field._log_pad
    return [[log[a] for a in row] for row in rows]


def power_log_rows(field, points, width: int):
    """`log_rows` of the powers x_j^i (i < width) of nonzero points,
    read as i * log(x_j) mod (q - 1) without forming the powers."""
    order = field.q - 1
    return [[lx * i % order for i in range(width)] for lx in map(field.log, points)]
