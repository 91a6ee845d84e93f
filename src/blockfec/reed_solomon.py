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

Everything from the erasure locator to the re-check verdict is a
function of (S, erasure set, solver) alone (Berlekamp 1968), so a code
memoises that stage where the keys are few.  Words with t erasures have
q^(n-k) syndromes times C(n, t) erasure sets as keys; they are memoised
for every t up to the first whose keys outnumber MEMO_KEYS.  A memoised
word costs its syndromes and the emitted outcome.

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
the error positions.  A code builds each matrix on its first use.

The kernel has two backends, chosen once per code by the form of its
matrices.  A GF(2^m) code whose full n(n-k) is at least VECTOR_WORK
holds them as numpy arrays and gathers every product at once, summed
by XOR.  Every other code holds rows of ints and walks them in pure
Python, over the nonzero coefficients only.  numpy is imported by the
first backend alone, so building a code and coding with a small one
never touch numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb

from .errors import DegreeTooHigh, InvalidParams
from .linear import (
    DecodeOutcome,
    MatrixGF,
    ReceivedWord,
    _solve_square,
    check_word,
    received,
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
        return Poly(self.field, gather_eval(self.field, self._syndrome_logs, w.symbols))

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

        S = self._syndromes_full(w)
        if S.is_zero:
            # erased symbols zeroed are already consistent: no errors
            return self._emit(w, {}, None)

        if len(w.erasures) > self._memo_erasures:
            found = self._keyeq(S, w.erasures, solver)
        else:
            memo, key = self._memo, (S.coeffs, w.erasures, solver)
            try:
                found = memo[key]
            except KeyError:
                if len(memo) >= MEMO_CAP:
                    memo.clear()
                found = memo[key] = self._keyeq(S, w.erasures, solver)
        if found is None:
            return DecodeOutcome.failure()
        return self._emit(w, *found)

    def _keyeq(self, S: Poly, erasures: frozenset, solver: str):
        """The syndrome-determined stage: erasure locator, key equation,
        Chien search, Forney values and the syndrome re-check.  Returns
        (error values by position, KeyEquationState), or None when the
        word is uncorrectable."""
        f = self.field
        nk = self.n - self.k
        t = len(erasures)
        sigma2 = Poly.from_roots(
            f, [self._chien_points[e] for e in sorted(erasures)]
        )
        s_hat = sigma2 * S
        solve = self._solve_pgz if solver == "pgz" else self._solve_euclid
        sigma, omega = solve(s_hat, nk, t)

        locator = sigma * sigma2
        # chien search over all positions
        chien = self._chien_logs
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

    def _emit(self, w: ReceivedWord, values: dict, state) -> DecodeOutcome:
        f = self.field
        fixed = list(w.symbols)
        err = [0] * self._full_n
        for i, e in values.items():
            fixed[i] = f.sub(fixed[i], e)
            err[i] = e
        # a shortened code cannot have symbols in the suppressed block
        if any(fixed[self.k:self._full_k]):
            return DecodeOutcome.failure()
        codeword = tuple(fixed[: self.k] + fixed[self._full_k:])
        return DecodeOutcome(
            "corrected",
            codeword=codeword,
            error_vector=tuple(err),
            error_positions=tuple(sorted(set(values) | w.erasures)),
            info=codeword[: self.k],
            key_state=state,
        )

    # -- key-equation solvers ----------------------------------------------------

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


@lru_cache(maxsize=None)
def _gather_tables(field):
    """numpy copies of the field's padded exp and log tables."""
    import numpy as np

    return (np.array(field._exp_pad, dtype=np.min_scalar_type(field.q - 1)),
            np.array(field._log_pad, dtype=np.intp))


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

        exp, log = _gather_tables(field)
        if rows is not None:
            L = L[rows]
        L = L[:, :len(coeffs)] if cols is None else L[:, cols]
        terms = exp[L + log[np.array(coeffs, dtype=np.intp)]]
        return np.bitwise_xor.reduce(terms, axis=1).tolist()
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
