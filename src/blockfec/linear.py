"""Generic linear block codes over a finite field.

Provides the matrix machinery (generator/parity matrices, systematic
forms), syndrome computation, standard arrays with coset-leader
decoding, brute-force maximum-likelihood decoding, duals, extension,
shortening and sphere-packing bound checks.  The exhaustive tools are
hard-capped; they are oracles for small codes, not production decoders.

Every matrix job that needs elimination (rref, rank, null spaces,
systematic forms, determinants, square solves, the codeword -> message
inverse) runs the one Gauss-Jordan loop `_gauss_jordan`; products are
row combinations (`MatrixGF.mul_vec`).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import index, itemgetter, xor
from types import FunctionType

from .errors import (
    InvalidColumns,
    InvalidParams,
    InvalidSymbol,
    LengthMismatch,
    NotSystematic,
    RankDeficient,
    TooLarge,
)
from .galois import GF, minimal_polynomial

MAX_ARRAY_VECTORS = 1 << 24   # q^n cap for standard arrays, q^(n-k)*n with a radius
MAX_ML_CODEWORDS = 1 << 20    # q^k cap for brute-force decoding
MAX_HAMMING_R = 8             # r cap for Hamming codes: H is r x (2^r - 1)

# the erasures of every erasure-free word, so decode memo keys share one
NO_ERASURES = frozenset()


def hamming_weight(v) -> int:
    return sum(1 for x in v if x)


def hamming_distance(u, v) -> int:
    if len(u) != len(v):
        raise LengthMismatch(f"length {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


@dataclass(frozen=True)
class ReceivedWord:
    """A word with known-unreliable (erased) positions.

    Erased positions are normalised to the zero symbol; decoders rely
    on that convention when evaluating syndromes.  The erasures are a
    set: a position listed twice is erased once.
    """

    symbols: tuple
    erasures: frozenset = NO_ERASURES

    @classmethod
    def make(cls, symbols, erasures=()) -> "ReceivedWord":
        try:
            symbols = list(symbols)
        except TypeError:
            raise LengthMismatch("a word must be a sequence of symbols") from None
        try:
            erasures = frozenset(map(index, erasures)) or NO_ERASURES
        except TypeError:
            raise LengthMismatch("erasure positions must be integers") from None
        for e in erasures:
            if not 0 <= e < len(symbols):
                raise LengthMismatch(f"erasure position {e} out of range")
            symbols[e] = 0
        return cls(tuple(symbols), erasures)

    def __len__(self):
        return len(self.symbols)


def as_received(word, erasures=()) -> ReceivedWord:
    """`word` as a ReceivedWord; the erasures of a word that already is
    one are joined with `erasures`."""
    if isinstance(word, ReceivedWord):
        if not erasures:
            return word
        word, erasures = word.symbols, word.erasures.union(erasures)
    return ReceivedWord.make(word, erasures)


def _in_alphabet(symbols, alphabet) -> bool:
    # operator.index admits ints (numpy's too) and rejects 1.0 or "1",
    # which would otherwise pass as the equal-hashing 1
    try:
        return alphabet.issuperset(map(index, symbols))
    except TypeError:
        return False


def check_word(symbols, n: int, alphabet):
    """`symbols`, once checked to have length n and to draw every symbol
    from `alphabet`, a set of ints such as a code's `subfield`; raises
    LengthMismatch or InvalidSymbol otherwise.  A symbol that is not an
    integer is outside every alphabet."""
    if len(symbols) != n:
        raise LengthMismatch(f"length {len(symbols)} != {n}")
    if not _in_alphabet(symbols, alphabet):
        bad = next(s for s in symbols if not _in_alphabet((s,), alphabet))
        raise InvalidSymbol(f"symbol {bad!r} is not in the code's alphabet")
    return symbols


class _CheckedWord(ReceivedWord):
    """A word that a code hands one of its parts: a composite its
    columns and rows, a BCH code its RS code.  It is built from symbols
    the code's own intake checked, or from the parts' codewords over the
    alphabet they share, with the erased symbols zeroed, so `received`
    passes it through.  Only codes with parts build one."""


def received(code, word, erasures=()) -> ReceivedWord:
    """The decode intake: `word` with `erasures` as a ReceivedWord,
    checked against `code.n` and `code.subfield`.  Erased symbols are
    zeroed before the check, so they are never checked.  A composite's
    `_CheckedWord` without further erasures is taken as it is; every
    other word, a ReceivedWord included, is checked."""
    if type(word) is _CheckedWord and not erasures:
        return word
    w = as_received(word, erasures)
    check_word(w.symbols, code.n, code.subfield)
    return w


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of any decoder: a corrected codeword or an explicit
    uncorrectable verdict."""

    verdict: str                      # "corrected" | "uncorrectable"
    codeword: tuple | None = None
    error_vector: tuple | None = None
    error_positions: tuple = ()
    info: tuple | None = None
    key_state: object | None = None   # RS/BCH decoders attach internals

    @property
    def corrected(self) -> bool:
        return self.verdict == "corrected"

    @classmethod
    def failure(cls, **kw) -> "DecodeOutcome":
        return cls(verdict="uncorrectable", **kw)

    @classmethod
    def correction(cls, field, received, codeword, info) -> "DecodeOutcome":
        """The corrected outcome of every decoder but RS and BCH: the
        error vector is received - codeword, the positions its support."""
        sub = xor if field.p == 2 else field.sub
        err = tuple(map(sub, received, codeword))
        return cls("corrected", codeword=codeword, error_vector=err,
                   error_positions=tuple(i for i, e in enumerate(err) if e),
                   info=info)


# the library as imported, for the trust rule: (owner, names, getter,
# values) of the entries of each module and class, and each class's
# method names, None when its objects have no __dict__
_SNAPSHOT, _METHODS = [], {}
_CLASSES = _METHODS.keys()


def snapshot_library(modules, codecs):
    """Note every callable global of `modules`, and every function or
    descriptor of the classes they define but the `codecs`, which tests
    check against `decode`.  The package calls this once every module is
    loaded, so `runs_own_decoders` sees a patch made before any call."""
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and cls not in codecs]
    for owner in [*modules, *classes]:
        names = [name for name, value in vars(owner).items()
                 if callable(value) or isinstance(value, (classmethod, property,
                                                          cached_property))]
        if names:
            get = itemgetter(*names)
            _SNAPSHOT.append((owner, names, get, get(vars(owner))))
    for cls in classes:
        resolved = {name: value for base in reversed(cls.__mro__)
                    for name, value in vars(base).items()}
        _METHODS[cls] = (frozenset(name for name, value in resolved.items() if
                                   isinstance(value, (FunctionType, classmethod, staticmethod)))
                         if "__dict__" in resolved else None)


def runs_own_decoders(code) -> bool:
    """The trust rule of every batch codec: no module function, class or
    method of the library has been replaced since import, `code` is of a
    library class, not a subclass, and neither it nor a library object it
    holds, directly or through others, shadows a method in its __dict__."""
    try:
        intact = all(get(vars(owner)) == values for owner, _, get, values in _SNAPSHOT)
    except KeyError:   # an entry was deleted
        return False
    return intact and _unshadowed(code, set())


def _unshadowed(obj, seen) -> bool:
    # cached_property values sit in the __dict__ too, under names that
    # are no methods; `seen` cuts cycles such as a standard array's code
    if type(obj) not in _METHODS:
        return False
    methods = _METHODS[type(obj)]
    if methods is None:
        return True
    seen.add(id(obj))
    attrs = vars(obj)
    return methods.isdisjoint(attrs) and all(
        id(value) in seen or _CLASSES.isdisjoint(type(value).__mro__)
        or _unshadowed(value, seen) for value in attrs.values())


class MatrixGF:
    """Dense matrix over a finite field (row tuples of element ints)."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    @classmethod
    def identity(cls, field, n) -> "MatrixGF":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.field, list(zip(*self.rows)))

    def hstack(self, other: "MatrixGF") -> "MatrixGF":
        return MatrixGF(self.field, [a + b for a, b in zip(self.rows, other.rows)])

    def select_columns(self, cols) -> "MatrixGF":
        return MatrixGF(self.field, [[r[c] for c in cols] for r in self.rows])

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        return MatrixGF(self.field, [other.mul_vec(row) for row in self.rows])

    def mul_vec(self, v):
        """Row vector times this matrix: v @ M, the combination of M's
        rows weighted by v."""
        f = self.field
        if len(v) != len(self.rows):
            raise LengthMismatch(f"vector length {len(v)} vs {len(self.rows)} rows")
        add = xor if f.p == 2 else f.add
        acc = [0] * self.shape[1]
        for a, row in zip(v, self.rows):
            # zero entries add nothing; a unit weight needs no product
            if a == 1:
                acc = list(map(add, acc, row))
            elif a:
                acc = [add(x, f.mul(a, y)) if y else x for x, y in zip(acc, row)]
        return tuple(acc)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot columns)."""
        rows = [list(r) for r in self.rows]
        pivots, _ = _gauss_jordan(self.field, rows, self.shape[1])
        return MatrixGF(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def null_space(self) -> "MatrixGF":
        """Basis of {x : M x^T = 0} as rows, in reduced echelon form
        (systematic whenever the leading columns are independent)."""
        f = self.field
        red, pivots = self.rref()
        _, ncols = self.shape
        free = [c for c in range(ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [0] * ncols
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = f.neg(red.rows[r][fc])
            basis.append(vec)
        return MatrixGF(f, basis).rref()[0]

    def det(self) -> int:
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        rows = [list(r) for r in self.rows]
        pivots, d = _gauss_jordan(self.field, rows, n)
        return d if len(pivots) == n else 0

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"MatrixGF({self.shape[0]}x{self.shape[1]} over {self.field.spec_string()})"


def _gauss_jordan(f, rows, ncols):
    """Reduce the list rows in place to reduced row echelon form over
    their first `ncols` columns; later columns (a right-hand side, an
    identity block) take the same row operations.  Returns (pivot
    columns, d), where d is the product of the pivots signed by the row
    swaps: the determinant of a full-rank square matrix.  Raises
    InvalidSymbol for an entry outside the field."""
    for row in rows:
        if not _in_alphabet(row, f.alphabet):
            bad = next(x for x in row if not _in_alphabet((x,), f.alphabet))
            raise InvalidSymbol(f"{bad!r} is not an element of {f}")
    # rows are updated on the padded log/exp tables, as in Poly.__divmod__:
    # log 0 = 2(q-1) reads the zero tail, and log(-a) = log(a) + h mod q - 1
    exp, log, order, h = f._exp_pad, f._log_pad, f.q - 1, f._log_minus_one
    add = xor if f.p == 2 else f.add
    nrows = len(rows)
    pivots = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            d = f.neg(d)
        d = f.mul(d, rows[r][c])
        shift = order - log[rows[r][c]]
        rows[r] = [exp[log[x] + shift] for x in rows[r]]
        lys = [log[y] for y in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                lf = (log[rows[i][c]] + h) % order
                rows[i] = [add(x, exp[lf + ly]) for x, ly in zip(rows[i], lys)]
        pivots.append(c)
    return pivots, d


def _solve_square(f, rows, rhs):
    """Solve a square linear system by eliminating [A | b]; None when
    the matrix is singular."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots, _ = _gauss_jordan(f, m, n)
    if len(pivots) < n:
        return None
    return [row[n] for row in m]


def systematic_form(G: MatrixGF):
    """Row-reduce and permute columns so the left block is an identity.

    Returns (G_sys, perm) where perm maps new column index to the old
    one.  The permutation is the identity whenever row operations alone
    suffice (the pivot columns are already the leading columns).
    """
    red, pivots = G.rref()
    k, n = G.shape
    if len(pivots) < k:
        raise RankDeficient(f"rank {len(pivots)} < {k} rows")
    perm = list(pivots) + [c for c in range(n) if c not in pivots]
    return red.select_columns(perm), tuple(perm)


def parity_from_generator(G_sys: MatrixGF) -> MatrixGF:
    """H = (V^T | I) from a systematic G = (I | V)."""
    f = G_sys.field
    k, n = G_sys.shape
    for i in range(k):
        if any(G_sys.rows[i][j] != (1 if i == j else 0) for j in range(k)):
            raise NotSystematic("generator lacks a leading identity block")
    vt = [[f.neg(G_sys.rows[i][k + j]) for i in range(k)] for j in range(n - k)]
    return MatrixGF(f, vt).hstack(MatrixGF.identity(f, n - k))


class LinearCode:
    """An [n, k] linear code given by generator and parity matrices."""

    def __init__(self, field, G: MatrixGF, H: MatrixGF):
        self.field = field
        self.G = G
        self.H = H
        if not G.rows:
            raise InvalidParams(f"zero-dimensional code: k = 0 (n = {H.shape[1]})")
        self.k, self.n = G.shape
        if self.n == self.k:
            if H.rows:
                raise LengthMismatch("a full-space code has an empty parity matrix")
        elif H.shape != (self.n - self.k, self.n):
            raise LengthMismatch(
                f"parity matrix {H.shape} does not match [{self.n},{self.k}]"
            )
        # H^T keeps its n rows even when H has none (a full-space code)
        self._Ht = MatrixGF(field, list(zip(*H.rows)) or [()] * self.n)
        zero = G @ self._Ht
        if any(any(row) for row in zero.rows):
            raise ValueError("G H^T != 0")
        self._d = None
        self._codebook = None
        self._array = None
        self._pivot_solver = None
        self.subfield = field.alphabet
        self.radius = None   # complete decoding

    @classmethod
    def from_generator(cls, field, rows) -> "LinearCode":
        G = rows if isinstance(rows, MatrixGF) else MatrixGF(field, rows)
        if G.rank() != G.shape[0]:
            raise RankDeficient("generator rows are dependent")
        k, n = G.shape
        systematic = k < n and all(
            G.rows[i][j] == (1 if i == j else 0)
            for i in range(k) for j in range(k)
        )
        H = parity_from_generator(G) if systematic else G.null_space()
        return cls(field, G, H)

    @classmethod
    def from_parity(cls, field, rows) -> "LinearCode":
        H = rows if isinstance(rows, MatrixGF) else MatrixGF(field, rows)
        if H.rank() != H.shape[0]:
            raise RankDeficient("parity rows are dependent")
        return cls(field, H.null_space(), H)

    # -- encoding / syndromes -------------------------------------------

    def encode(self, u):
        return self.G.mul_vec(check_word(tuple(u), self.k, self.subfield))

    def syndrome(self, word):
        return self._Ht.mul_vec(received(self, word).symbols)

    def contains(self, word) -> bool:
        return not any(self.syndrome(word))

    def decode(self, word, erasures=()) -> DecodeOutcome:
        """Coset-leader decoding through the standard array, built on
        first use.  Erased symbols are read as zeros."""
        if self._array is None:
            self._array = StandardArray(self)
        return self._array.decode(as_received(word, erasures))

    def batch_codec(self):
        """None: complete decoding runs once per trial."""
        return None

    def pivot_inverse(self):
        """(pivots, inv): the pivot columns of G, and the inverse of G
        restricted to them, so u = codeword[pivots] @ inv.  Built on
        first use by eliminating [G | I], which leaves inv where I was;
        works for non-systematic generators too."""
        if self._pivot_solver is None:
            f, n = self.field, self.n
            both = self.G.hstack(MatrixGF.identity(f, self.k))
            rows = [list(row) for row in both.rows]
            pivots, _ = _gauss_jordan(f, rows, n)
            inv = MatrixGF(f, [row[n:] for row in rows])
            self._pivot_solver = (tuple(pivots), inv)
            # a systematic generator's inv: its pivot symbols are u
            self._pivots_are_message = inv == MatrixGF.identity(f, self.k)
        return self._pivot_solver

    def message_of(self, codeword):
        """Invert the encoding: the message u with u G = codeword."""
        return self._message_of(check_word(tuple(codeword), self.n, self.subfield))

    def _message_of(self, codeword):
        # the pivot read of `message_of`, for a codeword a decoder built
        pivots, inv = self.pivot_inverse()
        u = tuple(codeword[p] for p in pivots)
        return u if self._pivots_are_message else inv.mul_vec(u)

    # -- enumeration ------------------------------------------------------

    def messages(self):
        return product(self.field.elements(), repeat=self.k)

    def codewords(self):
        for u in self.messages():
            yield u, self.encode(u)

    def codebook(self):
        """Every codeword, in the order of `messages()`, as the rows of
        a numpy array; built on first use, for at most MAX_ML_CODEWORDS
        codewords.  Row u is the sum of the multiples u_i G_i, so the
        book grows by one generator row at a time."""
        if self._codebook is None:
            import numpy as np

            f = self.field
            if f.q**self.k > MAX_ML_CODEWORDS:
                raise TooLarge("too many codewords to enumerate")
            dtype = np.uint8 if f.q <= 256 else np.uint16
            add = np.bitwise_xor if f.p == 2 else np.frompyfunc(f.add, 2, 1)
            book = np.zeros((1, self.n), dtype)
            for row in self.G.rows:
                multiples = np.array(
                    [[f.mul(a, g) for g in row] for a in f.elements()], dtype
                )
                book = add(book[:, None], multiples).reshape(-1, self.n)
            self._codebook = book.astype(dtype, copy=False)
        return self._codebook

    def min_distance(self) -> int:
        if self._d is None:
            # row 0 is the zero codeword
            self._d = int((self.codebook()[1:] != 0).sum(axis=1).min())
        return self._d

    @property
    def d(self) -> int:
        return self.min_distance()

    # -- derived codes ----------------------------------------------------

    def dual(self) -> "LinearCode":
        return LinearCode(self.field, self.H, self.G)

    def extend(self) -> "LinearCode":
        """Append an overall parity symbol (coordinates sum to zero)."""
        f = self.field
        sums = self.G.transpose().mul_vec((1,) * self.n)
        g_rows = [row + (f.neg(s),) for row, s in zip(self.G.rows, sums)]
        h_rows = [row + (0,) for row in self.H.rows]
        h_rows.append(tuple([1] * (self.n + 1)))
        return LinearCode(f, MatrixGF(f, g_rows), MatrixGF(f, h_rows))

    def shorten(self, columns) -> "LinearCode":
        """Delete parity-matrix columns."""
        columns = sorted(set(columns))
        if any(not 0 <= c < self.n for c in columns) or not columns:
            raise InvalidColumns(f"bad column set {columns}")
        keep = [c for c in range(self.n) if c not in columns]
        h = self.H.select_columns(keep)
        red, pivots = h.rref()
        h = MatrixGF(self.field, red.rows[: len(pivots)])
        return LinearCode.from_parity(self.field, h)

    # -- bounds -----------------------------------------------------------

    def sphere_size(self, radius: int) -> int:
        """V_q(radius): number of words within the given Hamming radius."""
        return sum(
            math.comb(self.n, i) * (self.field.q - 1) ** i
            for i in range(radius + 1)
        )

    def bounds_report(self) -> dict:
        d = self.min_distance()
        t = (d - 1) // 2
        v = self.sphere_size(t)
        q = self.field.q
        return {
            "singleton_met": d == self.n - self.k + 1,
            "hamming_slack": (self.n - self.k) - math.log(v, q),
            "perfect": q ** (self.n - self.k) == v,
        }

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.G == other.G
            and self.H == other.H
        )

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}] over {self.field.spec_string()}"


def linear_view(code, rows=None) -> LinearCode:
    """The LinearCode spanned by `rows`, by default the encoded unit
    messages, over the code's own alphabet: GF(p) when the code's
    symbols are those of the prime field, `code.field` when they are all
    of it, and otherwise the subfield of order p^b as GF(p^b).  That
    field is defined by the minimal polynomial over GF(p) of the
    subfield's primitive element gamma = alpha^((q-1)/(p^b-1)), and the
    symbol gamma^i is written x^i."""
    f, sub = code.field, code.subfield
    if rows is None:
        rows = [code.encode([int(i == j) for i in range(code.k)]) for j in range(code.k)]
    if sub == frozenset(range(f.p)):
        return LinearCode.from_generator(GF(f.p), rows)
    if len(sub) == f.q:
        return LinearCode.from_generator(f, rows)
    step = (f.q - 1) // (len(sub) - 1)
    gamma = minimal_polynomial(f, f.exp(step), f.p)
    small = GF(f.p, gamma.degree, tuple(gamma.coeffs))
    image = {0: 0, **{f.exp(step * i): small.exp(i) for i in range(len(sub) - 1)}}
    return LinearCode.from_generator(small, [[image[a] for a in row] for row in rows])


# ----------------------------------------------------------------------
# Standard arrays.
# ----------------------------------------------------------------------

def _message_key(u):
    return (hamming_weight(u), tuple(u))


def _patterns(f, Ht: MatrixGF, radius: int):
    """Every vector of length n (the rows of Ht) and weight at most
    `radius` with its syndrome, by increasing weight and, within a
    weight, in increasing order of the reversed coordinates: the last
    position is the most significant.

    So a vector of weight w is read as its nonzero (position, symbol)
    pairs, top position first, and the vectors follow in lexicographic
    order of those pairs, which an odometer over the w pairs steps
    through: the lowest pair that can still grow moves to the next
    symbol, or to the next free position with symbol 1, and the pairs
    below it restart at positions w - 2 - i .. 0.  Pair i keeps the
    syndrome of pairs 0 .. i, so a step recomputes those from the pair
    it moved."""
    add = xor if f.p == 2 else f.add
    terms = [[tuple(f.mul(a, y) for y in row) for a in f.elements()]
             for row in Ht.rows]
    n, last = len(Ht.rows), f.q - 1
    zero = (0,) * Ht.shape[1]
    yield (0,) * n, zero
    for w in range(1, min(radius, n) + 1):
        at, symbol, syndrome = list(range(w - 1, -1, -1)), [1] * w, [zero] * w
        moved = 0
        while moved >= 0:
            for i in range(moved, w):
                below = syndrome[i - 1] if i else zero
                syndrome[i] = tuple(map(add, below, terms[at[i]][symbol[i]]))
            v = [0] * n
            for p, a in zip(at, symbol):
                v[p] = a
            yield tuple(v), syndrome[-1]
            moved = w - 1
            while moved >= 0:
                if symbol[moved] < last:
                    symbol[moved] += 1
                    break
                if at[moved] + 1 < (at[moved - 1] if moved else n):
                    at[moved], symbol[moved] = at[moved] + 1, 1
                    break
                moved -= 1
            for i in range(moved + 1, w):
                at[i], symbol[i] = w - 1 - i, 1


class StandardArray:
    """The coset table of a code: one row per syndrome, led by a
    minimum-weight coset leader, columns labelled by messages.

    The leaders are found by Slepian's weight-ordered search: error
    patterns are enumerated one weight at a time, each level in
    increasing order of the reversed coordinates (ties broken from the
    last position backwards, which reproduces the classical textbook
    tables), and the first pattern to reach a syndrome leads its row.
    The search stops once all q^(n-k) syndromes have a leader, or after
    weight n when H is rank-deficient, so it visits only the words
    within the covering radius.  The rows keep that order, code row
    first.  `messages` and the q^n words of `rows` are built on first
    use; decoding reads only the leaders.

    With a `radius` the array is cut there: the search stops after
    weight `radius`, and a syndrome it leaves without a leader leads no
    row, so `decode` declares its words uncorrectable.  That is the
    bounded-distance decoder: a word within the radius of a codeword
    decodes to it, and every other word is detected.  Two patterns
    within the radius that share a syndrome mean the radius exceeds
    (d - 1)/2, and raise InvalidParams.  Such an array holds at most
    q^(n-k) leaders of length n, which is what the size cap counts."""

    def __init__(self, code: LinearCode, radius: int | None = None):
        q, n, k = code.field.q, code.n, code.k
        size = q**n if radius is None else q ** (n - k) * n
        if size > MAX_ARRAY_VECTORS:
            raise TooLarge(f"array size {size} exceeds the standard-array cap")
        if radius is not None and radius < 0:
            raise InvalidParams(f"radius must be >= 0, got {radius}")
        self.code = code
        self.radius = radius
        leaders = {}
        for v, s in _patterns(code.field, code._Ht, n if radius is None else radius):
            if s not in leaders:
                leaders[s] = v
                if radius is None and len(leaders) == q ** (n - k):
                    break
            elif radius is not None:
                raise InvalidParams(f"radius {radius} exceeds (d - 1)/2: "
                                    f"{leaders[s]} and {v} share a syndrome")
        self.syndromes = list(leaders)
        self.leaders = list(leaders.values())
        self._row_of_syndrome = {s: i for i, s in enumerate(self.syndromes)}

    @cached_property
    def messages(self):
        return sorted(self.code.messages(), key=_message_key)

    @cached_property
    def rows(self):
        f = self.code.field
        if f.q**self.code.n > MAX_ARRAY_VECTORS:
            raise TooLarge(f"q^n = {f.q**self.code.n} exceeds standard-array cap")
        code_row = [self.code.encode(u) for u in self.messages]
        return [
            [tuple(f.add(a, b) for a, b in zip(leader, c)) for c in code_row]
            for leader in self.leaders
        ]

    def row_index(self, syndrome) -> int:
        return self._row_of_syndrome[tuple(syndrome)]

    def decode(self, word) -> DecodeOutcome:
        w = as_received(word)
        f = self.code.field
        row = self._row_of_syndrome.get(self.code.syndrome(w))   # checks the word
        if row is None:   # beyond the radius
            return DecodeOutcome.failure()
        leader = self.leaders[row]
        codeword = tuple(f.sub(a, b) for a, b in zip(w.symbols, leader))
        return DecodeOutcome.correction(
            f, w.symbols, codeword, self.code._message_of(codeword)
        )


class PackedMap:
    """A GF(2)-linear map from rows of a symbols to b symbols over
    GF(2^m), read from packed tables: the "Four Russians" lookup
    (Arlazarov, Dinic, Kronrod & Faradzev 1970) in the split-table
    layout of Plank, Greenan & Miller (2013).  `basis[i, c]`, of shape
    (a, m, b), is the image of the symbol 2^c at input position i.

    An input digit is one symbol; for m = 1 it is eight bits, packed by
    `np.packbits(..., bitorder="little")` with the last byte zero-padded.
    Entry [j, v] of the table is the image of digit j holding v alone,
    built by doubling: the entries of v + 2^c are those of v XOR the
    image of bit c.  A row's image is the XOR of one entry per digit.
    An image is packed floor(64/m) symbols to a uint64 lane, low-first:
    output symbol i sits at bit m (i mod floor(64/m)) of lane
    i // floor(64/m), so no symbol straddles two lanes, and a map to no
    symbols keeps one zero lane.  Bit rows are read one gather per
    digit, symbol rows one gather of all digits.  Tables replace matrix
    products because numpy's integer matmul has no BLAS path: a product
    costs a b multiply-adds per row, a table one gather per digit."""

    def __init__(self, basis):
        import numpy as np

        a, m, b = basis.shape
        self.m, self.b = m, b
        per = 64 // m
        lanes = max(1, -(-b // per))
        bits = 8 if m == 1 else m
        # the image of each input bit, packed; a row of bits per digit
        shift = (m * (np.arange(lanes * per) % per)).astype(np.uint64)
        images = np.zeros((-(-a * m // bits) * bits, lanes * per), dtype=np.uint64)
        images[:a * m, :b] = basis.reshape(a * m, b)
        images = np.bitwise_or.reduce((images << shift).reshape(-1, bits, lanes, per), axis=3)
        self.table = np.zeros((len(images), 1 << bits, lanes), dtype=np.uint64)
        for c in range(bits):
            self.table[:, 1 << c:2 << c] = self.table[:, :1 << c] ^ images[:, c, None]
        self.flat = self.table.reshape(-1, lanes)
        self.size = 1 << bits
        self.offset = (np.arange(len(images)) << bits)[:, None]
        self.lane, self.shift = np.arange(b) // per, shift[:b]
        self.mask = np.uint64((1 << m) - 1)

    def __call__(self, rows):
        """The packed images of a (B, a) array of rows: (B, lanes)."""
        import numpy as np

        if self.m > 1:
            return np.bitwise_xor.reduce(self.flat.take(self.offset + rows.T, axis=0), axis=0)
        count, a = rows.shape
        padded = np.zeros((count, len(self.table) * 8), dtype=np.uint8)
        padded[:, :a] = rows
        # packing the flat array is many times faster than along axis 1
        digits = np.packbits(padded.reshape(-1), bitorder="little").reshape(count, -1)
        image = self.table[0].take(digits[:, 0], axis=0)
        for j in range(1, len(self.table)):
            image ^= self.table[j].take(digits[:, j], axis=0)
        return image

    def entries(self, at, values):
        """The images of digit `at` holding `values` alone, a row of lanes
        each; for m > 1 digit `at` is input position `at`."""
        return self.flat.take(at * self.size + values, axis=0)

    def symbols(self, lanes):
        """The b output symbols of each row of packed lanes: (B, b)."""
        import numpy as np

        if self.m == 1:
            bits = np.unpackbits(lanes.view(np.uint8).reshape(-1), bitorder="little")
            return bits.reshape(len(lanes), -1)[:, :self.b]
        return (lanes.take(self.lane, axis=1) >> self.shift) & self.mask


class ArrayCodec:
    """The batch codec of a binary standard array: coset-leader decoding
    of the rows of a numpy array by syndrome -> leader and syndrome ->
    verdict tables.  It rejects the words of `detect_rows` and those a
    radius array leaves without a leader.  It holds numpy tables, not the
    code.

    Its three GF(2)-linear maps, encode (message -> codeword), the
    syndrome and info (codeword -> message), are `PackedMap`s over bits.
    A syndrome of n - k < 64 bits fills one lane, whose value is its
    index in the leader and verdict tables; the leader is XORed into the
    word."""

    def __init__(self, array: StandardArray, detect_rows=()):
        import numpy as np

        code = array.code
        if code.field.q != 2:
            raise TooLarge("the standard-array codec supports binary codes only")
        n, k = code.n, code.k
        pivots, inv = code.pivot_inverse()
        unencode = np.zeros((n, k), dtype=np.uint8)   # u = codeword @ unencode
        unencode[list(pivots)] = inv.rows
        self.enc = PackedMap(np.array(code.G.rows, dtype=np.uint8)[:, None])
        self.unenc = PackedMap(unencode[:, None])
        self.syndrome = PackedMap(
            np.array(code.H.rows, dtype=np.uint8).reshape(n - k, n).T[:, None])
        leaders = np.array(array.leaders, dtype=np.uint8)
        index = self.syndrome(leaders)[:, 0]
        self.leader = np.zeros((1 << (n - k), n), dtype=np.uint8)
        self.ok = np.zeros(1 << (n - k), dtype=bool)
        self.leader[index], self.ok[index] = leaders, True
        detect = index[list(detect_rows)]
        self.ok[detect], self.leader[detect] = False, 0

    def encode(self, messages):
        return self.enc.symbols(self.enc(messages))

    def decode(self, words):
        """(ok, codewords), as `RSCode.decode_batch` returns them."""
        # an int64 index needs no conversion, a uint64 one does
        index = self.syndrome(words)[:, 0].view("int64")
        return self.ok[index], words ^ self.leader.take(index, axis=0)

    def info(self, codewords):
        return self.unenc.symbols(self.unenc(codewords))


_RADIUS_CODECS = weakref.WeakKeyDictionary()


def radius_codec(code):
    """The batch codec of a binary code's own bounded-distance `decode`:
    the ArrayCodec of its `linear_view` cut at its radius, built on the
    first call and kept per code; None over a larger alphabet or beyond
    MAX_ARRAY_VECTORS."""
    codec = _RADIUS_CODECS.get(code)
    n, k = code.n, code.k
    if codec is None and code.subfield == {0, 1} and 2 ** (n - k) * n <= MAX_ARRAY_VECTORS:
        codec = _RADIUS_CODECS[code] = ArrayCodec(StandardArray(linear_view(code),
                                                                code.radius))
    return codec


def ml_decode(code: LinearCode, word):
    """All codewords at minimum Hamming distance over the non-erased
    positions, in message order; more than one entry signals a tie."""
    book = code.codebook()
    w = received(code, word)
    keep = [i for i in range(code.n) if i not in w.erasures]
    dist = (book[:, keep] != [w.symbols[i] for i in keep]).sum(axis=1)
    best_d = int(dist.min())
    best = [tuple(map(int, c)) for c in book[dist == best_d]]
    return best, best_d
