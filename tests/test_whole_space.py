"""Every batch codec on its whole word space.

The oracle uses neither the codec nor `decode`: it is the codebook from
scalar `encode`, and every word within the radius of a codeword, which
must be that codeword's alone.  A word is an int, symbol i of m bits at
bit m i."""

from itertools import combinations, product

import numpy as np
import pytest

from blockfec import BCHCode, FiniteField, GolayCode, HammingCode, RSCode

CHUNK = 1 << 20


def oracle(code, m):
    """(messages, codebook, target): every message, its codeword, and for
    each word of the space the codeword within the radius, or -1."""
    q, n, t = 1 << m, code.n, code.radius
    messages = np.array(list(product(range(q), repeat=code.k)))
    book = np.array([code.encode(u) for u in messages.tolist()]) @ (1 << m * np.arange(n))
    errors = [sum(v << m * i for i, v in zip(at, values))
              for w in range(t + 1) for at in combinations(range(n), w)
              for values in product(range(1, q), repeat=w)]
    balls = (book[:, None] ^ np.array(errors)).astype(np.int32)
    target = np.full(q ** n, -1, dtype=np.int32)
    target[balls] = book[:, None]
    # no two balls overlap
    assert np.count_nonzero(target >= 0) == balls.size
    return messages, book, target


def check_codec(codec, code, m, decoded):
    """The codec's encode and info on every message, and its decode on
    every word, against the oracle; `decoded` is the number of words
    within the radius of a codeword."""
    n, weights = code.n, 1 << m * np.arange(code.n)
    messages, book, target = oracle(code, m)
    codewords = codec.encode(messages.astype(np.uint8))
    assert (codewords @ weights == book).all()
    assert (codec.info(codewords) == messages).all()
    for start in range(0, len(target), CHUNK):
        index = np.arange(start, min(start + CHUNK, len(target)))
        words = (index[:, None] >> m * np.arange(n) & (1 << m) - 1).astype(np.uint8)
        ok, out = codec.decode(words)
        want = target[index]
        assert (ok == (want >= 0)).all()
        assert (out @ weights == np.where(ok, want, index)).all()
        decoded -= np.count_nonzero(ok)
    assert decoded == 0


def test_rs_codec_on_its_whole_space():
    # RS(7,5) over GF(8), t = 1: 8^5 balls of 50 words; the other 458,752
    # words are detected and come back unchanged
    rs = RSCode(FiniteField(2, 3, (1, 1, 0, 1)), 7, 5)
    check_codec(rs.batch_codec(), rs, 3, decoded=1_638_400)


ARRAY_CODES = {
    # BCH(15,5), t = 3: 14,336 words are detected
    "bch15_5": (lambda: BCHCode(FiniteField(2, 4, (1, 1, 0, 0, 1)), 2, 7), 18_432),
    # perfect codes: every word decodes
    "hamming15": (lambda: HammingCode(4), 1 << 15),
    "golay23": (lambda: GolayCode("G23"), 1 << 23),
}


@pytest.mark.parametrize("name", ARRAY_CODES)
def test_array_codec_on_its_whole_space(name):
    make, decoded = ARRAY_CODES[name]
    code = make()
    check_codec(code.batch_codec(), code, 1, decoded)
