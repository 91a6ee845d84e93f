import pytest

from blockfec import FiniteField


@pytest.fixture(scope="session")
def gf2():
    return FiniteField(2)


@pytest.fixture(scope="session")
def gf8():
    return FiniteField(2, 3, (1, 1, 0, 1))


@pytest.fixture(scope="session")
def gf16():
    return FiniteField(2, 4, (1, 1, 0, 0, 1))


@pytest.fixture(scope="session")
def gf9():
    return FiniteField(3, 2, (2, 1, 1))


@pytest.fixture(scope="session")
def gf11():
    return FiniteField(11)


def bits(s: str):
    return tuple(int(c) for c in s if c in "01")


@pytest.fixture
def codec_calls(monkeypatch):
    """The batches that a batch codec decoded, one class name each: empty
    after a `monte_carlo` call that ran its decoder on the per-trial loop."""
    from blockfec.linear import ArrayCodec
    from blockfec.reed_solomon import BatchCoder

    calls = []
    for cls in (ArrayCodec, BatchCoder):
        def counted(self, words, decode=cls.decode):
            calls.append(type(self).__name__)
            return decode(self, words)
        monkeypatch.setattr(cls, "decode", counted)
    return calls
