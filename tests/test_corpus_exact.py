"""corpus._token_blob against the naive oracle.

`tests/naive_corpus.py` holds the loop of two scalar `rng.integers` calls per
token that `_token_blob` replaced with one array-bounded draw. For every seed,
size and token tuple the blob must be the same bytes, and the generator must
be left in the same state, so every later draw of a corpus file is the same
too. That equality rests on numpy drawing array-bounded integers in order
from the same stream as scalar calls, which this test also checks on each
numpy version it runs under.
"""

import numpy as np
import pytest

import naive_corpus
from sievemal.corpus import (
    BENIGN_TOKENS_FUTURE,
    BENIGN_TOKENS_PRESENT,
    MALWARE_TOKENS,
    _token_blob,
)

TOKEN_TUPLES = {
    "benign-present": BENIGN_TOKENS_PRESENT,
    "benign-future": BENIGN_TOKENS_FUTURE,
    "malware": MALWARE_TOKENS,
    "one-token": (b"GetProcAddress",),   # no draw at all for the token index
    "one-byte-token": (b"x", b"kernel32.dll", b"This program cannot"),
}
SEEDS = range(300)


def loop_total(seed, tokens, size):
    """The length of the pieces the oracle's loop draws for `size`, before it
    cuts them to `size`: a size that ends exactly on a piece boundary."""
    rng = np.random.default_rng(seed)
    total = 0
    while total < size:
        total += len(tokens[rng.integers(0, len(tokens))]) + 1 + int(rng.integers(1, 16))
    return total


def assert_same_as_oracle(seed, tokens, size):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    blob = _token_blob(rng, tokens, size)
    assert blob == naive_corpus.token_blob(ref, tokens, size), (seed, size)
    assert len(blob) == max(size, 0)
    assert rng.bit_generator.state == ref.bit_generator.state, (seed, size)
    assert rng.integers(0, 2 ** 63) == ref.integers(0, 2 ** 63), (seed, size)


@pytest.mark.parametrize("name", TOKEN_TUPLES)
def test_token_blob_matches_the_scalar_loop(name):
    tokens = TOKEN_TUPLES[name]
    sizes = np.random.default_rng(len(name)).integers(0, 4001, size=len(SEEDS))
    for seed, size in zip(SEEDS, sizes.tolist()):
        assert_same_as_oracle(seed, tokens, size)
        if seed % 3 == 0:
            assert_same_as_oracle(seed, tokens, loop_total(seed, tokens, size))
        if seed < 20:
            assert_same_as_oracle(seed, tokens, seed % 2)   # sizes 0 and 1
