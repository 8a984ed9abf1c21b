"""Reference token-blob generator used as the exactness oracle.

Deliberately plain: two scalar `rng.integers` calls per token, one for the
token index and one for the pad length, until the blob reaches its size. This
is the loop that `sievemal.corpus._token_blob` replaced with one
array-bounded draw; the new code must give the same bytes and leave the
generator at the same state.
"""


def token_blob(rng, tokens, size: int) -> bytes:
    parts = []
    total = 0
    while total < size:
        tok = tokens[rng.integers(0, len(tokens))]
        parts.append(tok + b"\x00")
        total += len(tok) + 1
        # low-entropy filler between strings
        pad = bytes([0x20]) * int(rng.integers(1, 16))
        parts.append(pad)
        total += len(pad)
    return b"".join(parts)[:size]
