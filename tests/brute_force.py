"""Brute-force encoder search, kept only as a reference for the tests."""

from itertools import permutations

from pircodes.errors import UsageError
from pircodes.gf2 import Code
from pircodes.recovery import ExplicitEncoder, verify_pir


def brute_force_encoder_search(code: Code, t: int = 3) -> ExplicitEncoder | None:
    """Try all |C|! encoders onto the code; first one passing the exact
    availability check wins.  Only feasible for tiny codes."""
    k = code.dimension()
    if k is None or k < 1:
        raise UsageError("code size must be a power of two, at least 2")
    if code.size > 8:
        raise UsageError("brute force is capped at 8 codewords")
    for table in permutations(code.values):
        encoder = ExplicitEncoder(k, code.n, table)
        if verify_pir(encoder, t, mu=1).verdict:
            return encoder
    return None
