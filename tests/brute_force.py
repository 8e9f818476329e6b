"""Brute-force references kept only for the tests: the encoder search and
the two minimal-recovery-set enumerators the library replaced."""

from itertools import combinations, permutations

from pircodes.errors import UsageError
from pircodes.gf2 import Code, solve_unit, xor_basis_add
from pircodes.recovery import ExplicitEncoder, _explicit_recovers, verify_pir


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


def reference_linear_minimal_masks(encoder, j, max_width, budget):
    """The per-node coset walk `minimal_recovery_sets` replaced: one
    `budget.spend()` per coset element, in `UnitSolution.all_solutions`
    order, each support within the width kept when a full basis reduction
    of its columns finds them independent.  Returns (masks, complete)."""
    g = encoder.generator
    sol = solve_unit(g, j)
    n = g.cols
    column_of_bit = [g.column(n - b) for b in range(n)]
    width = min(max_width, g.nrows)
    minimal = []
    complete = True
    for mask in sol.all_solutions():
        if not budget.spend():
            complete = False
            break
        if mask.bit_count() > width:
            continue
        basis = {}
        if all(xor_basis_add(basis, column_of_bit[b])
               for b in range(n) if mask >> b & 1):
            minimal.append(mask)
    minimal.sort(key=lambda m: (m.bit_count(), -m))
    return minimal, complete


def reference_explicit_minimal_masks(encoder, j, max_width, budget):
    """The superset-scan enumerator `minimal_recovery_sets` replaced: masks
    in (size, lex) order, supersets of found sets skipped without a node,
    every other mask charged one node and tested by its restriction table.
    Returns (masks, complete)."""
    n = encoder.n
    bits = [1 << (n - p) for p in range(1, n + 1)]
    found = []
    for size in range(1, max_width + 1):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if any((f & mask) == f for f in found):
                continue
            if not budget.spend():
                return found, False
            if _explicit_recovers(encoder, j, mask):
                found.append(mask)
    return found, True
