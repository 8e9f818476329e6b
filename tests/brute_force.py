"""Brute-force references kept only for the tests: the encoder search, the
encoder-existence decision without its rank certificate, the two
minimal-recovery-set enumerators and the column-order canonical-form search
the library replaced."""

from itertools import combinations, permutations

from pircodes.errors import UsageError
from pircodes.gf2 import Code, solve_unit, xor_basis_add
from pircodes.recovery import ExplicitEncoder, _explicit_recovers, verify_pir
from pircodes.search import recoverable_functions


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


def reference_encoder_status(code: Code) -> str:
    """found / none / unknown for a 3-availability encoder by plain search:
    every candidate function of `recoverable_functions`, then every k of
    them tried for a one-to-one joint map.  Unknown when a partition had too
    many components to list its functions."""
    k = code.dimension()
    index = {v: i for i, v in enumerate(code.values)}
    candidates = set()
    truncated = False
    for triple in recoverable_functions(code):
        truncated |= triple.truncated
        for coloring in triple.colorings:
            candidates.add(sum(1 << index[v] for v in coloring))
    for choice in combinations(sorted(candidates), k):
        labels = {sum(((f >> i) & 1) << b for b, f in enumerate(choice))
                  for i in range(code.size)}
        if len(labels) == code.size:
            return "found"
    return "unknown" if truncated else "none"


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


def reference_min_form_search(values, n, stop_below):
    """The column-order DFS `search._min_form_search` replaced; returns
    (smaller_found, best_form) for an ascending tuple of words.

    It places one column per level, branching once per distinct column
    vector (equal columns give equal subtrees).  A branch whose zero-padded
    sorted prefixes compare >= the incumbent is cut; with stop_below, a
    branch whose one-padded prefixes are already below it certifies a
    smaller form."""
    m = len(values)
    cols = [tuple((v >> (n - 1 - j)) & 1 for v in values) for j in range(n)]
    best = list(values)
    found_smaller = False

    def rec(remaining, pref, d):
        nonlocal found_smaller, best
        branches = []
        seen = set()
        for c in remaining:
            col = cols[c]
            if col in seen:
                continue
            seen.add(col)
            new = [(pref[i] << 1) | col[i] for i in range(m)]
            branches.append((sorted(new), new, c))
        branches.sort(key=lambda b: b[0])
        d1 = d + 1
        shift = n - d1
        for srt, new, c in branches:
            cmp_lo = 0
            for i in range(m):
                lo = srt[i] << shift
                if lo != best[i]:
                    cmp_lo = -1 if lo < best[i] else 1
                    break
            if cmp_lo >= 0:
                continue
            if d1 == n:
                best = list(srt)
                found_smaller = True
                if stop_below:
                    return True
                continue
            if stop_below:
                ones = (1 << shift) - 1
                below = False
                for i in range(m):
                    hi = (srt[i] << shift) | ones
                    if hi != best[i]:
                        below = hi < best[i]
                        break
                if below:
                    found_smaller = True
                    return True
            if rec(tuple(x for x in remaining if x != c), new, d1):
                return True
        return False

    rec(tuple(range(n)), [0] * m, 0)
    return found_smaller, tuple(best)
