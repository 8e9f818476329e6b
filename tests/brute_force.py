"""Brute-force references kept only for the tests: the encoder search, the
encoder-existence decision without its rank certificate, the two
minimal-recovery-set enumerators, the eager query server and the
column-order canonical-form search the library replaced, and the layered
minimal-set lists built from the definition under the node rule of
`serve_query`."""

from itertools import combinations, combinations_with_replacement, permutations
from math import comb

from pircodes.budget import ensure_budget
from pircodes.errors import UsageError
from pircodes.gf2 import BitMatrix, Code, mask_to_positions, solve_unit, xor_basis_add
from pircodes.recovery import (
    ExplicitEncoder,
    LinearEncoder,
    _explicit_recovers,
    _minimal_masks,
    verify_pir,
)
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


def reference_explicit_minimal_masks(encoder, j, max_width, budget, above=0):
    """The superset-scan enumerator `minimal_recovery_sets` replaced: masks
    in (size, lex) order, supersets of found sets skipped without a node,
    every other mask charged one node and tested by its restriction table.
    With `above`, the sizes up to `above` are enumerated uncharged, for the
    superset skip only, and left out.  Returns (masks, complete)."""
    n = encoder.n
    bits = [1 << (n - p) for p in range(1, n + 1)]
    found = []
    for size in range(1, max_width + 1):
        for combo in combinations(bits, size):
            mask = sum(combo)
            if any((f & mask) == f for f in found):
                continue
            if size > above and not budget.spend():
                return [m for m in found if m.bit_count() > above], False
            if _explicit_recovers(encoder, j, mask):
                found.append(mask)
    return [m for m in found if m.bit_count() > above], True


class EagerSets:
    """Bit j's minimal sets as the eager `serve_query` read them: the whole
    `_minimal_masks` enumeration, charged to `budget` when the list is
    made."""

    def __init__(self, encoder, j, max_width, budget):
        self.masks, self.complete = _minimal_masks(encoder, j, max_width, budget)

    def has(self, idx, budget):
        return idx < len(self.masks)


class ReferenceLayers:
    """Bit j's minimal sets built as they are read, from the definitions,
    under the node rule of `serve_query`.

    Linear layer s spends one node per (s-1)-subset A of positions, in lex
    order, and keeps A + {p} for each later position p when those columns
    sum to e_j and have rank s.  When the next layer would take the lookup
    nodes past 2^(n-k), the per-node coset walk supplies every larger size.
    Explicit layer s is the superset-scan enumeration restricted to size s,
    charged only for that size.  Nothing is charged before the first read,
    so `budget` is unused here."""

    def __init__(self, encoder, j, max_width, budget=None):
        self.encoder, self.j = encoder, j
        n = encoder.n
        self.width = min(n if max_width is None else max_width, n)
        if isinstance(encoder, LinearEncoder):
            self.width = min(self.width, encoder.k)
        self.masks, self.complete, self.size, self.lookup_nodes = [], True, 0, 0

    def has(self, idx, budget):
        encoder = self.encoder
        n, k = encoder.n, encoder.k
        while idx >= len(self.masks) and self.complete and self.size < self.width:
            s = self.size + 1
            if not isinstance(encoder, LinearEncoder):
                masks, self.complete = reference_explicit_minimal_masks(
                    encoder, self.j, s, budget, above=s - 1)
                self.masks += masks
                self.size = s
            elif self.lookup_nodes + comb(n, s - 1) > 1 << (n - k):
                masks, self.complete = reference_linear_minimal_masks(
                    encoder, self.j, self.width, budget)
                self.masks += [m for m in masks if m.bit_count() > self.size]
                self.size = self.width
            else:
                self.lookup_nodes += comb(n, s - 1)
                self._lookup_layer(s, budget)
        return idx < len(self.masks)

    def _lookup_layer(self, s, budget):
        g = self.encoder.generator
        n = g.cols
        unit = 1 << (g.nrows - self.j)
        for a in combinations(range(1, n + 1), s - 1):
            if not budget.spend():
                self.complete = False
                break
            for p in range(a[-1] + 1 if a else 1, n + 1):
                positions = a + (p,)
                mask = sum(1 << (n - q) for q in positions)
                columns = BitMatrix(g.nrows, tuple(g.column(q) for q in positions))
                if g.column_combination(mask) == unit and columns.rank() == s:
                    self.masks.append(mask)
        self.size = s


def reference_serve_query(encoder, requests, w=None, mu=1, budget=None, cache=None,
                          lists=EagerSets):
    """The backtracker `serve_query` replaced, on the eager lists by default
    (`lists=ReferenceLayers` for the layered ones).  Returns (status, sets,
    nodes, backtrack_nodes)."""
    budget = ensure_budget(budget)
    used0 = budget.used
    cache = {} if cache is None else cache
    per_request = []
    for i in requests:
        if i not in cache:
            cache[i] = lists(encoder, i, w, budget)
        per_request.append(cache[i])
    n = encoder.n
    usage = [0] * (n + 1)
    chosen = []
    cut = False
    placed = 0

    def backtrack(r, min_idx):
        nonlocal cut, placed
        if r == len(requests):
            return True
        sets = per_request[r]
        idx = min_idx if r > 0 and requests[r] == requests[r - 1] else 0
        while sets.has(idx, budget):
            positions = mask_to_positions(n, sets.masks[idx])
            if all(usage[p] < mu for p in positions):
                if not budget.spend():
                    cut = True
                    return False
                placed += 1
                for p in positions:
                    usage[p] += 1
                chosen.append(idx)
                if backtrack(r + 1, idx):
                    return True
                chosen.pop()
                for p in positions:
                    usage[p] -= 1
                if cut:
                    return False
            idx += 1
        cut = cut or not sets.complete
        return False

    if backtrack(0, 0):
        plan = [sorted(mask_to_positions(n, per_request[r].masks[chosen[r]]))
                for r in range(len(requests))]
        return "served", plan, budget.used - used0, placed
    status = "unknown" if cut else "unservable"
    return status, None, budget.used - used0, placed


_REASONS = {"unservable": "no serving plan exists", "unknown": "budget exhausted"}


def reference_verify(encoder, prop, t, w=None, mu=1, budget=None):
    """`verify_pir` (prop "pir") or `verify_batch` (prop "batch") on the
    eager server: (verdict, complete, witnesses, failure, backtrack_nodes)."""
    budget = ensure_budget(budget)
    witnesses, placed, cache = [], 0, {}
    if prop == "pir":
        queries = [(j,) * t for j in range(1, encoder.k + 1)]
    else:
        queries = list(combinations_with_replacement(range(1, encoder.k + 1), t))
        w, mu = None, 1
    for query in queries:
        status, plan, _, spent = reference_serve_query(
            encoder, query, w, mu, budget, cache if prop == "batch" else None)
        placed += spent
        key = {"bit": query[0]} if prop == "pir" else {"query": list(query)}
        if status != "served":
            return (False, status == "unservable", witnesses,
                    {**key, "reason": _REASONS[status]}, placed)
        witnesses.append({**key, "sets": plan})
    return True, True, witnesses, None, placed


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
