"""Recovery-set semantics and exact availability verifiers.

An encoder maps k data bits one-to-one onto n-bit codewords, either through
a full-row-rank generator matrix or through an explicit table.  A position
set I is a recovery set for data bit j when the restriction of any codeword
to I determines that bit.  On top of that single notion this module builds:
minimal-set enumeration, disjoint families, query serving with width and
multiplicity accounting, and full PIR / batch verification with re-checkable
witness reports.

Verdicts are three-valued everywhere a budget is involved: a property is
only reported as proven (or refuted) when the underlying enumeration was
complete; otherwise the result is flagged "unknown".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, islice
from math import comb
from typing import Iterable, Mapping, Sequence

from .budget import Budget, ensure_budget
from .errors import FileFormatError, UsageError
from .gf2 import (
    BitMatrix,
    Code,
    LinearCode,
    mask_to_positions,
    positions_to_mask,
    solve_unit,
    xor_basis_add,
)

__all__ = [
    "Encoder",
    "LinearEncoder",
    "ExplicitEncoder",
    "RecoveryFamily",
    "Query",
    "ServingPlan",
    "MinimalSetsResult",
    "FamilyResult",
    "ServeResult",
    "VerifyReport",
    "is_recovery_set",
    "minimal_recovery_sets",
    "find_disjoint_family",
    "serve_query",
    "verify_pir",
    "verify_batch",
    "check_family",
    "as_explicit",
    "read_encoder",
    "write_encoder",
    "parse_encoder",
    "dump_encoder",
]

FOUND = "found"
IMPOSSIBLE = "impossible"
UNKNOWN = "unknown"
SERVED = "served"
UNSERVABLE = "unservable"


class Encoder:
    """Shared surface of the two encoder variants (k, n, encode, code)."""

    k: int
    n: int

    def encode(self, data: int) -> int:
        raise NotImplementedError

    def associated_code(self) -> Code:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearEncoder(LinearCode, Encoder):
    """The encoder view of a linear code: data word a maps to a·G."""

    def encode(self, data: int) -> int:
        return self.generator.encode(data)

    def associated_code(self) -> Code:
        return self.span()


@dataclass(frozen=True)
class ExplicitEncoder(Encoder):
    """Bijective table from all 2^k data words onto distinct codewords.

    `codewords[a]` is the image of data word a (integers with data bit 1
    most significant).
    """

    k: int
    n: int
    codewords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise UsageError("encoder needs k >= 1 and n >= 1")
        if len(self.codewords) != 1 << self.k:
            raise UsageError(f"table must list all {1 << self.k} data words")
        seen = set()
        for c in self.codewords:
            if not 0 <= c < (1 << self.n):
                raise UsageError("codeword does not fit the declared length")
            if c in seen:
                raise UsageError("encoder table must be one-to-one")
            seen.add(c)

    def encode(self, data: int) -> int:
        if not 0 <= data < (1 << self.k):
            raise UsageError(f"data word {data} does not fit in {self.k} bits")
        return self.codewords[data]

    def decode(self, codeword: int) -> int:
        try:
            return self._inverse()[codeword]
        except KeyError:
            raise UsageError("word is not in the associated code") from None

    def _inverse(self) -> dict[int, int]:
        inv = getattr(self, "_inv_cache", None)
        if inv is None:
            inv = {c: a for a, c in enumerate(self.codewords)}
            object.__setattr__(self, "_inv_cache", inv)
        return inv

    def associated_code(self) -> Code:
        return Code.from_values(self.n, self.codewords)


def as_explicit(encoder: Encoder) -> ExplicitEncoder:
    """Tabulate a linear encoder (identity on explicit ones)."""
    if isinstance(encoder, ExplicitEncoder):
        return encoder
    table = tuple(encoder.encode(a) for a in range(1 << encoder.k))
    return ExplicitEncoder(encoder.k, encoder.n, table)


@dataclass(frozen=True)
class RecoveryFamily:
    """Pairwise disjoint recovery sets for one data bit."""

    bit: int
    sets: tuple[frozenset[int], ...]

    @property
    def t(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class Query:
    """Requested data indices, repeats allowed."""

    requests: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise UsageError("query must request at least one symbol")

    @property
    def t(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class ServingPlan:
    """One position set per request, with width/multiplicity accounting."""

    sets: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max(len(s) for s in self.sets)

    @property
    def multiplicity(self) -> int:
        counts: dict[int, int] = {}
        for s in self.sets:
            for p in s:
                counts[p] = counts.get(p, 0) + 1
        return max(counts.values()) if counts else 0


def _check_indices(encoder: Encoder, j: int, positions: Iterable[int]) -> frozenset[int]:
    if not 1 <= j <= encoder.k:
        raise UsageError(f"data index {j} out of range 1..{encoder.k}")
    pos = frozenset(positions)
    if not pos:
        raise UsageError("recovery set must be nonempty")
    for p in pos:
        if not 1 <= p <= encoder.n:
            raise UsageError(f"position {p} out of range 1..{encoder.n}")
    return pos


def is_recovery_set(encoder: Encoder, j: int, positions: Iterable[int]) -> bool:
    """Does the restriction to these positions determine data bit j?"""
    pos = _check_indices(encoder, j, positions)
    if isinstance(encoder, LinearEncoder):
        return _linear_recovers(encoder.generator, j, positions_to_mask(encoder.n, pos))
    return _explicit_recovers(encoder, j, positions_to_mask(encoder.n, pos))


def _linear_recovers(g: BitMatrix, j: int, mask: int) -> bool:
    """e_j in the span of the columns selected by `mask` (basis reduction)."""
    basis: dict[int, int] = {}
    for p in mask_to_positions(g.cols, mask):
        xor_basis_add(basis, g.column(p))
    return not xor_basis_add(basis, 1 << (g.nrows - j))


def _explicit_recovers(encoder: ExplicitEncoder, j: int, mask: int) -> bool:
    jbit = 1 << (encoder.k - j)
    seen: dict[int, int] = {}
    for a, c in enumerate(encoder.codewords):
        key = c & mask
        bit = 1 if a & jbit else 0
        prev = seen.get(key)
        if prev is None:
            seen[key] = bit
        elif prev != bit:
            return False
    return True


@dataclass(frozen=True)
class MinimalSetsResult:
    sets: tuple[frozenset[int], ...]
    complete: bool
    nodes: int


def minimal_recovery_sets(
    encoder: Encoder,
    j: int,
    max_width: int | None = None,
    budget: Budget | int | None = None,
) -> MinimalSetsResult:
    """All inclusion-minimal recovery sets of size <= max_width for bit j,
    ordered by (size, positions).

    Linear encoders walk the solution coset of G.x = e_j in Gray order and
    keep a support S exactly when the columns of G indexed by S are linearly
    independent.  That is the minimality test: dependent columns give a
    nonzero kernel vector z inside S, and x + z is a solution with smaller
    support (z != x because G.x != 0); conversely a smaller recovery set
    inside S is the support of a solution y, and x + y is a nonzero kernel
    vector inside S.  So no minimal set has more than k positions, and a
    walk cut by the budget still returns only true minimal sets.  The test
    runs in systematic form: each kernel vector is one free column q plus
    pivot columns a_q, so a kernel vector lies inside S exactly when some
    nonempty set of free columns of S has pivot parts summing to zero
    outside S.  The columns of S are thus independent iff the vectors
    a_q & ~S over the free columns q of S are; a support with no free
    column passes at once.  The walk charges the budget once for all the
    elements it can afford.

    Explicit encoders test subsets in (size, lex) order.  S recovers bit j
    iff it meets the support of c_a ^ c_b for all data words a, b that
    differ in bit j, i.e. iff S is a transversal of the inclusion-minimal
    such supports.  A transversal S is minimal iff every position p of S
    has a private hit, a support that meets S only in p, since otherwise
    S - {p} is still a transversal.  A transversal that is not minimal
    contains a smaller minimal one, which the (size, lex) order has already
    found; so the masks skipped without spending a node are exactly the
    supersets of found sets.  Each size thus spends its nodes whatever the
    smaller sizes found, which lets `serve_query` build an explicit list one
    size at a time at these same nodes.  The completeness flag drops when
    the node budget runs out.
    """
    budget = ensure_budget(budget)
    used0 = budget.used
    masks, complete = _minimal_masks(encoder, j, max_width, budget)
    n = encoder.n
    sets = tuple(frozenset(mask_to_positions(n, m)) for m in masks)
    return MinimalSetsResult(sets, complete, budget.used - used0)


def _minimal_masks(
    encoder: Encoder, j: int, max_width: int | None, budget: Budget
) -> tuple[list[int], bool]:
    """`minimal_recovery_sets` as position masks, plus the completeness flag."""
    max_width = _checked_width(encoder, j, max_width)
    if isinstance(encoder, LinearEncoder):
        return _linear_minimal_masks(encoder, j, max_width, budget)
    return _explicit_minimal_masks(encoder, j, max_width, budget)


def _checked_width(encoder: Encoder, j: int, max_width: int | None) -> int:
    """The width cap for bit j, `n` when there is none; raise if either is bad."""
    _check_indices(encoder, j, [1])
    if max_width is None:
        return encoder.n
    if max_width < 1:
        raise UsageError("max_width must be >= 1")
    return max_width


def _charge(budget: Budget, cost: int) -> int:
    """Spend up to `cost` nodes in one charge and return how many were spent.
    A short charge also records a refusal, so the budget reads exhausted, as
    it would after spending one node at a time until the first refusal."""
    room = cost if budget.limit is None else min(cost, max(0, budget.limit - budget.used))
    budget.spend(room)
    if room < cost:
        budget.spend()
    return room


def _linear_minimal_masks(
    encoder: LinearEncoder, j: int, max_width: int, budget: Budget, above: int = 0
) -> tuple[list[int], bool]:
    """The coset walk, keeping only the minimal sets of more than `above`
    positions (the walk and its node charge are the same at every `above`)."""
    sol = solve_unit(encoder.generator, j)
    assert sol.solvable  # full row rank keeps every unit vector reachable
    width = min(max_width, encoder.k)  # independent columns number at most k
    pivots = sol.pivots
    kernel = sol.kernel
    # pivot_part[b] = a_q, the pivot columns of the kernel vector whose free
    # column q is bit b.
    pivot_part = [0] * encoder.n
    for z in kernel:
        pivot_part[(z & ~pivots).bit_length() - 1] = z & pivots
    size = 1 << len(kernel)
    room = _charge(budget, size)
    minimal: list[int] = []
    for x in islice(sol.all_solutions(), room):
        if not above < x.bit_count() <= width:
            continue
        basis: dict[int, int] = {}
        outside = ~x
        rest = x & ~pivots
        while rest:
            low = rest & -rest
            rest ^= low
            if not xor_basis_add(basis, pivot_part[low.bit_length() - 1] & outside):
                break  # a kernel vector lies inside x: the support is not minimal
        else:
            minimal.append(x)
    # Position 1 is the top bit, so for equal sizes a larger mask comes
    # first in lexicographic order of positions.
    minimal.sort(key=lambda m: (m.bit_count(), -m))
    return minimal, room == size


def _explicit_minimal_masks(
    encoder: ExplicitEncoder, j: int, max_width: int, budget: Budget, above: int = 0
) -> tuple[list[int], bool]:
    """The subset test over the sizes from above + 1 to `max_width`.  A mask
    is skipped without a node by its own private hits, not by the sets of
    smaller sizes, so each size spends the same nodes at every `above`.
    The nodes are counted here and charged once, at the end or at the cut."""
    n = encoder.n
    edges = _separating_supports(encoder, j)
    bits = [1 << (n - p) for p in range(1, n + 1)]
    found: list[int] = []
    room = None if budget.limit is None else max(0, budget.limit - budget.used)
    spent = 0
    for size in range(above + 1, max_width + 1):
        for combo in combinations(bits, size):
            mask = sum(combo)
            private = 0  # positions that are the only hit of some edge
            for e in edges:
                hit = e & mask
                if not hit:
                    keep = False  # misses an edge: not a recovery set
                    break
                if not hit & (hit - 1):
                    private |= hit
            else:
                if private != mask:
                    continue  # a non-minimal transversal contains a found set
                keep = True
            if spent == room:
                _charge(budget, spent + 1)  # spends the room, records the refusal
                return found, False
            spent += 1
            if keep:
                found.append(mask)
    if spent:
        budget.spend(spent)
    return found, True


def _separating_supports(encoder: ExplicitEncoder, j: int) -> tuple[int, ...]:
    """Inclusion-minimal supports of c_a ^ c_b over data words a, b that
    differ in bit j, fewest positions first; built once per encoder and bit.

    All 4^(k-1) pairs are XORed whatever the width, so at widths 1 and 2 on
    tables with k >= 8 it costs more than testing each subset's restriction
    table would."""
    cache = getattr(encoder, "_supports_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(encoder, "_supports_cache", cache)
    edges = cache.get(j)
    if edges is None:
        jbit = 1 << (encoder.k - j)
        ones = [c for a, c in enumerate(encoder.codewords) if a & jbit]
        zeros = [c for a, c in enumerate(encoder.codewords) if not a & jbit]
        kept: list[int] = []
        for d in sorted({c ^ z for c in ones for z in zeros}, key=int.bit_count):
            if not any(e & d == e for e in kept):
                kept.append(d)
        edges = cache[j] = tuple(kept)
    return edges


@dataclass(frozen=True)
class FamilyResult:
    status: str  # found | impossible | unknown
    family: RecoveryFamily | None
    nodes: int


def check_family(encoder: Encoder, family: RecoveryFamily) -> None:
    """Re-validate a family: disjointness plus per-set recovery; raise if bad."""
    sets = family.sets
    ok, why = _check_witness_sets(encoder, family.bit, sets, len(sets), None, 1)
    if not ok:
        raise UsageError(f"family for bit {family.bit}: {why}")


def find_disjoint_family(
    encoder: Encoder,
    j: int,
    t: int,
    max_width: int | None = None,
    budget: Budget | int | None = None,
) -> FamilyResult:
    """Search for t pairwise disjoint recovery sets for bit j: the constant
    query (j repeated t times) served with multiplicity 1.

    "impossible" is only reported when the minimal-set enumeration was
    complete and the backtracking exhausted every branch within budget.
    """
    if t < 1:
        raise UsageError("t must be >= 1")
    res = serve_query(encoder, Query((j,) * t), max_width, 1, budget)
    if res.status == SERVED:
        family = RecoveryFamily(j, res.plan.sets)
        check_family(encoder, family)
        return FamilyResult(FOUND, family, res.nodes)
    return FamilyResult(IMPOSSIBLE if res.status == UNSERVABLE else UNKNOWN, None, res.nodes)


def _column_index(encoder: LinearEncoder) -> tuple[list[int], dict[int, list[int]]]:
    """The generator's columns (0-based) and, per column value, the indices
    holding it in ascending order; built once per encoder."""
    index = getattr(encoder, "_column_cache", None)
    if index is None:
        columns = [encoder.generator.column(p) for p in range(1, encoder.n + 1)]
        where: dict[int, list[int]] = {}
        for i, c in enumerate(columns):
            where.setdefault(c, []).append(i)
        index = (columns, where)
        object.__setattr__(encoder, "_column_cache", index)
    return index


class _LazySets:
    """The minimal recovery sets of bit j, in the (size, positions) order of
    `minimal_recovery_sets`, built one size layer at a time as the
    backtracker reads them, under the node rule of `serve_query`.

    A linear lookup layer keeps A + {p}, whose columns sum to e_j, when its
    columns are independent, i.e. when the columns of A and e_j are; each A
    yields its later positions p in order, so the layer comes out in lex
    order.  An explicit layer s is `_explicit_minimal_masks` on size s
    alone.  A layer the budget cuts ends the list with `complete` False.
    """

    def __init__(self, encoder: Encoder, j: int, max_width: int | None) -> None:
        self.encoder = encoder
        self.j = j
        self.masks: list[int] = []
        self.complete = True  # no layer was cut by the budget
        self.size = 0  # the sets of at most this many positions are built
        self.width = min(_checked_width(encoder, j, max_width), encoder.n)
        self.linear = isinstance(encoder, LinearEncoder)
        if self.linear:
            self.width = min(self.width, encoder.k)  # independent columns
            self.lookup_nodes = 0
            self.columns, self.where = _column_index(encoder)
            self.unit = 1 << (encoder.k - j)
            # (e_j + the columns of A, last index of A, mask of A) for the
            # subsets A of the last layer walked (the next one, at first).
            self.subsets = [(self.unit, -1, 0)]

    def has(self, idx: int, budget: Budget) -> bool:
        """Is there an idx-th set?  Builds layers until there is one or none
        is left to build (all built, or a layer was cut)."""
        while idx >= len(self.masks) and self.complete and self.size < self.width:
            if self.linear:
                self._grow_linear(budget)
            else:
                self._grow_explicit(budget)
        return idx < len(self.masks)

    def _grow_explicit(self, budget: Budget) -> None:
        layer, self.complete = _explicit_minimal_masks(
            self.encoder, self.j, self.size + 1, budget, above=self.size)
        self.masks.extend(layer)
        self.size += 1

    def _grow_linear(self, budget: Budget) -> None:
        n, k = self.encoder.n, self.encoder.k
        cost = comb(n, self.size)  # the subsets A of the next layer
        if self.lookup_nodes + cost > 1 << (n - k):
            layer, self.complete = _linear_minimal_masks(
                self.encoder, self.j, self.width, budget, above=self.size)
            self.masks.extend(layer)
            self.size = self.width
            return
        columns, where = self.columns, self.where
        if self.size:
            self.subsets = [(target ^ columns[q], q, mask | 1 << (n - 1 - q))
                            for target, last, mask in self.subsets
                            for q in range(last + 1, n)]
        self.lookup_nodes += cost
        room = _charge(budget, cost)
        for target, last, mask in islice(self.subsets, room):
            hits = where.get(target)
            if hits is None or hits[-1] <= last or not self._independent_off_unit(mask):
                continue
            self.masks.extend(mask | 1 << (n - 1 - p) for p in hits if p > last)
        self.size += 1
        self.complete = room == cost

    def _independent_off_unit(self, mask: int) -> bool:
        """Are the columns of `mask` and e_j independent together?"""
        n = self.encoder.n
        basis: dict[int, int] = {}
        m = mask
        while m:
            low = m & -m
            m ^= low
            if not xor_basis_add(basis, self.columns[n - low.bit_length()]):
                return False
        return xor_basis_add(basis, self.unit)


@dataclass(frozen=True)
class ServeResult:
    status: str  # served | unservable | unknown
    plan: ServingPlan | None
    nodes: int  # set_nodes + backtrack_nodes
    set_nodes: int  # spent building the minimal-set lists
    backtrack_nodes: int  # one per set placed by the backtracker


def serve_query(
    encoder: Encoder,
    query: Query,
    w: int | None = None,
    mu: int = 1,
    budget: Budget | int | None = None,
    _set_cache: dict | None = None,
) -> ServeResult:
    """Assign one recovery set per request, respecting width and multiplicity.

    Minimal sets suffice: any serving plan shrinks to one that uses only
    inclusion-minimal sets without raising width or multiplicity.  The
    backtracker reads each requested bit's minimal sets in (size, positions)
    order from a list built lazily, one size layer at a time, only when it
    reads past what is built.  Linear layer s costs one node per
    (s-1)-subset A of positions: each later position whose column is e_j
    plus the columns of A closes a set whose columns sum to e_j, kept when
    they are independent.  Once the next layer would take these lookup
    nodes past the coset size 2^(n-k), the coset walk of
    `minimal_recovery_sets` supplies every larger size at once, so reading
    a list to its end costs at most twice the walk's nodes.  Explicit layer
    s costs the nodes `minimal_recovery_sets` spends on size s, so an
    explicit list read to its end costs what the enumeration does.  Each
    set the backtracker places costs one more node.  A set fits when it
    misses `full`, the mask of positions already used mu times; at mu = 1
    that is every position in use, so placing and removing a set is one
    XOR.  A plan comes out the same as from the eager enumeration;
    "unservable" needs every list read to its end uncut.
    """
    if mu < 1:
        raise UsageError("multiplicity cap must be >= 1")
    for i in query.requests:
        if not 1 <= i <= encoder.k:
            raise UsageError(f"requested index {i} out of range 1..{encoder.k}")
    budget = ensure_budget(budget)
    used0 = budget.used
    cache = _set_cache if _set_cache is not None else {}
    per_request: list[_LazySets] = []
    n = encoder.n
    requests = query.requests
    for i in requests:
        if i not in cache:
            cache[i] = _LazySets(encoder, i, w)
        per_request.append(cache[i])

    full = 0  # the positions already used mu times
    usage = [0] * (n + 1)  # per position bit (by bit_length), when mu > 1
    chosen: list[int] = []
    cut = False
    placed = 0

    def apply(mask: int, delta: int) -> None:
        nonlocal full
        m = mask
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length()
            usage[b] += delta
            if usage[b] == mu:
                full |= low
            else:
                full &= ~low

    def backtrack(r: int, min_idx: int) -> bool:
        nonlocal cut, placed, full
        if r == len(requests):
            return True
        sets = per_request[r]
        masks = sets.masks
        # Requests for the same bit are interchangeable: force nondecreasing
        # candidate indices across equal consecutive requests.
        idx = min_idx if r > 0 and requests[r] == requests[r - 1] else 0
        while idx < len(masks) or sets.has(idx, budget):
            mask = masks[idx]
            if not mask & full:
                if not budget.spend():
                    cut = True
                    return False
                placed += 1
                if mu == 1:
                    full ^= mask
                else:
                    apply(mask, 1)
                chosen.append(idx)
                if backtrack(r + 1, idx):
                    return True
                chosen.pop()
                if mu == 1:
                    full ^= mask
                else:
                    apply(mask, -1)
                if cut:
                    return False
            idx += 1
        if not sets.complete:
            cut = True  # the list was cut short: nothing is proven
        return False

    served = backtrack(0, 0)
    nodes = budget.used - used0
    if served:
        sets = tuple(frozenset(mask_to_positions(n, per_request[r].masks[chosen[r]]))
                     for r in range(len(requests)))
        return ServeResult(SERVED, ServingPlan(sets), nodes, nodes - placed, placed)
    return ServeResult(UNKNOWN if cut else UNSERVABLE, None, nodes, nodes - placed, placed)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """Re-checkable verdict for a PIR or batch property."""

    property: str  # "pir" | "batch"
    t: int
    w: int | None
    mu: int
    verdict: bool
    complete: bool
    witnesses: list[dict]
    nodes: int  # set_nodes + backtrack_nodes
    set_nodes: int  # spent building the minimal-set lists
    backtrack_nodes: int  # one per set placed by the backtracker
    elapsed: float
    failure: dict | None = None

    def to_jsonable(self) -> dict:
        return {
            "property": self.property,
            "parameters": {"t": self.t, "w": self.w, "mu": self.mu},
            "verdict": self.verdict,
            "complete": self.complete,
            "witnesses": self.witnesses,
            "statistics": {"nodes": self.nodes, "set_nodes": self.set_nodes,
                           "backtrack_nodes": self.backtrack_nodes,
                           "elapsed": self.elapsed},
            "failure": self.failure,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def _witness_entry(bit: int, sets: Sequence[frozenset[int]]) -> dict:
    return {"bit": bit, "sets": [sorted(s) for s in sets]}


_FAILURE_REASONS = {UNSERVABLE: "no serving plan exists", UNKNOWN: "budget exhausted"}


def _report(
    head: tuple, witnesses: list[dict], spent: list[int], start: float,
    failure: dict | None = None, complete: bool = True,
) -> VerifyReport:
    """A verify report for `head` = (property, t, w, mu) and `spent` =
    [set nodes, backtrack nodes]; the verdict holds exactly when nothing
    failed."""
    return VerifyReport(*head, failure is None, complete, witnesses, sum(spent), *spent,
                        time.monotonic() - start, failure)


def verify_pir(
    encoder: Encoder,
    t: int,
    w: int | None = None,
    mu: int = 1,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None = None,
    budget: Budget | int | None = None,
) -> VerifyReport:
    """Check the constant query (j repeated t times) for every data bit j.

    When witnesses are supplied the check is membership + overlap accounting
    only; otherwise each bit is served by `serve_query`, which reads the
    bit's minimal sets from a list built lazily, one size at a time.  A
    linear layer s costs one node per (s-1)-subset A, and keeps each
    A + {p} whose columns sum to e_j and are independent; past 2^(n-k)
    lookup nodes the coset walk builds the rest, so a bit costs at most
    twice the walk's nodes plus one node per set placed.  An explicit layer
    costs what `minimal_recovery_sets` spends on its size.  `statistics`
    splits `nodes` into
    `set_nodes` (building the lists) and `backtrack_nodes` (sets placed).
    """
    if t < 1:
        raise UsageError("t must be >= 1")
    if mu < 1:
        raise UsageError("multiplicity cap must be >= 1")
    if w is not None and w < 1:
        raise UsageError("max_width must be >= 1")
    budget = ensure_budget(budget)
    start = time.monotonic()
    head = ("pir", t, w, mu)
    out: list[dict] = []
    spent = [0, 0]
    for j in range(1, encoder.k + 1):
        if witnesses is not None and j in witnesses:
            sets = [frozenset(s) for s in witnesses[j]]
            ok, why = _check_witness_sets(encoder, j, sets, t, w, mu)
            if not ok:
                return _report(head, out, spent, start, {"bit": j, "reason": why})
            out.append(_witness_entry(j, sets))
            continue
        res = serve_query(encoder, Query((j,) * t), w, mu, budget)
        spent[0] += res.set_nodes
        spent[1] += res.backtrack_nodes
        if res.status != SERVED:
            return _report(head, out, spent, start,
                           {"bit": j, "reason": _FAILURE_REASONS[res.status]},
                           complete=res.status == UNSERVABLE)
        out.append(_witness_entry(j, res.plan.sets))
    return _report(head, out, spent, start)


def _check_witness_sets(
    encoder: Encoder,
    j: int,
    sets: Sequence[frozenset[int]],
    t: int,
    w: int | None,
    mu: int,
) -> tuple[bool, str]:
    if len(sets) < t:
        return False, f"only {len(sets)} witness sets, need {t}"
    sets = sets[:t]
    counts: dict[int, int] = {}
    for s in sets:
        if w is not None and len(s) > w:
            return False, f"set {sorted(s)} exceeds width {w}"
        for p in s:
            counts[p] = counts.get(p, 0) + 1
            if counts[p] > mu:
                return False, f"position {p} used more than {mu} times"
        if not is_recovery_set(encoder, j, s):
            return False, f"set {sorted(s)} does not recover bit {j}"
    return True, ""


def verify_batch(
    encoder: Encoder,
    t: int,
    budget: Budget | int | None = None,
) -> VerifyReport:
    """Serve every multiset of t requests with multiplicity 1, unbounded width.

    The queries share each bit's lazily built list of minimal sets (see
    `serve_query`), so each part of a list is paid for once, by the first
    query that reads into it; `statistics` splits `nodes` as in
    `verify_pir`.
    """
    if t < 1:
        raise UsageError("t must be >= 1")
    budget = ensure_budget(budget)
    start = time.monotonic()
    head = ("batch", t, None, 1)
    out: list[dict] = []
    spent = [0, 0]
    cache: dict = {}
    for combo in combinations_with_replacement(range(1, encoder.k + 1), t):
        res = serve_query(encoder, Query(combo), None, 1, budget, _set_cache=cache)
        spent[0] += res.set_nodes
        spent[1] += res.backtrack_nodes
        if res.status != SERVED:
            return _report(head, out, spent, start,
                           {"query": list(combo), "reason": _FAILURE_REASONS[res.status]},
                           complete=res.status == UNSERVABLE)
        out.append({"query": list(combo), "sets": [sorted(s) for s in res.plan.sets]})
    return _report(head, out, spent, start)


# ---------------------------------------------------------------------------
# Explicit encoder file format: 2^k lines "dataword codeword", data ascending.
# ---------------------------------------------------------------------------


def parse_encoder(text: str) -> ExplicitEncoder:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"expected 'dataword codeword', got {line!r}")
        rows.append(parts)
    if not rows:
        raise FileFormatError("encoder file holds no entries")
    k = len(rows[0][0])
    n = len(rows[0][1])
    if len(rows) != 1 << k:
        raise FileFormatError(f"expected {1 << k} entries for k={k}, got {len(rows)}")
    table = [0] * (1 << k)
    for idx, (a_s, c_s) in enumerate(rows):
        if len(a_s) != k or len(c_s) != n or set(a_s + c_s) - {"0", "1"}:
            raise FileFormatError(f"malformed entry {a_s!r} {c_s!r}")
        a = int(a_s, 2)
        if a != idx:
            raise FileFormatError("data words must be ascending and complete")
        table[a] = int(c_s, 2)
    try:
        return ExplicitEncoder(k, n, tuple(table))
    except UsageError as exc:
        raise FileFormatError(str(exc)) from exc


def dump_encoder(encoder: ExplicitEncoder) -> str:
    k, n = encoder.k, encoder.n
    return "\n".join(
        f"{format(a, f'0{k}b')} {format(c, f'0{n}b')}"
        for a, c in enumerate(encoder.codewords)
    ) + "\n"


def read_encoder(path: str) -> ExplicitEncoder:
    with open(path, "r", encoding="ascii") as fh:
        return parse_encoder(fh.read())


def write_encoder(encoder: ExplicitEncoder, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_encoder(encoder))
