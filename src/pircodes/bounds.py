"""Minimum-distance bound checks, maximum code sizes A2(n,3) by clique
search, and the assembled shortest-length optimality reports.

A2(n,d) is the maximum clique in the graph on all 2^n words with edges
between words at distance >= d.  The search pins the zero word (the graph
is translation-invariant) and the least nonzero clique member, which any
coordinate permutation can normalize to the word 0..01..1 of its weight
(the class seed).  Each (class seed, second vertex) pair is one subtree;
the subtrees are dealt round-robin into one chunk per thread, and each
chunk runs the greedy-coloring branch and bound of `clique` on vertex
indices of the words in (weight, value) order on its share of the budget.
threads=1 is the single chunk, run in the calling process; the chunks'
best cliques are merged and mapped back to words.
The graph is built once per call by a bitsliced plane counter: plane b
holds the indices of the words with bit b set, and a word's row is the
threshold ``count >= d`` over the n planes, complemented where the word
has a 1, which is about n log n big-int operations per word in place of
2^n pair tests.  Worker processes receive that adjacency and return
vertex indices.
The answer starts from the pair {0, 0..01..1 of weight d} (from {0} when
n < d), which must be given because the engine records only cliques it
branches to.  No heuristic incumbent is needed: branching from the highest
colour dives to a large clique at once (A2(8,3) holds 20 after 6,844
nodes at threads=1), and the colouring bound prunes from there.  Every
call spends at most what is left of one budget (see `max_code_size`).
Values at n >= 9 are served from a reference table and flagged as
literature data, never claimed as computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .budget import Budget, ensure_budget
from .clique import CliqueSearch
from .constructions import build_pir3
from .errors import UsageError
from .gf2 import Code, min_distance
from .hamming import check_no_3pir_any_encoder
from .recovery import Encoder, LinearEncoder, verify_pir

__all__ = [
    "A2Entry",
    "MinDistBoundCheck",
    "ChainLink",
    "BoundReport",
    "REFERENCE_A2",
    "check_mindist_bound",
    "max_code_size",
    "optimality_report_3pir",
]

# Maximum sizes of binary distance-3 codes from the published tables;
# max_code_size serves (and flags) them beyond the computed range.
REFERENCE_A2 = {3: 2, 4: 2, 5: 4, 6: 8, 7: 16, 8: 20, 9: 40, 10: 72, 11: 144, 12: 256}

# Largest length computed exactly by default; beyond it the reference table
# answers unless force_compute is set.
COMPUTED_A2_MAX_N = 8


@dataclass(frozen=True)
class MinDistBoundCheck:
    distance: int
    bound: int
    ok: bool
    vacuous: bool

    def to_jsonable(self) -> dict:
        return {"distance": self.distance, "bound": self.bound,
                "ok": self.ok, "vacuous": self.vacuous}


def check_mindist_bound(
    encoder: Encoder, t: int, mu: int, pir_verified: bool = True
) -> MinDistBoundCheck:
    """Compare the code's minimum distance with ceil(t/mu).

    The comparison is only meaningful for encoders already verified as
    (t, inf, mu)-available; callers that skipped verification get the check
    marked vacuous.
    """
    if t < 1 or mu < 1:
        raise UsageError("need t >= 1 and mu >= 1")
    d = min_distance(encoder if isinstance(encoder, LinearEncoder)
                     else encoder.associated_code())
    bound = -(-t // mu)
    return MinDistBoundCheck(d, bound, bound <= d, not pir_verified)


@dataclass(frozen=True)
class A2Entry:
    n: int
    value: int
    source: str  # "computed" | "reference"
    witness: tuple[int, ...] | None
    complete: bool
    nodes: int = 0

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "source": self.source,
            "witness": None if self.witness is None
            else [format(v, f"0{self.n}b") for v in self.witness],
            "complete": self.complete,
            "nodes": self.nodes,
        }


class _CliqueGraph:
    """Distance->=d graph on all words of length n, ordered by (weight, value),
    built by the bitsliced plane counter of the module docstring."""

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        words = list(range(1 << n))
        words.sort(key=lambda w: (w.bit_count(), w))
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        full = (1 << len(words)) - 1
        planes = [0] * n
        for i, w in enumerate(words):
            while w:
                low = w & -w
                planes[low.bit_length() - 1] |= 1 << i
                w ^= low
        flipped = [full ^ p for p in planes]
        width = max(n, d).bit_length()  # the counter holds n and compares with d
        self.adj_mask = [_at_least(d, width, [
            flipped[b] if w >> b & 1 else planes[b] for b in range(n)
        ]) for w in words]


def _at_least(d: int, width: int, indicators: list[int]) -> int:
    """Indices set in at least d >= 1 of the `indicators` bitmasks: a
    `width`-plane bitsliced counter (least significant plane first),
    compared with d from the top plane down."""
    count = [0] * width
    for carry in indicators:
        for j in range(width):
            count[j], carry = count[j] ^ carry, count[j] & carry
            if not carry:
                break
    greater = 0
    equal = -1  # every index, until a plane of d tells them apart
    for j in range(width - 1, -1, -1):
        if d >> j & 1:
            equal &= count[j]
        else:
            greater |= equal & count[j]
            equal &= ~count[j]
    return greater | equal


def _second_vertex_worker(args, progress: Callable[[str], None] | None = None):
    """Run a chunk of (class seed, second vertex) subtrees on the parent's
    adjacency; return the best clique as vertex indices."""
    adj, zero_idx, tasks, limit = args
    search = CliqueSearch(adj, Budget(limit), progress)
    for i_rep, i_u in tasks:
        # expand records only cliques it branches to: the pinned triple is
        # a clique even when no vertex extends it
        search.seed(3, [zero_idx, i_rep, i_u])
        cand = adj[i_rep] & adj[zero_idx] & adj[i_u]
        cand &= ~((1 << (i_u + 1)) - 1)
        search.expand([zero_idx, i_rep, i_u], cand)
        if search.aborted:
            break
    return (search.best_size, search.best_clique, search.nodes, not search.aborted)


def max_code_size(
    n: int,
    d: int = 3,
    budget: Budget | int | None = None,
    force_compute: bool = False,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> A2Entry:
    """Maximum size of a length-n code with minimum distance >= d.

    Exact branch-and-bound for n <= COMPUTED_A2_MAX_N (or always with
    force_compute); larger lengths answer from the reference table, flagged
    as such.  The search starts from the pair {0, 0..01..1} at distance d
    (from {0} when n < d) and finds its own larger cliques; the colouring
    bound prunes well once the first deep dive has set an incumbent.

    One decomposition serves every thread count: the (weight class, second
    vertex) subtrees are dealt round-robin into `threads` chunks, and each
    chunk gets its share of what is left of the limit (limit - used) when
    the call starts.  threads=1 is the single chunk holding every subtree
    in order, run in the calling process (with `progress`); more chunks run
    in that many worker processes.  The call's nodes never exceed what was
    left and are added to ``budget.used``; a chunk that runs out of its
    share makes the result a lower-bound witness with complete=False, even
    when another chunk left part of its share unused.  The best clique is
    the largest any chunk found, ties going to the smaller sorted clique.
    """
    if n < 3:
        raise UsageError("need n >= 3")
    if d < 1:
        raise UsageError("need d >= 1")
    if threads < 1:
        raise UsageError("need threads >= 1")
    if not force_compute and n > COMPUTED_A2_MAX_N:
        if d == 3 and n in REFERENCE_A2:
            return A2Entry(n, REFERENCE_A2[n], "reference", None, False)
        raise UsageError(
            f"n={n}, d={d} is beyond the computed range and the reference table"
        )
    budget = ensure_budget(budget)
    start = time.monotonic()

    graph = _CliqueGraph(n, d)
    adj = graph.adj_mask
    zero_idx = graph.index[0]
    tasks: list[tuple[int, int]] = []
    for w in range(d, n + 1):
        i_rep = graph.index[(1 << w) - 1]
        cand = adj[i_rep] & adj[zero_idx]
        cand &= ~((1 << (i_rep + 1)) - 1)  # only members after the class seed
        while cand:
            low = cand & -cand
            tasks.append((i_rep, low.bit_length() - 1))
            cand ^= low
    chunks = [c for c in (tasks[i::threads] for i in range(threads)) if c]
    if budget.limit is None:
        shares = [None] * len(chunks)
    else:
        left = max(budget.limit - budget.used, 0)
        shares = [left // len(chunks) + (i < left % len(chunks))
                  for i in range(len(chunks))]
    args = [(adj, zero_idx, chunk, share) for chunk, share in zip(chunks, shares)]
    if threads == 1:
        parts = [_second_vertex_worker(a, progress) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_second_vertex_worker, args))

    best_clique = [0, (1 << d) - 1] if d <= n else [0]
    best_size = len(best_clique)
    nodes = 0
    complete = True
    for size, indices, part_nodes, part_complete in parts:
        clique = sorted(graph.words[i] for i in indices)
        nodes += part_nodes
        complete = complete and part_complete
        if size > best_size or (size == best_size and clique < best_clique):
            best_size = size
            best_clique = clique
    budget.used += nodes
    if not complete:
        budget.exhausted = True  # a chunk's own budget refused a node

    elapsed = time.monotonic() - start
    if progress is not None:
        progress(f"done: value={best_size} nodes={nodes} elapsed={elapsed:.1f}s")
    # Translation preserves distances: anchor the witness at the zero word.
    base = min(best_clique)
    witness = tuple(sorted(v ^ base for v in best_clique))
    return A2Entry(n, best_size, "computed", witness, complete, nodes)


# ---------------------------------------------------------------------------
# Optimality reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    claim: str
    method: str  # "computed:<operation>" | "theorem:<name>" | "literature:<tag>"
    ok: bool

    def to_jsonable(self) -> dict:
        return {"claim": self.claim, "method": self.method, "ok": self.ok}


@dataclass
class BoundReport:
    k: int
    t: int
    lower_bound: int
    upper_bound: int
    verdict: str  # "exact" | "gap"
    chain: list[ChainLink]
    literature_flags: list[str]

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "verdict": self.verdict,
            "chain": [link.to_jsonable() for link in self.chain],
            "literature_flags": self.literature_flags,
        }


def optimality_report_3pir(k: int) -> BoundReport:
    """Assemble the shortest length of a 3-available code of size 2^k.

    Upper bound: the systematic construction, verified by exact search.
    Lower bound: every 3-available code has minimum distance >= 3, and a
    distance-3 code of length n has at most floor(2^n/(n+1)) words (the
    sphere-packing bound), so every length where that is below 2^k is
    impossible.  At k=4 the bound is met with equality at length 7: any
    (7,16,3) code is perfect, its uniqueness is cited (literature flag) and
    the exhaustive no-encoder scan rules it out.  At k=7 the open length 11
    carries the paper's linear impossibility result.  The verdict is exact
    where the bounds meet and gap elsewhere; every chain link is computed
    here, a theorem, or carries a literature flag.
    """
    if k < 1:
        raise UsageError("need k >= 1")
    chain: list[ChainLink] = []
    flags: list[str] = []

    built = build_pir3(k)
    n_upper = built.n
    pir_report = verify_pir(built.encoder, 3, mu=1)
    chain.append(ChainLink(
        f"construction of length {n_upper} is 3-available (exact verifier)",
        "computed:verify_pir", pir_report.verdict,
    ))

    chain.append(ChainLink(
        "any 3-available encoder forces minimum distance >= 3 on its code",
        "theorem:min-distance-bound (instance-checked across the test corpus)",
        True,
    ))

    need = 1 << k
    n_lower = 1
    # floor(2^n/(n+1)) never decreases in n, so the first length it admits
    # (other than the perfect k=4 case) ends the chain
    for n_cand in range(1, n_upper):
        packed = (1 << n_cand) // (n_cand + 1)
        if packed < need:
            chain.append(ChainLink(
                f"length {n_cand} impossible: "
                f"floor(2^{n_cand}/{n_cand + 1})={packed} < {need}",
                "theorem:sphere-packing", True,
            ))
        elif k == 4 and n_cand == 7:
            chain.append(ChainLink(
                "floor(2^7/8)=16 is met with equality: any (7,16,3) code is perfect",
                "theorem:sphere-packing", True,
            ))
            chain.append(ChainLink(
                "the (7,16,3) code is unique up to equivalence",
                "literature:[za52]", True,
            ))
            flags.append("[za52] uniqueness of the (7,16,3) code")
            imp = check_no_3pir_any_encoder(3)
            chain.append(ChainLink(
                "the unique (7,16,3) code admits no 3-available encoder",
                "computed:check_no_3pir_any_encoder(3)",
                imp.verdict == "no_encoder",
            ))
        else:
            break
        n_lower = n_cand + 1

    if k == 7:
        chain.append(ChainLink(
            "length 11 holds no linear 3-available code of size 2^7; "
            "a nonlinear one is an open problem",
            "literature:[arXiv:2208.14552]", True,
        ))
        flags.append("[arXiv:2208.14552] no linear (11,2^7) 3-PIR code")

    verdict = "exact" if n_lower == n_upper and all(l.ok for l in chain) else "gap"
    return BoundReport(k, 3, n_lower, n_upper, verdict, chain, flags)
