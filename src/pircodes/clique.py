"""The maximum-clique branch and bound shared by A2(n,d) and pair packings.

A graph is a list of int adjacency bitmasks over vertex indices, without
self-loops, so a candidate set meets a neighbourhood in one ``&``.  Each
node colours its candidates greedily into clique-cover classes (the plain
sequential colouring of MCQ, Tomita and Seki 2003) and never branches on a
vertex whose colour plus the depth cannot beat the incumbent.  There is no
Re-NUMBER pass (MCS, Tomita et al., WALCOM 2010): in pure Python it made
each node about 1.6 times dearer but removed only about a third of the
nodes.  The colouring sweep spends one ``&`` per coloured vertex on a mask
built once per search, ``~(adj[v] | 1 << v)``, which drops the vertex and
its neighbours from the class's candidates together (the bitset style of
BBMC, San Segundo et al. 2011).  The colouring sweeps from the lowest index
up and branching starts at the highest colour, so the caller's index order
steers the search.  Callers build the graph, pin their symmetry-breaking
vertices as the starting clique, and map the indices of ``best_clique``
back.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .budget import Budget

__all__ = ["CliqueSearch"]


class CliqueSearch:
    """Greedy-coloring branch and bound over int bitmask candidate sets.

    Every branch spends one budget node; ``aborted`` means the budget ran
    out.  With ``stop_at`` set, the search also stops (without aborting) as
    soon as it holds a clique of that many vertices.
    """

    def __init__(self, adj: Sequence[int], budget: Budget,
                 progress: Callable[[str], None] | None = None,
                 stop_at: int | None = None):
        self.adj = adj
        # The colouring sweep's one mask per vertex: every vertex but v and
        # its neighbours.
        self.nonadj = [~(a | 1 << v) for v, a in enumerate(adj)]
        self.budget = budget
        self.progress = progress
        self.stop_at = stop_at
        self.best_size = 0
        self.best_clique: list[int] = []
        self.nodes = 0
        self.aborted = False
        self.halted = False  # aborted, or a clique of stop_at vertices found

    def seed(self, size: int, clique: list[int]) -> None:
        if size > self.best_size:
            self.best_size = size
            self.best_clique = sorted(clique)

    def _color_order(self, cand: int) -> list[int]:
        """Greedy clique-cover classes, one bitmask sweep per class: the
        sweep runs up from the lowest uncoloured vertex and takes every
        vertex with no neighbour already in the class.  Output is grouped
        by ascending color."""
        nonadj = self.nonadj
        classes: list[int] = []
        uncolored = cand
        while uncolored:
            avail = uncolored
            members = 0
            while avail:
                low = avail & -avail
                members |= low
                avail &= nonadj[low.bit_length() - 1]
            uncolored &= ~members
            classes.append(members)
        return classes

    def expand(self, current: list[int], cand: int) -> None:
        """Extend the clique `current` by vertices of `cand`, all of which
        must be adjacent to every member of `current`."""
        if self.halted:
            return
        adj = self.adj
        live = cand
        depth = len(current)
        kmin = self.best_size - depth
        classes = self._color_order(cand)
        # Only vertices colored above the prune threshold ever get branched.
        for color in range(len(classes), max(kmin, 0), -1):
            cls = classes[color - 1]
            while cls:
                if depth + color <= self.best_size:
                    return  # threshold moved while descending this node
                low = cls & -cls
                cls ^= low
                v = low.bit_length() - 1
                if not self.budget.spend():
                    self.aborted = self.halted = True
                    return
                self.nodes += 1
                current.append(v)
                nxt = live & adj[v]
                if nxt:
                    self.expand(current, nxt)
                elif len(current) > self.best_size:
                    self.best_size = len(current)
                    self.best_clique = sorted(current)
                    if self.progress is not None:
                        self.progress(f"clique={self.best_size} nodes={self.nodes}")
                    if self.stop_at is not None and self.best_size >= self.stop_at:
                        self.halted = True
                current.pop()
                live &= ~low
                if self.halted:
                    return
