"""Nonlinear-code search: canonical forms, isomorph-free generation, the
3-availability encoder-existence decision, and a budgeted hunt harness.

Canonical form.  A code is compared to its re-columned images through the
sorted sequence of codewords (whole words, lexicographic on the sequence);
the canonical form is the minimum over all column permutations.  The
minimum is found by a depth-first search over word orders.  For a fixed
order of the words, sorting the columns ascending by their bits read in
that order minimises the first word, then the second, and so on; that
sequence is the least arrangement of the image, so the form is its minimum
over word orders.  A node keeps the columns as an ordered list of cells,
columns that agree on the words placed so far.  The value of a word there
is, cell by cell, the cell's zeros in it followed by its ones: exactly the
word it becomes if it is placed next.  A node places only words of least
value and splits each cell into zeros and then ones.  Values only grow as
cells split and placed words are distinct, so the remaining values, sorted
and made strictly increasing, bound every completion from below: a node
whose bound compares >= the incumbent is cut, and a least value below the
incumbent certifies a smaller form.  Once the cells are single columns, or
one word is left, every value is final and the node is a leaf.  Two
leaves with equal sequences differ by an automorphism that fixes the words
placed before their first difference; it maps the subtree searched there
onto the current one, so the search returns to that level.

Orderly generation.  Codes containing the zero word are grown one word at
a time in ascending order; a partial code is kept only if it equals its
own canonical form.  Removing the largest word of a canonical code leaves
a canonical code (insertion argument over sorted sequences), so every
canonical code is reached exactly once through canonical prefixes.  The
second word of a canonical code is 0..01..1 of its weight, so generation
starts from one root {0, 2^w - 1} per weight w >= dmin.

Partition kernel.  The encoder-existence scan and the Hamming no-encoder
scan share one enumerator of the S(n,3) partitions of the positions into
three blocks; the Hamming scan needs no components, only a rank test.  The
agreement classes of a block depend only on the code and the block's mask,
and the S(n,3) partitions use at most 2^n - 1 distinct masks (2,047 at
n = 11, against 85,503 blocks), so the scan keeps one memo per code from
block mask to its classes of two or more codewords.

Checkpoint files are ASCII JSON-lines: a header record
{"format": "pircodes-checkpoint", "version": 1, "problem": {...}} followed
by progress records ({"type": "root_done"|"restart_done"|"code"|"examined",
...}).  Readers ignore record types they do not know, which lets the hunt
pipeline share a file with the underlying code stream.  A damaged final
line (a torn write) is cut off on resume; any other line that does not
decode raises CheckpointError rather than losing its record.
"""

from __future__ import annotations

import json
import random
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .budget import Budget, ensure_budget
from .errors import CheckpointError, UsageError
from .gf2 import Code, mask_to_positions, xor_basis_add
from .recovery import ExplicitEncoder, verify_pir

__all__ = [
    "ComponentPartition",
    "RecoverableTriple",
    "ExistsResult",
    "SearchStats",
    "HuntReport",
    "canonical_form",
    "is_canonical",
    "permute_code",
    "recoverable_functions",
    "encoder_exists_3pir",
    "search_codes",
    "pir_hunt",
    "open11_hunt",
]

CHECKPOINT_FORMAT = "pircodes-checkpoint"
CHECKPOINT_VERSION = 1

FOUND = "found"
NONE = "none"
UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Canonical form under column permutations
# ---------------------------------------------------------------------------


def permute_code(code: Code, perm: Sequence[int]) -> Code:
    """Apply a column permutation; perm[i-1] is the new position of column i."""
    n = code.n
    if sorted(perm) != list(range(1, n + 1)):
        raise UsageError("perm must list positions 1..n exactly once")
    out = []
    for v in code.values:
        w = 0
        for i in range(1, n + 1):
            if (v >> (n - i)) & 1:
                w |= 1 << (n - perm[i - 1])
        out.append(w)
    return Code.from_values(n, out)


def _min_form_search(values: Sequence[int], n: int, stop_below: bool):
    """Core DFS over word orders; returns (smaller_found, best_form).

    `values` is ascending and is the first incumbent.  A node holds the
    columns as an ordered list of cells (column masks, columns equal on the
    words placed so far) and places next one of the words of least value,
    then splits every cell into its zeros and its ones in that word.  With
    stop_below the search exits at the first form strictly below `values`
    (used by is_canonical); otherwise it runs to the global minimum (used by
    canonical_form).
    """
    m = len(values)
    best = list(values)
    best_rows: list[int] | None = None  # word order of a leaf equal to best
    path: list[int] = []  # the placed words
    prefix: list[int] = []  # their values
    found_smaller = False
    back = m  # the level an automorphism returns to; m when there is none

    def rec(cells: list[tuple[int, int]], rows: list[int], k: int, tight: bool) -> bool:
        # tight: the placed words equal best[:k], so best bounds this subtree.
        nonlocal best, best_rows, found_smaller, back
        vals = []
        for r in rows:
            v = 0
            for c, size in cells:
                v = (v << size) | ((1 << (r & c).bit_count()) - 1)
            vals.append(v)
        if len(cells) == n or k + 1 == m:
            # Single columns or a single word: every value is final, and the
            # rest of the leaf is the remaining words by value.
            order = sorted(zip(vals, rows))
            tail = [v for v, _ in order]
            if tight:
                rest = best[k:]
                if tail > rest:
                    return False
                if tail == rest:
                    leaf = path + [r for _, r in order]
                    if best_rows is None:
                        best_rows = leaf
                        return False
                    # The column permutation taking one leaf to the other is
                    # an automorphism fixing the words placed before their
                    # first difference; it maps the subtree searched there
                    # onto this one, so the search returns to that level.
                    back = 0
                    while best_rows[back] == leaf[back]:
                        back += 1
                    return False
            found_smaller = True
            if stop_below:
                return True
            best = prefix + tail
            best_rows = path + [r for _, r in order]
            return False
        least = min(vals)
        if tight:
            b = best[k]
            if least > b:
                return False
            if least < b:
                found_smaller = True
                if stop_below:
                    return True
                tight = False
            else:
                # A word's value only grows as cells split, and the placed
                # words are distinct, so the sorted values made strictly
                # increasing bound the rest of every completion from below.
                low = least
                for i, v in enumerate(sorted(vals)[1:], start=k + 1):
                    low = v if v > low else low + 1
                    if low != best[i]:
                        if low > best[i]:
                            return False
                        break
                else:
                    return False
        prefix.append(least)
        for r, v in zip(rows, vals):
            if v != least:
                continue
            split = []
            for c, size in cells:
                ones = c & r
                if ones and ones != c:
                    n_ones = ones.bit_count()
                    split.append((c ^ ones, size - n_ones))
                    split.append((ones, n_ones))
                else:
                    split.append((c, size))
            path.append(r)
            if rec(split, [x for x in rows if x != r], k + 1, tight):
                return True
            path.pop()
            if back < k:
                break
            back = m
            # The first subtree of a node below the incumbent ends at a leaf
            # that becomes the incumbent, so the node is tight from here on.
            tight = True
        prefix.pop()
        return False

    cells = [((1 << n) - 1, n)]
    if values and values[0] == 0:
        # The zero word alone has value 0 and splits no cell: it goes first.
        path.append(0)
        prefix.append(0)
        if m > 1:
            rec(cells, list(values[1:]), 1, True)
    elif values:
        rec(cells, list(values), 0, True)
    return found_smaller, tuple(best)


def canonical_form(code: Code) -> Code:
    """Minimum over all column permutations of the sorted word sequence."""
    _, best = _min_form_search(code.values, code.n, stop_below=False)
    return Code(code.n, best)


def is_canonical(code: Code) -> bool:
    """Is the code equal to its own canonical form?"""
    return _is_canonical_values(code.values, code.n)


def _is_canonical_values(values: Sequence[int], n: int) -> bool:
    """is_canonical on an ascending sequence of distinct n-bit words."""
    if values and values[0] == 0 and len(values) > 1:
        # The second word of a canonical zero-containing code is forced.
        w = min(v.bit_count() for v in values[1:])
        if values[1] != (1 << w) - 1:
            return False
    smaller, _ = _min_form_search(values, n, stop_below=True)
    return not smaller


# ---------------------------------------------------------------------------
# Recoverable balanced functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of a code into classes linked by agreement on any of the
    three disjoint position sets."""

    triple: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RecoverableTriple:
    partition: ComponentPartition
    colorings: tuple[tuple[int, ...], ...]  # balanced unions, as codeword values
    truncated: bool


def _iter_partitions(n: int) -> Iterator[tuple[int, int, int]]:
    """The S(n,3) partitions of positions 1..n into three nonempty blocks, as
    position bitmasks (position p is bit n-p).  Each partition comes once,
    its blocks ordered by smallest position: the restricted-growth labelling.
    Block 1 holds position 1, block 2 the smallest position outside block 1.
    """
    first = 1 << (n - 1)
    rest = first - 1
    sub = rest
    while True:
        left = rest ^ sub
        if left & (left - 1):  # at least two positions left for blocks 2 and 3
            low = 1 << (left.bit_length() - 1)
            others = left ^ low
            s = (others - 1) & others
            while True:
                yield first | sub, low | s, others ^ s
                if not s:
                    break
                s = (s - 1) & others
        if not sub:
            return
        sub = (sub - 1) & rest


def _agreement_components(values: Sequence[int], masks: Sequence[int],
                          classes: dict[int, list[int]]) -> list[int]:
    """Connected components (index bitmasks, ordered by lowest index) of the
    union of the equal-restriction relations, one relation per mask.

    `classes` memoises, per block mask, the agreement classes of two or more
    codewords; the caller keeps one dict per code (`values`), so a block
    shared by many partitions is grouped once."""
    links: list[int] = []  # classes of two or more codewords that agree
    for mk in masks:
        mk_links = classes.get(mk)
        if mk_links is None:
            groups: dict[int, int] = {}
            bit = 1
            for v in values:
                key = v & mk
                groups[key] = groups.get(key, 0) | bit
                bit <<= 1
            mk_links = classes[mk] = [g for g in groups.values() if g & (g - 1)]
        links += mk_links
    comps = []
    rest = (1 << len(values)) - 1
    while rest:
        comp = rest & -rest
        grown = True
        while grown:
            grown = False
            for g in links:
                if g & comp and g & ~comp:
                    comp |= g
                    grown = True
        comps.append(comp)
        rest &= ~comp
        links = [g for g in links if not g & comp]
    return comps


def _balanced_unions(comps: list[int], half: int, max_components: int):
    """(colorings, truncated): unions of components with exactly `half`
    codewords, normalized to exclude codeword index 0 and deduplicated."""
    sizes = [c.bit_count() for c in comps]
    total = sum(sizes)
    reach = 1
    for s in sizes:
        reach |= reach << s
    if not (reach >> half) & 1:
        return [], False
    if len(comps) > max_components:
        return [], True
    full = (1 << total) - 1
    out: set[int] = set()

    suffix = [0] * (len(comps) + 1)
    for i in range(len(comps) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]

    def rec(i: int, acc: int, size: int):
        if size == half:
            out.add(acc ^ full if acc & 1 else acc)
            return
        if i == len(comps) or size + suffix[i] < half:
            return
        if sizes[i] + size <= half:
            rec(i + 1, acc | comps[i], size + sizes[i])
        rec(i + 1, acc, size)

    rec(0, 0, 0)
    return sorted(out), False


def _scan_partitions(code: Code, budget: Budget, max_components: int):
    """Yield (masks, components, colorings, truncated) per partition of the
    positions, spending one budget node each; stop when the budget runs out."""
    values = code.values
    half = code.size // 2
    classes: dict[int, list[int]] = {}
    for masks in _iter_partitions(code.n):
        if not budget.spend():
            return
        comps = _agreement_components(values, masks, classes)
        colorings, truncated = _balanced_unions(comps, half, max_components)
        yield masks, comps, colorings, truncated


def recoverable_functions(
    code: Code,
    budget: Budget | int | None = None,
    max_components: int = 20,
) -> Iterator[RecoverableTriple]:
    """Stream, per partition of the positions into three blocks, the component
    partition and every balanced component union: exactly the candidate
    data-bit functions that would have those blocks as disjoint recovery sets.

    Partitions suffice.  Growing a disjoint triple (A, B, C) to a partition
    (A', B', C') with A <= A', B <= B', C <= C' makes every agreement relation
    finer, so its components get finer: every balanced union of the triple is
    one of the partition, and every triple is covered by some partition.  The
    S(n,3) partitions therefore yield every candidate function (and every
    truncation) that all (4^n - 3*3^n + 3*2^n - 1)/6 disjoint triples would.
    """
    k = code.dimension()
    if k is None or k < 1:
        raise UsageError("code size must be a power of two, at least 2")
    values = code.values
    for masks, comps, colorings, truncated in _scan_partitions(
        code, ensure_budget(budget), max_components
    ):
        partition = ComponentPartition(
            _block_positions(code.n, masks),
            tuple(tuple(values[i] for i in _mask_indices(c)) for c in comps),
        )
        yield RecoverableTriple(
            partition,
            tuple(tuple(values[i] for i in _mask_indices(cm)) for cm in colorings),
            truncated,
        )


def _block_positions(n: int, masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(mask_to_positions(n, mk) for mk in masks)


def _mask_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Encoder existence for t = 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistsResult:
    """Outcome of `encoder_exists_3pir`.  `witnesses` holds, per data bit,
    the partition of the positions whose blocks recover it; `triples_seen`
    counts the partitions scanned (they cover every disjoint triple)."""

    status: str  # found | none | unknown
    encoder: ExplicitEncoder | None
    witnesses: tuple[tuple[tuple[int, ...], ...], ...] | None  # partition per data bit
    triples_seen: int
    candidates: int
    best_depth: int
    nodes: int


def encoder_exists_3pir(
    code: Code,
    budget: Budget | int | None = None,
    max_components: int = 20,
    progress: Callable[[str], None] | None = None,
) -> ExistsResult:
    """Decide whether any one-to-one encoder makes this code 3-available.

    Enumerates every recoverable balanced 2-coloring over the partitions of
    the positions into three blocks (see `recoverable_functions`), deduplicated
    by the split it induces, then backtracks for k of them whose joint refinement
    separates all codewords.  Any valid choice must halve every refinement
    class at every step, which is checked eagerly.  "none" is only reported
    after complete enumeration, and then either exhaustive backtracking or,
    with no backtracking node and `best_depth` 0, a candidate set of GF(2)
    rank below k: an encoder's k functions are linearly independent.
    """
    k = code.dimension()
    if k is None or k < 1:
        raise UsageError("code size must be a power of two, at least 2")
    budget = ensure_budget(budget)
    used0 = budget.used
    values = code.values
    m = code.size
    full = (1 << m) - 1

    candidates: dict[int, tuple] = {}
    complete = True
    triples_seen = 0
    for blocks, _, colorings, truncated in _scan_partitions(code, budget, max_components):
        triples_seen += 1
        if truncated:
            complete = False
        for mask in colorings:
            if mask not in candidates:
                candidates[mask] = blocks
        if progress is not None and triples_seen % 2000 == 0:
            progress(f"partitions={triples_seen} candidates={len(candidates)}")
    if budget.exhausted:
        complete = False

    masks = list(candidates.keys())
    if complete:
        # The k functions of an encoder are linearly independent as vectors
        # over the codewords: a nonempty sum of them that vanished on the
        # code would confine every codeword's data word to a hyperplane.
        basis: dict[int, int] = {}
        rank = 0
        for mask in masks:
            rank += xor_basis_add(basis, mask)
            if rank == k:
                break
        else:
            return ExistsResult(NONE, None, None, triples_seen, len(masks), 0,
                                budget.used - used0)
    chosen: list[int] = []
    best_depth = 0
    cut = False

    def refine(classes: list[int], s: int) -> list[int] | None:
        new: list[int] = []
        for c in classes:
            a = c & s
            if 2 * a.bit_count() != c.bit_count():
                return None
            new.append(a)
            new.append(c ^ a)
        return new

    def backtrack(start: int, classes: list[int], depth: int) -> bool:
        nonlocal best_depth, cut
        best_depth = max(best_depth, depth)
        if depth == k:
            return True
        for idx in range(start, len(masks)):
            if len(masks) - idx < k - depth:
                break
            if not budget.spend():
                cut = True
                return False
            refined = refine(classes, masks[idx])
            if refined is None:
                continue
            chosen.append(idx)
            if backtrack(idx + 1, refined, depth + 1):
                return True
            chosen.pop()
            if cut:
                return False
        return False

    ok = backtrack(0, [full], 0)
    if ok:
        table = [0] * m
        for idx in range(m):
            a = 0
            for i, mi in enumerate(chosen):
                if (masks[mi] >> idx) & 1:
                    a |= 1 << (k - 1 - i)
            table[a] = values[idx]
        encoder = ExplicitEncoder(k, code.n, tuple(table))
        witnesses = tuple(_block_positions(code.n, candidates[masks[mi]])
                          for mi in chosen)
        report = verify_pir(
            encoder, 3, mu=1,
            witnesses={j + 1: [frozenset(s) for s in witnesses[j]] for j in range(k)},
        )
        if not report.verdict:
            raise AssertionError("constructed encoder failed re-validation")
        return ExistsResult(FOUND, encoder, witnesses, triples_seen,
                            len(masks), k, budget.used - used0)
    status = NONE if complete and not cut else UNKNOWN
    return ExistsResult(status, None, None, triples_seen, len(masks),
                        best_depth, budget.used - used0)


# ---------------------------------------------------------------------------
# Code search (orderly exhaustive / seeded heuristic) with checkpoints
# ---------------------------------------------------------------------------


@dataclass
class SearchStats:
    nodes: int = 0
    emitted: int = 0
    complete: bool = False


class _Checkpoint:
    """JSON-lines checkpoint shared by search_codes and the hunt pipeline."""

    def __init__(self, path: str | None, problem: dict):
        self.path = path
        self.problem = problem
        self.roots_done: set[int] = set()
        self.restarts_done: set[int] = set()
        self.codes: list[tuple[int, ...]] = []
        self.examined: dict[tuple[int, ...], dict] = {}
        self._fh = None
        if path is None:
            return
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except FileNotFoundError:
            text = ""
        except (OSError, UnicodeDecodeError) as exc:
            raise CheckpointError(str(exc)) from exc
        lines = [ln for ln in text.splitlines() if ln.strip()]
        torn = False
        if lines:
            try:
                head = json.loads(lines[0])
            except json.JSONDecodeError as exc:
                raise CheckpointError("corrupt checkpoint header") from exc
            if head.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError("not a checkpoint file")
            if head.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {head.get('version')} != {CHECKPOINT_VERSION}"
                )
            if head.get("problem") != problem:
                raise CheckpointError("checkpoint belongs to a different problem")
            for number, ln in enumerate(lines[1:], start=2):
                try:
                    rec = json.loads(ln)
                except json.JSONDecodeError as exc:
                    if number < len(lines):
                        raise CheckpointError(
                            f"corrupt checkpoint record {number} of {len(lines)}"
                        ) from exc
                    # A torn final write loses only that record; cut it off so
                    # new records start on a clean line.
                    text = text[: text.rindex(ln)]
                    torn = True
                    continue
                kind = rec.get("type")
                if kind == "root_done":
                    self.roots_done.add(rec["root"])
                elif kind == "restart_done":
                    self.restarts_done.add(rec["restart"])
                elif kind == "code":
                    self.codes.append(tuple(rec["values"]))
                elif kind == "examined":
                    self.examined[tuple(rec["values"])] = rec
        self._fh = open(path, "a", encoding="ascii")
        if torn:
            self._fh.truncate(len(text))
        elif text and not text.endswith("\n"):
            self._fh.write("\n")
        if not lines:
            self._write({"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
                         "problem": problem})

    def _write(self, rec: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()

    def record_code(self, values: tuple[int, ...]) -> None:
        self._write({"type": "code", "values": list(values)})

    def record_root(self, root: int) -> None:
        self._write({"type": "root_done", "root": root})

    def record_restart(self, restart: int) -> None:
        self._write({"type": "restart_done", "restart": restart})

    def record_examined(self, values: tuple[int, ...], outcome: dict) -> None:
        self._write({"type": "examined", "values": list(values), **outcome})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def search_codes(
    n: int,
    size: int,
    dmin: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    budget: Budget | int | None = None,
    checkpoint: str | None = None,
    limit: int | None = None,
    restarts: int | None = None,
    stats: SearchStats | None = None,
    progress: Callable[[str], None] | None = None,
) -> Iterator[Code]:
    """Stream codes of the given length, size, and minimum distance.

    Exhaustive mode emits exactly one canonical representative per
    column-permutation class of zero-containing codes (orderly generation);
    it takes `budget`.  Heuristic mode runs seeded greedy restarts with swap
    improvement and emits every distinct code it reaches; it takes `seed`
    (default 1) and `restarts` (default 200), and identical seeds give
    identical streams.  Passing a flag the mode would ignore raises
    UsageError.  A checkpoint file makes either mode resumable with the same
    overall result set.

    Misuse raises here, at the call; the checkpoint is opened only when the
    stream is first advanced.
    """
    unused = {"exhaustive": {"seed": seed, "restarts": restarts},
              "heuristic": {"budget": budget}}.get(mode, {})
    # Named as the CLI flags, which share the parameter names.
    given = [f"--{name}" for name, value in unused.items() if value is not None]
    if given:
        raise UsageError(f"{', '.join(given)} has no effect in {mode} mode")
    seed = 1 if seed is None else seed
    restarts = 200 if restarts is None else restarts
    problem = _search_problem(n, size, dmin, mode, seed)
    budget = ensure_budget(budget)
    stats = stats if stats is not None else SearchStats()

    def stream() -> Iterator[Code]:
        ck = _Checkpoint(checkpoint, problem)
        try:
            yield from _code_stream(ck, n, size, dmin, mode, seed, budget, limit,
                                    restarts, stats, progress)
        finally:
            ck.close()

    return stream()


def _search_problem(n: int, size: int, dmin: int, mode: str, seed: int) -> dict:
    """Validate a code-search request; return its checkpoint problem."""
    if mode not in ("exhaustive", "heuristic"):
        raise UsageError(f"unknown mode {mode!r}")
    if not 1 <= size <= 1 << n:
        raise UsageError("size must be between 1 and 2^n")
    from .bounds import REFERENCE_A2

    if dmin == 3 and n in REFERENCE_A2 and size > REFERENCE_A2[n]:
        warnings.warn(
            f"requested size {size} exceeds the maximum {REFERENCE_A2[n]} for "
            f"length {n} at distance 3; the stream will be empty",
            stacklevel=3,
        )
    return {"n": n, "size": size, "dmin": dmin, "mode": mode,
            "seed": seed if mode == "heuristic" else None}


def _code_stream(ck: _Checkpoint, n: int, size: int, dmin: int, mode: str, seed: int,
                 budget: Budget, limit: int | None, restarts: int, stats: SearchStats,
                 progress: Callable[[str], None] | None) -> Iterator[Code]:
    """The codes of search_codes, resumed from and recorded in `ck`."""
    emitted: set[tuple[int, ...]] = set()
    for values in ck.codes:
        if values not in emitted:
            emitted.add(values)
            stats.emitted += 1
            yield Code(n, values)
            if limit is not None and stats.emitted >= limit:
                return
    if mode == "exhaustive":
        gen = _orderly_generation(n, size, dmin, budget, ck, stats, progress)
    else:
        gen = _heuristic_generation(n, size, dmin, seed, restarts, ck, stats, progress)
    for code in gen:
        key = code.values
        if key in emitted:
            continue
        emitted.add(key)
        ck.record_code(key)
        stats.emitted += 1
        yield code
        if limit is not None and stats.emitted >= limit:
            return


def _orderly_generation(
    n: int,
    size: int,
    dmin: int,
    budget: Budget,
    ck: _Checkpoint,
    stats: SearchStats,
    progress: Callable[[str], None] | None,
) -> Iterator[Code]:
    out: list[Code] = []
    aborted = False

    def extend(current: list[int], cands: list[int]) -> Iterator[Code]:
        nonlocal aborted
        if len(current) == size:
            yield Code(n, tuple(current))
            return
        if len(current) + len(cands) < size:
            return
        for i, w in enumerate(cands):
            if aborted:
                return
            if not budget.spend():
                aborted = True
                return
            stats.nodes += 1
            current.append(w)
            if _is_canonical_values(current, n):
                nxt = [u for u in cands[i + 1:]
                       if (u ^ w).bit_count() >= dmin]
                yield from extend(current, nxt)
            current.pop()

    if size == 1:
        if 0 not in ck.roots_done:
            yield Code.from_values(n, [0])
            ck.record_root(0)
        stats.complete = not aborted
        return
    # {0, root} is canonical exactly when root is 0..01..1
    for weight in range(max(dmin, 1), n + 1):
        root = (1 << weight) - 1
        if root in ck.roots_done:
            continue
        if aborted:
            break
        cands = [u for u in range(root + 1, 1 << n)
                 if u.bit_count() >= dmin and (u ^ root).bit_count() >= dmin]
        yield from extend([0, root], cands)
        if not aborted:
            ck.record_root(root)
            if progress is not None:
                progress(f"root={root} nodes={stats.nodes} emitted={stats.emitted}")
    stats.complete = not aborted


def _heuristic_generation(
    n: int,
    size: int,
    dmin: int,
    seed: int,
    restarts: int,
    ck: _Checkpoint,
    stats: SearchStats,
    progress: Callable[[str], None] | None,
) -> Iterator[Code]:
    universe = list(range(1 << n))
    ball = [m for m in universe if m.bit_count() < dmin]
    for ridx in range(restarts):
        if ridx in ck.restarts_done:
            continue
        rng = random.Random(f"pircodes:{seed}:{ridx}")
        chosen = _greedy_swap(universe, ball, size, rng)
        ck.record_restart(ridx)
        if len(chosen) >= size:
            yield Code.from_values(n, sorted(chosen)[:size])
        if progress is not None and (ridx + 1) % 20 == 0:
            progress(f"restart={ridx + 1} best={len(chosen)}")
    stats.complete = True


def _greedy_swap(universe: list[int], ball: list[int], size: int,
                 rng: random.Random) -> list[int]:
    """One heuristic restart: a greedy pass in a shuffled order, then up to
    40 shuffled sweeps that add every free word and swap a word for its
    single conflict half the time, with a random kick on a plateau.

    Two words conflict when their XOR lies in `ball` (distance < dmin).
    near[x] counts the chosen words in conflict with x, x itself included
    when chosen, and is kept over the ball of every word added or dropped.
    """
    order = universe[:]
    rng.shuffle(order)
    chosen: list[int] = []
    members: set[int] = set()
    near = [0] * len(universe)

    def add(w: int) -> None:
        chosen.append(w)
        members.add(w)
        for m in ball:
            near[w ^ m] += 1

    def drop(c: int) -> None:
        chosen.remove(c)
        members.remove(c)
        for m in ball:
            near[c ^ m] -= 1

    for w in order:
        if not near[w]:
            add(w)
    for _ in range(40):
        if len(chosen) >= size:
            break
        improved = False
        sample = universe[:]
        rng.shuffle(sample)
        for w in sample:
            if not near[w]:
                add(w)
                improved = True
            # one conflict that is not w itself: swap it out half the time
            elif near[w] == 1 and w not in members and rng.random() < 0.5:
                drop(next(w ^ m for m in ball if w ^ m in members))
                add(w)
                improved = True
        if not improved and len(chosen) < size:
            # plateau: random kick, remove a few words
            for _ in range(min(3, len(chosen))):
                drop(chosen[rng.randrange(len(chosen))])
    return chosen


# ---------------------------------------------------------------------------
# Hunt pipeline
# ---------------------------------------------------------------------------


@dataclass
class HuntReport:
    n: int
    size: int
    dmin: int
    codes_examined: int
    encoders_found: int
    best_depth: int
    threshold: int
    logged_candidates: list[dict]
    found: list[dict]
    elapsed: float
    complete_per_code: bool

    def to_jsonable(self) -> dict:
        return {
            "problem": {"n": self.n, "size": self.size, "dmin": self.dmin},
            "codes_examined": self.codes_examined,
            "encoders_found": self.encoders_found,
            "best_depth": self.best_depth,
            "witness_threshold": self.threshold,
            "logged_candidates": self.logged_candidates,
            "found": self.found,
            "statistics": {"elapsed": self.elapsed,
                           "complete_per_code": self.complete_per_code},
        }


def pir_hunt(
    n: int,
    size: int,
    dmin: int = 3,
    seed: int = 1,
    max_codes: int = 5,
    per_code_budget: int | None = 200_000,
    witness_threshold: int = 2,
    checkpoint: str | None = None,
    restarts: int = 200,
    progress: Callable[[str], None] | None = None,
) -> HuntReport:
    """Stream heuristic-mode codes and test each for a 3-availability encoder.

    The harness gathers evidence only: it never claims nonexistence for the
    searched parameters, because the code space is not exhausted.  Codes
    whose encoder search reaches `witness_threshold` compatible data-bit
    functions are logged as candidates worth revisiting.
    """
    start = time.monotonic()
    problem = _search_problem(n, size, dmin, "heuristic", seed)
    report = HuntReport(n, size, dmin, 0, 0, 0, witness_threshold, [], [],
                        0.0, True)
    ck = _Checkpoint(checkpoint, problem)
    try:
        stream = _code_stream(ck, n, size, dmin, "heuristic", seed, Budget(None), max_codes,
                              restarts, SearchStats(), progress)
        for code in stream:
            key = code.values
            outcome = ck.examined.get(key)
            if outcome is None:
                res = encoder_exists_3pir(code, budget=per_code_budget)
                outcome = {"status": res.status, "best_depth": res.best_depth,
                           "nodes": res.nodes}
                if res.status == FOUND:
                    outcome["encoder"] = list(res.encoder.codewords)
                ck.record_examined(key, outcome)
            report.codes_examined += 1
            report.best_depth = max(report.best_depth, outcome["best_depth"])
            if outcome["status"] == UNKNOWN:
                report.complete_per_code = False
            if outcome["status"] == FOUND:
                report.encoders_found += 1
                report.found.append({"values": list(key),
                                     "encoder": outcome.get("encoder")})
            if outcome["best_depth"] >= witness_threshold:
                report.logged_candidates.append(
                    {"values": list(key), "best_depth": outcome["best_depth"],
                     "status": outcome["status"]}
                )
            if progress is not None:
                progress(
                    f"examined={report.codes_examined} found={report.encoders_found}"
                )
    finally:
        ck.close()
    report.elapsed = time.monotonic() - start
    return report


def open11_hunt(
    seed: int = 1,
    max_codes: int = 3,
    per_code_budget: int | None = 50_000,
    witness_threshold: int = 2,
    checkpoint: str | None = None,
    restarts: int = 400,
    progress: Callable[[str], None] | None = None,
) -> HuntReport:
    """Budgeted evidence-gathering for length-11, size-128, distance-3 codes."""
    return pir_hunt(11, 128, 3, seed=seed, max_codes=max_codes,
                    per_code_budget=per_code_budget,
                    witness_threshold=witness_threshold,
                    checkpoint=checkpoint, restarts=restarts,
                    progress=progress)
