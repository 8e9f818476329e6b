"""The four gated workloads (packing, verify, maxsize, hunt) and the probes of
the traced run.

Every gated operation runs to a complete verdict and checks it against its
known answer; every positive verdict is re-checked independently.  A
node-capped call takes the same time whatever the algorithm, so it would
penalise a change that reaches the verdict in fewer nodes: capped calls
appear only in `run_probes`, which is not gated.

Each workload is sized so that one engine layer does most of its work:
`designs` in packing, `recovery` and `gf2` in verify, `bounds` in maxsize,
`search` in hunt.  A change to one layer is predicted to move its own
workload and leave the others unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from pircodes.bounds import (
    check_mindist_bound,
    max_code_size,
    optimality_report_3pir,
)
from pircodes.constructions import build_packing_pir, build_pir3, extend_for_even_t
from pircodes.designs import PackingDesign, exact_packing, is_packing, packing_number_formula
from pircodes.gf2 import BitMatrix, Code, LinearCode, min_distance, solve_unit
from pircodes.hamming import build_hamming, check_no_3pir_any_encoder
from pircodes.recovery import (
    ExplicitEncoder,
    LinearEncoder,
    as_explicit,
    minimal_recovery_sets,
    verify_batch,
    verify_pir,
)
from pircodes.search import SearchStats, encoder_exists_3pir, permute_code, search_codes

from recorder import Recorder, expect


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _permute_columns(matrix: BitMatrix, perm: list[int]) -> BitMatrix:
    """Column i (0-based) moves to position perm[i]."""
    n = matrix.cols
    rows = []
    for row in matrix.rows:
        new = 0
        for i in range(n):
            if row >> (n - 1 - i) & 1:
                new |= 1 << (n - 1 - perm[i])
        rows.append(new)
    return BitMatrix(n, tuple(rows))


def _confirm_pir(rec: Recorder, encoder, report, t: int, w: int | None, mu: int) -> None:
    """A served verdict must be complete, and its witnesses must pass the
    witness checker, which tests recovery sets directly."""
    expect(report.verdict and report.complete,
           f"verdict={report.verdict} complete={report.complete}, expected a served verdict")
    witnesses = {e["bit"]: e["sets"] for e in report.witnesses}
    again = rec.call("recovery.verify_pir.witnessed", verify_pir, encoder, t,
                     w=w, mu=mu, witnesses=witnesses)
    expect(again.verdict, "returned witnesses fail the witness check")


# ---------------------------------------------------------------------------
# packing: the pair-packing backtracker, found and impossible.
# ---------------------------------------------------------------------------

PACKING_FOUND = tuple((r, 4, packing_number_formula(r)) for r in range(4, 14)) + (
    (14, 4, 14), (12, 3, 19))
PACKING_IMPOSSIBLE = tuple((r, 4, packing_number_formula(r) + 1) for r in range(4, 11)) + (
    (11, 4, 7), (13, 5, 4))
# (found instance, k, t): codes built on the designs this pass found.
PACKING_CODES = (((12, 4, 9), 9, 5), ((14, 4, 14), 14, 5), ((12, 3, 19), 19, 4))


def packing_inputs(seed: int) -> dict:
    """A seeded relabelling of the points of each design the codes use."""
    rng = random.Random(f"packing:{seed}")
    return {inst: _shuffled(rng, range(1, inst[0] + 1)) for inst, _, _ in PACKING_CODES}


def _relabel(design: PackingDesign, perm: list[int]) -> PackingDesign:
    blocks = tuple(sorted(tuple(sorted(perm[p - 1] for p in b)) for b in design.blocks))
    return PackingDesign(design.v, design.blocksize, design.strength, design.lam, blocks)


def _witnessed(rec: Recorder, code) -> None:
    report = rec.call("recovery.verify_pir.witnessed", verify_pir, code.encoder, code.t,
                      mu=1, witnesses=code.witness_map())
    expect(report.verdict and report.complete, f"witnesses of {code.provenance} rejected")


def packing_pass(relabel: dict, rec: Recorder) -> None:
    designs = {}
    for v, b, target in PACKING_FOUND:
        with rec.op(f"exact_packing({v},{b},{target})"):
            res = rec.call("designs.exact_packing", exact_packing, v, b, target)
            rec.count("designs.exact_packing.nodes", res.nodes)
            expect(res.status == "found", f"status {res.status}, expected found")
            ok, _ = rec.call("designs.is_packing", is_packing, res.design)
            expect(ok and res.design.num_blocks == target, "design fails the packing re-check")
            designs[(v, b, target)] = res.design
    for v, b, target in PACKING_IMPOSSIBLE:
        with rec.op(f"exact_packing({v},{b},{target})"):
            res = rec.call("designs.exact_packing", exact_packing, v, b, target)
            rec.count("designs.exact_packing.nodes", res.nodes)
            expect(res.status == "impossible", f"status {res.status}, expected impossible")
    for inst, k, t in PACKING_CODES:
        with rec.op(f"build_packing_pir(k={k},t={t})"):
            design = _relabel(designs[inst], relabel[inst])
            code = rec.call("constructions.build_packing_pir", build_packing_pir, k, t, design)
            _witnessed(rec, code)
            if t % 2:
                even = rec.call("constructions.extend_for_even_t", extend_for_even_t, code)
                _witnessed(rec, even)


# ---------------------------------------------------------------------------
# verify: witness-free availability checks (coset enumeration + serving).
# ---------------------------------------------------------------------------

CORPUS_SIZE = 100
CORPUS_GRID = ((2, 1), (3, 1), (4, 2), (6, 2))


@dataclass
class VerifyInputs:
    targets: list[tuple[str, LinearEncoder, int, int | None]]  # label, encoder, t, w
    corpus: list[ExplicitEncoder]


def verify_inputs(seed: int) -> VerifyInputs:
    """5-PIR packing codes on the (12,4,9) design, built here, each under a
    seeded column permutation (verdicts do not depend on it), and a seeded
    corpus of random explicit encoders.  Every code has a solution coset of
    2^12 or 2^13 per bit, so no single call dominates a pass."""
    rng = random.Random(f"verify:{seed}")
    design = exact_packing(12, 4, 9).design
    codes = [(f"packing k={k}", build_packing_pir(k, 5, design), 5, None) for k in range(6, 10)]
    codes.append(("packing k=5 even", extend_for_even_t(build_packing_pir(5, 5, design)), 6, None))
    codes.append(("packing k=9", build_packing_pir(9, 5, design), 5, 4))
    targets = []
    for label, code, t, w in codes:
        g = code.encoder.generator
        targets.append((label, LinearEncoder(_permute_columns(g, _shuffled(rng, range(g.cols)))),
                        t, w))
    corpus = []
    for _ in range(CORPUS_SIZE):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, 8)
        corpus.append(ExplicitEncoder(k, n, tuple(rng.sample(range(1 << n), 1 << k))))
    return VerifyInputs(targets, corpus)


def _verify(rec: Recorder, encoder, t: int, w: int | None = None, mu: int = 1):
    report = rec.call("recovery.verify_pir", verify_pir, encoder, t, w=w, mu=mu)
    rec.count("recovery.verify_pir.nodes", report.nodes)
    return report


def verify_pass(inp: VerifyInputs, rec: Recorder) -> None:
    for label, encoder, t, w in inp.targets:
        with rec.op(f"verify_pir({label},t={t},w={w})"):
            _confirm_pir(rec, encoder, _verify(rec, encoder, t, w), t, w, 1)
            bound = rec.call("bounds.check_mindist_bound", check_mindist_bound, encoder, t, 1)
            expect(bound.ok, f"minimum distance {bound.distance} below {bound.bound}")
    for k in range(1, 10):
        with rec.op(f"build_pir3({k})"):
            built = rec.call("constructions.build_pir3", build_pir3, k)
            encoders = [built.encoder]
            if k <= 6:
                encoders.append(rec.call("recovery.as_explicit", as_explicit, built.encoder))
            for encoder in encoders:
                _confirm_pir(rec, encoder, _verify(rec, encoder, 3), 3, None, 1)
                batch = rec.call("recovery.verify_batch", verify_batch, encoder, 3)
                rec.count("recovery.verify_batch.nodes", batch.nodes)
                expect(batch.verdict and batch.complete, "3-batch verdict not served")
    for i, encoder in enumerate(inp.corpus):
        with rec.op(f"corpus[{i}]"):
            for t, mu in CORPUS_GRID:
                report = _verify(rec, encoder, t, mu=mu)
                expect(report.complete, f"t={t} mu={mu}: incomplete verdict")
                if report.verdict:
                    _confirm_pir(rec, encoder, report, t, None, mu)
                    bound = rec.call("bounds.check_mindist_bound", check_mindist_bound,
                                     encoder, t, mu)
                    expect(bound.ok, f"t={t} mu={mu}: distance bound violated")


# ---------------------------------------------------------------------------
# maxsize: complete A2(n,d) and the optimality reports.
# ---------------------------------------------------------------------------

A2_SERIAL = (((3, 3), 2), ((4, 3), 2), ((5, 3), 4), ((6, 3), 8), ((7, 3), 16), ((9, 5), 6))
A2_PARALLEL = ((9, 5), 6)
OPTIMAL_LENGTHS = {1: 3, 2: 5, 3: 6, 4: 8, 5: 9, 6: 10}


def maxsize_inputs(seed: int) -> None:
    """max_code_size and optimality_report_3pir take only parameters, so the
    seed changes nothing here."""
    return None


def _confirm_a2(rec: Recorder, entry, d: int, value: int) -> None:
    expect(entry.complete and entry.source == "computed" and entry.value == value,
           f"value={entry.value} complete={entry.complete}, expected {value}")
    code = Code.from_values(entry.n, entry.witness)
    expect(code.size == value, "witness size differs from the value")
    expect(rec.call("gf2.min_distance", min_distance, code) >= d, "witness distance below d")


def maxsize_pass(_inp: None, rec: Recorder) -> None:
    for (n, d), value in A2_SERIAL:
        with rec.op(f"max_code_size({n},{d})"):
            entry = rec.call("bounds.max_code_size", max_code_size, n, d, force_compute=True)
            rec.count("bounds.max_code_size.nodes", entry.nodes)
            _confirm_a2(rec, entry, d, value)
    # Parallel node counts differ from serial ones by design: only the
    # verdict is compared, against the same known value the serial call meets.
    (n, d), value = A2_PARALLEL
    with rec.op(f"max_code_size({n},{d},threads=2)"):
        entry = rec.call("bounds.max_code_size.parallel", max_code_size, n, d,
                         force_compute=True, threads=2)
        rec.count("bounds.max_code_size.parallel_nodes", entry.nodes)
        _confirm_a2(rec, entry, d, value)
    for k, n in OPTIMAL_LENGTHS.items():
        with rec.op(f"optimality_report_3pir({k})"):
            report = rec.call("bounds.optimality_report_3pir", optimality_report_3pir, k)
            expect(report.verdict == "exact" and report.lower_bound == report.upper_bound == n
                   and all(link.ok for link in report.chain),
                   f"report {report.lower_bound}..{report.upper_bound} {report.verdict}")


# ---------------------------------------------------------------------------
# hunt: canonical DFS census and the encoder-existence triple scan.
# ---------------------------------------------------------------------------

# (n, size, d) -> number of column-permutation classes of zero-containing codes
CENSUS = (((7, 4, 3), 74), ((8, 3, 3), 33), ((6, 8, 3), 1))
HEURISTIC = (8, 16, 3, 3)  # n, size, d, codes taken


def hunt_inputs(seed: int) -> dict:
    """Seeded coordinate permutations of fixed codes (verdicts do not depend
    on them) and the seed of the heuristic code search."""
    rng = random.Random(f"hunt:{seed}")
    hamming = build_hamming(3).code()
    pir3 = build_pir3(4).encoder.associated_code()
    return {
        "hamming": permute_code(hamming, _shuffled(rng, range(1, hamming.n + 1))),
        "pir3": permute_code(pir3, _shuffled(rng, range(1, pir3.n + 1))),
        "heuristic_seed": rng.randrange(1, 1 << 31),
    }


def _exists(rec: Recorder, code: Code, expected: tuple[str, ...]) -> None:
    res = rec.call("search.encoder_exists_3pir", encoder_exists_3pir, code)
    rec.count("search.encoder_exists_3pir.nodes", res.nodes)
    rec.count("search.encoder_exists_3pir.triples", res.triples_seen)
    rec.count("search.encoder_exists_3pir.candidates", res.candidates)
    expect(res.status in expected, f"status {res.status}, expected one of {expected}")
    if res.status == "found":
        expect(set(res.encoder.codewords) == set(code.values), "encoder leaves the code")
        witnesses = {j + 1: [frozenset(s) for s in sets] for j, sets in enumerate(res.witnesses)}
        report = rec.call("recovery.verify_pir.witnessed", verify_pir, res.encoder, 3, mu=1,
                          witnesses=witnesses)
        expect(report.verdict, "found encoder fails the witness check")


def hunt_pass(inp: dict, rec: Recorder) -> None:
    classes = {}
    for (n, size, d), expected in CENSUS:
        with rec.op(f"search_codes({n},{size},{d})"):
            stats = SearchStats()
            codes = rec.call("search.search_codes.orderly",
                             lambda: list(search_codes(n, size, d, stats=stats)))
            rec.count("search.search_codes.orderly_nodes", stats.nodes)
            expect(stats.complete and len(codes) == expected,
                   f"{len(codes)} classes complete={stats.complete}, expected {expected}")
            for code in codes:
                expect(rec.call("gf2.min_distance", min_distance, code) >= d,
                       "class below the distance")
            classes[(n, size, d)] = codes
    with rec.op("encoder_exists_3pir((6,8,3) class)"):
        (only,) = classes[(6, 8, 3)]
        expect(rec.call("gf2.min_distance", min_distance, only) == 3, "class distance is not 3")
        _exists(rec, only, ("found",))
    with rec.op("encoder_exists_3pir(Hamming (7,16,3))"):
        _exists(rec, inp["hamming"], ("none",))
    with rec.op("encoder_exists_3pir(pir3 k=4)"):
        _exists(rec, inp["pir3"], ("found",))
    n, size, d, limit = HEURISTIC
    heuristic: list[Code] = []
    with rec.op(f"search_codes({n},{size},{d},heuristic)"):
        heuristic += rec.call("search.search_codes.heuristic", lambda: list(search_codes(
            n, size, d, mode="heuristic", seed=inp["heuristic_seed"], limit=limit)))
        expect(len(heuristic) == limit, f"{len(heuristic)} codes emitted, expected {limit}")
        for code in heuristic:
            expect(code.size == size and rec.call("gf2.min_distance", min_distance, code) >= d,
                   "heuristic code below its size or distance")
    for i in range(limit):
        with rec.op(f"encoder_exists_3pir(heuristic code {i})"):
            # No known answer for a random code: any complete decision is accepted.
            _exists(rec, heuristic[i], ("none", "found"))
    with rec.op("check_no_3pir_any_encoder(3)"):
        scan = rec.call("hamming.check_no_3pir_any_encoder", check_no_3pir_any_encoder, 3)
        rec.count("hamming.check_no_3pir_any_encoder.triples", scan.triples_checked)
        expect(scan.verdict == "no_encoder" and scan.triples_checked == 1701,
               f"{scan.verdict} after {scan.triples_checked} triples")


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], object]
    run: Callable[[object, Recorder], None]


WORKLOADS = {
    "packing": Workload(packing_inputs, packing_pass),
    "verify": Workload(verify_inputs, verify_pass),
    "maxsize": Workload(maxsize_inputs, maxsize_pass),
    "hunt": Workload(hunt_inputs, hunt_pass),
}


# ---------------------------------------------------------------------------
# Probes of the traced run: inner calls and node-capped engine rates.
# ---------------------------------------------------------------------------

CLIQUE_PROBE = (8, 3)
CLIQUE_PROBE_NODES = 100_000
OPEN11_BUDGET = 50_000  # the per-code default of open11_hunt


def open11_code(seed: int) -> Code:
    """A seeded (11,128,3) code: the shortened order-4 Hamming code, translated
    and re-columned."""
    rng = random.Random(f"open11:{seed}")
    shortened = [v >> 4 for v in build_hamming(4).code().values if v & 0xF == 0]
    shift = rng.randrange(1 << 11)
    code = Code.from_values(11, (v ^ shift for v in shortened))
    return permute_code(code, _shuffled(rng, range(1, 12)))


def run_probes(verify: VerifyInputs, open11: Code, rec: Recorder) -> dict:
    """Record the probe-measured figures in `rec`; return what the probes
    decided, for the trace file."""
    for _, encoder, _, _ in verify.targets:
        g = encoder.generator
        for j in range(1, g.nrows + 1):
            rec.call("gf2.solve_unit", solve_unit, g, j)
        rec.call("gf2.min_distance", min_distance, LinearCode(g))
    encoder = next(e for label, e, _, w in verify.targets if label == "packing k=9" and w is None)
    for j in range(1, encoder.k + 1):
        res = rec.call("recovery.minimal_recovery_sets", minimal_recovery_sets, encoder, j)
        rec.count("recovery.minimal_recovery_sets.nodes", res.nodes)
        rec.count("recovery.minimal_recovery_sets.kept", len(res.sets))
    for (n, d), _ in A2_SERIAL:
        rec.call("bounds.max_code_size.setup", max_code_size, n, d, budget=0, force_compute=True)
    n, d = CLIQUE_PROBE
    rec.call("bounds.clique.setup", max_code_size, n, d, budget=0)
    capped = rec.call("bounds.clique.capped", max_code_size, n, d, budget=CLIQUE_PROBE_NODES)
    rec.count("bounds.clique.nodes", capped.nodes)
    # The public calls optimality_report_3pir makes, on the same inputs.
    with rec.span("bench.optimality_inner"):
        for k in OPTIMAL_LENGTHS:
            built = rec.call("constructions.build_pir3", build_pir3, k)
            rec.call("recovery.verify_pir", verify_pir, built.encoder, 3, mu=1)
            for m in range(3, min(built.n, 8)):
                rec.call("bounds.max_code_size", max_code_size, m, 3)
            if k == 4:
                rec.call("hamming.check_no_3pir_any_encoder", check_no_3pir_any_encoder, 3)
    res = rec.call("search.encoder_exists_3pir.open11", encoder_exists_3pir, open11,
                   budget=OPEN11_BUDGET)
    rec.count("search.encoder_exists_3pir.open11_triples", res.triples_seen)
    return {"open11_status": res.status}
