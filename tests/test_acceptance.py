"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The length-8 maximum-size computation (criterion 6, up to 30 minutes) honors
PIRCODES_A2_8: set it to "reference" to assert against the flagged table
entry instead of re-proving it; the default re-proves.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from pircodes.bounds import (
    REFERENCE_A2,
    check_mindist_bound,
    max_code_size,
    optimality_report_3pir,
)
from pircodes.constructions import (
    build_packing_pir,
    build_pir3,
    extend_for_even_t,
    linear_length_table,
)
from pircodes.designs import exact_packing, is_packing, packing_number_formula
from pircodes.gf2 import Code, min_distance, puncture, extend_even_parity
from pircodes.hamming import build_hamming, check_no_3pir_any_encoder
from pircodes.recovery import (
    ExplicitEncoder,
    LinearEncoder,
    as_explicit,
    is_recovery_set,
    minimal_recovery_sets,
    verify_batch,
    verify_pir,
)
from pircodes.search import (
    SearchStats,
    canonical_form,
    encoder_exists_3pir,
    is_canonical,
    open11_hunt,
    permute_code,
    pir_hunt,
    search_codes,
)

from brute_force import brute_force_encoder_search

# Hand-audited packing numbers for 4-blocks (closed form plus exceptions).
PACKING_TABLE = {
    4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 3, 10: 5, 11: 6, 12: 9, 13: 13,
    14: 14, 15: 15, 16: 20, 17: 20, 18: 22, 19: 25, 20: 30,
}


@contextmanager
def criterion(name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_1_table1_reproduction():
    with criterion("1 (length table + exact 3/4-availability verification)"):
        deadline = time.monotonic() + 120  # two 60 s budgets
        proc = subprocess.run(
            [sys.executable, "-m", "pircodes.cli", "--format", "json",
             "optimal-table", "--t", "3", "--kmax", "8"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert [row["n"] for row in doc["table"]] == [3, 5, 6, 8, 9, 10, 12, 13]
        assert [n for _, n in linear_length_table(8)] == [3, 5, 6, 8, 9, 10, 12, 13]
        for k in range(1, 7):
            built = build_pir3(k)
            assert verify_pir(built.encoder, 3, mu=1).verdict, k
            assert verify_batch(built.encoder, 3).verdict, k
            ext = extend_for_even_t(built)
            assert verify_pir(ext.encoder, 4, mu=1).verdict, k
        assert time.monotonic() <= deadline


def test_criterion_2_distance_bound_on_corpus():
    with criterion("2 (distance bound holds on every accepted encoder)"):
        corpus: list = []
        for k in range(1, 7):
            built = build_pir3(k)
            corpus.append((built.encoder, 3, 1))
            corpus.append((extend_for_even_t(built).encoder, 4, 1))
        d12 = exact_packing(12, 4, 9).design
        c9 = build_packing_pir(9, 5, d12)
        corpus.append((c9.encoder, 5, 1))
        corpus.append((extend_for_even_t(c9).encoder, 6, 1))
        rng = random.Random(20240811)
        randoms = 0
        while randoms < 100:
            k = rng.randint(1, 4)
            n = rng.randint(k + 1, 8)
            if (1 << k) > (1 << n):
                continue
            words = rng.sample(range(1 << n), 1 << k)
            corpus.append((ExplicitEncoder(k, n, tuple(words)), None, None))
            randoms += 1
        violations = 0
        for encoder, t_known, mu_known in corpus:
            grid = [(t_known, mu_known)] if t_known else [(2, 1), (3, 1), (4, 2), (6, 2)]
            for t, mu in grid:
                if verify_pir(encoder, t, mu=mu).verdict:
                    if not check_mindist_bound(encoder, t, mu).ok:
                        violations += 1
        assert violations == 0


def test_criterion_3_packing_numbers():
    with criterion("3 (packing-number formula, witnesses, impossibility)"):
        for r, expected in PACKING_TABLE.items():
            assert packing_number_formula(r) == expected, r
        for r in range(4, 14):
            start = time.monotonic()
            res = exact_packing(r, 4, packing_number_formula(r))
            assert res.status == "found", r
            ok, _ = is_packing(res.design)
            assert ok
            assert time.monotonic() - start <= 600, r
        for r in range(4, 11):
            start = time.monotonic()
            res = exact_packing(r, 4, packing_number_formula(r) + 1)
            assert res.status == "impossible", r
            assert time.monotonic() - start <= 600, r


def test_criterion_4_example1_constructions():
    with criterion("4 (length-21 and length-30 5-availability codes)"):
        d12 = exact_packing(12, 4, 9).design
        start = time.monotonic()
        c9 = build_packing_pir(9, 5, d12)
        assert c9.n == 21
        assert verify_pir(c9.encoder, 5, mu=1, witnesses=c9.witness_map()).verdict
        assert time.monotonic() - start <= 5
        e9 = extend_for_even_t(c9)
        assert e9.n == 22
        assert verify_pir(e9.encoder, 6, mu=1, witnesses=e9.witness_map()).verdict

        d15 = exact_packing(15, 4, 15).design
        start = time.monotonic()
        c15 = build_packing_pir(15, 5, d15)
        assert c15.n == 30
        assert verify_pir(c15.encoder, 5, mu=1, witnesses=c15.witness_map()).verdict
        assert time.monotonic() - start <= 5
        e15 = extend_for_even_t(c15)
        assert e15.n == 31
        assert verify_pir(e15.encoder, 6, mu=1, witnesses=e15.witness_map()).verdict


def test_criterion_5_hamming_impossibility():
    with criterion("5 (no 3-availability encoder for the length-7 Hamming code)"):
        start = time.monotonic()
        scan = check_no_3pir_any_encoder(3)
        assert scan.verdict == "no_encoder"
        assert scan.triples_checked == 1701
        assert time.monotonic() - start <= 60

        start = time.monotonic()
        ham = build_hamming(3).code()
        res = encoder_exists_3pir(ham)
        assert res.status == "none"
        assert time.monotonic() - start <= 600

        rep = encoder_exists_3pir(build_hamming(2).code())
        assert rep.status == "found"
        assert verify_pir(rep.encoder, 3, mu=1).verdict


def test_criterion_6_max_code_sizes():
    with criterion("6 (maximum sizes at distance 3, lengths 3..8)"):
        start = time.monotonic()
        for n, expected in ((3, 2), (4, 2), (5, 4), (6, 8), (7, 16)):
            entry = max_code_size(n, 3)
            assert entry.complete and entry.value == expected, n
        assert time.monotonic() - start <= 60

        if os.environ.get("PIRCODES_A2_8") == "reference":
            assert REFERENCE_A2[8] == 20  # flagged literature value, not re-proven
        else:
            start = time.monotonic()
            threads = max(1, min(2, os.cpu_count() or 1))
            entry = max_code_size(8, 3, threads=threads)
            assert entry.complete and entry.value == 20
            assert entry.source == "computed"
            assert time.monotonic() - start <= 1800
        for n in (9, 10, 11, 12):
            entry = max_code_size(n, 3)
            assert entry.source == "reference"
            assert entry.value == REFERENCE_A2[n]


def test_criterion_7_optimal_lengths():
    with criterion("7 (exact shortest lengths for k = 1..6)"):
        expected = {1: 3, 2: 5, 3: 6, 4: 8, 5: 9, 6: 10}
        for k, n in expected.items():
            rep = optimality_report_3pir(k)
            assert rep.verdict == "exact", k
            assert rep.lower_bound == rep.upper_bound == n, k
            for link in rep.chain:
                assert link.ok
                assert link.method.startswith(("computed:", "theorem:", "literature:"))
            if k == 4:
                assert any("za52" in f for f in rep.literature_flags)


def test_criterion_7_stretch_unique_7_16_3():
    with criterion("7-stretch (exhaustive (7,16,3) census: one class)"):
        start = time.monotonic()
        stats = SearchStats()
        classes = list(search_codes(7, 16, 3, stats=stats))
        assert stats.complete
        assert len(classes) == 1
        assert min_distance(classes[0]) == 3
        assert time.monotonic() - start <= 3600


def test_criterion_8_property_suites():
    with criterion("8 (property suites under a fixed seed)"):
        deadline = time.monotonic() + 300
        rng = random.Random(88)

        # recovery-set monotonicity on random supersets of minimal sets
        for k, n in ((2, 5), (3, 6)):
            built = build_pir3(k)
            for j in range(1, k + 1):
                res = minimal_recovery_sets(built.encoder, j)
                for s in res.sets:
                    extra = rng.sample(range(1, built.n + 1),
                                       rng.randint(0, built.n - len(s)))
                    assert is_recovery_set(built.encoder, j, set(s) | set(extra))

        # linear/explicit verifier agreement, n <= 10, k <= 5
        for _ in range(6):
            k = rng.randint(1, 5)
            n = rng.randint(k, 10)
            from pircodes.gf2 import BitMatrix

            while True:
                m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(k)))
                if m.rank() == k:
                    break
            lin = LinearEncoder(m)
            ex = as_explicit(lin)
            for _ in range(30):
                j = rng.randint(1, k)
                sub = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                assert is_recovery_set(lin, j, sub) == is_recovery_set(ex, j, sub)

        # extend/puncture round trip
        for _ in range(30):
            n = rng.randint(2, 8)
            vals = rng.sample(range(1 << n), rng.randint(2, min(12, 1 << n)))
            code = Code.from_values(n, vals)
            ext = extend_even_parity(code)
            back, dropped = puncture(ext, ext.n)
            assert back == code and not dropped

        # packing validity of constructor outputs
        from pircodes.designs import greedy_packing

        for v, b in ((8, 3), (11, 4), (13, 4)):
            ok, _ = is_packing(greedy_packing(v, b))
            assert ok
        res = exact_packing(9, 4, 3)
        ok, _ = is_packing(res.design)
        assert ok

        # canonicalization idempotence and permutation invariance
        for _ in range(20):
            n = rng.randint(2, 7)
            m = rng.randint(1, min(10, 1 << n))
            code = Code.from_values(n, rng.sample(range(1 << n), m))
            cf = canonical_form(code)
            assert canonical_form(cf) == cf
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert canonical_form(permute_code(code, perm)) == cf

        # checkpoint resume determinism (exhaustive mode)
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ck = os.path.join(tmp, "resume.ckpt")
            full = sorted(c.values for c in search_codes(6, 4, 3))
            s1 = SearchStats()
            list(search_codes(6, 4, 3, budget=40, checkpoint=ck, stats=s1))
            assert not s1.complete
            s2 = SearchStats()
            resumed = sorted(c.values for c in search_codes(6, 4, 3,
                                                            checkpoint=ck,
                                                            stats=s2))
            assert s2.complete and resumed == full

        # encoder existence agrees with brute force on every 4-word code with
        # n <= 5; both verdicts are invariant under coordinate permutations,
        # so one representative per permutation class covers them all: the
        # class's one canonical member
        checked = 0
        for n in (3, 4, 5):
            reps = [vals for vals in itertools.combinations(range(1 << n), 4)
                    if is_canonical(Code(n, vals))]
            for vals in reps:
                code = Code(n, vals)
                brute = brute_force_encoder_search(code, t=3)
                comp = encoder_exists_3pir(code)
                assert (brute is not None) == (comp.status == "found"), vals
                checked += 1
        assert checked == 20 + 136 + 625

        assert time.monotonic() <= deadline


def test_open_problem_harness_smoke_and_selftests():
    with criterion("open-problem harness (smoke + pipeline self-tests)"):
        smoke = open11_hunt(seed=1, max_codes=1, per_code_budget=2000,
                            restarts=60)
        assert smoke.codes_examined >= 1
        assert smoke.encoders_found == 0

        ham_pipe = pir_hunt(7, 16, 3, seed=1, max_codes=1, restarts=300)
        assert ham_pipe.codes_examined == 1
        assert ham_pipe.encoders_found == 0
        assert ham_pipe.complete_per_code

        small_pipe = pir_hunt(5, 4, 3, seed=1, max_codes=1, restarts=50)
        assert small_pipe.encoders_found == 1
