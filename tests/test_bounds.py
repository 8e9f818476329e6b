import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import pircodes.bounds as bounds_module
import pircodes.search as search_module
from pircodes.bounds import (
    REFERENCE_A2,
    check_mindist_bound,
    max_code_size,
    optimality_report_3pir,
)
from pircodes.budget import Budget
from pircodes.constructions import build_pir3, extend_for_even_t, linear_length_table
from pircodes.errors import UsageError
from pircodes.gf2 import BitMatrix, Code, min_distance
from pircodes.recovery import LinearEncoder, verify_pir


def repetition3() -> LinearEncoder:
    return LinearEncoder(BitMatrix.from_strings(["111"]))


def brute_force_a2(n: int, d: int) -> int:
    """Largest set of length-n words pairwise at distance >= d, by plain
    recursion over all words with only the remaining-candidates bound."""
    best = 0

    def grow(size: int, cand: list[int]) -> None:
        nonlocal best
        best = max(best, size)
        for i, w in enumerate(cand):
            if size + len(cand) - i <= best:
                return
            grow(size + 1, [u for u in cand[i + 1:] if (u ^ w).bit_count() >= d])

    grow(0, list(range(1 << n)))
    return best


class TestMinDistBound:
    def test_repetition_t3(self):
        chk = check_mindist_bound(repetition3(), 3, 1)
        assert (chk.distance, chk.bound, chk.ok) == (3, 3, True)

    def test_extended_pir3_k4(self):
        ext = extend_for_even_t(build_pir3(4))
        assert verify_pir(ext.encoder, 4, mu=1).verdict
        chk = check_mindist_bound(ext.encoder, 4, 1)
        assert (chk.distance, chk.bound, chk.ok) == (4, 4, True)

    def test_repetition_t6_mu2(self):
        e = repetition3()
        assert verify_pir(e, 6, mu=2).verdict
        chk = check_mindist_bound(e, 6, 2)
        assert (chk.distance, chk.bound, chk.ok) == (3, 3, True)

    def test_vacuous_flag(self):
        chk = check_mindist_bound(repetition3(), 3, 1, pir_verified=False)
        assert chk.vacuous


class TestMaxCodeSize:
    @pytest.mark.parametrize("n,value", [(3, 2), (4, 2), (5, 4), (6, 8), (7, 16)])
    def test_small_lengths_exact(self, n, value):
        entry = max_code_size(n, 3)
        assert entry.value == value
        assert entry.complete and entry.source == "computed"
        witness = Code.from_values(n, entry.witness)
        assert witness.size == value
        if witness.size >= 2:
            assert min_distance(witness) >= 3

    def test_witness_contains_zero(self):
        entry = max_code_size(6, 3)
        assert 0 in entry.witness

    def test_reference_entries_flagged(self):
        entry = max_code_size(9, 3)
        assert entry.source == "reference"
        assert entry.value == 40
        assert not entry.complete

    def test_budget_cut_incomplete(self):
        entry = max_code_size(7, 3, budget=Budget(10))
        assert not entry.complete
        assert entry.value <= 16

    def test_serial_and_parallel_agree(self):
        # the engine never records the clique it starts from, so a run
        # that drops the pinned pair {0, 0..01..1} says A2(3,3) = 1
        for n in range(3, 8):
            for d in range(1, n + 2):
                serial = max_code_size(n, d)
                parallel = max_code_size(n, d, threads=2)
                assert (serial.value, serial.complete) == (
                    parallel.value, parallel.complete), (n, d)
                assert serial.complete, (n, d)
                for entry in (serial, parallel):
                    assert 0 in entry.witness
                    assert len(entry.witness) == entry.value
                    assert all((a ^ b).bit_count() >= d
                               for a, b in combinations(entry.witness, 2)), (n, d)
                if n <= 5:
                    assert serial.value == brute_force_a2(n, d), (n, d)

    def test_parallel_budget_shared_between_chunks(self):
        full = max_code_size(7, 3, threads=2)
        assert full.complete and full.nodes > 0
        for limit in (0, 10, 50, 100, 200, full.nodes - 1, full.nodes, full.nodes + 50):
            budget = Budget(limit)
            entry = max_code_size(7, 3, budget=budget, threads=2)
            assert budget.used == entry.nodes <= limit, limit
            # a chunk that completes spends what it spends uncut, so the
            # total falls short of the uncut run exactly when one was cut
            assert entry.complete == (entry.nodes == full.nodes), limit

    def test_parallel_budget_counts_earlier_use(self):
        for threads in (1, 2):
            budget = Budget(100, used=90)
            entry = max_code_size(7, 3, budget=budget, threads=threads)
            assert entry.nodes <= 10 and not entry.complete, threads
            # a refused node is not spent, and both paths record the cut
            assert (budget.used, budget.exhausted) == (100, True), threads

    def test_length_below_distance_single_word(self):
        # no word pair reaches distance 5 at length 3; both paths must agree
        for threads in (1, 2):
            entry = max_code_size(3, 5, threads=threads)
            assert (entry.value, entry.witness, entry.complete) == (1, (0,), True)

    def test_monotone_in_n(self):
        values = []
        for n in range(3, 13):
            if n <= 7:
                values.append(max_code_size(n, 3).value)
            else:
                values.append(REFERENCE_A2[n])
        assert values == sorted(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            max_code_size(13, 3)
        with pytest.raises(UsageError):
            max_code_size(2, 3)
        for threads in (0, -3):
            with pytest.raises(UsageError):
                max_code_size(5, 3, threads=threads)


class TestBoundTheoremOnCorpus:
    def test_random_explicit_encoders_never_violate(self):
        # any encoder accepted by the exact verifier satisfies d >= ceil(t/mu)
        from pircodes.recovery import ExplicitEncoder

        rng = random.Random(2024)
        violations = 0
        accepted = 0
        for _ in range(60):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 7)
            words = rng.sample(range(1 << n), 1 << k)
            enc = ExplicitEncoder(k, n, tuple(words))
            for t, mu in ((2, 1), (3, 1), (4, 2)):
                rep = verify_pir(enc, t, mu=mu)
                if rep.verdict:
                    accepted += 1
                    chk = check_mindist_bound(enc, t, mu)
                    if not chk.ok:
                        violations += 1
        assert violations == 0
        assert accepted > 0


class TestOptimalityReports:
    @pytest.mark.parametrize("k,expected", [(1, 3), (2, 5), (3, 6), (5, 9), (6, 10)])
    def test_values_without_hamming_chain(self, k, expected):
        rep = optimality_report_3pir(k)
        assert rep.verdict == "exact"
        assert rep.lower_bound == rep.upper_bound == expected

    def test_k4_hamming_exclusion_chain(self):
        rep = optimality_report_3pir(4)
        assert rep.verdict == "exact"
        assert rep.lower_bound == rep.upper_bound == 8
        assert "[za52] uniqueness of the (7,16,3) code" in rep.literature_flags
        claims = [link.claim for link in rep.chain]
        assert any("admits no 3-available encoder" in c for c in claims)
        assert all(link.ok for link in rep.chain)

    def test_k5_k6_carry_no_flags(self):
        for k in (5, 6):
            rep = optimality_report_3pir(k)
            assert rep.verdict == "exact"
            assert rep.literature_flags == []

    def test_k7_k8_gap(self):
        rep7 = optimality_report_3pir(7)
        assert (rep7.lower_bound, rep7.upper_bound, rep7.verdict) == (11, 12, "gap")
        assert any("length 11" in link.claim and link.method.startswith("literature:")
                   for link in rep7.chain)
        assert len(rep7.literature_flags) == 1
        rep8 = optimality_report_3pir(8)
        assert (rep8.lower_bound, rep8.upper_bound, rep8.verdict) == (12, 13, "gap")
        assert rep8.literature_flags == []

    def test_reports_run_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the report searched")

        monkeypatch.setattr(bounds_module, "max_code_size", no_search)
        monkeypatch.setattr(search_module, "search_codes", no_search)
        reports = [optimality_report_3pir(k) for k in range(1, 9)]
        assert [(rep.verdict, rep.lower_bound, rep.upper_bound) for rep in reports] == [
            ("exact", n, n) for n in (3, 5, 6, 8, 9, 10)] + [("gap", 11, 12), ("gap", 12, 13)]

    def test_matches_linear_table(self):
        table = dict(linear_length_table(6))
        for k in range(1, 7):
            rep = optimality_report_3pir(k)
            assert rep.upper_bound == table[k]
            assert rep.lower_bound == table[k]

    def test_k_out_of_range(self):
        for k in (0, -1):
            with pytest.raises(UsageError):
                optimality_report_3pir(k)
        assert optimality_report_3pir(7).k == 7

    def test_sphere_packing_never_excludes_a_known_code(self):
        # the bound may rule out no length that a known distance-3 code fills
        for n in range(3, 8):
            assert (1 << n) // (n + 1) >= max_code_size(n, 3).value
        for n, value in REFERENCE_A2.items():
            assert (1 << n) // (n + 1) >= value


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=1, max_value=14))
def test_report_chain_rechecks(k):
    rep = optimality_report_3pir(k)
    excluded = []
    for link in rep.chain:
        m = re.match(r"length (\d+) impossible", link.claim)
        if m:
            n = int(m.group(1))
            assert link.method == "theorem:sphere-packing"
            assert 2 ** n // (n + 1) < 2 ** k
            excluded.append(n)
    if k == 4:
        excluded.append(7)  # perfect-code branch: the Hamming scan rules it out
    assert sorted(excluded) == list(range(1, rep.lower_bound))
    assert rep.upper_bound == dict(linear_length_table(k))[k]
    assert rep.lower_bound <= rep.upper_bound
    assert (rep.verdict == "exact") == (rep.lower_bound == rep.upper_bound)
