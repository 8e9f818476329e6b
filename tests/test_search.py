import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pircodes.search as search_module
from pircodes.budget import Budget
from pircodes.errors import CheckpointError, UsageError
from pircodes.gf2 import Code, LinearCode, min_distance
from pircodes.constructions import build_pir3
from pircodes.hamming import build_hamming
from pircodes.recovery import verify_pir
from pircodes.search import (
    SearchStats,
    canonical_form,
    encoder_exists_3pir,
    is_canonical,
    permute_code,
    pir_hunt,
    recoverable_functions,
    search_codes,
)

from brute_force import brute_force_encoder_search, reference_encoder_status


def reference_greedy_swap(n: int, size: int, dmin: int, rng: random.Random) -> list[int]:
    """One heuristic restart as it was: every word's conflicts found by a
    scan of all chosen words.  `search._greedy_swap` keeps neighbour counts
    instead and must leave the same words in the same order and the
    generator in the same state."""
    universe = list(range(1 << n))
    order = universe[:]
    rng.shuffle(order)
    chosen: list[int] = []
    for w in order:
        if all((w ^ c).bit_count() >= dmin for c in chosen):
            chosen.append(w)
    for _ in range(40):
        if len(chosen) >= size:
            break
        improved = False
        sample = universe[:]
        rng.shuffle(sample)
        for w in sample:
            conflicts = [c for c in chosen if (w ^ c).bit_count() < dmin]
            if not conflicts:
                chosen.append(w)
                improved = True
            elif len(conflicts) == 1 and conflicts[0] != w and rng.random() < 0.5:
                chosen.remove(conflicts[0])
                chosen.append(w)
                improved = True
        if not improved and len(chosen) < size:
            for _ in range(min(3, len(chosen))):
                chosen.pop(rng.randrange(len(chosen)))
    return chosen


def random_code(rng: random.Random, n: int, m: int) -> Code:
    return Code.from_values(n, rng.sample(range(1 << n), m))


class TestCanonicalForm:
    def test_fixed_points(self):
        code = Code.from_strings(["000", "111"])
        assert canonical_form(code) == code
        assert is_canonical(code)

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 7)
            code = random_code(rng, n, rng.randint(1, min(10, 1 << n)))
            cf = canonical_form(code)
            assert canonical_form(cf) == cf
            assert is_canonical(cf)

    def test_permutation_invariance(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 7)
            code = random_code(rng, n, rng.randint(1, min(12, 1 << n)))
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert canonical_form(code) == canonical_form(permute_code(code, perm))

    def test_is_canonical_consistent_with_form(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 6)
            code = random_code(rng, n, rng.randint(1, min(8, 1 << n)))
            assert is_canonical(code) == (canonical_form(code) == code)

    def test_permute_code_validates(self):
        code = Code.from_strings(["01"])
        with pytest.raises(UsageError):
            permute_code(code, [1, 1])


class TestRecoverableFunctions:
    def test_repetition_identity_bit(self):
        code = Code.from_strings(["000", "111"])
        first = next(iter(recoverable_functions(code)))
        assert first.partition.triple == ((1,), (2,), (3,))
        assert len(first.partition.components) == 2
        assert len(first.colorings) == 1  # normalized up to complement

    def test_hamming_colorings_respect_complement(self, hamming3_code):
        all_one = (1 << 7) - 1
        code_vals = set(hamming3_code.values)
        seen = 0
        for rec in recoverable_functions(hamming3_code):
            for coloring in rec.colorings:
                seen += 1
                side = set(coloring)
                assert {v ^ all_one for v in side} == side
            assert not rec.truncated
        assert seen > 0

    def test_pir3_k2_code_shows_linear_bits(self):
        cc = build_pir3(2)
        code = LinearCode(cc.encoder.generator).span()
        values = list(code.values)
        # data bit 1 splits the code by the first position
        bit1 = frozenset(v for v in values if (v >> 4) & 1)
        bit2 = frozenset(v for v in values if (v >> 3) & 1)
        found = set()
        for rec in recoverable_functions(code):
            for coloring in rec.colorings:
                side = frozenset(coloring)
                for target in (bit1, bit2):
                    if side in (target, frozenset(values) - target):
                        found.add(target)
        assert found == {bit1, bit2}

    def test_requires_power_of_two(self):
        with pytest.raises(UsageError):
            list(recoverable_functions(Code.from_strings(["000", "011", "101"])))


class TestEncoderExists:
    def test_repetition_found(self):
        res = encoder_exists_3pir(Code.from_strings(["000", "111"]))
        assert res.status == "found"
        assert res.witnesses == (((1,), (2,), (3,)),)
        assert verify_pir(res.encoder, 3, mu=1).verdict

    def test_pir3_k2_code_found(self):
        code = LinearCode(build_pir3(2).encoder.generator).span()
        res = encoder_exists_3pir(code)
        assert res.status == "found"
        assert verify_pir(res.encoder, 3, mu=1).verdict

    def test_hamming_none(self, hamming3_code):
        res = encoder_exists_3pir(hamming3_code)
        assert res.status == "none"
        assert res.best_depth < 4

    def test_rank_certificate_decides_hamming_without_backtracking(self, hamming3_code):
        # 7 candidates of rank 3 < k = 4: one node per partition, none more.
        res = encoder_exists_3pir(hamming3_code)
        assert (res.status, res.candidates, res.best_depth) == ("none", 7, 0)
        assert res.nodes == res.triples_seen == 301

    def test_rank_certificate_decides_shortened_hamming_11(self):
        # The shortened order-4 Hamming (11,128,3) code: 25 candidates of rank
        # 5 < k = 7.  Backtracking needed 129,296 nodes to reach "none".
        code = Code.from_values(11, [v >> 4 for v in build_hamming(4).code().values
                                     if v & 0xF == 0])
        res = encoder_exists_3pir(code, budget=50_000)
        assert (res.status, res.candidates) == ("none", 25)
        assert res.nodes == res.triples_seen == 28_501

    def test_rank_certificate_matches_plain_search(self):
        # Every 4-word code with n <= 4; at n = 5 one code per class under
        # translations and column permutations, which keep the status; and
        # the census classes (not the 251 of (8,4,3), for time).
        codes = [Code(n, vals) for n in (2, 3, 4)
                 for vals in itertools.combinations(range(1 << n), 4)]
        codes += [code for vals in itertools.combinations(range(1, 32), 3)
                  if is_canonical(code := Code(5, (0,) + vals))]
        for params in ((7, 4, 3), (6, 8, 3), (7, 16, 3)):
            codes += search_codes(*params)
        for code in codes:
            assert encoder_exists_3pir(code).status == reference_encoder_status(code), code

    def test_rank_certificate_waits_for_a_complete_scan(self, hamming3_code):
        # A budget cut inside the scan leaves the rank test unused.
        res = encoder_exists_3pir(hamming3_code, budget=Budget(300))
        assert res.status == "unknown" and res.nodes == 300

    def test_budget_downgrades_to_unknown(self, hamming3_code):
        res = encoder_exists_3pir(hamming3_code, budget=Budget(100))
        assert res.status == "unknown"

    def test_agrees_with_brute_force_on_all_m4_codes(self):
        # every (n<=5, M=4, d>=1) code: component search == brute force
        rng = random.Random(47)
        checked = 0
        for n in (3, 4, 5):
            pool = list(itertools.combinations(range(1 << n), 4))
            rng.shuffle(pool)
            for vals in pool[:40]:
                code = Code.from_values(n, vals)
                brute = brute_force_encoder_search(code, t=3)
                comp = encoder_exists_3pir(code)
                assert (brute is not None) == (comp.status == "found"), vals
                checked += 1
        assert checked == 120


class TestSearchCodes:
    def test_n4_m4_d3_is_empty(self):
        with pytest.warns(UserWarning, match="exceeds the maximum"):
            assert list(search_codes(4, 4, 3)) == []

    def test_n5_m4_d3_survey(self):
        out = list(search_codes(5, 4, 3))
        assert len(out) == 1
        assert [format(v, "05b") for v in out[0].values] == [
            "00000", "00111", "11001", "11110",
        ]
        assert min_distance(out[0]) == 3

    def test_emitted_codes_are_canonical_and_valid(self):
        for code in search_codes(6, 4, 3):
            assert is_canonical(code)
            assert min_distance(code) >= 3
            assert code.values[0] == 0

    def test_heuristic_deterministic(self, tmp_path):
        a = [c.values for c in search_codes(6, 8, 3, mode="heuristic", seed=5,
                                            restarts=20)]
        b = [c.values for c in search_codes(6, 8, 3, mode="heuristic", seed=5,
                                            restarts=20)]
        assert a == b and a
        c = [cc.values for cc in search_codes(6, 8, 3, mode="heuristic", seed=6,
                                              restarts=20)]
        assert sorted(set(a)) != sorted(set(c)) or a != c

    def test_flags_the_mode_ignores_are_rejected(self):
        for kwargs, names in (({"mode": "heuristic", "budget": 1}, "--budget"),
                              ({"seed": 99}, "--seed"),
                              ({"mode": "exhaustive", "restarts": 0}, "--restarts"),
                              ({"seed": 99, "restarts": 0}, "--seed, --restarts")):
            with pytest.raises(UsageError, match=f"{names} has no effect"):
                list(search_codes(6, 4, 3, **kwargs))

    def test_heuristic_defaults_are_seed_1_and_200_restarts(self):
        implicit = [c.values for c in search_codes(6, 8, 3, mode="heuristic", limit=3)]
        explicit = [c.values for c in search_codes(6, 8, 3, mode="heuristic", limit=3,
                                                   seed=1, restarts=200)]
        assert implicit == explicit and len(implicit) == 3

    def test_misuse_raises_at_the_call(self, tmp_path):
        ck = tmp_path / "search.ckpt"
        for kwargs in ({"mode": "heuristic", "budget": 1}, {"mode": "greedy"},
                       {"size": 65}, {"seed": 3}):
            with pytest.raises(UsageError):
                search_codes(**{"n": 6, "size": 4, "dmin": 3, "checkpoint": str(ck),
                                **kwargs})  # raised before any next()
        assert not ck.exists()

    def test_checkpoint_opened_when_the_stream_starts(self, tmp_path):
        ck = tmp_path / "search.ckpt"
        stream = search_codes(5, 4, 3, checkpoint=str(ck))
        assert not ck.exists()
        assert len(list(stream)) == 1 and ck.exists()

    def test_heuristic_finds_hamming_length7(self):
        found = list(search_codes(7, 16, 3, mode="heuristic", seed=1, limit=1,
                                  restarts=300))
        assert len(found) == 1
        assert min_distance(found[0]) == 3

    def test_checkpoint_resume_same_results(self, tmp_path):
        ck = str(tmp_path / "search.ckpt")
        full = [c.values for c in search_codes(6, 4, 3)]
        # interrupted run: small budget, then resume to completion
        stats1 = SearchStats()
        part = [c.values for c in search_codes(6, 4, 3, budget=40,
                                               checkpoint=ck, stats=stats1)]
        assert not stats1.complete
        stats2 = SearchStats()
        resumed = [c.values for c in search_codes(6, 4, 3, checkpoint=ck,
                                                  stats=stats2)]
        assert stats2.complete
        assert sorted(resumed) == sorted(full)
        assert set(part) <= set(resumed)

    @pytest.mark.parametrize("n,size,dmin,nodes", [(6, 4, 3, 114), (5, 4, 2, 148),
                                                  (7, 4, 3, 701)])
    def test_checkpoint_resume_at_every_cut(self, tmp_path, n, size, dmin, nodes):
        stats = SearchStats()
        full = [c.values for c in search_codes(n, size, dmin, stats=stats)]
        assert stats.nodes == nodes
        for budget in range(nodes + 2):
            ck = str(tmp_path / f"cut{budget}.ckpt")
            cut_stats = SearchStats()
            cut = [c.values for c in search_codes(n, size, dmin, budget=budget,
                                                  checkpoint=ck, stats=cut_stats)]
            assert cut_stats.complete == (budget >= nodes), budget
            stats = SearchStats()
            resumed = [c.values for c in search_codes(n, size, dmin, checkpoint=ck,
                                                      stats=stats)]
            assert stats.complete, budget
            assert len(resumed) == len(set(resumed)), budget
            assert set(cut) <= set(resumed), budget
            assert set(resumed) == set(full), budget

    @pytest.mark.parametrize("n,size,dmin", [(5, 4, 1), (5, 4, 3), (6, 4, 3), (6, 8, 3)])
    def test_complete_checkpoint_has_one_root_record_per_weight(self, tmp_path, n, size,
                                                                 dmin):
        ck = tmp_path / "search.ckpt"
        stats = SearchStats()
        list(search_codes(n, size, dmin, checkpoint=str(ck), stats=stats))
        assert stats.complete
        records = [json.loads(line) for line in ck.read_text().splitlines()[1:]]
        roots = [rec["root"] for rec in records if rec["type"] == "root_done"]
        assert roots == [(1 << w) - 1 for w in range(dmin, n + 1)]

    def test_checkpoint_problem_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "search.ckpt")
        list(search_codes(5, 4, 3, checkpoint=ck))
        with pytest.raises(CheckpointError):
            list(search_codes(5, 4, 2, checkpoint=ck))

    def test_checkpoint_corrupt_middle_record_rejected(self, tmp_path):
        ck = tmp_path / "search.ckpt"
        list(search_codes(5, 4, 3, checkpoint=str(ck)))
        lines = ck.read_text().splitlines()
        assert len(lines) >= 3
        lines[1] = lines[1][:-3]  # damage a record that is not the last
        ck.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint record 2"):
            list(search_codes(5, 4, 3, checkpoint=str(ck)))

    def test_checkpoint_torn_last_record_tolerated(self, tmp_path):
        ck = tmp_path / "search.ckpt"
        full = [c.values for c in search_codes(6, 4, 3)]
        stats = SearchStats()
        list(search_codes(6, 4, 3, budget=40, checkpoint=str(ck), stats=stats))
        assert not stats.complete
        with open(ck, "a", encoding="ascii") as fh:
            fh.write('{"type": "code", "val')  # write cut short
        resumed = [c.values for c in search_codes(6, 4, 3, checkpoint=str(ck))]
        assert sorted(resumed) == sorted(full)
        # The torn line was cut off, so later records stay readable.
        for line in ck.read_text().splitlines():
            json.loads(line)

    def test_checkpoint_record_without_newline_kept(self, tmp_path):
        ck = tmp_path / "search.ckpt"
        full = [c.values for c in search_codes(6, 4, 3)]
        list(search_codes(6, 4, 3, budget=40, checkpoint=str(ck)))
        ck.write_text(ck.read_text().rstrip("\n"))  # write cut before its newline
        resumed = [c.values for c in search_codes(6, 4, 3, checkpoint=str(ck))]
        assert sorted(resumed) == sorted(full)
        for line in ck.read_text().splitlines():
            json.loads(line)

    def test_exhaustive_n6_m8(self):
        out = list(search_codes(6, 8, 3))
        assert out  # A2(6,3) = 8: the shortened Hamming code exists
        for code in out:
            assert min_distance(code) >= 3

    def test_exhaustive_7_16_3_unique(self):
        out = list(search_codes(7, 16, 3))
        assert len(out) == 1
        h = out[0]
        assert min_distance(h) == 3 and h.size == 16


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), dmin=st.integers(0, 5), size_share=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
@example(n=8, dmin=3, size_share=0.08, seed=1)  # a (8,20,3) restart: many swaps
@example(n=6, dmin=0, size_share=1.0, seed=2)  # no word conflicts with any other
def test_greedy_swap_matches_reference(n, dmin, size_share, seed):
    universe = list(range(1 << n))
    ball = [m for m in universe if m.bit_count() < dmin]
    size = max(1, round(size_share * len(universe)))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert search_module._greedy_swap(universe, ball, size, rng) == reference_greedy_swap(
        n, size, dmin, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n,size,dmin,seed,restarts", [
    (6, 8, 3, 5, 20), (7, 16, 3, 1, 30), (8, 16, 3, 2, 10), (8, 20, 3, 3, 5),
    (5, 4, 1, 1, 10), (6, 4, 4, 9, 10), (7, 9, 3, 4, 6),
])
def test_heuristic_stream_matches_reference(n, size, dmin, seed, restarts):
    expected = []
    for ridx in range(restarts):
        chosen = reference_greedy_swap(n, size, dmin, random.Random(f"pircodes:{seed}:{ridx}"))
        code = tuple(sorted(chosen)[:size])
        if len(chosen) >= size and code not in expected:
            expected.append(code)
    stream = search_codes(n, size, dmin, mode="heuristic", seed=seed, restarts=restarts)
    assert [c.values for c in stream] == expected


class TestHuntPipeline:
    def test_smoke_tiny_budget(self):
        rep = pir_hunt(5, 4, 3, seed=2, max_codes=1, per_code_budget=200,
                       restarts=30)
        assert rep.codes_examined >= 1

    def test_self_test_5_4_3_finds_encoder(self):
        rep = pir_hunt(5, 4, 3, seed=1, max_codes=1, restarts=50)
        assert rep.codes_examined == 1
        assert rep.encoders_found == 1

    def test_self_test_7_16_3_none(self):
        rep = pir_hunt(7, 16, 3, seed=1, max_codes=1, restarts=300)
        assert rep.codes_examined == 1
        assert rep.encoders_found == 0
        assert rep.complete_per_code  # a genuine "none", not a budget cut

    def test_open11_smoke(self):
        from pircodes.search import open11_hunt

        rep = open11_hunt(seed=1, max_codes=1, per_code_budget=2000,
                          restarts=60)
        assert rep.codes_examined >= 1
        assert rep.encoders_found == 0
        assert rep.n == 11 and rep.size == 128

    def test_hunt_has_no_mode(self):
        with pytest.raises(TypeError):
            pir_hunt(5, 4, 3, seed=1, max_codes=1, restarts=50, mode="exhaustive")

    def test_hunt_checkpoint_reuses_outcomes(self, tmp_path):
        ck = str(tmp_path / "hunt.ckpt")
        rep1 = pir_hunt(5, 4, 3, seed=1, max_codes=1, restarts=50,
                        checkpoint=ck)
        rep2 = pir_hunt(5, 4, 3, seed=1, max_codes=1, restarts=50,
                        checkpoint=ck)
        assert rep1.encoders_found == rep2.encoders_found == 1
        assert rep1.codes_examined == rep2.codes_examined == 1

    def test_hunt_opens_one_checkpoint(self, tmp_path, monkeypatch):
        opened = []

        class CountingCheckpoint(search_module._Checkpoint):
            def __init__(self, path, problem):
                opened.append(path)
                super().__init__(path, problem)

        monkeypatch.setattr(search_module, "_Checkpoint", CountingCheckpoint)
        ck = str(tmp_path / "hunt.ckpt")
        pir_hunt(5, 4, 3, seed=1, max_codes=1, restarts=50, checkpoint=ck)
        assert opened == [ck]
        with open(ck, encoding="ascii") as fh:
            kinds = [json.loads(ln).get("type") for ln in fh]
        assert kinds.count("code") == kinds.count("examined") == 1
