import random

import pytest

import pircodes.hamming as hamming_module
from pircodes.errors import UsageError
from pircodes.gf2 import LinearCode, min_distance
from pircodes.hamming import (
    build_hamming,
    check_no_3pir_any_encoder,
    check_triple_geometry,
    coset_triples,
    line_word_value,
    lines_pg,
)


class TestBuildHamming:
    def test_r2_is_repetition(self):
        h = build_hamming(2)
        assert (h.n, h.k) == (3, 1)
        assert [format(v, "03b") for v in h.code().values] == ["000", "111"]

    def test_r3_weight_enumerator(self, hamming3_code):
        counts = {}
        for v in hamming3_code.values:
            counts[v.bit_count()] = counts.get(v.bit_count(), 0) + 1
        assert counts == {0: 1, 3: 7, 4: 7, 7: 1}

    def test_r4_parameters_and_all_one(self):
        h = build_hamming(4)
        assert (h.n, h.k) == (15, 11)
        assert h.is_codeword((1 << 15) - 1)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_generator_orthogonal_to_parity_check(self, r):
        h = build_hamming(r)
        for row in h.generator.rows:
            assert h.syndrome(row) == 0

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_all_one_word_is_codeword(self, r):
        h = build_hamming(r)
        assert h.is_codeword((1 << h.n) - 1)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_min_distance_three_by_enumeration(self, r):
        h = build_hamming(r)
        assert min_distance(h.code()) == 3

    @pytest.mark.parametrize("r", [5, 6])
    def test_min_distance_three_structurally(self, r):
        # distinct nonzero parity-check columns rule out weights 1 and 2;
        # any projective line supplies an explicit weight-3 codeword
        h = build_hamming(r)
        cols = [h.parity_check.column(j) for j in range(1, h.n + 1)]
        assert len(set(cols)) == h.n and 0 not in cols
        line = lines_pg(r)[0]
        w = line_word_value(line, h.n)
        assert w.bit_count() == 3 and h.is_codeword(w)

    def test_rank_is_full(self):
        h = build_hamming(3)
        assert LinearCode(h.generator).k == 4

    def test_small_r_rejected(self):
        with pytest.raises(UsageError):
            build_hamming(1)


class TestLines:
    @pytest.mark.parametrize("r,count", [(2, 1), (3, 7), (4, 35)])
    def test_counts(self, r, count):
        lines = lines_pg(r)
        assert len(lines) == count
        n = (1 << r) - 1
        assert len(lines) * 6 == n * (n - 1)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_lines_are_weight3_codewords(self, r):
        h = build_hamming(r)
        for line in lines_pg(r):
            v = line_word_value(line, h.n)
            assert v.bit_count() == 3
            assert h.is_codeword(v)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_every_point_on_expected_line_count(self, r):
        n = (1 << r) - 1
        per_point = {p: 0 for p in range(1, n + 1)}
        for line in lines_pg(r):
            for p in line.points:
                per_point[p] += 1
        expected = (1 << (r - 1)) - 1
        assert set(per_point.values()) == {expected}


class TestComplementSymmetry:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_complement_preserves_agreement(self, r):
        h = build_hamming(r)
        code = h.code()
        values = list(code.values)
        all_one = (1 << h.n) - 1
        rng = random.Random(17)
        for _ in range(200):
            mask = rng.randrange(1, 1 << h.n)
            c1, c2 = rng.sample(values, 2)
            assert ((c1 & mask) == (c2 & mask)) == (
                ((c1 ^ all_one) & mask) == ((c2 ^ all_one) & mask)
            )

    def test_complement_is_codeword_map(self, hamming3):
        code_vals = set(hamming3.code().values)
        all_one = (1 << 7) - 1
        assert {v ^ all_one for v in code_vals} == code_vals


class TestImpossibilityScan:
    def test_r3_no_encoder(self):
        rep = check_no_3pir_any_encoder(3)
        assert rep.verdict == "no_encoder"
        assert rep.failing_triples == 0
        assert rep.triples_checked == 1701  # all disjoint triples over 7 positions
        assert rep.partitions_scanned == 301  # S(7,3): the partitions covering them
        assert rep.to_jsonable()["partitions_scanned"] == 301

    def test_r2_encoder_exists(self):
        rep = check_no_3pir_any_encoder(2)
        assert rep.verdict == "encoder_exists"
        assert rep.counterexample == ((1,), (2,), (3,))

    def test_out_of_regime_rejected(self, monkeypatch):
        # Rejected before any scan: S(31,3) is about 10^14 partitions.
        def no_scan(n):
            raise AssertionError("scan started")

        monkeypatch.setattr(hamming_module, "_iter_partitions", no_scan)
        for r in (1, 5):
            with pytest.raises(UsageError):
                check_no_3pir_any_encoder(r)


class TestTripleGeometryClaims:
    def test_coset_triples_all_pass_r3(self):
        triples = coset_triples(3)
        assert len(triples) == 7
        for triple in triples:
            rep = check_triple_geometry(3, triple)
            assert rep.all_hold
            assert rep.sizes == (2, 2, 2)

    def test_singleton_triple_fails_coset_claim(self):
        rep = check_triple_geometry(3, ({1}, {2}, {3}))
        assert not rep.coset_structure
        assert not rep.all_hold

    def test_line_split_fails_closure(self):
        # {1,2} and {3}: the line {1,2,3} meets exactly two of the sets
        rep = check_triple_geometry(3, ({1, 2}, {3}, {4}))
        assert not rep.line_closure

    def test_set_containing_line_detected(self):
        rep = check_triple_geometry(3, ({1, 2, 3}, {4}, {5}))
        assert not rep.no_line_inside

    def test_r4_coset_triples_have_size_4(self):
        triples = coset_triples(4)
        assert triples
        for triple in triples[:5]:
            rep = check_triple_geometry(4, triple)
            assert rep.coset_structure
            assert rep.sizes == (4, 4, 4)
            assert rep.expected_size == 4

    def test_malformed_triples_rejected(self):
        with pytest.raises(UsageError):
            check_triple_geometry(3, ({1}, {1}, {2}))
        with pytest.raises(UsageError):
            check_triple_geometry(3, ({1}, {2}, set()))
        with pytest.raises(UsageError):
            check_triple_geometry(3, ({1}, {2}, {99}))
