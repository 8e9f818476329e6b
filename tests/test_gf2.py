import random

import pytest

from pircodes.errors import FileFormatError, UsageError
from pircodes.gf2 import (
    BitMatrix,
    Code,
    LinearCode,
    Word,
    dump_code,
    dump_matrix,
    extend_even_parity,
    hamming_distance,
    min_distance,
    parse_code,
    parse_matrix,
    puncture,
    solve_unit,
)


class TestWord:
    def test_round_trip(self):
        w = Word.from_string("10110")
        assert str(w) == "10110"
        assert w.n == 5 and w.value == 0b10110

    def test_bits_are_one_based_msb_first(self):
        w = Word.from_string("10110")
        assert [w.bit(i) for i in range(1, 6)] == [1, 0, 1, 1, 0]
        assert w.support() == (1, 3, 4)
        assert w.weight() == 3

    def test_ordering_matches_integers(self):
        words = [Word.from_string(s) for s in ("110", "001", "010", "101")]
        assert [str(w) for w in sorted(words)] == ["001", "010", "101", "110"]

    def test_sorting_then_dedup_is_idempotent(self):
        rng = random.Random(11)
        vals = [Word(6, rng.randrange(64)) for _ in range(50)]
        once = sorted(set(vals))
        assert sorted(set(once)) == once

    def test_rejects_bad_input(self):
        with pytest.raises(UsageError):
            Word.from_string("10a")
        with pytest.raises(UsageError):
            Word(3, 8)
        with pytest.raises(UsageError):
            Word(0, 0)


class TestHammingDistance:
    def test_identity(self):
        z = Word.from_string("000")
        assert hamming_distance(z, z) == 0

    def test_full_complement(self):
        assert hamming_distance(Word.from_string("000"), Word.from_string("111")) == 3

    def test_hand_counted(self):
        a = Word.from_string("10110")
        b = Word.from_string("01101")
        assert hamming_distance(a, b) == 4
        assert hamming_distance(b, a) == 4

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            hamming_distance(Word.from_string("01"), Word.from_string("011"))


class TestMinDistance:
    def test_repetition(self):
        assert min_distance(Code.from_strings(["000", "111"])) == 3

    def test_k2_span(self, k2_encoder):
        code = LinearCode(k2_encoder.generator).span()
        assert sorted(str(w) for w in code.words()) == [
            "00000", "01101", "10110", "11011",
        ]
        assert min_distance(code) == 3

    def test_hamming74(self, hamming3_code):
        assert min_distance(hamming3_code) == 3

    def test_singleton_rejected(self):
        with pytest.raises(UsageError):
            min_distance(Code.from_strings(["010"]))

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_linear_weight_enum_matches_pairwise(self, k):
        rng = random.Random(100 + k)
        n = k + 4
        while True:
            rows = [rng.randrange(1, 1 << n) for _ in range(k)]
            m = BitMatrix(n, tuple(rows))
            if m.rank() == k:
                break
        lc = LinearCode(m)
        assert min_distance(lc) == min_distance(lc.span())

    def test_cross_check_at_k12(self):
        from pircodes.constructions import build_pir3

        lc = LinearCode(build_pir3(12).encoder.generator)
        assert min_distance(lc) == min_distance(lc.span()) == 3


class TestExtendPuncture:
    def test_extend_repetition(self):
        out = extend_even_parity(Code.from_strings(["000", "111"]))
        assert sorted(str(w) for w in out.words()) == ["0000", "1111"]

    def test_extend_even_weight_appends_zero(self):
        code = Code.from_strings(["0011", "1100", "1111"])
        out = extend_even_parity(code)
        assert sorted(str(w) for w in out.words()) == ["00110", "11000", "11110"]

    def test_extend_k2_span_reaches_distance_4(self, k2_encoder):
        code = LinearCode(k2_encoder.generator).span()
        assert min_distance(extend_even_parity(code)) == 4

    def test_puncture_basic(self):
        code, dropped = puncture(Code.from_strings(["0000", "1111"]), 4)
        assert sorted(str(w) for w in code.words()) == ["000", "111"]
        assert not dropped

    def test_puncture_collapse_flagged(self):
        code, dropped = puncture(Code.from_strings(["00", "01"]), 2)
        assert [str(w) for w in code.words()] == ["0"]
        assert dropped

    def test_extend_then_puncture_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 8)
            vals = rng.sample(range(1 << n), rng.randint(2, min(10, 1 << n)))
            code = Code.from_values(n, vals)
            ext = extend_even_parity(code)
            back, dropped = puncture(ext, ext.n)
            assert back == code and not dropped

    def test_puncture_lowers_distance_by_at_most_one(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(3, 8)
            vals = rng.sample(range(1 << n), rng.randint(2, 8))
            code = Code.from_values(n, vals)
            d = min_distance(code)
            for i in range(1, n + 1):
                small, _ = puncture(code, i)
                if small.size >= 2:
                    assert min_distance(small) >= d - 1

    def test_puncture_position_out_of_range(self):
        with pytest.raises(UsageError):
            puncture(Code.from_strings(["00", "11"]), 3)


class TestSolveUnit:
    def test_identity_matrix(self):
        g = BitMatrix.identity(4)
        for j in range(1, 5):
            sol = solve_unit(g, j)
            assert sol.solution_positions() == (j,)
            assert sol.kernel == ()

    def test_k2_example(self, k2_encoder):
        sol = solve_unit(k2_encoder.generator, 1)
        assert sol.solution_positions() == (1,)
        assert len(sol.kernel) == 3

    def test_solutions_verify_by_multiplication(self):
        rng = random.Random(9)
        for _ in range(30):
            k = rng.randint(1, 5)
            n = rng.randint(k, 9)
            rows = tuple(rng.randrange(1 << n) for _ in range(k))
            g = BitMatrix(n, rows)
            j = rng.randint(1, k)
            sol = solve_unit(g, j)
            e_j = 1 << (k - j)
            if sol.solvable:
                assert g.column_combination(sol.solution) == e_j
            for b in sol.kernel:
                assert g.column_combination(b) == 0
            # coset walk stays inside the solution set
            if sol.solvable:
                for x in list(sol.all_solutions())[:16]:
                    assert g.column_combination(x) == e_j

    def test_kernel_is_in_systematic_form(self):
        rng = random.Random(10)
        for _ in range(200):
            k = rng.randint(1, 5)
            n = rng.randint(1, 9)
            g = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(k)))
            sol = solve_unit(g, rng.randint(1, k))
            assert sol.pivots.bit_count() == g.rank()
            if not sol.solvable:
                continue
            assert sol.solution & ~sol.pivots == 0
            free = [z & ~sol.pivots for z in sol.kernel]
            # one free column per kernel vector, each free column once
            assert all(f.bit_count() == 1 for f in free)
            assert sum(free) == ((1 << n) - 1) & ~sol.pivots

    def test_zero_column_never_in_minimal_support(self):
        # column 3 is zero: it only ever enters via the kernel
        g = BitMatrix.from_strings(["10010", "01001"])
        sol = solve_unit(g, 1)
        assert sol.solvable
        supports = [x for x in sol.all_solutions()]
        minimal = [
            s for s in supports
            if not any(t != s and (t & s) == t for t in supports)
        ]
        for s in minimal:
            assert not (s >> (5 - 3)) & 1

    def test_no_solution_is_a_value(self):
        g = BitMatrix.from_strings(["1100", "1100"])  # rank 1
        sol = solve_unit(g, 1)
        assert not sol.solvable and sol.solution is None


class TestLinearCode:
    def test_rank_check_on_construction(self):
        with pytest.raises(UsageError):
            LinearCode(BitMatrix.from_strings(["110", "110"]))

    def test_span_size(self, k2_encoder):
        assert LinearCode(k2_encoder.generator).span().size == 4

    def test_dimension(self):
        assert Code.from_strings(["00", "01", "10", "11"]).dimension() == 2
        assert Code.from_strings(["00", "01", "10"]).dimension() is None


class TestFiles:
    def test_code_round_trip(self, tmp_path):
        code = Code.from_strings(["0101", "0011", "1110"])
        text = dump_code(code)
        assert parse_code(text) == code
        assert text.splitlines() == sorted(text.splitlines())

    def test_code_comments_ignored(self):
        code = parse_code("# header\n011\n# mid\n101\n")
        assert sorted(str(w) for w in code.words()) == ["011", "101"]

    def test_matrix_round_trip(self, k2_encoder):
        m = k2_encoder.generator
        assert parse_matrix(dump_matrix(m)) == m

    def test_bad_code_file(self):
        with pytest.raises(FileFormatError):
            parse_code("01\n0a\n")
        with pytest.raises(FileFormatError):
            parse_code("# only comments\n")
