import itertools
import json
import random

import pytest

from pircodes.budget import Budget
from pircodes.constructions import build_pir3
from pircodes.errors import FileFormatError, UsageError
from pircodes.gf2 import BitMatrix
from pircodes.recovery import (
    ExplicitEncoder,
    LinearEncoder,
    Query,
    RecoveryFamily,
    as_explicit,
    check_family,
    dump_encoder,
    find_disjoint_family,
    is_recovery_set,
    minimal_recovery_sets,
    parse_encoder,
    serve_query,
    verify_batch,
    verify_pir,
)


def identity_encoder(k: int) -> LinearEncoder:
    return LinearEncoder(BitMatrix.identity(k))


def repetition3_encoder() -> LinearEncoder:
    return LinearEncoder(BitMatrix.from_strings(["111"]))


class TestIsRecoverySet:
    def test_identity_own_position(self):
        e = identity_encoder(3)
        for j in range(1, 4):
            assert is_recovery_set(e, j, {j})

    def test_k2_column_arithmetic(self, k2_encoder):
        assert is_recovery_set(k2_encoder, 1, {3, 5})
        assert not is_recovery_set(k2_encoder, 1, {5})

    def test_full_support_always_recovers(self, k2_encoder):
        assert is_recovery_set(k2_encoder, 2, set(range(1, 6)))

    def test_errors(self, k2_encoder):
        with pytest.raises(UsageError):
            is_recovery_set(k2_encoder, 3, {1})
        with pytest.raises(UsageError):
            is_recovery_set(k2_encoder, 1, {9})
        with pytest.raises(UsageError):
            is_recovery_set(k2_encoder, 1, set())


class TestExplicitLinearAgreement:
    def test_agreement_on_all_subsets(self, k2_encoder):
        ex = as_explicit(k2_encoder)
        n = k2_encoder.n
        for j in (1, 2):
            for r in range(1, n + 1):
                for sub in itertools.combinations(range(1, n + 1), r):
                    assert is_recovery_set(k2_encoder, j, sub) == is_recovery_set(
                        ex, j, sub
                    )

    def test_agreement_random_linear_codes(self):
        rng = random.Random(42)
        for _ in range(8):
            k = rng.randint(1, 5)
            n = rng.randint(k, 10)
            while True:
                m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(k)))
                if m.rank() == k:
                    break
            lin = LinearEncoder(m)
            ex = as_explicit(lin)
            for _ in range(40):
                j = rng.randint(1, k)
                size = rng.randint(1, n)
                sub = frozenset(rng.sample(range(1, n + 1), size))
                assert is_recovery_set(lin, j, sub) == is_recovery_set(ex, j, sub)


class TestMinimalSets:
    def test_identity(self):
        e = identity_encoder(3)
        res = minimal_recovery_sets(e, 2)
        assert res.sets == (frozenset({2}),)
        assert res.complete

    def test_k2_enumeration(self, k2_encoder):
        res = minimal_recovery_sets(k2_encoder, 1, max_width=3)
        assert [sorted(s) for s in res.sets] == [[1], [4], [2, 3], [3, 5]]
        assert res.complete

    def test_hamming_sizes(self, hamming3_encoder):
        for j in range(1, 5):
            res = minimal_recovery_sets(hamming3_encoder, j)
            assert res.complete
            assert all(len(s) == 1 or len(s) >= 3 for s in res.sets)

    def test_explicit_variant_matches_linear(self, k2_encoder):
        lin = minimal_recovery_sets(k2_encoder, 1)
        exp = minimal_recovery_sets(as_explicit(k2_encoder), 1)
        assert lin.sets == exp.sets

    def test_monotone_supersets_recover(self, k2_encoder):
        rng = random.Random(3)
        res = minimal_recovery_sets(k2_encoder, 1)
        n = k2_encoder.n
        for s in res.sets:
            for _ in range(5):
                extra = rng.sample(range(1, n + 1), rng.randint(0, n - len(s)))
                assert is_recovery_set(k2_encoder, 1, set(s) | set(extra))

    def test_budget_flags_incomplete(self, k2_encoder):
        res = minimal_recovery_sets(as_explicit(k2_encoder), 1, budget=Budget(3))
        assert not res.complete


class TestDisjointFamily:
    def test_repetition(self):
        res = find_disjoint_family(repetition3_encoder(), 1, 3)
        assert res.status == "found"
        assert sorted(sorted(s) for s in res.family.sets) == [[1], [2], [3]]

    def test_k2_triple(self, k2_encoder):
        res = find_disjoint_family(k2_encoder, 1, 3)
        assert res.status == "found"
        check_family(k2_encoder, res.family)

    def test_hamming_proven_impossible(self, hamming3_encoder):
        for j in range(1, 5):
            res = find_disjoint_family(hamming3_encoder, j, 3)
            assert res.status == "impossible"

    def test_budget_gives_unknown_not_impossible(self, hamming3_encoder):
        res = find_disjoint_family(hamming3_encoder, 1, 3, budget=Budget(2))
        assert res.status == "unknown"

    def test_family_validation_rejects_overlap(self, k2_encoder):
        fam = RecoveryFamily(1, (frozenset({1}), frozenset({1, 4})))
        with pytest.raises(UsageError):
            check_family(k2_encoder, fam)


class TestServeQuery:
    def test_identity_distinct_bits(self):
        e = identity_encoder(3)
        res = serve_query(e, Query((1, 2, 3)), w=1, mu=1)
        assert res.status == "served"
        assert [sorted(s) for s in res.plan.sets] == [[1], [2], [3]]
        assert res.plan.width == 1 and res.plan.multiplicity == 1

    def test_k2_constant_query(self, k2_encoder):
        res = serve_query(k2_encoder, Query((1, 1, 1)), mu=1)
        assert res.status == "served"
        assert res.plan.width == 2
        used = set()
        for s in res.plan.sets:
            assert not (used & s)
            used |= s

    def test_pigeonhole_unservable(self):
        e = repetition3_encoder()
        res = serve_query(e, Query((1, 1, 1, 1)), mu=1)
        assert res.status == "unservable"

    def test_multiplicity_two_reuses_positions(self):
        e = repetition3_encoder()
        res = serve_query(e, Query((1,) * 6), mu=2)
        assert res.status == "served"
        assert res.plan.multiplicity <= 2

    def test_width_cap_respected(self, k2_encoder):
        # bit 1 has exactly two width-1 recovery sets, {1} and {4}
        res = serve_query(k2_encoder, Query((1, 1)), w=1, mu=1)
        assert res.status == "served"
        assert res.plan.width == 1
        res2 = serve_query(k2_encoder, Query((1, 1, 1)), w=1, mu=1)
        assert res2.status == "unservable"


class TestVerifyPir:
    def test_repetition_t3(self):
        rep = verify_pir(repetition3_encoder(), 3, mu=1)
        assert rep.verdict and rep.complete

    def test_hamming_not_3pir(self, hamming3_encoder):
        rep = verify_pir(hamming3_encoder, 3, mu=1)
        assert not rep.verdict
        assert rep.complete  # proven, not budget-cut
        assert rep.failure["reason"] == "no serving plan exists"

    def test_hamming_is_2pir(self, hamming3_encoder):
        assert verify_pir(hamming3_encoder, 2, mu=1).verdict

    def test_witness_mode_accepts_valid(self, k2_encoder):
        wit = {
            1: [{1}, {4}, {3, 5}],
            2: [{2}, {5}, {3, 4}],
        }
        rep = verify_pir(k2_encoder, 3, mu=1, witnesses=wit)
        assert rep.verdict

    def test_witness_mode_rejects_bogus(self, k2_encoder):
        wit = {1: [{1}, {4}, {5}], 2: [{2}, {5}, {3, 4}]}
        rep = verify_pir(k2_encoder, 3, mu=1, witnesses=wit)
        assert not rep.verdict
        assert rep.failure["bit"] == 1

    def test_report_json_round_trips(self, k2_encoder):
        rep = verify_pir(k2_encoder, 3, mu=1)
        blob = rep.to_json()
        assert json.dumps(json.loads(blob), sort_keys=True) == blob
        doc = json.loads(blob)
        assert doc["property"] == "pir"
        assert doc["parameters"] == {"t": 3, "w": None, "mu": 1}
        assert doc["verdict"] is True
        stats = doc["statistics"]
        assert {"nodes", "set_nodes", "backtrack_nodes", "elapsed"} <= set(stats)
        assert stats["nodes"] == stats["set_nodes"] + stats["backtrack_nodes"]
        assert stats["backtrack_nodes"] == 3 * k2_encoder.k  # no set placed in vain

    def test_witness_positions_are_one_based(self, k2_encoder):
        rep = verify_pir(k2_encoder, 3, mu=1)
        for wit in rep.witnesses:
            for s in wit["sets"]:
                assert all(1 <= p <= k2_encoder.n for p in s)

    @pytest.mark.parametrize("bad", [{"mu": 0}, {"w": 0}, {"mu": -1, "w": 2}])
    def test_invalid_width_or_multiplicity_rejected_on_both_paths(self, bad):
        code = build_pir3(3)
        for witnesses in (None, code.witness_map()):
            with pytest.raises(UsageError, match="must be >= 1"):
                verify_pir(code.encoder, 3, witnesses=witnesses, **bad)


class TestVerifyBatch:
    def test_identity_t1(self):
        assert verify_batch(identity_encoder(2), 1).verdict

    def test_batch_implies_pir(self, k2_encoder):
        t = 3
        batch = verify_batch(k2_encoder, t)
        assert batch.verdict
        assert verify_pir(k2_encoder, t, mu=1).verdict

    def test_repetition_not_2batch(self):
        # two different bits cannot both be served: k=1, so batch == pir here;
        # use a 2-bit encoder without enough disjoint sets instead
        e = identity_encoder(2)
        rep = verify_batch(e, 2)
        assert not rep.verdict  # query (1,1) needs two disjoint sets for bit 1

    def test_query_count(self, k2_encoder):
        rep = verify_batch(k2_encoder, 3)
        assert len(rep.witnesses) == 4  # C(2+3-1, 3)


class TestExplicitEncoder:
    def test_decoder_round_trip(self, k2_encoder):
        ex = as_explicit(k2_encoder)
        for a in range(4):
            assert ex.decode(ex.encode(a)) == a

    def test_decoding_from_witnessed_set_reproduces_bit(self, k2_encoder):
        ex = as_explicit(k2_encoder)
        res = minimal_recovery_sets(ex, 1)
        for s in res.sets:
            mask = 0
            for p in s:
                mask |= 1 << (ex.n - p)
            table = {}
            for a in range(1 << ex.k):
                key = ex.encode(a) & mask
                bit = (a >> (ex.k - 1)) & 1
                assert table.setdefault(key, bit) == bit

    def test_table_must_be_injective(self):
        with pytest.raises(UsageError):
            ExplicitEncoder(1, 2, (1, 1))

    def test_file_round_trip(self, k2_encoder):
        ex = as_explicit(k2_encoder)
        text = dump_encoder(ex)
        assert parse_encoder(text) == ex
        lines = text.strip().splitlines()
        assert [ln.split()[0] for ln in lines] == sorted(ln.split()[0] for ln in lines)

    def test_file_rejects_gaps(self):
        with pytest.raises(FileFormatError):
            parse_encoder("0 00\n")
        with pytest.raises(FileFormatError):
            parse_encoder("1 01\n0 00\n")
