import json
import subprocess
import sys

import pytest

import pircodes.hamming as hamming_module
from pircodes.cli import main
from pircodes.designs import parse_packing


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestConstruct:
    def test_pir3_text(self, capsys):
        code, out, _ = run_cli("construct", "pir3", "--k", "4", capsys=capsys)
        assert code == 0
        assert "n=8" in out

    def test_pir3_json_round_trip(self, capsys):
        code, out, _ = run_cli("--format", "json", "construct", "pir3", "--k", "2",
                               capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["generator"] == ["10110", "01101"]
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            json.loads(json.dumps(doc)), sort_keys=True
        )

    def test_packing_pir_auto_design(self, capsys):
        code, out, _ = run_cli("--format", "json", "construct", "packing-pir",
                               "--k", "9", "--t", "5", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 21 and doc["t"] == 5

    def test_extend_pipeline(self, tmp_path, capsys):
        out_file = str(tmp_path / "c.json")
        code, _, _ = run_cli("construct", "pir3", "--k", "3", "--out", out_file,
                             capsys=capsys)
        assert code == 0
        code, out, _ = run_cli("--format", "json", "extend", "--in", out_file,
                               capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 7 and doc["t"] == 4


class TestVerify:
    def test_hamming_explicit_table_not_3pir(self, tmp_path, capsys, hamming3):
        from pircodes.recovery import LinearEncoder, as_explicit, write_encoder

        table = as_explicit(LinearEncoder(hamming3.generator))
        path = str(tmp_path / "ham.enc")
        write_encoder(table, path)
        code, out, _ = run_cli("--format", "json", "verify", "pir", "--t", "3",
                               "--encoder", path, capsys=capsys)
        assert code == 0  # a negative verdict is still a verdict
        doc = json.loads(out)
        assert doc["verdict"] is False and doc["complete"] is True

    def test_generator_witnesses(self, tmp_path, capsys):
        cfile = str(tmp_path / "c.json")
        run_cli("construct", "pir3", "--k", "4", "--out", cfile, capsys=capsys)
        gfile = str(tmp_path / "g.txt")
        with open(cfile) as fh:
            doc = json.load(fh)
        with open(gfile, "w") as fh:
            fh.write("\n".join(doc["generator"]) + "\n")
        code, out, _ = run_cli("--format", "json", "verify", "pir", "--t", "3",
                               "--generator", gfile, "--witnesses", cfile,
                               capsys=capsys)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_batch(self, tmp_path, capsys):
        cfile = str(tmp_path / "c.json")
        run_cli("construct", "pir3", "--k", "3", "--out", cfile, capsys=capsys)
        gfile = str(tmp_path / "g.txt")
        with open(cfile) as fh:
            doc = json.load(fh)
        with open(gfile, "w") as fh:
            fh.write("\n".join(doc["generator"]) + "\n")
        code, out, _ = run_cli("--format", "json", "verify", "batch", "--t", "3",
                               "--generator", gfile, capsys=capsys)
        assert code == 0
        assert json.loads(out)["verdict"] is True


class TestSmallCommands:
    def test_mindist_code_file(self, tmp_path, capsys):
        path = str(tmp_path / "code.txt")
        with open(path, "w") as fh:
            fh.write("000\n111\n")
        code, out, _ = run_cli("--format", "json", "mindist", "--code", path,
                               capsys=capsys)
        assert code == 0
        assert json.loads(out)["min_distance"] == 3

    def test_packing_number(self, capsys):
        code, out, _ = run_cli("packing", "number", "--r", "12", capsys=capsys)
        assert code == 0
        assert out.strip() == "9"

    def test_packing_find(self, capsys):
        code, out, _ = run_cli("--format", "json", "packing", "find", "--v", "8",
                               "--blocksize", "4", "--target", "3", capsys=capsys)
        assert code == 0
        assert json.loads(out)["status"] == "impossible"

    def test_packing_find_names_its_certificate(self, capsys):
        cases = {("11", "4", "7"): ("impossible", "block_pairs", 0),
                 ("11", "3", "18"): ("impossible", "leave_graph", 0),
                 ("14", "4", "14"): ("found", "search", 89)}
        for (v, b, target), want in cases.items():
            argv = ("packing", "find", "--v", v, "--blocksize", b, "--target", target)
            code, out, _ = run_cli("--format", "json", *argv, capsys=capsys)
            doc = json.loads(out)
            assert (code, doc["status"], doc["certificate"], doc["nodes"]) == (0, *want)
            code, out, _ = run_cli(*argv, capsys=capsys)
            status, certificate, nodes = want
            verdict = f"{status} by {certificate} (nodes={nodes})"
            assert code == 0 and verdict in out.splitlines()[0]
        assert parse_packing(out).num_blocks == 14  # the verdict line is a comment

    def test_packing_find_out_without_design_says_so(self, tmp_path, capsys):
        out_file = tmp_path / "p.txt"
        argv = ("packing", "find", "--v", "11", "--blocksize", "4", "--target", "7",
                "--out", str(out_file))
        code, out, _ = run_cli("--format", "json", *argv, capsys=capsys)
        doc = json.loads(out)
        assert (code, doc["status"], doc["out"]) == (0, "impossible", None)
        code, out, _ = run_cli(*argv, capsys=capsys)
        assert code == 0 and f"{out_file} not written" in out
        assert not out_file.exists()

    def test_packing_find_greedy_writes_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "p.txt")
        code, out, _ = run_cli("--format", "json", "packing", "find", "--v", "7",
                               "--blocksize", "4", "--greedy", "--out", out_file,
                               capsys=capsys)
        assert code == 0
        assert json.loads(out)["blocks"] == [[1, 2, 3, 4], [1, 5, 6, 7]]
        assert json.loads(out)["out"] == out_file
        from pircodes.designs import read_packing

        assert read_packing(out_file).blocks == ((1, 2, 3, 4), (1, 5, 6, 7))

    def test_budget_gives_unknown_verdict_exit_zero(self, capsys):
        code, out, _ = run_cli("--format", "json", "packing", "find", "--v", "15",
                               "--blocksize", "4", "--target", "15",
                               "--budget", "50", capsys=capsys)
        assert code == 0  # "unknown" is still a verdict
        assert json.loads(out)["status"] == "unknown"

    def test_maxsize(self, capsys):
        code, out, _ = run_cli("--format", "json", "maxsize", "--n", "5",
                               capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 4 and doc["complete"] is True

    def test_maxsize_reference(self, capsys):
        code, out, _ = run_cli("--format", "json", "maxsize", "--n", "10",
                               capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 72 and doc["source"] == "reference"

    def test_optimal_table(self, capsys):
        code, out, _ = run_cli("--format", "json", "optimal-table", "--t", "3",
                               "--kmax", "8", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert [row["n"] for row in doc["table"]] == [3, 5, 6, 8, 9, 10, 12, 13]

    def test_optimal_table_prove_covers_kmax(self, capsys):
        code, out, _ = run_cli("--format", "json", "optimal-table", "--kmax", "8",
                               "--prove", capsys=capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["k"] for r in reports] == list(range(1, 9))
        assert all(r["verdict"] == "exact" for r in reports[:6])
        assert [(r["verdict"], r["lower_bound"], r["upper_bound"])
                for r in reports[6:]] == [("gap", 11, 12), ("gap", 12, 13)]

    def test_hamming_check_r2(self, capsys):
        code, out, _ = run_cli("--format", "json", "hamming", "check", "--r", "2",
                               capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "encoder_exists"

    def test_hamming_check_r5_rejected_without_scanning(self, capsys, monkeypatch):
        def no_scan(n):
            raise AssertionError("scan started")

        monkeypatch.setattr(hamming_module, "_iter_partitions", no_scan)
        code, out, err = run_cli("hamming", "check", "--r", "5", capsys=capsys)
        assert code == 2
        assert out == "" and "r in {2, 3, 4}" in err

    def test_hamming_claims(self, capsys):
        code, out, _ = run_cli("--format", "json", "hamming", "claims", "--r", "3",
                               "--sets", "1,2;3,4;5,6", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["claims"]) == {"line_closure", "no_line_inside",
                                      "coset_structure"}


class TestSearchCommands:
    def test_search_codes_json(self, capsys):
        code, out, _ = run_cli("--format", "json", "search", "codes", "--n", "5",
                               "--size", "4", "--dmin", "3", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["codes"] == [["00000", "00111", "11001", "11110"]]
        assert doc["statistics"]["complete"] is True

    def test_seeded_heuristic_byte_identical(self, capsys):
        args = ("--format", "json", "search", "codes", "--n", "6", "--size", "8",
                "--dmin", "3", "--mode", "heuristic", "--seed", "9",
                "--restarts", "10")
        code1, out1, _ = run_cli(*args, capsys=capsys)
        code2, out2, _ = run_cli(*args, capsys=capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_open11_smoke(self, capsys):
        code, out, _ = run_cli("--format", "json", "search", "open11",
                               "--max-codes", "1", "--per-code-budget", "500",
                               "--restarts", "40", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["codes_examined"] >= 1
        assert doc["encoders_found"] == 0


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = run_cli("packing", "number", "--r", "2", capsys=capsys)
        assert code == 2
        assert "error" in err

    def test_missing_encoder_is_2(self, capsys):
        code, _, _ = run_cli("verify", "pir", "--t", "3", capsys=capsys)
        assert code == 2

    def test_zero_multiplicity_with_witnesses_is_2(self, tmp_path, capsys):
        cfile = str(tmp_path / "c.json")
        run_cli("construct", "pir3", "--k", "3", "--out", cfile, capsys=capsys)
        gfile = str(tmp_path / "g.txt")
        with open(cfile) as fh:
            doc = json.load(fh)
        with open(gfile, "w") as fh:
            fh.write("\n".join(doc["generator"]) + "\n")
        code, out, err = run_cli("verify", "pir", "--t", "3", "--mu", "0",
                                 "--generator", gfile, "--witnesses", cfile,
                                 capsys=capsys)
        assert code == 2 and out == "" and "multiplicity" in err

    def test_malformed_file_is_3(self, tmp_path, capsys):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("01x\n")
        code, _, _ = run_cli("mindist", "--code", path, capsys=capsys)
        assert code == 3

    def test_missing_file_is_3(self, capsys):
        code, _, _ = run_cli("mindist", "--code", "/nonexistent/x", capsys=capsys)
        assert code == 3

    def test_checkpoint_mismatch_is_4(self, tmp_path, capsys):
        ck = str(tmp_path / "x.ckpt")
        run_cli("search", "codes", "--n", "5", "--size", "4", "--dmin", "3",
                "--checkpoint", ck, capsys=capsys)
        code, _, _ = run_cli("search", "codes", "--n", "5", "--size", "4",
                             "--dmin", "2", "--checkpoint", ck, capsys=capsys)
        assert code == 4

    def test_threads_only_on_maxsize(self, capsys):
        for argv in (["--threads", "2", "hamming", "check"],
                     ["hamming", "check", "--threads", "2"],
                     ["search", "codes", "--n", "5", "--size", "4", "--dmin", "3",
                      "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        code, out, _ = run_cli("--format", "json", "maxsize", "--n", "5",
                               "--threads", "2", capsys=capsys)
        assert code == 0 and json.loads(out)["value"] == 4

    def test_maxsize_threads_below_one_is_2(self, capsys):
        for threads in ("0", "-3"):
            code, _, err = run_cli("maxsize", "--n", "5", "--threads", threads,
                                   capsys=capsys)
            assert code == 2 and "threads" in err, threads

    def test_bad_threads_env_only_affects_maxsize(self, monkeypatch, capsys):
        monkeypatch.setenv("PIRCODES_THREADS", "two")
        code, out, _ = run_cli("packing", "number", "--r", "15", capsys=capsys)
        assert code == 0 and out.strip() == "15"
        with pytest.raises(SystemExit) as exc:
            main(["maxsize", "--n", "5"])
        assert exc.value.code == 2
        monkeypatch.setenv("PIRCODES_THREADS", "2")
        code, out, _ = run_cli("--format", "json", "maxsize", "--n", "5",
                               capsys=capsys)
        assert code == 0 and json.loads(out)["value"] == 4

    def test_open11_rejects_budget(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "open11", "--budget", "5"])
        assert exc.value.code == 2

    def test_search_codes_rejects_flags_its_mode_ignores(self, capsys):
        base = ["--format", "json", "search", "codes", "--n", "6", "--size", "4",
                "--dmin", "3"]
        for extra, flags in ((["--mode", "heuristic", "--budget", "1"], "--budget"),
                             (["--restarts", "5"], "--restarts"),
                             (["--seed", "3"], "--seed"),
                             (["--mode", "exhaustive", "--seed", "3", "--restarts", "5"],
                              "--seed, --restarts")):
            code, out, err = run_cli(*base, *extra, capsys=capsys)
            assert (code, out) == (2, ""), extra
            assert f"{flags} has no effect" in err, extra

    def test_search_codes_takes_the_flags_its_mode_uses(self, capsys):
        base = ["--format", "json", "search", "codes", "--n", "6", "--size", "4",
                "--dmin", "3"]
        code, out, _ = run_cli(*base, "--budget", "40", capsys=capsys)
        assert code == 0 and json.loads(out)["statistics"]["complete"] is False
        code, out, _ = run_cli(*base, "--mode", "heuristic", "--seed", "3",
                               "--restarts", "5", capsys=capsys)
        assert code == 0 and json.loads(out)["statistics"]["complete"] is True

    def test_mindist_code_and_generator_exclude_each_other(self, tmp_path):
        path = str(tmp_path / "code.txt")
        with open(path, "w") as fh:
            fh.write("000\n111\n")
        with pytest.raises(SystemExit) as exc:
            main(["mindist", "--code", path, "--generator", path])
        assert exc.value.code == 2

    def test_verify_encoder_and_generator_exclude_each_other(self, tmp_path, k2_encoder):
        from pircodes.recovery import as_explicit, write_encoder

        enc = str(tmp_path / "k2.enc")
        gen = str(tmp_path / "k2.gen")
        write_encoder(as_explicit(k2_encoder), enc)
        with open(gen, "w") as fh:
            fh.write("10110\n01101\n")
        for prop in (["pir", "--t", "1"], ["batch", "--t", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", *prop, "--encoder", enc, "--generator", gen])
            assert exc.value.code == 2, prop

    def test_greedy_packing_takes_no_target_or_budget(self, capsys):
        base = ["packing", "find", "--v", "7", "--blocksize", "4", "--greedy"]
        with pytest.raises(SystemExit) as exc:
            main([*base, "--target", "99", "--budget", "1"])
        assert exc.value.code == 2
        code, out, err = run_cli(*base, "--budget", "1", capsys=capsys)
        assert (code, out) == (2, "") and "--budget" in err

    def test_unknown_subcommand_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pircodes.cli", "frobnicate"],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pircodes.cli", "packing", "number", "--r", "15"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "15"
