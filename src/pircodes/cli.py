"""Command-line entry point.

One binary with subcommands; every command validates its flags before any
computation and exits 0 whenever a verdict was produced (including negative
or "unknown" verdicts).  Nonzero exits are reserved for errors:

  2  usage error (bad flags, unknown subcommand, contract violations)
  3  malformed input file
  4  checkpoint error
  5  internal error

Long-running commands honor --budget and stream progress lines to standard
error; maxsize, the only sharded search, also takes --threads (worker
processes, default from PIRCODES_THREADS).  search codes takes --budget in
exhaustive mode and --seed/--restarts in heuristic mode; a flag the chosen
mode would ignore is a usage error.  Alternative inputs exclude each other:
--encoder or --generator (verify), --code or --generator (mindist), and
--greedy or --target/--budget (packing find).
--format json prints a single JSON document on standard output; --format
text prints a human-oriented rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable

from . import bounds, constructions, designs, gf2, hamming, recovery, search
from .errors import CheckpointError, FileFormatError, UsageError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_CHECKPOINT = 4
EXIT_INTERNAL = 5

_EPILOG = """exit codes:
  0  a verdict was produced (even a negative or unknown one)
  2  usage error
  3  malformed input file
  4  checkpoint error
  5  internal error
"""


def _progress_printer(tag: str) -> Callable[[str], None]:
    last = [0.0]

    def emit(msg: str) -> None:
        now = time.monotonic()
        if now - last[0] >= 0.5:
            print(f"[{tag}] {msg}", file=sys.stderr, flush=True)
            last[0] = now

    return emit


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _write_out(args, payload: dict) -> None:
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)


def _load_encoder(args) -> recovery.Encoder:
    if getattr(args, "encoder", None):
        return recovery.read_encoder(args.encoder)
    if getattr(args, "generator", None):
        return recovery.LinearEncoder(gf2.read_matrix(args.generator))
    raise UsageError("provide --encoder TABLE or --generator MATRIX")


def _witness_text(report: recovery.VerifyReport) -> str:
    lines = [
        f"property={report.property} t={report.t} w={report.w or 'inf'} "
        f"mu={report.mu} verdict={report.verdict} complete={report.complete}"
    ]
    if report.failure:
        lines.append(f"failure: {report.failure}")
    for wit in report.witnesses:
        key = f"bit {wit['bit']}" if "bit" in wit else f"query {wit['query']}"
        lines.append(f"  {key}: " + " ".join(str(s) for s in wit["sets"]))
    lines.append(f"nodes={report.nodes} set_nodes={report.set_nodes} "
                 f"backtrack_nodes={report.backtrack_nodes} elapsed={report.elapsed:.3f}s")
    return "\n".join(lines)


def _construction_text(code: constructions.ConstructedCode) -> str:
    lines = [f"{code.provenance}: k={code.k} n={code.n} t={code.t}"]
    lines.append("generator:")
    lines.extend("  " + row for row in code.encoder.generator.row_strings())
    lines.append("witnesses:")
    for j, sets in enumerate(code.witnesses, start=1):
        lines.append(f"  bit {j}: " + " ".join(str(sorted(s)) for s in sets))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_construct_pir3(args) -> int:
    code = constructions.build_pir3(args.k)
    payload = constructions.construction_to_jsonable(code)
    _write_out(args, payload)
    _emit(args, payload, _construction_text(code))
    return EXIT_OK


def _cmd_construct_packing(args) -> int:
    if args.design:
        design = designs.read_packing(args.design)
    else:
        design = constructions.auto_packing(args.k, args.t, budget=args.budget)
    code = constructions.build_packing_pir(args.k, args.t, design)
    payload = constructions.construction_to_jsonable(code)
    _write_out(args, payload)
    _emit(args, payload, _construction_text(code))
    return EXIT_OK


def _cmd_extend(args) -> int:
    with open(args.infile, "r", encoding="ascii") as fh:
        obj = json.load(fh)
    code = constructions.construction_from_jsonable(obj)
    extended = constructions.extend_for_even_t(code)
    payload = constructions.construction_to_jsonable(extended)
    _write_out(args, payload)
    _emit(args, payload, _construction_text(extended))
    return EXIT_OK


def _cmd_verify_pir(args) -> int:
    encoder = _load_encoder(args)
    witnesses = None
    if args.witnesses:
        with open(args.witnesses, "r", encoding="ascii") as fh:
            obj = json.load(fh)
        code = constructions.construction_from_jsonable(obj)
        witnesses = code.witness_map()
    report = recovery.verify_pir(
        encoder, args.t, w=args.w, mu=args.mu, witnesses=witnesses,
        budget=args.budget,
    )
    _emit(args, report.to_jsonable(), _witness_text(report))
    return EXIT_OK


def _cmd_verify_batch(args) -> int:
    encoder = _load_encoder(args)
    report = recovery.verify_batch(encoder, args.t, budget=args.budget)
    _emit(args, report.to_jsonable(), _witness_text(report))
    return EXIT_OK


def _cmd_mindist(args) -> int:
    if args.code:
        code = gf2.read_code(args.code)
        d = gf2.min_distance(code)
        src = {"code": args.code, "n": code.n, "size": code.size}
    else:
        if not args.generator:
            raise UsageError("provide --code FILE or --generator FILE")
        lc = gf2.LinearCode(gf2.read_matrix(args.generator))
        d = gf2.min_distance(lc)
        src = {"generator": args.generator, "n": lc.n, "k": lc.k}
    _emit(args, {"min_distance": d, **src}, f"min distance {d}")
    return EXIT_OK


def _cmd_packing_find(args) -> int:
    if args.greedy:
        if args.budget is not None:
            raise UsageError("--budget has no effect with --greedy")
        design = designs.greedy_packing(args.v, args.blocksize)
        payload = {"status": "found", "certificate": "greedy", "nodes": 0}
    else:
        if args.target is None:
            raise UsageError("provide --target N or --greedy")
        res = designs.exact_packing(args.v, args.blocksize, args.target,
                                    budget=args.budget)
        design = res.design
        payload = {"status": res.status, "certificate": res.certificate, "nodes": res.nodes}
    verdict = f"{payload['status']} by {payload['certificate']} (nodes={payload['nodes']})"
    if design is not None:
        payload["blocks"] = [list(b) for b in design.blocks]
        payload["num_blocks"] = design.num_blocks
        text = f"# {verdict}\n" + designs.dump_packing(design).rstrip()
    else:
        text = f"status: {verdict}"
    if args.out:
        if design is not None:
            designs.write_packing(design, args.out)
            payload["out"] = args.out
        else:
            payload["out"] = None
            text += f"\nno design: {args.out} not written"
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_packing_number(args) -> int:
    value = designs.packing_number_formula(args.r)
    _emit(args, {"r": args.r, "packing_number": value}, str(value))
    return EXIT_OK


def _cmd_hamming_check(args) -> int:
    report = hamming.check_no_3pir_any_encoder(
        args.r, progress=_progress_printer("hamming")
    )
    text = (
        f"order {report.r}: verdict={report.verdict} "
        f"triples={report.triples_checked} partitions={report.partitions_scanned} "
        f"failing={report.failing_triples} "
        f"elapsed={report.elapsed:.2f}s"
    )
    _emit(args, report.to_jsonable(), text)
    return EXIT_OK


def _parse_triple(spec: str):
    parts = spec.split(";")
    if len(parts) != 3:
        raise UsageError("triple must be three ';'-separated position lists")
    out = []
    for part in parts:
        try:
            out.append(frozenset(int(x) for x in part.split(",") if x.strip()))
        except ValueError as exc:
            raise UsageError(f"bad position list {part!r}") from exc
    return tuple(out)


def _cmd_hamming_claims(args) -> int:
    triple = _parse_triple(args.sets)
    report = hamming.check_triple_geometry(args.r, triple)
    text = (
        f"line_closure={report.line_closure} "
        f"no_line_inside={report.no_line_inside} "
        f"coset_structure={report.coset_structure} sizes={report.sizes}"
    )
    _emit(args, report.to_jsonable(), text)
    return EXIT_OK


def _cmd_maxsize(args) -> int:
    entry = bounds.max_code_size(
        args.n, args.d, budget=args.budget, force_compute=args.force_compute,
        threads=args.threads, progress=_progress_printer("maxsize"),
    )
    text = (
        f"A2({entry.n},{args.d}) = {entry.value} [{entry.source}]"
        + ("" if entry.complete else " (incomplete: lower bound only)")
    )
    _emit(args, entry.to_jsonable(), text)
    return EXIT_OK


def _cmd_optimal_table(args) -> int:
    table = constructions.linear_length_table(args.kmax, args.t)
    payload: dict = {"t": args.t, "table": [{"k": k, "n": n} for k, n in table]}
    lines = ["k: " + " ".join(str(k) for k, _ in table),
             "n: " + " ".join(str(n) for _, n in table)]
    if args.prove:
        reports = []
        for k in range(1, args.kmax + 1):
            rep = bounds.optimality_report_3pir(k)
            reports.append(rep.to_jsonable())
            lines.append(
                f"k={k}: P(k,3)={rep.lower_bound}..{rep.upper_bound} "
                f"[{rep.verdict}] flags={rep.literature_flags}"
            )
        payload["reports"] = reports
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_search_codes(args) -> int:
    stats = search.SearchStats()
    stream = search.search_codes(
        args.n, args.size, args.dmin, mode=args.mode, seed=args.seed,
        budget=args.budget, checkpoint=args.checkpoint, limit=args.limit,
        restarts=args.restarts, stats=stats, progress=_progress_printer("search"),
    )
    codes = []
    for code in stream:
        codes.append(code)
        if args.format == "text":
            print(f"# code {len(codes)}")
            print(gf2.dump_code(code).rstrip())
    payload = {
        "problem": {"n": args.n, "size": args.size, "dmin": args.dmin,
                    "mode": args.mode},
        "codes": [[format(v, f"0{args.n}b") for v in c.values] for c in codes],
        "statistics": {"nodes": stats.nodes, "emitted": stats.emitted,
                       "complete": stats.complete},
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"# emitted={stats.emitted} nodes={stats.nodes} "
              f"complete={stats.complete}")
    return EXIT_OK


def _cmd_search_open11(args) -> int:
    report = search.open11_hunt(
        seed=args.seed, max_codes=args.max_codes,
        per_code_budget=args.per_code_budget,
        witness_threshold=args.threshold, checkpoint=args.checkpoint,
        restarts=args.restarts, progress=_progress_printer("open11"),
    )
    text = (
        f"examined={report.codes_examined} encoders_found={report.encoders_found} "
        f"best_depth={report.best_depth} elapsed={report.elapsed:.1f}s"
    )
    _emit(args, report.to_jsonable(), text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="decision-node budget (default: unlimited)")


def _add_encoder_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--encoder", help="explicit table file")
    source.add_argument("--generator", help="generator matrix file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pircodes",
        description="Binary PIR/batch code constructions, verifiers, and searches.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build availability codes")
    csub = construct.add_subparsers(dest="construction", required=True)
    p = csub.add_parser("pir3", help="systematic 3-availability code")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="write the construction JSON here")
    p.set_defaults(func=_cmd_construct_pir3)
    p = csub.add_parser("packing-pir", help="t-availability code from a packing")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--design", help="packing file (default: search for one)")
    p.add_argument("--out")
    _add_budget(p)
    p.set_defaults(func=_cmd_construct_packing)

    p = sub.add_parser("extend", help="append a parity position (t odd -> t+1)")
    p.add_argument("--in", dest="infile", required=True,
                   help="construction JSON from a construct command")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extend)

    verify = sub.add_parser("verify", help="exact availability verification")
    vsub = verify.add_subparsers(dest="property", required=True)
    p = vsub.add_parser("pir", help="constant queries, per data bit")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--mu", type=int, default=1)
    _add_encoder_flags(p)
    p.add_argument("--witnesses", help="construction JSON with witness families")
    _add_budget(p)
    p.set_defaults(func=_cmd_verify_pir)
    p = vsub.add_parser("batch", help="every multiset of t requests")
    p.add_argument("--t", type=int, required=True)
    _add_encoder_flags(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_verify_batch)

    p = sub.add_parser("mindist", help="minimum distance of a code")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--code", help="codeword file")
    source.add_argument("--generator", help="generator matrix file")
    p.set_defaults(func=_cmd_mindist)

    packing = sub.add_parser("packing", help="pair-packing designs")
    psub = packing.add_subparsers(dest="packing_op", required=True)
    p = psub.add_parser("find", help="construct a packing")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--blocksize", type=int, required=True)
    how = p.add_mutually_exclusive_group()
    how.add_argument("--target", type=int, default=None)
    how.add_argument("--greedy", action="store_true", help="takes no --budget")
    p.add_argument("--out")
    _add_budget(p)
    p.set_defaults(func=_cmd_packing_find)
    p = psub.add_parser("number", help="closed-form packing number for 4-blocks")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_packing_number)

    ham = sub.add_parser("hamming", help="Hamming-code checks")
    hsub = ham.add_subparsers(dest="hamming_op", required=True)
    p = hsub.add_parser("check", help="no-encoder impossibility scan")
    p.add_argument("--r", type=int, default=3)
    p.set_defaults(func=_cmd_hamming_check)
    p = hsub.add_parser("claims", help="geometric claims for a position triple")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sets", required=True,
                   help="three ';'-separated comma lists, e.g. '1,2;3,4;5,6'")
    p.set_defaults(func=_cmd_hamming_claims)

    p = sub.add_parser("maxsize", help="maximum code size for a distance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--force-compute", action="store_true",
                   help="run the clique search beyond the default range")
    p.add_argument(
        "--threads", type=int,
        # argparse converts a string default with `type` only when maxsize
        # is parsed, so a bad PIRCODES_THREADS cannot break other commands
        default=os.environ.get("PIRCODES_THREADS", "1"),
        help="worker processes for the clique search (env PIRCODES_THREADS)",
    )
    _add_budget(p)
    p.set_defaults(func=_cmd_maxsize)

    p = sub.add_parser("optimal-table", help="shortest 3-availability lengths")
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--prove", action="store_true",
                   help="attach an exactness report for each k")
    p.set_defaults(func=_cmd_optimal_table)

    srch = sub.add_parser("search", help="nonlinear-code searches")
    ssub = srch.add_subparsers(dest="search_op", required=True)
    p = ssub.add_parser("codes", help="stream codes with given parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "heuristic"),
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=None,
                   help="heuristic mode only (default: 1)")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None,
                   help="heuristic mode only (default: 200)")
    p.add_argument("--checkpoint")
    _add_budget(p)  # exhaustive mode only
    p.set_defaults(func=_cmd_search_codes)
    p = ssub.add_parser("open11", help="length-11 size-128 hunt harness")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-codes", type=int, default=3)
    p.add_argument("--per-code-budget", type=int, default=50_000)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--restarts", type=int, default=400)
    p.add_argument("--checkpoint")
    p.set_defaults(func=_cmd_search_open11)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
