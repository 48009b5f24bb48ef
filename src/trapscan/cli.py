"""Command-line frontend.

    trapscan simulate <scenario.json|dir> [--out report.jsonl]
    trapscan gen-corpus --n 200 --seed 7 --out-dir corpus/
    trapscan scan --mode sim --scenario corpus/ [...]
    trapscan scan --mode live --rpc-url URL --from-block A --to-block B [...]

Exit codes: 0 success (simulate: all verdicts match ground truth),
1 runtime failure, mismatch, or (scan) any pool whose scan failed,
2 malformed input file, or a bad or missing command-line value (usage error).

Environment: TRAPSCAN_RPC_URL overrides the endpoint, TRAPSCAN_CHECKPOINT
the checkpoint path.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .analyzer import verdict_to_json_line, verdict_to_json_obj
from .core import Address
from .corpus import gen_corpus
from .mockchain.scenario_io import ScenarioFormatError, load_scenario
from .mockchain.scripts import run_attack_script
from .pipeline import ScanSettings, ScanSummary, scan_pool, scan_pools_resumable

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_SCHEMA = 2


def _parse_threshold(text: str) -> Fraction:
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"threshold has a zero denominator: {text}") from None
    if not (0 < frac < 1):
        raise argparse.ArgumentTypeError(f"threshold must be in (0,1): {text}")
    return frac


def _int_at_least(what: str, least: int):
    """An argparse type: an int of at least `least`, else a usage error
    naming `what`."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"{what} must be >= {least}")
        return n

    return parse


def _settings_from_args(args) -> ScanSettings:
    return ScanSettings(
        interval=args.interval,
        threshold=args.threshold,
        workers=getattr(args, "workers", None) or 1,
    )


def _scenario_paths(source: Path) -> list[Path]:
    if source.is_dir():
        return sorted(source.glob("*.json"))  # empty is a valid zero-pool scan
    if not source.exists():
        raise FileNotFoundError(f"no such scenario file: {source}")
    return [source]


def _run_scenario(path: Path, settings: ScanSettings):
    """Load a scenario, replay its script on a fresh mock chain and scan its
    pool over the whole replay; returns (scenario, trace, verdict)."""
    scenario = load_scenario(path)
    trace = run_attack_script(scenario.script, scenario.seed)
    verdict = scan_pool(
        trace.chain, trace.pool, trace.trap_token, 1, trace.final_block, settings
    )
    return scenario, trace, verdict


def _simulate_one(path: Path, settings: ScanSettings) -> tuple[dict, bool]:
    scenario, trace, verdict = _run_scenario(path, settings)
    truth = sorted(t.value for t in trace.ground_truth)
    got = sorted(t.value for t in verdict.traps)
    match = truth == got
    report = verdict_to_json_obj(verdict)
    report["scenario"] = path.name
    report["ground_truth"] = truth
    report["match"] = match
    if scenario.expected_traps is not None:
        embedded = sorted(t.value for t in scenario.expected_traps)
        if embedded != truth:
            report["label_mismatch"] = embedded
    return report, match


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_SCHEMA


def cmd_simulate(args) -> int:
    settings = _settings_from_args(args)
    try:
        paths = _scenario_paths(Path(args.scenario))
    except FileNotFoundError as exc:
        return _usage_error(str(exc))

    reports: list[dict] = []
    all_match = True
    for path in paths:
        try:
            report, match = _simulate_one(path, settings)
        except json.JSONDecodeError as exc:
            print(
                f"error: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                file=sys.stderr,
            )
            return EXIT_SCHEMA
        except ScenarioFormatError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except Exception as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        reports.append(report)
        all_match = all_match and match

    lines = [json.dumps(r, separators=(",", ":")) for r in reports]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    matched = sum(1 for r in reports if r["match"])
    print(f"ground-truth match: {matched}/{len(reports)}", file=sys.stderr)
    return EXIT_OK if all_match else EXIT_RUNTIME


def cmd_gen_corpus(args) -> int:
    try:
        paths = gen_corpus(args.n, args.seed, args.out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(paths)} scenarios to {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def _emit_verdicts(lines: list[str], args) -> None:
    if args.format == "csv":
        rows = ["pool,traps,first_flagged_block,scanned_from,scanned_to"]
        for line in lines:
            obj = json.loads(line)
            rng = obj.get("scanned_range", ["", ""])
            rows.append(
                f'{obj["pool"]},{"|".join(obj["traps"])},'
                f'{obj.get("first_flagged_block") or ""},{rng[0]},{rng[1]}'
            )
        payload = "\n".join(rows) + "\n"
    else:
        payload = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _report(lines: list[str], summary: ScanSummary, args) -> int:
    """Emit the verdicts and the summary table; exit 1 if any pool failed."""
    _emit_verdicts(lines, args)
    print(summary.table())
    if summary.failures:
        print(f"failed: {summary.failures}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.mode == "sim":
        return _scan_sim(args)
    return _scan_live(args)


def _scan_sim(args) -> int:
    if not args.scenario:
        return _usage_error("--scenario is required for sim scans")
    for flag in ("workers", "checkpoint"):
        if getattr(args, flag) is not None:
            return _usage_error(f"--{flag} applies to live scans only")
    settings = _settings_from_args(args)
    try:
        paths = _scenario_paths(Path(args.scenario))
    except FileNotFoundError as exc:
        return _usage_error(str(exc))
    if args.sample is not None:
        rng = random.Random(args.seed)
        paths = sorted(rng.sample(paths, min(args.sample, len(paths))))

    summary = ScanSummary()
    lines: list[str] = []
    for path in paths:
        try:
            _, _, verdict = _run_scenario(path, settings)
        except (json.JSONDecodeError, ScenarioFormatError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except Exception as exc:
            print(f"warning: {path}: scan failed: {exc}", file=sys.stderr)
            summary.failures += 1
            continue
        lines.append(verdict_to_json_line(verdict))
        summary.count(trap.value for trap in verdict.traps)
    return _report(lines, summary, args)


def _scan_live(args) -> int:
    from .rpcbackend import EndpointConfig, RpcChainView, load_backend_config

    if args.from_block is None or args.to_block is None:
        return _usage_error("--from-block and --to-block are required for live scans")
    if args.from_block > args.to_block:
        return _usage_error("--from-block must not exceed --to-block")

    try:
        config_doc = load_backend_config(args.config) if args.config else {}
        url = args.rpc_url or os.environ.get("TRAPSCAN_RPC_URL") or config_doc.get("url")
        if not url:
            return _usage_error("no endpoint: use --rpc-url, --config or TRAPSCAN_RPC_URL")
        chain = RpcChainView(EndpointConfig.from_doc({**config_doc, "url": url}))
        base_tokens = {Address.from_hex(h) for h in config_doc.get("base_tokens", [])}
    except (OSError, TypeError, ValueError) as exc:
        return _usage_error(f"--config {args.config}: {exc}")
    try:
        pool_addrs = _parse_pool_list(args.pools) if args.pools else None
    except (OSError, ValueError) as exc:
        return _usage_error(f"--pools: {exc}")
    settings = _settings_from_args(args)
    checkpoint = args.checkpoint or os.environ.get("TRAPSCAN_CHECKPOINT")

    try:
        if pool_addrs is not None:
            pools = chain.pool_infos(pool_addrs)
            for info in pools:
                if isinstance(info, Exception):
                    raise info
        else:
            pools = chain.get_pool_created((args.from_block, args.to_block))
    except Exception as exc:
        print(f"error: pool discovery failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    # A round past the head would read no state and pass as a clean skip.
    try:
        head = chain.head()
    except Exception as exc:
        print(f"error: cannot read the node's head: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.to_block > head:
        return _usage_error(f"--to-block {args.to_block} is past the node's head, block {head}")

    if args.sample is not None and pools:
        rng = random.Random(args.seed)
        pools = rng.sample(pools, min(args.sample, len(pools)))

    from .monitor import pick_orientations

    targets = []
    for info in pools:
        targets.extend((info, trap) for trap, _base in pick_orientations(info, base_tokens))

    try:
        lines, summary = scan_pools_resumable(
            chain, targets, args.from_block, args.to_block, settings, checkpoint
        )
    except ValueError as exc:  # a pool's own failure is counted, not raised
        print(f"error: checkpoint: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return _report(lines, summary, args)


def _parse_pool_list(spec: str) -> list[Address]:
    """The pool addresses of a file or a comma-separated list, in order,
    each once: a repeat, in whatever hex case, is dropped."""
    path = Path(spec)
    if path.exists():
        entries = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    else:
        entries = [p.strip() for p in spec.split(",") if p.strip()]
    return list(dict.fromkeys(Address.from_hex(e) for e in entries))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapscan",
        description="Detect honeypot-trap liquidity pools by replay and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--interval", type=_int_at_least("interval", 1), default=1,
                        help="blocks between detection rounds (default 1)")
    common.add_argument("--threshold", type=_parse_threshold, default=Fraction(1, 2),
                        help="detection threshold ratio (default 1/2)")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a scenario on the mock chain and verify the verdict")
    p_sim.add_argument("scenario", help="scenario file or directory")
    p_sim.add_argument("--out", help="write the report JSONL here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("gen-corpus", help="generate a labeled scenario corpus")
    p_gen.add_argument("--n", type=_int_at_least("n", 1), required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_gen_corpus)

    p_scan = sub.add_parser("scan", parents=[common], help="scan pools and report verdicts")
    p_scan.add_argument("--mode", choices=["sim", "live"], default="sim")
    p_scan.add_argument("--scenario", help="scenario file or directory (sim mode)")
    p_scan.add_argument("--rpc-url", help="JSON-RPC endpoint (live mode)")
    p_scan.add_argument("--config", help="backend config file (live mode)")
    p_scan.add_argument("--from-block", type=_int_at_least("from-block", 0))
    p_scan.add_argument("--to-block", type=_int_at_least("to-block", 0))
    p_scan.add_argument("--pools", help="pool addresses: file or comma-separated list")
    p_scan.add_argument("--sample", type=_int_at_least("sample size", 1),
                        help="random sample size over discovered pools")
    p_scan.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_scan.add_argument("--out", help="verdict stream output path")
    p_scan.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p_scan.add_argument("--checkpoint",
                        help="checkpoint path for resumable scans (live mode)")
    p_scan.add_argument("--workers", type=_int_at_least("workers", 1),
                        help="pools scanned in parallel (live mode, default 1)")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
