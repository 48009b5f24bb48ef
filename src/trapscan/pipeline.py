"""Per-pool detection pipeline and multi-pool scan orchestration.

A pool is scanned in detection rounds, one every `interval` blocks and
one at the last block. Each round first ingests its window of blocks,
those since the previous round, in one step (see `monitor.ingest_block`),
which reads every buyer balance the window needs in one batch and the
pool's reserves at the round's block; every bundle of the round is
priced from that one read. Then the round reconciles each buyer's
balance movement since the previous round, or since it was first seen,
against the logged evidence; this reads only the ledger, so it runs in
every round. Provided both reserves are non-zero, the round also:

  * rebuilds a sell simulation for every tracked buyer at their full
    balance, before reconciling that buyer, and checks the sell-side
    predicates,
  * runs a buy probe with a funded synthetic account, and a follow-up
    buy-and-sell round trip when the probe delivered.

A round is planned before it is judged. `plan_round` builds the sells
and the probe from the watch alone, they are simulated together through
one `simulator.run_many` (one POST on the RPC backend), and
`run_detection_round` judges the results in plan order. Only the round
trip, whose sell is what the probe received, is simulated on its own.

The scan state holds one round's window and no history. The watch keeps
only the window's evidence, which the round reads whole, with no
bisection; each sell result is folded into its subject's running
CannotSell revert streak and then dropped; and only the first finding
per (trap, subject) is kept (see `PoolScanState`). So a round late in a
long scan costs what an early one does.

Findings accumulate into one verdict per pool. Distinct pools are
independent, so a multi-pool scan runs them through one executor,
`_scan_each`: in the calling thread when `workers <= 1`, otherwise on one
thread pool. It yields each pool's verdict, or the exception its scan
raised, in target order. `scan_pools` and `scan_pools_resumable` both
consume it, so a failing pool is counted in `ScanSummary.failures` and
never stops the scan, whatever the worker count.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .analyzer import (
    DEFAULT_THRESHOLD,
    MIN_REVERT_BLOCKS,
    Finding,
    PoolVerdict,
    check_cannot_sell,
    check_invalid_buy,
    check_invalid_sell,
    check_unauthorized_transfer,
    classify_pool,
    verdict_to_json_line,
)
from .chainview import BalanceOverrides, ChainView, check_range
from .core import Address, PoolInfo, TrapType
from .monitor import PoolWatch, ingest_block
from .simulator import (
    Bundle,
    BundleKind,
    ProbeFailed,
    SimulationResult,
    build_buy_probe,
    build_buy_sell_bundle,
    build_sell_bundle,
    run,
    run_many,
)

PROBE_FUNDING = 10**30
# Buy probes spend PROBE_NUM/PROBE_DEN of the pool's base-token reserve.
PROBE_NUM = 1
PROBE_DEN = 1000


@dataclass(frozen=True)
class ScanSettings:
    """Knobs for one scan run."""

    interval: int = 1  # blocks between detection rounds
    threshold: Fraction = DEFAULT_THRESHOLD
    known_token_allowlist: frozenset[Address] = frozenset()
    workers: int = 1

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if not (0 < self.threshold < 1):
            raise ValueError("threshold must be in (0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class PoolScanState:
    """Mutable per-pool scan progress; owned by a single worker.

    Simulation results are not kept. Each subject's sell results are
    folded into its CannotSell revert streak as they arrive. A streak of
    `MIN_REVERT_BLOCKS` blocks has produced the subject's finding and is
    not folded again, so no streak grows however long the scan runs.
    `findings` keeps the first finding per (trap, subject); rounds add
    them in block order, so that is the earliest. `probe` is the pool's
    funded synthetic account, derived once.
    """

    watch: PoolWatch
    findings: dict[tuple[TrapType, Address], Finding] = field(default_factory=dict)
    revert_streaks: dict[Address, list[int]] = field(default_factory=dict)
    skipped_rounds: list[dict] = field(default_factory=list)
    probe: Address = field(init=False)

    def __post_init__(self) -> None:
        self.probe = probe_account_for(self.watch.pool)

    def add_finding(self, finding: Finding | None) -> None:
        if finding is not None:
            self.findings.setdefault((finding.trap, finding.subject), finding)

    def fold_sell(self, result: SimulationResult) -> None:
        """Fold a subject's newest sell result into its revert streak."""
        streak = self.revert_streaks.setdefault(result.bundle.actor, [])
        if len(streak) < MIN_REVERT_BLOCKS:
            self.add_finding(check_cannot_sell(result, streak))


def probe_account_for(pool: PoolInfo) -> Address:
    return Address.derive(f"probe:{pool.pool.hex}")


def _probe_size(watch: PoolWatch) -> int:
    rx, ry = watch.reserves
    base_reserve = rx if watch.base_token == watch.pool.token_x else ry
    return max(1, (base_reserve * PROBE_NUM) // PROBE_DEN)


def _judge(state: PoolScanState, result: SimulationResult, settings: ScanSettings) -> bool:
    """Record the skip of a result with no estimate, or judge it: the
    probe by `check_invalid_buy`, a sell by `check_invalid_sell` and then
    its subject's revert streak. A result with an unread balance is also
    recorded as a `balance unread` skip: it gives no delivery finding, but
    its sell still counts in the streak. Returns whether it was judged."""
    bundle = result.bundle
    if result.estimate == 0:
        state.skipped_rounds.append(
            {"block": bundle.block, "reason": "estimate=0", "subject": bundle.actor.hex}
        )
        return False
    if result.balance_delta is None:
        state.skipped_rounds.append(
            {"block": bundle.block, "reason": "balance unread", "subject": bundle.actor.hex}
        )
    if bundle.kind is BundleKind.BUY_PROBE:
        state.add_finding(check_invalid_buy(result, settings.threshold))
    else:
        state.add_finding(check_invalid_sell(result, settings.threshold))
        state.fold_sell(result)
    return True


def plan_round(state: PoolScanState, block: int) -> list[tuple[Bundle, BalanceOverrides | None]]:
    """The bundles of a round at `block`, in the order `run_detection_round`
    judges them: a sell for each buyer whose balance read at the block is
    positive, in buyer order, then the funded buy probe. Pure: it reads
    the watch and nothing from the chain. The watch must be liquid."""
    watch = state.watch
    reserves, pool, trap = watch.reserves, watch.pool, watch.trap_token
    items: list[tuple[Bundle, BalanceOverrides | None]] = [
        (build_sell_bundle(reserves, buyer, pool, trap, held, block), None)
        for buyer, ledger in watch.buyers.items()
        if (held := ledger.snapshots[-1][1])  # read at this block; None or 0 sells nothing
    ]
    probe = build_buy_probe(reserves, state.probe, pool, trap, _probe_size(watch), block)
    items.append((probe, {(watch.base_token, state.probe): PROBE_FUNDING}))
    return items


def run_detection_round(
    chain: ChainView,
    state: PoolScanState,
    block: int,
    settings: ScanSettings,
) -> None:
    """One simulation-and-analysis pass at a sealed block, the last one
    the watch has ingested. Every bundle is priced from the reserves the
    watch read at that block; the round reads no reserves of its own, and
    simulates only when both are non-zero, so no builder finds a pool
    without liquidity. Every buyer is reconciled in every round. A buyer
    whose balance read at the block reverted gets no sell, and the skip
    is recorded.

    The round's sells and buy probe (`plan_round`) are simulated together
    through one `run_many`; only the round trip, whose sell is what the
    probe received, waits for a result. The results are judged in plan
    order: each buyer's sell, then that buyer's reconciliation, then the
    probe, then the round trip."""
    watch = state.watch
    if not watch.liquid:
        state.skipped_rounds.append({"block": block, "reason": "no liquidity"})
        for ledger in watch.buyers.values():
            state.add_finding(check_unauthorized_transfer(ledger, settings.threshold))
        return

    planned = plan_round(state, block)
    results = iter(run_many(chain, planned))
    for buyer, ledger in watch.buyers.items():
        held = ledger.snapshots[-1][1]  # ingestion read it at this block
        if held is None:
            state.skipped_rounds.append(
                {"block": block, "reason": "balance unread", "subject": buyer.hex}
            )
        elif held > 0:
            _judge(state, next(results), settings)
        state.add_finding(check_unauthorized_transfer(ledger, settings.threshold))

    probe_result = next(results)
    if not _judge(state, probe_result, settings):
        return
    probe_bundle, overrides = planned[-1]
    try:
        roundtrip = build_buy_sell_bundle(
            watch.reserves, state.probe, watch.pool, watch.trap_token,
            probe_bundle.calls[-2].amount_in, probe_result, block,
        )
    except ProbeFailed:
        return
    _judge(state, run(chain, roundtrip, overrides), settings)


def _round_blocks(start: int, from_block: int, to_block: int, interval: int) -> Iterator[int]:
    """The detection rounds in [start, to_block] of a scan of
    [from_block, to_block]: every `interval`-th block, and the last one."""
    block = start + (from_block - 1 - start) % interval
    while block < to_block:
        yield block
        block += interval
    if start <= to_block:
        yield to_block


def scan_pool(
    chain: ChainView,
    pool: PoolInfo,
    trap_token: Address,
    from_block: int,
    to_block: int,
    settings: ScanSettings | None = None,
    state: PoolScanState | None = None,
) -> PoolVerdict:
    """Scan one pool orientation over an inclusive block range; a range
    that is not one raises ValueError."""
    check_range((from_block, to_block))
    settings = settings or ScanSettings()
    if state is None:
        state = PoolScanState(watch=PoolWatch.create(pool, trap_token))
    watch = state.watch
    start = from_block if watch.last_ingested is None else watch.last_ingested + 1
    for block in _round_blocks(start, from_block, to_block, settings.interval):
        ingest_block(watch, chain, block, start)
        run_detection_round(chain, state, block, settings)
        start = block + 1
    return classify_pool(
        watch,
        state.findings.values(),
        (from_block, to_block),
        set(settings.known_token_allowlist) or None,
    )


@dataclass
class ScanSummary:
    """Shape of the final report: per-trap counts (overlapping) plus the
    distinct flagged total over the scanned population."""

    scanned: int = 0
    flagged: int = 0
    per_trap: dict[str, int] = field(default_factory=dict)
    failures: int = 0

    def add(self, verdict: PoolVerdict) -> None:
        self.scanned += 1
        if verdict.is_flagged:
            self.flagged += 1
        for trap in verdict.traps:
            self.per_trap[trap.value] = self.per_trap.get(trap.value, 0) + 1

    def add_line(self, line: str) -> None:
        """Count an already-serialized verdict (checkpoint resume path)."""
        obj = json.loads(line)
        self.scanned += 1
        traps = obj.get("traps", [])
        if traps:
            self.flagged += 1
        for trap in traps:
            self.per_trap[trap] = self.per_trap.get(trap, 0) + 1

    def total_line(self) -> str:
        return f"{self.flagged}/{self.scanned}"

    def table(self) -> str:
        rows = [("Types of Trap", "Num of Pool")]
        for i, trap in enumerate(TrapType, start=1):
            rows.append((f"({i}) {trap.value}", str(self.per_trap.get(trap.value, 0))))
        rows.append(("Total", self.total_line()))
        width = max(len(r[0]) for r in rows) + 2
        lines = [f"{name:<{width}}{num}" for name, num in rows]
        sep = "-" * (width + max(len(r[1]) for r in rows))
        return "\n".join([lines[0], sep, *lines[1:]])


def _scan_each(
    chain: ChainView,
    targets: list[tuple[PoolInfo, Address]],
    indices: Iterable[int],
    from_block: int,
    to_block: int,
    settings: ScanSettings,
) -> Iterator[tuple[int, PoolVerdict | Exception]]:
    """Scan `targets[i]` for each i in `indices`, yielding `(i, verdict)`,
    or `(i, exception)` when that pool's scan raised, in `indices` order."""

    def attempt(idx: int) -> tuple[int, PoolVerdict | Exception]:
        pool, trap = targets[idx]
        try:
            return idx, scan_pool(chain, pool, trap, from_block, to_block, settings)
        except Exception as exc:
            return idx, exc

    if settings.workers <= 1:
        yield from map(attempt, indices)
        return
    with ThreadPoolExecutor(max_workers=settings.workers) as executor:
        yield from executor.map(attempt, indices)


def scan_pools(
    chain: ChainView,
    targets: list[tuple[PoolInfo, Address]],
    from_block: int,
    to_block: int,
    settings: ScanSettings | None = None,
) -> tuple[list[PoolVerdict], ScanSummary]:
    """Scan many (pool, trap_token) orientations; the returned verdicts keep
    target order, and a pool whose scan raised is counted as a failure."""
    settings = settings or ScanSettings()
    summary = ScanSummary()
    verdicts: list[PoolVerdict] = []
    for _, result in _scan_each(
        chain, targets, range(len(targets)), from_block, to_block, settings
    ):
        if isinstance(result, Exception):
            summary.failures += 1
            continue
        verdicts.append(result)
        summary.add(result)
    return verdicts, summary


# ----------------------------------------------------------------------
# scan checkpointing (pool-level granularity)
#
# A checkpoint is JSONL: a header line {"schema": CHECKPOINT_SCHEMA}, then
# one {"key": ..., "line": ...} record per finished pool, appended and
# fsync'd as the pool finishes. A crash can only tear the last line, which
# the next read cuts off.

CHECKPOINT_SCHEMA = "trapscan-scan-checkpoint/2"


def write_checkpoint(path: str | Path, key: str, line: str) -> None:
    """Append one finished pool (key -> verdict JSON line) and fsync it."""
    with open(path, "a", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(json.dumps({"schema": CHECKPOINT_SCHEMA}) + "\n")
        fh.write(json.dumps({"key": key, "line": line}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _require_schema(header: bytes) -> None:
    doc = json.loads(header)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema: {schema!r}")


def read_checkpoint(path: str | Path) -> dict[str, str]:
    """Key -> verdict JSON line of every pool recorded in the checkpoint.

    A torn last line is cut off the file, so the next append starts on a
    clean line. Any schema but CHECKPOINT_SCHEMA raises ValueError.
    """
    p = Path(path)
    if not p.exists():
        return {}
    data = p.read_bytes()
    *complete, torn = data.split(b"\n")
    if complete:
        _require_schema(complete[0])
    elif torn:
        # One line without a newline: either a torn header (nothing was
        # recorded yet) or a one-document checkpoint of another schema.
        try:
            _require_schema(torn)
        except json.JSONDecodeError:
            pass
    if torn:
        with open(p, "r+b") as fh:
            fh.truncate(len(data) - len(torn))
    done: dict[str, str] = {}
    for raw in complete[1:]:
        record = json.loads(raw)
        done[record["key"]] = record["line"]
    return done


def scan_pools_resumable(
    chain: ChainView,
    targets: list[tuple[PoolInfo, Address]],
    from_block: int,
    to_block: int,
    settings: ScanSettings | None = None,
    checkpoint_path: str | Path | None = None,
) -> tuple[list[str], ScanSummary]:
    """Like scan_pools but returns verdict JSON lines, skips pools already
    in the checkpoint and appends each newly finished pool to it.

    A checkpoint holding a verdict over another block range raises
    ValueError. Checkpoint writes stay on the calling thread, in target
    order.
    """
    settings = settings or ScanSettings()
    done = read_checkpoint(checkpoint_path) if checkpoint_path else {}
    for key, line in done.items():
        scanned = json.loads(line)["scanned_range"]
        if scanned != [from_block, to_block]:
            raise ValueError(
                f"{key} was scanned over {scanned}, not [{from_block}, {to_block}]"
            )
    summary = ScanSummary()
    keys = [f"{pool.pool.hex}:{trap.hex}" for pool, trap in targets]
    lines: list[str | None] = [done.get(key) for key in keys]
    for line in lines:
        if line is not None:
            summary.add_line(line)
    pending = [idx for idx, line in enumerate(lines) if line is None]
    for idx, result in _scan_each(chain, targets, pending, from_block, to_block, settings):
        if isinstance(result, Exception):
            summary.failures += 1
            continue
        line = verdict_to_json_line(result)
        lines[idx] = line
        summary.add(result)
        if checkpoint_path:
            write_checkpoint(checkpoint_path, keys[idx], line)
    return [line for line in lines if line is not None], summary
