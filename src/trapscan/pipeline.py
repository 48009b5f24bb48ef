"""Per-pool detection pipeline and multi-pool scan orchestration.

Pools are scanned in cohorts: `scan_cohort` takes pool orientations
over one block range in lockstep, window by window, so one request
carries every pool's share of each step. A pool is scanned in detection
rounds, one every `interval` blocks and one at the last block; the
rounds of every pool of a cohort fall on the same blocks. Each round
first ingests its window of blocks, those since the previous round, for
the whole cohort in one step (see `monitor.ingest_window`): the window's
logs and reserves for every pool in one fetch, then every buyer balance
in one batch; every bundle of the round is priced from the reserves read
at its block. Then the round reconciles each buyer's balance movement
since the previous round, or since it was first seen, against the logged
evidence; this reads only the ledger, so it runs in every round.
Provided both reserves are non-zero, the round also:

  * rebuilds a sell simulation for every tracked buyer at their full
    balance, before reconciling that buyer, and checks the sell-side
    predicates,
  * runs a buy probe with a funded synthetic account, and a follow-up
    buy-and-sell round trip when the probe delivered.

A round is planned before it is judged. `plan_round` builds the sells
and the probe from the watch alone, and `run_detection_round` simulates
the plans of every pool of the cohort together through one
`simulator.run_many` (one POST on the RPC backend), judges each pool's
results in plan order, and then simulates every pool's round trip, whose
sell is what its probe received, through one more. On the RPC backend a
window of a cohort thus costs at most five POSTs, whatever its size: two
for the fetch, one for the balances, one for the sells and probes, and
one for the round trips, plus one quote POST after each of the last two
when a V3 pool takes part. `scan_pool` scans one pool as a cohort of
one.

The scan state holds one round's window and no history. The watch keeps
only the window's evidence, which the round reads whole, with no
bisection; each sell result is folded into its subject's running
CannotSell revert streak; only the first finding per (trap, subject) is
kept; and only the last result of each subject stands, for the next
round to reuse its bundle's calls while the amounts hold, and, while
it is settled, to get it back from `run_many` in place of a result
that would repeat it (see `PoolScanState`). Such a result is not judged
again. Every bundle is still simulated every round. So a round late in
a long scan costs what an early one does, and a quiet round less.

Findings accumulate into one verdict per pool. A pool whose scan raises
fails alone: the exception is recorded once, as its state's `error`,
where it is caught, and the cohort drops the pool after that step and
goes on. A failure of a request the cohort shares fails the cohort's
unfinished pools. A multi-pool scan chunks its targets into cohorts of
up to `COHORT_SIZE` and maps them onto one executor, `_scan_each`: in
the calling thread when `workers <= 1`, otherwise on one thread pool.
It yields each cohort's verdicts, or the exceptions their scans raised,
in target order.
`scan_pools` and `scan_pools_resumable` both consume it, so a failing
pool is counted in `ScanSummary.failures` and never stops the scan,
whatever the worker count.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Sequence
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
    threshold_parts,
    verdict_to_json_line,
)
from .chainview import BalanceOverrides, Call, ChainView, check_range
from .core import Address, PoolInfo, TrapType
from .monitor import PoolWatch, ingest_block, ingest_window
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

# `ingest_block` is the one-watch form of `ingest_window`, and `run` the
# one-bundle form of `run_many`; the scan loop calls neither, and both
# stay importable from here for callers that wrap the pipeline's steps by
# name, as the benchmark's tracer does.

# Members of `BundleKind` that each result is compared with, as module
# names: on CPython 3.11 reading an enum member through its class takes
# about 15 times as long as reading a global.
_SELL, _BUY_PROBE = BundleKind.SELL, BundleKind.BUY_PROBE

PROBE_FUNDING = 10**30
# Pools a multi-pool scan runs in one cohort, at most. The benchmark's
# live-replay chain, 12 pools scanned in one pass as one cohort, sends at
# most 59 requests in a POST (the default `max_batch` is 100) and peaks at
# 0.57 MiB of traced allocations, against 0.32 MiB one pool at a time;
# no measured workload holds more pools to show that a larger cohort
# pays. A cohort's verdicts are checkpointed together, so a crash loses
# at most one cohort's work. A scan of fewer than `COHORT_SIZE` pools per
# worker runs in smaller cohorts, so that the workers share them.
COHORT_SIZE = 12
# Buy probes spend PROBE_NUM/PROBE_DEN of the pool's base-token reserve.
PROBE_NUM = 1
PROBE_DEN = 1000


@dataclass(frozen=True)
class ScanSettings:
    """Knobs for one scan run. `threshold_parts` is the threshold split
    once, as every predicate check of the scan takes it."""

    interval: int = 1  # blocks between detection rounds
    threshold: Fraction = DEFAULT_THRESHOLD
    workers: int = 1
    threshold_parts: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        # ValueError unless the threshold lies in (0, 1)
        object.__setattr__(self, "threshold_parts", threshold_parts(self.threshold))
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(slots=True)
class StandingResult:
    """A subject's last simulated result, and the threshold parts it is
    settled under, or None. A result is settled when judging it again
    would change nothing: its estimate is not 0 and both its balance
    reads went through, so it records no skip, and it is the probe's, or
    its sell went through, or its subject's CannotSell streak is
    complete. Built once per judged result and never mutated."""

    result: SimulationResult
    settled_under: tuple[int, int] | None

    @property
    def bundle(self) -> Bundle:
        return self.result.bundle

    @property
    def calls(self) -> tuple[Call, ...]:
        """The calls the subject's next bundle reuses while its amounts hold."""
        return self.result.bundle.calls


@dataclass
class PoolScanState:
    """Mutable per-pool scan progress; owned by a single worker.

    Only each subject's last simulation result is kept (see below). Each
    subject's sell results are folded into its CannotSell revert streak
    as they arrive. A streak of
    `MIN_REVERT_BLOCKS` blocks has produced the subject's finding and is
    not folded again, so no streak grows however long the scan runs.
    `findings` keeps the first finding per (trap, subject); rounds add
    them in block order, so that is the earliest. `probe` is the pool's
    funded synthetic account, derived once, and `funding` the balance
    override that funds it in every probe and round trip.

    The standing results are each subject's last simulated result, as a
    `StandingResult`: a sell per buyer in `sells`, and the probe
    account's `buy_probe` and `roundtrip`. Each round hands their bundles
    back to the builders, which reuse their calls while the amounts hold
    (see `plan_round`), and a settled one to `run_many`, which returns it
    in place of a result that would repeat it (see `_judge`). That is at
    most `len(watch.buyers) + 2` records, however long the scan runs.

    `error` is the exception that failed the pool's scan, recorded where
    it happened; a state with one is never advanced again.
    """

    watch: PoolWatch
    findings: dict[tuple[TrapType, Address], Finding] = field(default_factory=dict)
    revert_streaks: dict[Address, list[int]] = field(default_factory=dict)
    skipped_rounds: list[dict] = field(default_factory=list)
    sells: dict[Address, StandingResult] = field(default_factory=dict)
    buy_probe: StandingResult | None = None
    roundtrip: StandingResult | None = None
    error: Exception | None = None
    probe: Address = field(init=False)
    funding: BalanceOverrides = field(init=False)

    def __post_init__(self) -> None:
        self.probe = probe_account_for(self.watch.pool)
        self.funding = {(self.watch.base_token, self.probe): PROBE_FUNDING}

    def add_finding(self, finding: Finding | None) -> None:
        if finding is not None:
            self.findings.setdefault((finding.trap, finding.subject), finding)

    def fold_sell(self, result: SimulationResult) -> bool:
        """Fold a subject's newest sell result into its revert streak.
        Returns whether folding it again would leave the streak as it is:
        its sell went through, or the streak is complete."""
        streak = self.revert_streaks.setdefault(result.bundle.actor, [])
        if len(streak) < MIN_REVERT_BLOCKS:
            self.add_finding(check_cannot_sell(result, streak))
        return not result.sell_reverted or len(streak) >= MIN_REVERT_BLOCKS


def probe_account_for(pool: PoolInfo) -> Address:
    return Address.derive(f"probe:{pool.pool.hex}")


def _probe_size(watch: PoolWatch) -> int:
    rx, ry = watch.reserves
    base_reserve = rx if watch.base_token == watch.pool.token_x else ry
    return max(1, (base_reserve * PROBE_NUM) // PROBE_DEN)


def _standing(state: PoolScanState, bundle: Bundle) -> StandingResult | None:
    """The standing result of the bundle's subject, if it has one."""
    kind = bundle.kind
    if kind is _SELL:
        return state.sells.get(bundle.actor)
    return state.buy_probe if kind is _BUY_PROBE else state.roundtrip


def _judge(state: PoolScanState, result: SimulationResult, settings: ScanSettings) -> bool:
    """Record the skip of a result with no estimate, or judge it: the
    probe by `check_invalid_buy`, a sell by `check_invalid_sell` and then
    its subject's revert streak. A result with an unread balance is also
    recorded as a `balance unread` skip: it gives no delivery finding, but
    its sell still counts in the streak. Returns whether it was judged.

    A result that is its subject's settled standing result, which
    `run_many` returned again, was judged when it first stood: it is not
    judged again, and records nothing. Any other result becomes its
    subject's standing result, settled or not (see `StandingResult`)."""
    bundle = result.bundle
    kind = bundle.kind
    standing = _standing(state, bundle)
    if standing is not None and standing.result is result:
        return True
    settled = False
    if result.estimate == 0:
        state.skipped_rounds.append(
            {"block": bundle.block, "reason": "estimate=0", "subject": bundle.actor.hex}
        )
    else:
        settled = result.balance_delta is not None
        if not settled:
            state.skipped_rounds.append(
                {"block": bundle.block, "reason": "balance unread", "subject": bundle.actor.hex}
            )
        if kind is _BUY_PROBE:
            state.add_finding(check_invalid_buy(result, settings.threshold_parts))
        else:
            state.add_finding(check_invalid_sell(result, settings.threshold_parts))
            settled = state.fold_sell(result) and settled
    standing = StandingResult(result, settings.threshold_parts if settled else None)
    if kind is _SELL:
        state.sells[bundle.actor] = standing
    elif kind is _BUY_PROBE:
        state.buy_probe = standing
    else:
        state.roundtrip = standing
    return result.estimate != 0


def _previous(standing: StandingResult | None) -> Bundle | None:
    """The bundle whose calls a subject's next bundle reuses while its
    amounts hold: its standing result's."""
    return None if standing is None else standing.bundle


def _settled(
    state: PoolScanState, bundle: Bundle, parts: tuple[int, int]
) -> SimulationResult | None:
    """The settled result of the bundle's subject under the threshold
    `parts`, or None."""
    standing = _standing(state, bundle)
    if standing is None or standing.settled_under != parts:
        return None
    return standing.result


# Bundles to simulate at one block, each with the balances its fork is
# seeded with.
Plan = list[tuple[Bundle, BalanceOverrides | None]]


def plan_round(state: PoolScanState, block: int) -> Plan:
    """The bundles of a round at `block`, in the order `run_detection_round`
    judges them: a sell for each buyer whose balance read at the block is
    positive, in buyer order, then the funded buy probe. It reads the
    watch and nothing from the chain. Each bundle is built from the
    bundle of the subject's standing result, whose calls it reuses when
    the amounts held since it was built (see `PoolScanState`). The watch
    must be liquid."""
    watch = state.watch
    reserves, pool, trap, base = watch.reserves, watch.pool, watch.trap_token, watch.base_token
    sells = state.sells
    items: Plan = []
    for buyer, ledger in watch.buyers.items():
        held = ledger.snapshots[-1][1]  # read at this block; None or 0 sells nothing
        if held:
            sell = build_sell_bundle(
                reserves, buyer, pool, trap, held, block, _previous(sells.get(buyer)),
                base_token=base,
            )
            items.append((sell, None))
    probe = build_buy_probe(
        reserves, state.probe, pool, trap, _probe_size(watch), block,
        _previous(state.buy_probe), base_token=base,
    )
    items.append((probe, state.funding))
    return items


def _start_round(state: PoolScanState, block: int, settings: ScanSettings) -> Plan | None:
    """The first step of a round at `block`: its sells and buy probe
    (`plan_round`), or None for a pool without liquidity, whose round only
    records the skip and reconciles every buyer. Every bundle is priced
    from the reserves the watch read at the block; the round reads no
    reserves of its own, and simulates only when both are non-zero, so no
    builder finds a pool without liquidity."""
    watch = state.watch
    if not watch.liquid:
        state.skipped_rounds.append({"block": block, "reason": "no liquidity"})
        for ledger in watch.buyers.values():
            state.add_finding(check_unauthorized_transfer(ledger, settings.threshold_parts))
        return None
    return plan_round(state, block)


def _judge_round(
    state: PoolScanState,
    block: int,
    settings: ScanSettings,
    planned: Plan,
    results: list[SimulationResult],
) -> Plan | None:
    """Judge a round's results in plan order: each buyer's sell, then that
    buyer's reconciliation, then the probe. Every buyer is reconciled; a
    buyer whose balance read at the block reverted gets no sell, and the
    skip is recorded. Returns the round trip to simulate, whose sell is
    what the probe received, built from the standing round trip, or None
    when the probe gave nothing to sell."""
    watch = state.watch
    outcomes = iter(results)
    for buyer, ledger in watch.buyers.items():
        held = ledger.snapshots[-1][1]  # ingestion read it at this block
        if held is None:
            state.skipped_rounds.append(
                {"block": block, "reason": "balance unread", "subject": buyer.hex}
            )
        elif held > 0:
            _judge(state, next(outcomes), settings)
        state.add_finding(check_unauthorized_transfer(ledger, settings.threshold_parts))

    probe_result = next(outcomes)
    if not _judge(state, probe_result, settings):
        return None
    probe_bundle, overrides = planned[-1]
    try:
        roundtrip = build_buy_sell_bundle(
            watch.reserves, state.probe, watch.pool, watch.trap_token,
            probe_bundle.calls[-2].amount_in, probe_result, block,
            _previous(state.roundtrip), base_token=watch.base_token,
        )
    except ProbeFailed:
        return None
    return [(roundtrip, overrides)]


def run_detection_round(
    chain: ChainView,
    states: Sequence[PoolScanState],
    block: int,
    settings: ScanSettings,
) -> bool:
    """One detection round at a sealed block, the last one every watch has
    ingested, for each state of a cohort, in three steps: start every
    round (`_start_round`), simulate all their sells and probes through
    one `run_many` and judge each pool's results (`_judge_round`), then
    simulate all their round trips through one more and judge those. So a
    round costs two simulation calls however many pools take part.

    The exception that failed a round is recorded as its state's `error`;
    the other rounds go on. A bundle that failed fails its own pool's
    round, and a failed `run_many` every round that had a bundle in it.
    Returns whether any round failed."""
    failed = False
    plans: list[tuple[PoolScanState, Plan]] = []
    for state in states:
        try:
            planned = _start_round(state, block, settings)
        except Exception as exc:  # this pool's own round failed
            state.error, failed = exc, True
            continue
        if planned:
            plans.append((state, planned))
    parts = settings.threshold_parts
    ran = _simulate(chain, plans, parts)
    trips: list[tuple[PoolScanState, Plan]] = []
    for state, planned, results in ran:
        try:
            trip = _judge_round(state, block, settings, planned, results)
        except Exception as exc:  # this pool's own round failed
            state.error, failed = exc, True
            continue
        if trip:
            trips.append((state, trip))
    ran_trips = _simulate(chain, trips, parts)
    for state, _, (result,) in ran_trips:
        try:
            _judge(state, result, settings)
        except Exception as exc:  # this pool's own round failed
            state.error, failed = exc, True
    return failed or len(ran) < len(plans) or len(ran_trips) < len(trips)


def _simulate(
    chain: ChainView, plans: list[tuple[PoolScanState, Plan]], parts: tuple[int, int]
) -> list[tuple[PoolScanState, Plan, list[SimulationResult]]]:
    """Every plan's bundles through one `run_many`, each with its subject's
    result settled under the threshold `parts`; each plan whose bundles
    all ran, with their results. A plan with a failed bundle records that
    failure as its state's `error`, and a failed simulation records its
    own for every plan."""
    try:
        results = run_many(
            chain,
            [item for _, planned in plans for item in planned],
            [_settled(state, bundle, parts) for state, planned in plans for bundle, _ in planned],
        )
    except Exception as exc:  # the shared simulation failed: every plan fails
        for state, _ in plans:
            state.error = exc
        return []
    done = []
    position = 0
    for state, planned in plans:
        got = results[position:position + len(planned)]
        position += len(planned)
        for result in got:
            if isinstance(result, Exception):
                state.error = result
                break
        else:
            done.append((state, planned, got))
    return done


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
    """Scan one pool orientation over an inclusive block range, as a cohort
    of one; a range that is not one raises ValueError, and a failure of
    the pool's scan raises."""
    if state is None:
        state = PoolScanState(watch=PoolWatch.create(pool, trap_token))
    [result] = scan_cohort(chain, [state], from_block, to_block, settings or ScanSettings())
    if isinstance(result, Exception):
        raise result
    return result


def scan_cohort(
    chain: ChainView,
    states: Sequence[PoolScanState],
    from_block: int,
    to_block: int,
    settings: ScanSettings,
) -> list[PoolVerdict | Exception]:
    """Scan each state's pool orientation over one inclusive block range,
    in lockstep: every window is ingested for all of them at once, and
    each round runs for all of them at once. The states must have
    ingested the same blocks. Returns, per state, its verdict, or its
    `error`: what failed its scan. A failed state is dropped and the
    others go on; one whose `error` is set on entry is never advanced. A
    range that is not one raises ValueError."""
    check_range((from_block, to_block))
    cohort, watches = _unfailed(states)
    last = watches[0].last_ingested if watches else None
    start = from_block if last is None else last + 1
    for block in _round_blocks(start, from_block, to_block, settings.interval):
        if not cohort:
            break
        failures = ingest_window(watches, chain, block, start)
        if failures:
            for i, error in failures.items():
                cohort[i].error = error
            cohort, watches = _unfailed(cohort)
        if run_detection_round(chain, cohort, block, settings):
            cohort, watches = _unfailed(cohort)
        start = block + 1
    results: list[PoolVerdict | Exception] = []
    for state in states:
        if state.error is None:
            try:
                results.append(
                    classify_pool(state.watch, state.findings.values(), (from_block, to_block))
                )
                continue
            except Exception as exc:  # this pool's own verdict failed
                state.error = exc
        results.append(state.error)
    return results


def _unfailed(states: Sequence[PoolScanState]) -> tuple[list[PoolScanState], list[PoolWatch]]:
    """The states with no `error`, and their watches."""
    cohort = [state for state in states if state.error is None]
    return cohort, [state.watch for state in cohort]


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
) -> Iterator[list[tuple[int, PoolVerdict | Exception]]]:
    """Scan `targets[i]` for each i in `indices`, in cohorts of
    consecutive indices: up to `COHORT_SIZE`, and at most a worker's
    share of the indices. Yields each cohort's `(i, verdict)`, or
    `(i, exception)` when that pool's scan raised, in `indices` order."""
    order = list(indices)
    size = max(1, min(COHORT_SIZE, -(-len(order) // settings.workers)))
    cohorts = [order[k:k + size] for k in range(0, len(order), size)]

    def attempt(cohort: list[int]) -> list[tuple[int, PoolVerdict | Exception]]:
        done: dict[int, PoolVerdict | Exception] = {}
        states: dict[int, PoolScanState] = {}
        for idx in cohort:
            try:
                states[idx] = PoolScanState(watch=PoolWatch.create(*targets[idx]))
            except Exception as exc:  # a target that is no pool orientation
                done[idx] = exc
        try:
            verdicts = (
                scan_cohort(chain, list(states.values()), from_block, to_block, settings)
                if states else []
            )
        except Exception as exc:  # the cohort's own failure: each of its pools fails
            verdicts = [exc] * len(states)
        done.update(zip(states, verdicts))
        return [(idx, done[idx]) for idx in cohort]

    if settings.workers <= 1:
        yield from map(attempt, cohorts)
        return
    with ThreadPoolExecutor(max_workers=settings.workers) as executor:
        yield from executor.map(attempt, cohorts)


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
    for cohort in _scan_each(
        chain, targets, range(len(targets)), from_block, to_block, settings
    ):
        for _, result in cohort:
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
# one {"key": ..., "line": ...} record per finished pool. A cohort's
# finished pools are appended in one write and one fsync as the cohort
# finishes. A crash can only tear the last line, which the next read cuts
# off, so a resume rescans only the pools whose records are not whole.

CHECKPOINT_SCHEMA = "trapscan-scan-checkpoint/2"


def write_checkpoint(path: str | Path, records: Sequence[tuple[str, str]]) -> None:
    """Append finished pools (key -> verdict JSON line) in one write, and
    fsync them."""
    with open(path, "a", encoding="utf-8") as fh:
        head = json.dumps({"schema": CHECKPOINT_SCHEMA}) + "\n" if fh.tell() == 0 else ""
        fh.write(head + "".join(
            json.dumps({"key": key, "line": line}) + "\n" for key, line in records
        ))
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
    in the checkpoint and appends the newly finished pools of each cohort
    to it as the cohort finishes.

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
    for cohort in _scan_each(chain, targets, pending, from_block, to_block, settings):
        records: list[tuple[str, str]] = []
        for idx, result in cohort:
            if isinstance(result, Exception):
                summary.failures += 1
                continue
            line = verdict_to_json_line(result)
            lines[idx] = line
            summary.add(result)
            records.append((keys[idx], line))
        if checkpoint_path and records:
            write_checkpoint(checkpoint_path, records)
    return [line for line in lines if line is not None], summary
