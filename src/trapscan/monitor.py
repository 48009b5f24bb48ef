"""Per-pool evidence ledger: buyers, balances, transfers, reserves.

A `PoolWatch` is fed one window of consecutive blocks at a time and
holds that window's evidence only. Every recipient of the watched trap
token in a swap becomes a tracked buyer. Its ledger holds the buyer's
trap-token balance read at the window's start (the previous window's
last block, or the block the buyer was first seen) and at its end, the
buyer's buys and the logged trap-token transfers touching it after that
start, and the running sum of its approvals per spender. The pool's
reserves are read once per window, at its last block; they decide
whether a round has liquidity and price every bundle the round
simulates.

`ingest_window` advances a cohort of watches over one window together,
in three steps: fetch the window's logs and reserves for every watch
through one `get_window`, handed each watch's `PoolInfo` so that no
window reads pool metadata, fold each watch's share into it, then read
every balance the cohort needs through one `balances_at`. The RPC
backend sends the fetch as two POSTs and the reads as one, whatever the
cohort's size. Detection logic consumes these ledgers, never the chain
directly, so no round's cost grows with the length of the scan.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .chainview import (
    ChainView,
    SwapRecord,
    TransferRecord,
    UnknownPool,
    UnknownToken,
    Window,
    fresh_error,
)
from .core import Address, PoolInfo, TokenAmount


class MonitorError(Exception):
    pass


class IngestGap(MonitorError):
    """A window must start right after the last ingested block."""


@dataclass
class BuyerLedger:
    """What one buyer of the trap token did in the latest window.

    `snapshots` holds the window's start and end balances as `(block,
    balance)` pairs, one pair when both are the same block; a balance is
    None where the read reverted. `buys` and `transfers` hold the records
    after the start, in block order. `approved` maps each spender to the
    sum the buyer approved it from the block it was first seen on.
    """

    buyer: Address
    pool: Address
    trap_token: Address
    buys: list[SwapRecord] = field(default_factory=list)
    snapshots: list[tuple[int, TokenAmount | None]] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    approved: dict[Address, int] = field(default_factory=dict)


@dataclass
class PoolWatch:
    """Monitor state for one pool, oriented at one trap-token side.

    `reserves` is the pool's (token_x, token_y) reserves at
    `last_ingested`, or (0, 0) while the pool is unknown there.
    """

    pool: PoolInfo
    trap_token: Address
    base_token: Address
    buyers: dict[Address, BuyerLedger] = field(default_factory=dict)
    reserves: tuple[TokenAmount, TokenAmount] = (0, 0)
    last_ingested: int | None = None

    @classmethod
    def create(cls, pool: PoolInfo, trap_token: Address) -> "PoolWatch":
        return cls(pool=pool, trap_token=trap_token, base_token=pool.other_token(trap_token))

    @property
    def liquid(self) -> bool:
        return 0 not in self.reserves


def pick_orientations(
    pool: PoolInfo, base_tokens: set[Address]
) -> list[tuple[Address, Address]]:
    """(trap_token, base_token) pairs to watch for a pool.

    The non-base side is the trap candidate. When neither side is a known
    base token the pool is watched in both directions.
    """
    x_base = pool.token_x in base_tokens
    y_base = pool.token_y in base_tokens
    if x_base and not y_base:
        return [(pool.token_y, pool.token_x)]
    if y_base and not x_base:
        return [(pool.token_x, pool.token_y)]
    return [(pool.token_y, pool.token_x), (pool.token_x, pool.token_y)]


def ingest_block(
    watch: PoolWatch, chain: ChainView, block: int, start: int | None = None
) -> PoolWatch:
    """Advance one watch over the window [start, block]; mutates and
    returns `watch`, or raises what failed it (see `ingest_window`)."""
    failures = ingest_window([watch], chain, block, start)
    if failures:
        raise fresh_error(failures[0])
    return watch


def ingest_window(
    watches: Sequence[PoolWatch], chain: ChainView, block: int, start: int | None = None
) -> dict[int, Exception]:
    """Advance each watch over the window [start, block], together: one
    `get_window` for all their pools and trap tokens, then one
    `balances_at` for every balance they need. The previous window's
    evidence is dropped, all but each buyer's last balance, which starts
    the new window. The reserves are read at `block` only.

    `start` defaults to the block after the first watch's
    `last_ingested`, or to `block` if it has ingested nothing. A watch
    whose window would not start right after its `last_ingested`, or an
    empty window, fails with `IngestGap`. Returns the exception that
    failed each watch that failed, by its index in `watches`, without its
    traceback, whose frames would hold the returned dict; a failed watch
    is left part-way and must not be advanced again, while the others go
    on.
    """
    failures: dict[int, Exception] = {}
    last = watches[0].last_ingested
    lo = start if start is not None else (block if last is None else last + 1)
    live: list[int] = []
    pools: list[PoolInfo] = []
    tokens: list[Address] = []
    for i, watch in enumerate(watches):
        last = watch.last_ingested
        if (last is not None and lo != last + 1) or lo > block:
            failures[i] = IngestGap(f"window [{lo}, {block}] does not follow block {last}")
            continue
        live.append(i)
        pools.append(watch.pool)
        tokens.append(watch.trap_token)
    if not live:
        return failures
    try:
        window = chain.get_window(pools, tokens, (lo, block))
    except Exception as exc:  # the cohort's shared fetch: every watch fails
        exc = exc.with_traceback(None)
        for i in live:
            failures[i] = exc
        return failures

    # Every balance the window needs, read together: each buyer's at the
    # block it was first seen in this window, if before `block`, and at
    # `block`. `owners` holds the snapshot list each read goes to, and
    # `asking` the watches that asked for any.
    reads: list[tuple[Address, Address, int]] = []
    owners: list[list[tuple[int, TokenAmount | None]]] = []
    asking: list[int] = []
    for i in live:
        watch = watches[i]
        try:
            first_seen = _fold(watch, window, lo, block)
        except Exception as exc:  # this watch's own answers failed it
            failures[i] = exc.with_traceback(None)
            continue
        if first_seen is None or not watch.buyers:
            watch.last_ingested = block
            continue
        asking.append(i)
        token = watch.trap_token
        for buyer, ledger in watch.buyers.items():
            seen = first_seen.get(buyer, block)
            if seen < block:
                reads.append((token, buyer, seen))
                owners.append(ledger.snapshots)
            reads.append((token, buyer, block))
            owners.append(ledger.snapshots)
    if not reads:
        return failures
    try:
        balances = chain.balances_at(reads)
    except Exception as exc:  # the shared read: every watch that asked fails
        exc = exc.with_traceback(None)
        for i in asking:
            failures[i] = exc
        return failures
    for snapshots, (_, _, edge), balance in zip(owners, reads, balances):
        snapshots.append((edge, balance))
    for i in asking:
        watches[i].last_ingested = block
    return failures


def _fold(watch: PoolWatch, window: Window, lo: int, block: int) -> dict[Address, int] | None:
    """Fold the watch's share of the window [lo, block] into it: its swaps,
    its trap token's transfers and approvals, and its reserves. Returns
    the block each new buyer was first seen at, or None when the pool is
    unknown in the window (it has no reserves then, and nothing to read)."""
    for ledger in watch.buyers.values():
        del ledger.snapshots[:-1]
        ledger.buys.clear()
        ledger.transfers.clear()
    try:
        swaps = window.swaps(watch.pool.pool)
    except UnknownPool:
        # Scan range may start before the pool (or its tokens) exist.
        watch.reserves = (0, 0)
        return None
    # A buyer new in this window starts it at the block it was first seen:
    # its records count after that block, its approvals from it on.
    first_seen: dict[Address, int] = {}
    for swap in swaps:
        if swap.token_out != watch.trap_token:
            continue
        if swap.recipient == watch.pool.pool:
            continue
        ledger = watch.buyers.get(swap.recipient)
        if ledger is None:
            ledger = BuyerLedger(
                buyer=swap.recipient, pool=watch.pool.pool, trap_token=watch.trap_token
            )
            watch.buyers[swap.recipient] = ledger
            first_seen[swap.recipient] = swap.block
        elif first_seen.get(swap.recipient, lo - 1) < swap.block:
            ledger.buys.append(swap)

    buyer_set = set(watch.buyers)
    if buyer_set:
        try:
            transfers = window.transfers(watch.trap_token)
            approvals = window.approvals(watch.trap_token)
        except UnknownToken:
            transfers, approvals = [], []
        for rec in transfers:
            if rec.sender == watch.pool.pool:
                continue  # pool deliveries are already evidenced by SwapRecords
            for buyer in {rec.sender, rec.recipient} & buyer_set:
                if first_seen.get(buyer, lo - 1) < rec.block:
                    watch.buyers[buyer].transfers.append(rec)
        for rec in approvals:
            if rec.approver in buyer_set and first_seen.get(rec.approver, lo) <= rec.block:
                approved = watch.buyers[rec.approver].approved
                approved[rec.spender] = approved.get(rec.spender, 0) + rec.value

    try:
        watch.reserves = window.reserves(watch.pool.pool)
    except UnknownPool:
        watch.reserves = (0, 0)
    return first_seen
