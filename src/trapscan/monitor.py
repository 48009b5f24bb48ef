"""Per-pool evidence ledger: buyers, balances, transfers, reserves.

A `PoolWatch` is fed one window of consecutive blocks at a time, one query
of each kind per window. Every recipient of the watched trap token in a
swap becomes a tracked buyer; from the block it was first seen the buyer
collects all logged transfers and approvals of the trap token that touch
it, and it gets a balance snapshot at that block and at the end of every
window. The pool's reserves are read once per window, at its last block;
they decide whether a round has liquidity and price every bundle the
round simulates. Detection logic consumes these ledgers, never the chain
directly, and reads snapshots only at those blocks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .chainview import (
    ApproveRecord,
    BalanceSnapshot,
    ChainView,
    SwapRecord,
    TransferRecord,
    UnknownPool,
    UnknownToken,
)
from .core import Address, PoolInfo, TokenAmount


class MonitorError(Exception):
    pass


class IngestGap(MonitorError):
    """A window must start right after the last ingested block."""


class MissingSnapshot(MonitorError):
    pass


@dataclass
class BuyerLedger:
    """Everything observed about one buyer of the trap token.

    Ingestion appends to every list in block order; the block lookups
    below bisect on that order.
    """

    buyer: Address
    pool: Address
    trap_token: Address
    buys: list[SwapRecord] = field(default_factory=list)
    snapshots: list[BalanceSnapshot] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    approvals: list[ApproveRecord] = field(default_factory=list)

    def snapshot_at(self, block: int) -> BalanceSnapshot:
        i = bisect_left(self.snapshots, block, key=_block_number)
        if i < len(self.snapshots) and self.snapshots[i].block.number == block:
            return self.snapshots[i]
        raise MissingSnapshot(f"no snapshot for {self.buyer} at block {block}")

    def latest_snapshot(self) -> BalanceSnapshot:
        if not self.snapshots:
            raise MissingSnapshot(f"no snapshots for {self.buyer}")
        return self.snapshots[-1]


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
    """Advance the watch over the window [start, block]; mutates and
    returns `watch`. The reserves are read at `block` only.

    `start` defaults to the block after `last_ingested`, or to `block` for
    a watch that has ingested nothing. A window that does not start right
    after `last_ingested`, or that is empty, raises `IngestGap`.
    """
    expected = None if watch.last_ingested is None else watch.last_ingested + 1
    lo = start if start is not None else (block if expected is None else expected)
    if (expected is not None and lo != expected) or lo > block:
        raise IngestGap(f"window [{lo}, {block}] does not follow block {watch.last_ingested}")

    window = (lo, block)
    try:
        swaps = chain.get_swaps(watch.pool.pool, window)
    except UnknownPool:
        # Scan range may start before the pool (or its tokens) exist.
        watch.reserves = (0, 0)
        watch.last_ingested = block
        return watch
    first_seen: dict[Address, int] = {}  # buyers new in this window
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
            first_seen[swap.recipient] = swap.block.number
        ledger.buys.append(swap)

    buyer_set = set(watch.buyers)
    if buyer_set:
        try:
            transfers = chain.get_transfers(watch.trap_token, window)
            approvals = chain.get_approvals(watch.trap_token, window)
        except UnknownToken:
            transfers, approvals = [], []
        # A buyer collects evidence from the block it was first seen.
        for rec in transfers:
            if rec.sender == watch.pool.pool:
                continue  # pool deliveries are already evidenced by SwapRecords
            for buyer in {rec.sender, rec.recipient} & buyer_set:
                if first_seen.get(buyer, lo) <= rec.block.number:
                    watch.buyers[buyer].transfers.append(rec)
        for rec in approvals:
            if rec.approver in buyer_set and first_seen.get(rec.approver, lo) <= rec.block.number:
                watch.buyers[rec.approver].approvals.append(rec)

    for ledger in watch.buyers.values():
        seen = first_seen.get(ledger.buyer, block)
        if seen < block:
            ledger.snapshots.append(chain.balance_of(watch.trap_token, ledger.buyer, seen))
        ledger.snapshots.append(chain.balance_of(watch.trap_token, ledger.buyer, block))

    try:
        watch.reserves = chain.get_reserves(watch.pool.pool, block)
    except UnknownPool:
        watch.reserves = (0, 0)
    watch.last_ingested = block
    return watch


def buyer_delta(
    ledger: BuyerLedger, from_block: int, to_block: int
) -> tuple[int, list[TransferRecord]]:
    """Signed balance change between two snapshotted blocks, plus the
    logged transfers touching the buyer in (from_block, to_block]."""
    start = ledger.snapshot_at(from_block)
    end = ledger.snapshot_at(to_block)
    return end.balance - start.balance, _in_window(ledger.transfers, from_block, to_block)


def swaps_in_window(ledger: BuyerLedger, from_block: int, to_block: int) -> list[SwapRecord]:
    return _in_window(ledger.buys, from_block, to_block)


def _block_number(record: SwapRecord | TransferRecord | BalanceSnapshot) -> int:
    return record.block.number


def _in_window(records: list, from_block: int, to_block: int) -> list:
    """The records in (from_block, to_block] of a list kept in block order,
    found by bisection so a window costs the same however long the list."""
    lo = bisect_right(records, from_block, key=_block_number)
    hi = bisect_right(records, to_block, lo=lo, key=_block_number)
    return records[lo:hi]
