"""Per-pool evidence ledger: buyers, balances, transfers, liquidity flags.

A `PoolWatch` is fed strictly one block at a time. Every recipient of the
watched trap token in a swap becomes a tracked buyer; from then on the
buyer gets a balance snapshot at every ingested block, plus all logged
transfers and approvals of the trap token that touch them. Detection
logic consumes these ledgers, never the chain directly.
"""

from __future__ import annotations

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
from .core import Address, PoolInfo


class MonitorError(Exception):
    pass


class IngestGap(MonitorError):
    """Blocks must be ingested consecutively."""


class MissingSnapshot(MonitorError):
    pass


@dataclass
class BuyerLedger:
    """Everything observed about one buyer of the trap token."""

    buyer: Address
    pool: Address
    trap_token: Address
    buys: list[SwapRecord] = field(default_factory=list)
    snapshots: list[BalanceSnapshot] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    approvals: list[ApproveRecord] = field(default_factory=list)

    def snapshot_at(self, block: int) -> BalanceSnapshot:
        for snap in self.snapshots:
            if snap.block.number == block:
                return snap
        raise MissingSnapshot(f"no snapshot for {self.buyer} at block {block}")

    def latest_snapshot(self) -> BalanceSnapshot:
        if not self.snapshots:
            raise MissingSnapshot(f"no snapshots for {self.buyer}")
        return self.snapshots[-1]


@dataclass
class PoolWatch:
    """Monitor state for one pool, oriented at one trap-token side."""

    pool: PoolInfo
    trap_token: Address
    base_token: Address
    buyers: dict[Address, BuyerLedger] = field(default_factory=dict)
    has_liquidity: dict[int, bool] = field(default_factory=dict)
    last_ingested: int | None = None

    @classmethod
    def create(cls, pool: PoolInfo, trap_token: Address) -> "PoolWatch":
        return cls(pool=pool, trap_token=trap_token, base_token=pool.other_token(trap_token))

    def liquid_at(self, block: int) -> bool:
        return self.has_liquidity.get(block, False)


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


def ingest_block(watch: PoolWatch, chain: ChainView, block: int) -> PoolWatch:
    """Advance the watch by exactly one block; mutates and returns `watch`."""
    if watch.last_ingested is not None and block != watch.last_ingested + 1:
        raise IngestGap(f"expected block {watch.last_ingested + 1}, got {block}")

    one = (block, block)
    try:
        swaps = chain.get_swaps(watch.pool.pool, one)
    except UnknownPool:
        # Scan range may start before the pool (or its tokens) exist.
        watch.has_liquidity[block] = False
        watch.last_ingested = block
        return watch
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
        ledger.buys.append(swap)

    buyer_set = set(watch.buyers)
    if buyer_set:
        try:
            transfers = chain.get_transfers(watch.trap_token, one)
            approvals = chain.get_approvals(watch.trap_token, one)
        except UnknownToken:
            transfers, approvals = [], []
        for rec in transfers:
            if rec.sender == watch.pool.pool:
                continue  # pool deliveries are already evidenced by SwapRecords
            for buyer in {rec.sender, rec.recipient} & buyer_set:
                watch.buyers[buyer].transfers.append(rec)
        for rec in approvals:
            if rec.approver in buyer_set:
                watch.buyers[rec.approver].approvals.append(rec)

    for ledger in watch.buyers.values():
        snap = chain.balance_of(watch.trap_token, ledger.buyer, block)
        ledger.snapshots.append(snap)

    try:
        rx, ry = chain.get_reserves(watch.pool.pool, block)
        watch.has_liquidity[block] = rx > 0 and ry > 0
    except UnknownPool:
        watch.has_liquidity[block] = False
    watch.last_ingested = block
    return watch


def buyer_delta(
    ledger: BuyerLedger, from_block: int, to_block: int
) -> tuple[int, list[TransferRecord]]:
    """Signed balance change between two snapshotted blocks, plus the
    logged transfers touching the buyer in (from_block, to_block]."""
    start = ledger.snapshot_at(from_block)
    end = ledger.snapshot_at(to_block)
    moved = [
        t for t in ledger.transfers if from_block < t.block.number <= to_block
    ]
    return end.balance - start.balance, moved


def swaps_in_window(ledger: BuyerLedger, from_block: int, to_block: int) -> list[SwapRecord]:
    return [s for s in ledger.buys if from_block < s.block.number <= to_block]
