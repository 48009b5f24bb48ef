"""Per-pool evidence ledger: buyers, balances, transfers, reserves.

A `PoolWatch` is fed one window of consecutive blocks at a time, one query
of each kind per window, and holds that window's evidence only. Every
recipient of the watched trap token in a swap becomes a tracked buyer.
Its ledger holds the buyer's trap-token balance read at the window's
start (the previous window's last block, or the block the buyer was
first seen) and at its end, the buyer's buys and the logged trap-token
transfers touching it after that start, and the running sum of its
approvals per spender. Every balance a window needs, at the first-seen
blocks and at its last block, is read through one `balances_at` call,
which the RPC backend sends as one POST. The pool's reserves are read
once per window, at its last block; they decide whether a round has
liquidity and price every bundle the round simulates. Detection logic
consumes these ledgers, never the chain directly, so no round's cost
grows with the length of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chainview import (
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
    """Advance the watch over the window [start, block]; mutates and
    returns `watch`. The previous window's evidence is dropped, all but
    each buyer's last balance, which starts the new window. The reserves
    are read at `block` only.

    `start` defaults to the block after `last_ingested`, or to `block` for
    a watch that has ingested nothing. A window that does not start right
    after `last_ingested`, or that is empty, raises `IngestGap`.
    """
    expected = None if watch.last_ingested is None else watch.last_ingested + 1
    lo = start if start is not None else (block if expected is None else expected)
    if (expected is not None and lo != expected) or lo > block:
        raise IngestGap(f"window [{lo}, {block}] does not follow block {watch.last_ingested}")
    for ledger in watch.buyers.values():
        del ledger.snapshots[:-1]
        ledger.buys.clear()
        ledger.transfers.clear()

    window = (lo, block)
    try:
        swaps = chain.get_swaps(watch.pool.pool, window)
    except UnknownPool:
        # Scan range may start before the pool (or its tokens) exist.
        watch.reserves = (0, 0)
        watch.last_ingested = block
        return watch
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
            transfers = chain.get_transfers(watch.trap_token, window)
            approvals = chain.get_approvals(watch.trap_token, window)
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

    # Every balance the window needs, read together: each buyer's at the
    # block it was first seen in this window, if before `block`, and at
    # `block`.
    reads: list[tuple[Address, Address, int]] = []
    for buyer in watch.buyers:
        seen = first_seen.get(buyer, block)
        if seen < block:
            reads.append((watch.trap_token, buyer, seen))
        reads.append((watch.trap_token, buyer, block))
    for (_, buyer, edge), balance in zip(reads, chain.balances_at(reads)):
        watch.buyers[buyer].snapshots.append((edge, balance))

    try:
        watch.reserves = chain.get_reserves(watch.pool.pool, block)
    except UnknownPool:
        watch.reserves = (0, 0)
    watch.last_ingested = block
    return watch
