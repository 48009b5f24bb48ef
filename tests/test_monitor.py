from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapscan.chainview import (
    ApproveRecord,
    SwapRecord,
    TransferRecord,
    UnknownPool,
    UnknownToken,
)
from trapscan.core import Address, PoolInfo
from trapscan.mockchain import Honest, MockChain, run_attack_script, wash_and_drain_script
from trapscan.monitor import IngestGap, PoolWatch, ingest_block, pick_orientations

BUYER = Address.derive("buyer")
OTHER = Address.derive("other")
POOL = Address.derive("pool")
TOKEN = Address.derive("token")
BASE = Address.derive("base")


# ----------------------------------------------------------------------
# whole-history reference: every record and (block, balance) snapshot
# from the block a buyer was first seen, found by bisection; the window
# ledger must equal it filtered to each window


class MissingSnapshot(Exception):
    pass


_block_number = attrgetter("block")
_edge_block = itemgetter(0)


def _in_window(records: list, from_block: int, to_block: int) -> list:
    """The records in (from_block, to_block] of a list kept in block order."""
    lo = bisect_right(records, from_block, key=_block_number)
    hi = bisect_right(records, to_block, lo=lo, key=_block_number)
    return records[lo:hi]


@dataclass
class HistoryLedger:
    buyer: Address
    buys: list[SwapRecord] = field(default_factory=list)
    snapshots: list[tuple[int, int | None]] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    approvals: list[ApproveRecord] = field(default_factory=list)

    def snapshot_at(self, block: int) -> tuple[int, int | None]:
        i = bisect_left(self.snapshots, block, key=_edge_block)
        if i < len(self.snapshots) and self.snapshots[i][0] == block:
            return self.snapshots[i]
        raise MissingSnapshot(f"no snapshot for {self.buyer} at block {block}")


def history(trace) -> dict[Address, HistoryLedger]:
    """Every buyer's whole history, ingested one block at a time, with a
    snapshot at each block from the one it was first seen."""
    chain, pool, trap = trace.chain, trace.pool.pool, trace.trap_token
    ledgers: dict[Address, HistoryLedger] = {}
    for block in range(1, chain.head() + 1):
        try:
            swaps = chain.get_swaps(pool, (block, block))
        except UnknownPool:
            continue
        for swap in swaps:
            if swap.token_out == trap and swap.recipient != pool:
                ledgers.setdefault(swap.recipient, HistoryLedger(swap.recipient)).buys.append(swap)
        if ledgers:
            try:
                transfers = chain.get_transfers(trap, (block, block))
                approvals = chain.get_approvals(trap, (block, block))
            except UnknownToken:
                transfers, approvals = [], []
            for rec in transfers:
                if rec.sender != pool:
                    for buyer in {rec.sender, rec.recipient} & set(ledgers):
                        ledgers[buyer].transfers.append(rec)
            for rec in approvals:
                if rec.approver in ledgers:
                    ledgers[rec.approver].approvals.append(rec)
        for ledger in ledgers.values():
            ledger.snapshots.append((block, chain.balance_of(trap, ledger.buyer, block)))
    return ledgers


def synthetic_ledger(snapshot_blocks, record_blocks=()):
    """A history with a snapshot at each of `snapshot_blocks` and one buy
    and one transfer at each of `record_blocks` (repeats allowed)."""
    ledger = HistoryLedger(buyer=BUYER)
    ledger.snapshots.extend((block, block) for block in snapshot_blocks)
    for i, block in enumerate(record_blocks):
        ledger.buys.append(SwapRecord(
            block=block, sender=BUYER, token_in=BASE,
            amount_in=1, token_out=TOKEN, amount_out=i, recipient=BUYER,
        ))
        ledger.transfers.append(TransferRecord(
            token=TOKEN, block=block, sender=OTHER, recipient=BUYER, value=i, tx_sender=OTHER,
        ))
    return ledger


def ingest_windows(trace, ends):
    """A watch fed the windows ending at each of `ends`, from block 1."""
    watch = PoolWatch.create(trace.pool, trace.trap_token)
    start = 1
    for end in ends:
        ingest_block(watch, trace.chain, end, start)
        start = end + 1
    return watch


def build_watch(trace, upto=None):
    watch = PoolWatch.create(trace.pool, trace.trap_token)
    for block in range(1, (upto or trace.chain.head()) + 1):
        ingest_block(watch, trace.chain, block)
    return watch


def window_delta(ledger) -> int:
    return ledger.snapshots[-1][1] - ledger.snapshots[0][1]


@pytest.fixture
def drain_trace():
    script, seed = wash_and_drain_script()
    return run_attack_script(script, seed)


class TestOrientations:
    def test_base_side_known(self, drain_trace):
        pairs = pick_orientations(drain_trace.pool, {drain_trace.base_token})
        assert pairs == [(drain_trace.trap_token, drain_trace.base_token)]

    @pytest.mark.parametrize("base_side", ["token_x", "token_y"])
    def test_a_known_base_on_either_side_is_watched_one_way(self, base_side):
        pool = PoolInfo(pool=Address.derive("orient:pool"), token_x=Address.derive("orient:x"),
                        token_y=Address.derive("orient:y"))
        base = getattr(pool, base_side)
        trap = pool.token_y if base == pool.token_x else pool.token_x
        assert pick_orientations(pool, {base}) == [(trap, base)]
        assert len(pick_orientations(pool, {pool.token_x, pool.token_y})) == 2

    def test_unknown_pair_scans_both(self, drain_trace):
        pairs = pick_orientations(drain_trace.pool, set())
        assert len(pairs) == 2
        assert {p[0] for p in pairs} == {drain_trace.trap_token, drain_trace.base_token}


class TestIngest:
    def test_buyers_registered_from_swaps(self, drain_trace):
        watch = build_watch(drain_trace)
        expected = {drain_trace.actors.wash_trader, drain_trace.actors.victims[0]}
        assert set(watch.buyers) == expected

    def test_every_buyer_snapshotted_each_block(self, drain_trace):
        """One-block windows: a buyer holds the previous block's snapshot
        and this one's, or this one's alone in the block it is first seen."""
        watch = PoolWatch.create(drain_trace.pool, drain_trace.trap_token)
        seen = set()
        for block in range(1, drain_trace.chain.head() + 1):
            ingest_block(watch, drain_trace.chain, block)
            for buyer, ledger in watch.buyers.items():
                got = [b for b, _ in ledger.snapshots]
                assert got == ([block - 1, block] if buyer in seen else [block])
            seen |= set(watch.buyers)
        assert seen

    def test_gap_rejected(self, drain_trace):
        chain = drain_trace.chain
        watch = PoolWatch.create(drain_trace.pool, drain_trace.trap_token)
        ingest_block(watch, chain, 3)
        for block in (2, 3):  # at or before the last ingested block
            with pytest.raises(IngestGap):
                ingest_block(watch, chain, block)
        with pytest.raises(IngestGap):
            ingest_block(watch, chain, 8, start=6)  # would leave 4 and 5 out
        ingest_block(watch, chain, 7)  # skipping ahead ingests the window [4, 7]
        assert watch.last_ingested == 7
        assert watch.reserves == chain.get_reserves(drain_trace.pool.pool, 7)

    def test_empty_block_adds_only_snapshots(self, drain_trace):
        victim_buy_block = max(
            s.block
            for s in drain_trace.chain.get_swaps(
                drain_trace.pool.pool, (0, drain_trace.chain.head())
            )
        )
        quiet = victim_buy_block + 2  # the drain lands at +1; +2 is idle
        watch = build_watch(drain_trace, upto=quiet - 1)
        assert watch.buyers
        ingest_block(watch, drain_trace.chain, quiet)
        for led in watch.buyers.values():
            assert led.buys == [] and led.transfers == []
            assert [b for b, _ in led.snapshots] == [quiet - 1, quiet]

    def test_incremental_equals_batch(self, drain_trace):
        head = drain_trace.chain.head()
        one = build_watch(drain_trace, upto=head)
        two = PoolWatch.create(drain_trace.pool, drain_trace.trap_token)
        for block in range(1, head + 1):
            ingest_block(two, drain_trace.chain, block)
        assert one == two

    def test_liquidity_flags(self, drain_trace):
        chain, pool = drain_trace.chain, drain_trace.pool.pool
        watch = PoolWatch.create(drain_trace.pool, drain_trace.trap_token)
        assert watch.reserves == (0, 0) and not watch.liquid
        flags = {}
        for block in range(1, chain.head() + 1):
            ingest_block(watch, chain, block)
            flags[block] = watch.liquid
        assert flags[1] is False  # pool not created yet
        assert any(flags.values())  # liquid mid-scan
        assert flags[chain.head()] is False  # rug pulled
        assert watch.reserves == chain.get_reserves(pool, chain.head())

    def test_drain_round_collects_evidence(self, drain_trace):
        victim = drain_trace.actors.victims[0]
        watch = PoolWatch.create(drain_trace.pool, drain_trace.trap_token)
        drains = []
        for block in range(1, drain_trace.chain.head() + 1):
            ingest_block(watch, drain_trace.chain, block)
            if victim in watch.buyers:
                drains += [t for t in watch.buyers[victim].transfers if t.sender == victim]
        assert len(drains) == 1 and drains[0].tx_sender == drain_trace.actors.creator
        assert watch.buyers[victim].snapshots[-1] == (drain_trace.chain.head(), 0)


class TestBuyerDelta:
    """A window's balance change and the logged transfers in it."""

    def test_drain_with_event(self, drain_trace):
        victim = drain_trace.actors.victims[0]
        drain_block = next(
            t.block for t in history(drain_trace)[victim].transfers if t.sender == victim
        )
        ledger = ingest_windows(drain_trace, [drain_block - 1, drain_block]).buyers[victim]
        delta = window_delta(ledger)
        assert delta < 0 and sum(t.value for t in ledger.transfers) == -delta

    def test_silent_drain(self):
        script, seed = wash_and_drain_script(emits_event=False)
        trace = run_attack_script(script, seed)
        victim = trace.actors.victims[0]
        whole = history(trace)[victim]
        bought = max(balance for _, balance in whole.snapshots)
        drop = next(
            block for block, balance in whole.snapshots
            if balance == 0 and block > whole.buys[0].block
        )
        ledger = ingest_windows(trace, [drop - 1, drop]).buyers[victim]
        assert window_delta(ledger) == -bought and ledger.transfers == []

    def test_quiet_window(self, drain_trace):
        head = drain_trace.chain.head()
        wash = ingest_windows(drain_trace, [head - 1, head]).buyers[drain_trace.actors.wash_trader]
        assert window_delta(wash) == 0 and wash.transfers == []

    def test_missing_snapshot(self, drain_trace):
        """A window holds no snapshot from before its buyer was first seen:
        a buyer new in the window starts it at its first-seen block."""
        victim = drain_trace.actors.victims[0]
        first = history(drain_trace)[victim].snapshots[0][0]
        assert first > 1
        ledger = ingest_windows(drain_trace, [drain_trace.chain.head()]).buyers[victim]
        assert ledger.snapshots[0][0] == first
        assert all(s.block > first for s in ledger.buys)


class TestSnapshotAt:
    """The whole-history reference's snapshot lookup, which the windowed
    differential test below reads its expected edges through."""

    def test_exact_hits_across_a_gap(self):
        blocks = [5, 6, 9, 10]
        ledger = synthetic_ledger(blocks)
        for i, block in enumerate(blocks):
            assert ledger.snapshot_at(block) is ledger.snapshots[i]

    @pytest.mark.parametrize("block", [4, 7, 8, 11])
    def test_before_inside_gap_and_after_missing(self, block):
        ledger = synthetic_ledger([5, 6, 9, 10])
        with pytest.raises(MissingSnapshot):
            ledger.snapshot_at(block)

    def test_empty_ledger_missing(self):
        with pytest.raises(MissingSnapshot):
            synthetic_ledger([]).snapshot_at(1)


class TestWindows:
    def test_windows_match_a_linear_filter(self):
        """The reference's bisected window equals a linear filter."""
        record_blocks = [2, 3, 3, 3, 5, 8, 8, 9]
        ledger = synthetic_ledger(range(1, 11), record_blocks)
        for lo in range(1, 11):
            for hi in range(lo, 11):
                assert _in_window(ledger.transfers, lo, hi) == [
                    t for t in ledger.transfers if lo < t.block <= hi
                ]
                assert _in_window(ledger.buys, lo, hi) == [
                    s for s in ledger.buys if lo < s.block <= hi
                ]


def gift_trace():
    """A pool whose second buyer is sent trap tokens and approves a
    spender three blocks before it first buys, is sent more in the block
    where it buys twice, then sends some and approves again."""
    chain = MockChain()
    creator, wash, gifted = (Address.derive(f"gift:{n}") for n in ("creator", "wash", "gifted"))
    base = chain.deploy_token(Honest(Fraction(0)), 10**24, creator)
    trap = chain.deploy_token(Honest(Fraction(0)), 10**24, creator)
    pool = chain.create_pool(base, trap)
    chain.advance_block()
    chain.add_liquidity(pool, creator, 10**9, 10**9)
    chain.advance_block()
    chain.token_transfer(base, creator, wash, 10**7)
    chain.token_transfer(base, creator, gifted, 10**7)
    chain.token_transfer(trap, creator, gifted, 500)
    chain.approve(trap, gifted, OTHER, 300)
    chain.advance_block()
    chain.swap(pool, wash, base, 10**6, wash)
    chain.advance_block(2)
    chain.token_transfer(trap, creator, gifted, 700)
    chain.swap(pool, gifted, base, 10**6, gifted)
    chain.swap(pool, gifted, base, 10**6, gifted)
    chain.advance_block()
    chain.token_transfer(trap, gifted, wash, 200)
    chain.approve(trap, gifted, OTHER, 100)
    chain.advance_block(3)
    return SimpleNamespace(chain=chain, pool=chain.pool_info(pool), trap_token=trap)


@cache
def reference(name):
    """A trace, its buyers' whole histories, and the pool's reserves at
    each block ((0, 0) before the pool exists)."""
    if name == "gift":
        trace = gift_trace()
    else:
        script, seed = wash_and_drain_script(emits_event=name == "logged_drain")
        trace = run_attack_script(script, seed)
    reserves = {}
    for block in range(1, trace.chain.head() + 1):
        try:
            reserves[block] = trace.chain.get_reserves(trace.pool.pool, block)
        except UnknownPool:
            reserves[block] = (0, 0)
    return trace, history(trace), reserves


@st.composite
def window_splits(draw):
    """A trace, its reference, and the last block of each window in a
    random split of [1, head] into windows."""
    name = draw(st.sampled_from(["logged_drain", "silent_drain", "gift"]))
    trace, whole, reserves = reference(name)
    head = trace.chain.head()
    cuts = draw(st.sets(st.integers(min_value=1, max_value=head - 1)))
    return trace, whole, reserves, [*sorted(cuts), head]


class TestWindowedIngest:
    @given(split=window_splits())
    @settings(max_examples=100, deadline=None)
    def test_windows_equal_per_block_ingestion(self, split):
        """After each window, every ledger equals its whole history
        ingested one block at a time, filtered to the window."""
        trace, whole, reserves, ends = split
        watch = PoolWatch.create(trace.pool, trace.trap_token)
        start = 1
        for end in ends:
            ingest_block(watch, trace.chain, end, start)
            assert watch.reserves == reserves[end]
            assert watch.last_ingested == end
            assert list(watch.buyers) == [
                buyer for buyer, led in whole.items() if led.snapshots[0][0] <= end
            ]
            for buyer, ledger in watch.buyers.items():
                full = whole[buyer]
                lo = max(full.snapshots[0][0], start - 1)
                edges = sorted({lo, end})
                assert ledger.snapshots == [full.snapshot_at(b) for b in edges]
                assert ledger.buys == _in_window(full.buys, lo, end)
                assert ledger.transfers == _in_window(full.transfers, lo, end)
                approved = {}
                for rec in full.approvals:
                    if rec.block <= end:
                        approved[rec.spender] = approved.get(rec.spender, 0) + rec.value
                assert ledger.approved == approved
            start = end + 1
