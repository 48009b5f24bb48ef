from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapscan.chainview import BalanceSnapshot, SwapRecord, TransferRecord
from trapscan.core import Address, BlockIndex
from trapscan.mockchain import Honest, MockChain, run_attack_script, wash_and_drain_script
from trapscan.monitor import (
    BuyerLedger,
    IngestGap,
    MissingSnapshot,
    PoolWatch,
    buyer_delta,
    ingest_block,
    pick_orientations,
    swaps_in_window,
)

BUYER = Address.derive("buyer")
OTHER = Address.derive("other")
POOL = Address.derive("pool")
TOKEN = Address.derive("token")
BASE = Address.derive("base")


def synthetic_ledger(snapshot_blocks, record_blocks=()):
    """A ledger with a snapshot at each of `snapshot_blocks` and one buy
    and one transfer at each of `record_blocks` (repeats allowed)."""
    ledger = BuyerLedger(buyer=BUYER, pool=POOL, trap_token=TOKEN)
    for block in snapshot_blocks:
        ledger.snapshots.append(BalanceSnapshot(token=TOKEN, holder=BUYER,
                                                block=BlockIndex(block), balance=block))
    for i, block in enumerate(record_blocks):
        at = BlockIndex(block)
        ledger.buys.append(SwapRecord(
            tx_hash=i.to_bytes(32, "big"), block=at, sender=BUYER, token_in=BASE,
            amount_in=1, token_out=TOKEN, amount_out=i, recipient=BUYER,
        ))
        ledger.transfers.append(TransferRecord(
            token=TOKEN, block=at, sender=OTHER, recipient=BUYER, value=i,
            logged=True, tx_sender=OTHER,
        ))
    return ledger


def build_watch(trace, upto=None):
    watch = PoolWatch.create(trace.pool, trace.trap_token)
    for block in range(1, (upto or trace.chain.head()) + 1):
        ingest_block(watch, trace.chain, block)
    return watch


@pytest.fixture
def drain_trace():
    script, seed = wash_and_drain_script()
    return run_attack_script(script, seed)


class TestOrientations:
    def test_base_side_known(self, drain_trace):
        pairs = pick_orientations(drain_trace.pool, {drain_trace.base_token})
        assert pairs == [(drain_trace.trap_token, drain_trace.base_token)]

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
        watch = build_watch(drain_trace)
        head = drain_trace.chain.head()
        for ledger in watch.buyers.values():
            first = ledger.snapshots[0].block.number
            got = [s.block.number for s in ledger.snapshots]
            assert got == list(range(first, head + 1))

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
            s.block.number
            for s in drain_trace.chain.get_swaps(
                drain_trace.pool.pool, (0, drain_trace.chain.head())
            )
        )
        quiet = victim_buy_block + 2  # the drain lands at +1; +2 is idle
        watch = build_watch(drain_trace, upto=quiet - 1)
        before = {
            buyer: (len(led.buys), len(led.transfers), len(led.snapshots))
            for buyer, led in watch.buyers.items()
        }
        ingest_block(watch, drain_trace.chain, quiet)
        for buyer, led in watch.buyers.items():
            buys, transfers, snaps = before[buyer]
            assert len(led.buys) == buys
            assert len(led.transfers) == transfers
            assert len(led.snapshots) == snaps + 1

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
        watch = build_watch(drain_trace)
        victim = drain_trace.actors.victims[0]
        ledger = watch.buyers[victim]
        drains = [t for t in ledger.transfers if t.sender == victim]
        assert len(drains) == 1 and drains[0].tx_sender == drain_trace.actors.creator
        assert ledger.snapshots[-1].balance == 0


class TestBuyerDelta:
    def test_drain_with_event(self, drain_trace):
        watch = build_watch(drain_trace)
        victim = drain_trace.actors.victims[0]
        ledger = watch.buyers[victim]
        drain_block = next(t.block.number for t in ledger.transfers if t.sender == victim)
        delta, moved = buyer_delta(ledger, drain_block - 1, drain_block)
        assert delta < 0 and sum(t.value for t in moved) == -delta

    def test_silent_drain(self):
        script, seed = wash_and_drain_script(emits_event=False)
        trace = run_attack_script(script, seed)
        watch = build_watch(trace)
        victim = trace.actors.victims[0]
        ledger = watch.buyers[victim]
        bought = max(s.balance for s in ledger.snapshots)
        drop = next(
            s.block.number for s in ledger.snapshots if s.balance == 0
            and s.block.number > ledger.buys[0].block.number
        )
        delta, moved = buyer_delta(ledger, drop - 1, drop)
        assert delta == -bought and moved == []

    def test_quiet_window(self, drain_trace):
        watch = build_watch(drain_trace)
        wash = watch.buyers[drain_trace.actors.wash_trader]
        head = drain_trace.chain.head()
        delta, moved = buyer_delta(wash, head - 1, head)
        assert delta == 0 and moved == []

    def test_missing_snapshot(self, drain_trace):
        watch = build_watch(drain_trace)
        ledger = watch.buyers[drain_trace.actors.victims[0]]
        with pytest.raises(MissingSnapshot):
            buyer_delta(ledger, 0, drain_trace.chain.head())


class TestSnapshotAt:
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
        record_blocks = [2, 3, 3, 3, 5, 8, 8, 9]
        ledger = synthetic_ledger(range(1, 11), record_blocks)
        for lo in range(1, 11):
            for hi in range(lo, 11):
                _, moved = buyer_delta(ledger, lo, hi)
                assert moved == [t for t in ledger.transfers if lo < t.block.number <= hi]
                assert swaps_in_window(ledger, lo, hi) == [
                    s for s in ledger.buys if lo < s.block.number <= hi
                ]


def gift_trace():
    """A pool whose second buyer is sent trap tokens, and approves a
    spender, three blocks before its first buy and again in that block."""
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
    chain.advance_block()
    chain.token_transfer(trap, gifted, wash, 200)
    chain.approve(trap, gifted, OTHER, 100)
    chain.advance_block(3)
    return SimpleNamespace(chain=chain, pool=chain.pool_info(pool), trap_token=trap)


@cache
def per_block_watches(name):
    """A trace, its watch ingested one block at a time, and the watch's
    reserves after each block."""
    if name == "gift":
        trace = gift_trace()
    else:
        script, seed = wash_and_drain_script(emits_event=name == "logged_drain")
        trace = run_attack_script(script, seed)
    watch = PoolWatch.create(trace.pool, trace.trap_token)
    reserves = {}
    for block in range(1, trace.chain.head() + 1):
        ingest_block(watch, trace.chain, block)
        reserves[block] = watch.reserves
    return trace, watch, reserves


@st.composite
def window_splits(draw):
    """A trace, its per-block watch and reserves, and the last block of
    each window in a random split of [1, head] into windows."""
    name = draw(st.sampled_from(["logged_drain", "silent_drain", "gift"]))
    trace, per_block, reserves = per_block_watches(name)
    head = trace.chain.head()
    cuts = draw(st.sets(st.integers(min_value=1, max_value=head - 1)))
    return trace, per_block, reserves, [*sorted(cuts), head]


class TestWindowedIngest:
    @given(split=window_splits())
    @settings(max_examples=100, deadline=None)
    def test_windows_equal_per_block_ingestion(self, split):
        trace, per_block, reserves, ends = split
        watch = PoolWatch.create(trace.pool, trace.trap_token)
        start = 1
        for end in ends:
            ingest_block(watch, trace.chain, end, start)
            assert watch.reserves == reserves[end]
            start = end + 1

        assert list(watch.buyers) == list(per_block.buyers)
        for buyer, ledger in watch.buyers.items():
            expected = per_block.buyers[buyer]
            assert ledger.buys == expected.buys
            assert ledger.transfers == expected.transfers
            assert ledger.approvals == expected.approvals
            first_seen = expected.snapshots[0].block.number
            assert ledger.snapshots == [
                snap for snap in expected.snapshots
                if snap.block.number in ends or snap.block.number == first_seen
            ]
        assert watch.last_ingested == per_block.last_ingested
