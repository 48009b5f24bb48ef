import pytest

from trapscan.mockchain import run_attack_script, wash_and_drain_script
from trapscan.monitor import (
    IngestGap,
    MissingSnapshot,
    PoolWatch,
    buyer_delta,
    ingest_block,
    pick_orientations,
)


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
        watch = PoolWatch.create(drain_trace.pool, drain_trace.trap_token)
        ingest_block(watch, drain_trace.chain, 1)
        with pytest.raises(IngestGap):
            ingest_block(watch, drain_trace.chain, 3)

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
        watch = build_watch(drain_trace)
        flags = watch.has_liquidity
        assert flags[1] is False  # pool not created yet
        assert any(flags.values())  # liquid mid-scan
        assert flags[drain_trace.chain.head()] is False  # rug pulled

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

