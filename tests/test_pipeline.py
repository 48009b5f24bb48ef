import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import run_simple
from fake_node import FakeNode
from trapscan import pipeline
from trapscan.analyzer import (
    MIN_REVERT_BLOCKS,
    check_unauthorized_transfer,
    verdict_to_json_line,
)
from trapscan.chainview import BackendUnavailable, CallOutcome, CallStatus
from trapscan.core import Address, PoolInfo, TrapType
from trapscan.corpus import TRAP_FAMILIES, generate_scenario
from trapscan.mockchain import (
    DelayedSellTax,
    Drain,
    FlipSwitch,
    GateMode,
    HiddenTax,
    Honest,
    LimitedSell,
    ListGate,
    MockChain,
    OwnerDrain,
    RemoveLiquidity,
    SwitchTrigger,
    Wait,
    derive_actors,
    parse_scenario,
    run_attack_script,
    wash_and_drain_script,
)
from trapscan.monitor import BuyerLedger, PoolWatch
from trapscan.pipeline import (
    PoolScanState,
    ScanSettings,
    ScanSummary,
    StandingResult,
    read_checkpoint,
    scan_pool,
    scan_pools,
    scan_pools_resumable,
)
from trapscan.rpcbackend import EndpointConfig, RpcChainView
from trapscan.simulator import (
    Bundle,
    SimulationResult,
    build_buy_probe,
    build_buy_sell_bundle,
    build_sell_bundle,
)

CREATOR = derive_actors(42, 0).creator
VICTIM0 = derive_actors(42, 1).victims[0]

FAMILY_CASES = [
    ("honest", Honest(Fraction(0)), (), frozenset()),
    ("honest_taxed", Honest(Fraction(49, 100)), (), frozenset()),
    ("high_tax", Honest(Fraction(60, 100)), (),
     frozenset({TrapType.INVALID_BUY, TrapType.INVALID_SELL})),
    ("high_tax_total", Honest(Fraction(1)), (), frozenset({TrapType.INVALID_BUY})),
    ("hidden_tax", HiddenTax(Fraction(1, 10), exempt=frozenset({CREATOR})), (),
     frozenset({TrapType.INVALID_BUY, TrapType.INVALID_SELL})),
    ("owner_drain", OwnerDrain(owner=CREATOR, emits_event=True), (Drain(victim=0),),
     frozenset({TrapType.UNAUTHORIZED_TRANSFER})),
    ("owner_drain_silent", OwnerDrain(owner=CREATOR, emits_event=False),
     (Drain(victim=0),), frozenset({TrapType.UNAUTHORIZED_TRANSFER})),
    ("list_gate_allow", ListGate(mode=GateMode.ALLOW), (),
     frozenset({TrapType.CANNOT_SELL})),
    ("list_gate_deny", ListGate(mode=GateMode.DENY, members=frozenset({VICTIM0})), (),
     frozenset({TrapType.CANNOT_SELL})),
    ("limited_sell", LimitedSell(Fraction(1, 100), fee_exempt=frozenset({CREATOR})), (),
     frozenset({TrapType.INVALID_SELL})),
    ("delayed_manual", DelayedSellTax(Fraction(9, 10)), (FlipSwitch(), Wait(2)),
     frozenset({TrapType.INVALID_SELL})),
    ("delayed_at_block", DelayedSellTax(Fraction(1), trigger=SwitchTrigger.at_block(12)),
     (), frozenset({TrapType.INVALID_SELL})),
]


@pytest.mark.parametrize("name,behavior,extra,expected",
                         FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_family_classification(name, behavior, extra, expected):
    trace = run_simple(behavior, extra=extra)
    assert trace.ground_truth == expected
    verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1, trace.final_block)
    assert verdict.traps == expected


def test_classification_through_rpc_backend():
    trace = run_simple(HiddenTax(Fraction(1, 10), exempt=frozenset({CREATOR})))
    rpc = RpcChainView(EndpointConfig(url="fake://", retries=1),
                       transport=FakeNode(chain=trace.chain))
    verdict = scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block)
    assert verdict.traps == trace.ground_truth


@pytest.mark.parametrize("field, value", [
    ("interval", 0), ("interval", -2), ("workers", 0), ("workers", -1),
])
def test_settings_reject_nonpositive_counts(field, value):
    with pytest.raises(ValueError, match=field):
        ScanSettings(**{field: value})


class TestDelayedBoundary:
    def test_no_finding_before_activation(self):
        trace = run_simple(DelayedSellTax(Fraction(9, 10)), extra=(FlipSwitch(), Wait(2)))
        activation = trace.activation_block
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block)
        sell_findings = [f for f in verdict.findings if f.trap is TrapType.INVALID_SELL]
        assert sell_findings
        assert all(f.block >= activation for f in sell_findings)

    def test_scan_ending_before_activation_is_clean(self):
        trace = run_simple(DelayedSellTax(Fraction(9, 10)), extra=(FlipSwitch(), Wait(2)))
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.activation_block - 1)
        assert verdict.traps == set()


class TestVictimBoundary:
    def test_drain_without_victims_is_clean(self):
        trace = run_simple(OwnerDrain(owner=CREATOR, emits_event=True), victims=0)
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block)
        assert TrapType.UNAUTHORIZED_TRANSFER not in verdict.traps

    def test_drain_flagged_within_one_round(self):
        trace = run_simple(OwnerDrain(owner=CREATOR, emits_event=True),
                           extra=(Drain(victim=0),))
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block)
        finding = next(
            f for f in verdict.findings if f.trap is TrapType.UNAUTHORIZED_TRANSFER
        )
        drain_block = next(
            ev["block"] for ev in trace.events if ev["event"] == "drain"
        )
        assert finding.block <= drain_block + 1


class TestRoundWithoutLiquidity:
    @pytest.mark.parametrize("emits_event,kind", [
        (True, "unauthorized_transfer_logged"),
        (False, "unauthorized_transfer_mismatch"),
    ], ids=["logged", "silent"])
    def test_drain_before_a_rug_pull_is_reconciled(self, emits_event, kind):
        trace = run_simple(OwnerDrain(owner=CREATOR, emits_event=emits_event),
                           extra=(Drain(victim=0), RemoveLiquidity()))
        drain_block = next(ev["block"] for ev in trace.events if ev["event"] == "drain")
        # One round at block 1, then one whose window holds the drain and
        # whose block comes after the liquidity was removed.
        state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1, trace.final_block,
                            ScanSettings(interval=trace.final_block), state)
        assert 1 < drain_block < trace.final_block
        assert {"block": trace.final_block, "reason": "no liquidity"} in state.skipped_rounds
        assert verdict.traps == {TrapType.UNAUTHORIZED_TRANSFER}
        [finding] = verdict.findings
        assert finding.evidence["kind"] == kind
        assert finding.block == (drain_block if emits_event else trace.final_block)


class TestUnreadBundleBalance:
    @pytest.mark.parametrize("behavior,expected", [
        (Honest(Fraction(0)), frozenset()),
        (ListGate(mode=GateMode.ALLOW), frozenset({TrapType.CANNOT_SELL})),
    ], ids=["honest", "list_gate_allow"])
    def test_reverted_last_read_is_skipped_not_scored(self, behavior, expected, monkeypatch):
        """A node error on every bundle's last balance read finds no
        delivery trap: each such result is a `balance unread` skip, a sell
        still counts toward CannotSell, and no round trip is built."""
        trace = run_simple(behavior)
        real_simulate = trace.chain.simulate_bundles
        bundle_sizes = set()

        def last_read_reverts(block, items):
            bundle_sizes.update(len(calls) for calls, _ in items)
            answers = []
            for outcomes in real_simulate(block, items):
                outcomes = list(outcomes)
                outcomes[-1] = CallOutcome(status=CallStatus.REVERT, revert_reason="node error")
                answers.append(outcomes)
            return answers

        monkeypatch.setattr(trace.chain, "simulate_bundles", last_read_reverts)
        state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1, trace.final_block,
                            ScanSettings(), state)
        assert verdict.traps == expected
        assert bundle_sizes == {3}
        unread = {s["subject"] for s in state.skipped_rounds if s["reason"] == "balance unread"}
        assert unread == {b.hex for b in state.watch.buyers} | {state.probe.hex}


class TestIntervals:
    @pytest.mark.parametrize("interval", [1, 2, 3])
    def test_detection_stable_across_intervals(self, interval):
        trace = run_simple(LimitedSell(Fraction(1, 100)), extra=(Wait(3),))
        settings = ScanSettings(interval=interval)
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block, settings)
        assert verdict.traps == trace.ground_truth


class TestFinalPartialRound:
    def test_mismatch_window_starts_at_previous_round(self):
        trace = run_simple(OwnerDrain(owner=CREATOR, emits_event=False),
                           extra=(Wait(12), Drain(victim=0)))
        drain_block = next(ev["block"] for ev in trace.events if ev["event"] == "drain")
        # Rounds at 10 and 20, then a partial one at the last block.
        assert 20 < drain_block <= trace.final_block < 30
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block, ScanSettings(interval=10))
        finding = next(
            f for f in verdict.findings if f.evidence["kind"] == "unauthorized_transfer_mismatch"
        )
        assert finding.block == trace.final_block
        assert finding.evidence["from_block"] == 20


class TestOneReservesReadPerRound:
    @pytest.mark.parametrize("interval", [1, 7])
    @pytest.mark.parametrize("family", ["honest", *TRAP_FAMILIES])
    def test_mock_reads_reserves_once_per_round(self, monkeypatch, family, interval):
        """Ingestion reads the reserves at each round's block, and nothing
        else in the round reads them again. Every reserves read is a
        window's, at its last block, so each window of the pool counts one."""
        scenario = parse_scenario(generate_scenario(family, seed=3, index=1))
        trace = run_attack_script(scenario.script, scenario.seed)
        reads, rounds = [], []
        real_get_window = MockChain.get_window
        real_round = pipeline.run_detection_round

        def counting_get_window(chain, pools, tokens, block_range):
            reads.extend(block_range[1] for pool in pools if pool == trace.pool.pool)
            return real_get_window(chain, pools, tokens, block_range)

        def counting_round(chain, state, block, settings):
            rounds.append(block)
            return real_round(chain, state, block, settings)

        monkeypatch.setattr(MockChain, "get_window", counting_get_window)
        monkeypatch.setattr(pipeline, "run_detection_round", counting_round)
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block, ScanSettings(interval=interval))
        assert verdict.traps == scenario.expected_traps
        assert len(rounds) > 1
        assert reads == rounds


class TestMonotonicity:
    def test_extending_range_never_removes_traps(self):
        trace = run_simple(HiddenTax(Fraction(1, 10), exempt=frozenset({CREATOR})))
        traps_seen = set()
        for upto in range(6, trace.final_block + 1):
            verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1, upto)
            assert traps_seen <= verdict.traps
            traps_seen = verdict.traps


def _held_values(obj):
    """Every value reachable through the containers in `obj`."""
    yield obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _held_values(key)
            yield from _held_values(value)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            yield from _held_values(value)


STANDING_POOL = PoolInfo(pool=Address.derive("standing:pool"),
                         token_x=Address.derive("standing:base"),
                         token_y=Address.derive("standing:trap"))
STANDING_BUYERS = [Address.derive(f"standing:buyer:{i}") for i in range(3)]
_OK = CallStatus.SUCCESS


def _sim_result(bundle, pre, post, reverted=False):
    """A result of `bundle` whose reads around its swap gave `pre` and
    `post` (None where one reverted), and whose swap did or did not
    revert; the estimate is 50."""
    def read(value):
        return CallOutcome(CallStatus.REVERT, "read") if value is None else CallOutcome(
            _OK, None, value)

    swap = CallOutcome(CallStatus.REVERT, "swap") if reverted else CallOutcome(_OK, None, 50)
    lead = tuple(CallOutcome(_OK, None, 1) for _ in bundle.calls[:-3])
    return SimulationResult(bundle, (*lead, read(pre), swap, read(post)), pre, post, 50)


class TestStandingBundles:
    """A round reuses a subject's calls while its amounts hold, and every
    bundle it plans is the one a fresh build would give."""

    # One round: each buyer's balance read at the block (None where it
    # reverted), the pool's reserves (the first is the base token's, which
    # sizes the probe), what the probe's buy delivered (None where its
    # read reverted) and whether that buy reverted.
    ROUND = st.tuples(
        st.lists(st.sampled_from([None, 0, 5, 6]), min_size=3, max_size=3),
        st.sampled_from([(10**6, 10**6), (10**6, 3 * 10**6), (2 * 10**6, 10**6)]),
        st.sampled_from([None, 0, 40, 41]),
        st.booleans(),
    )

    @given(rounds=st.lists(ROUND, min_size=1, max_size=10))
    @hypothesis_settings(max_examples=200, deadline=None)
    def test_planned_bundles_equal_fresh_ones(self, rounds):
        pool, base, trap = STANDING_POOL, STANDING_POOL.token_x, STANDING_POOL.token_y
        watch = PoolWatch.create(pool, trap)
        watch.buyers = {b: BuyerLedger(buyer=b, pool=pool.pool, trap_token=trap)
                        for b in STANDING_BUYERS}
        state = PoolScanState(watch=watch)
        for block, (held, reserves, received, reverted) in enumerate(rounds, start=1):
            watch.reserves = reserves
            for ledger, amount in zip(watch.buyers.values(), held):
                ledger.snapshots = [(block, amount)]
            sells_before, probe_before = dict(state.sells), state.buy_probe
            trip_before = state.roundtrip

            planned = pipeline.plan_round(state, block)
            sellers = [b for b, amount in zip(STANDING_BUYERS, held) if amount]
            buy_amount = reserves[0] // 1000
            fresh = [build_sell_bundle(reserves, b, pool, trap, amount, block)
                     for b, amount in zip(STANDING_BUYERS, held) if amount]
            fresh.append(build_buy_probe(reserves, state.probe, pool, trap, buy_amount, block))
            assert [bundle for bundle, _ in planned] == fresh
            assert planned[-1][1] == {(base, state.probe): pipeline.PROBE_FUNDING}
            for (bundle, _), was in zip(planned, [*map(sells_before.get, sellers), probe_before]):
                held_amount = was is not None and (
                    was.calls[-2].amount_in == bundle.calls[-2].amount_in
                )
                assert (was is not None and bundle.calls is was.calls) == held_amount

            probe = planned[-1][0]
            results = [_sim_result(bundle, 0, 50) for bundle, _ in planned[:-1]]
            probe_result = _sim_result(probe, 0, received, reverted)
            trip = pipeline._judge_round(state, block, ScanSettings(), planned,
                                         [*results, probe_result])
            if reverted or not received:
                assert trip is None
            else:
                [(roundtrip, overrides)] = trip
                assert overrides is planned[-1][1]
                assert roundtrip == build_buy_sell_bundle(
                    reserves, state.probe, pool, trap, buy_amount, probe_result, block
                )
                same_buy = trip_before is not None and (
                    trip_before.calls[0].amount_in == buy_amount
                )
                same_sell = same_buy and trip_before.calls[-2].amount_in == received
                reused = trip_before is not None and roundtrip.calls is trip_before.calls
                assert reused == same_sell
                if same_buy:
                    assert roundtrip.calls[0] is trip_before.calls[0]
                # A round trip stands once its result is judged.
                pipeline._judge(state, _sim_result(roundtrip, 0, 50), ScanSettings())
            assert len(state.sells) <= len(watch.buyers)


class TestBoundedState:
    @pytest.mark.parametrize("behavior", [Honest(Fraction(0)), ListGate(mode=GateMode.ALLOW)],
                             ids=["honest", "list_gate_allow"])
    def test_long_scan_keeps_no_results_and_short_streaks(self, behavior, monkeypatch):
        windows = {}  # buyer -> the (from, to] windows it was reconciled over

        def recording(ledger, threshold):
            edges = (ledger.snapshots[0][0], ledger.snapshots[-1][0])
            windows.setdefault(ledger.buyer, []).append(edges)
            return check_unauthorized_transfer(ledger, threshold)

        monkeypatch.setattr(pipeline, "check_unauthorized_transfer", recording)
        trace = run_simple(behavior, victims=2, extra=(Wait(300),))
        assert trace.final_block > 300 and trace.final_block % 7 != 0
        first_seen = {}
        for swap in trace.chain.get_swaps(trace.pool.pool, (0, trace.final_block)):
            if swap.token_out == trace.trap_token:
                first_seen.setdefault(swap.recipient, swap.block)
        for interval in (1, 7):
            windows.clear()
            state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
            verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                                trace.final_block, ScanSettings(interval=interval), state)
            assert verdict.traps == trace.ground_truth
            assert len(state.watch.buyers) == 3
            held = [value for name, value in vars(state).items() if name != "watch"]
            # The standing results: one sell per buyer, the probe, the round
            # trip. No other result or bundle is held.
            standing = [v for v in _held_values(held) if isinstance(v, StandingResult)]
            assert 0 < len(standing) <= len(state.watch.buyers) + 2
            assert not any(isinstance(v, (SimulationResult, Bundle)) for v in _held_values(held))
            assert all(len(s) <= MIN_REVERT_BLOCKS for s in state.revert_streaks.values())
            # No round skipped a buyer: each buyer's windows run without a
            # hole from the block it was first seen to the end of the scan.
            assert set(windows) == set(state.watch.buyers)
            for buyer, spans in windows.items():
                assert spans[0][0] == first_seen[buyer]
                assert all(prev[1] == nxt[0] for prev, nxt in zip(spans, spans[1:]))
                assert spans[-1][1] == trace.final_block

    def test_long_trap_scan_holds_one_window_and_first_findings(self, monkeypatch):
        """A 314-block trap scan holds at most two snapshots per buyer in
        every round, and one finding per (trap, subject) at its end."""
        held = []

        def recording(ledger, threshold):
            held.append(len(ledger.snapshots))
            return check_unauthorized_transfer(ledger, threshold)

        monkeypatch.setattr(pipeline, "check_unauthorized_transfer", recording)
        trace = run_simple(LimitedSell(Fraction(1, 100)), victims=3, extra=(Wait(300),))
        assert trace.final_block > 300
        for interval in (1, 7):
            held.clear()
            state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
            verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                                trace.final_block, ScanSettings(interval=interval), state)
            assert verdict.traps == trace.ground_truth
            assert len(held) >= trace.final_block // interval
            assert max(held) <= 2
            assert all(len(led.snapshots) <= 2 for led in state.watch.buyers.values())
            assert len(state.findings) == len(verdict.findings)
            kept = {(f.trap, f.subject) for f in verdict.findings}
            assert len(kept) == len(verdict.findings)


class TestMultiPool:
    def _targets(self, n_trap=2, n_honest=1):
        traces = []
        for i in range(n_trap):
            traces.append(run_simple(LimitedSell(Fraction(1, 100)), seed=100 + i))
        for i in range(n_honest):
            traces.append(run_simple(Honest(Fraction(0)), seed=200 + i))
        return traces

    def test_scan_pools_serial_and_parallel_agree(self):
        traces = self._targets()
        serial_verdicts = []
        for t in traces:
            serial_verdicts.append(
                scan_pool(t.chain, t.pool, t.trap_token, 1, t.final_block)
            )
        for workers in (1, 4):
            settings = ScanSettings(workers=workers)
            for t, expected in zip(traces, serial_verdicts):
                got, summary = scan_pools(
                    t.chain, [(t.pool, t.trap_token)], 1, t.final_block, settings
                )
                assert got[0].traps == expected.traps

    def test_one_chain_of_staggered_pools_scans_alike_on_two_workers(self):
        chain, targets = staggered_trap_chain()
        lines = {}
        for workers in (1, 2):
            verdicts, summary = scan_pools(
                chain, targets, 1, chain.head(), ScanSettings(workers=workers)
            )
            assert summary.failures == 0
            lines[workers] = [verdict_to_json_line(v) for v in verdicts]
        assert lines[1] == lines[2]
        flagged = [v.traps for v in verdicts]
        assert flagged[0] == set() and len({frozenset(t) for t in flagged}) > 2

    def test_summary_counts(self):
        summary = ScanSummary()
        traces = self._targets(n_trap=2, n_honest=1)
        for t in traces:
            verdict = scan_pool(t.chain, t.pool, t.trap_token, 1, t.final_block)
            summary.count(trap.value for trap in verdict.traps)
        assert summary.total_line() == "2/3"
        assert summary.per_trap == {"InvalidSell": 2}
        table = summary.table()
        assert "2/3" in table and "InvalidSell" in table


class TestResume:
    def test_checkpoint_resume_equals_uninterrupted(self, tmp_path):
        trace_a = run_simple(LimitedSell(Fraction(1, 100)), seed=300)

        path = tmp_path / "checkpoint.json"
        targets = [(trace_a.pool, trace_a.trap_token)]
        full_lines, _ = scan_pools_resumable(
            trace_a.chain, targets, 1, trace_a.final_block, checkpoint_path=None
        )
        first, _ = scan_pools_resumable(
            trace_a.chain, targets, 1, trace_a.final_block, checkpoint_path=path
        )
        resumed, summary = scan_pools_resumable(
            trace_a.chain, targets, 1, trace_a.final_block, checkpoint_path=path
        )
        assert first == full_lines == resumed
        assert summary.scanned == 1

    def test_checkpoint_of_another_range_rejected(self, tmp_path):
        trace = run_simple(LimitedSell(Fraction(1, 100)), seed=300)
        path = tmp_path / "checkpoint.json"
        targets = [(trace.pool, trace.trap_token)]
        scan_pools_resumable(trace.chain, targets, 1, trace.final_block, checkpoint_path=path)
        kept = path.read_text()
        with pytest.raises(ValueError, match=rf"\[1, {trace.final_block}\].*\[2, "):
            scan_pools_resumable(trace.chain, targets, 2, trace.final_block,
                                 checkpoint_path=path)
        assert path.read_text() == kept


class TestBlockRange:
    def test_scan_pool_rejects_an_inverted_range(self):
        script, seed = wash_and_drain_script()
        trace = run_attack_script(script, seed)
        with pytest.raises(ValueError, match="invalid block range"):
            scan_pool(trace.chain, trace.pool, trace.trap_token, 16, 1)

    def test_resumable_fails_and_checkpoints_no_pool_over_a_bad_range(self, tmp_path):
        chain, targets = three_pool_chain()
        path = tmp_path / "scan.ckpt"
        lines, summary = scan_pools_resumable(chain, targets, 3, 1, checkpoint_path=path)
        assert lines == [] and summary.failures == 3 and summary.scanned == 0
        assert read_checkpoint(path) == {}


def three_pool_chain():
    """One mock chain with three honest pools, each bought once."""
    owner, buyer = Address.derive("owner"), Address.derive("buyer")
    chain = MockChain()
    base = chain.deploy_token(Honest(Fraction(0)), 10**24, owner)
    assert chain.token_transfer(base, owner, buyer, 10**8).ok
    targets = []
    for _ in range(3):
        token = chain.deploy_token(Honest(Fraction(0)), 10**24, owner)
        pool = chain.create_pool(base, token)
        assert chain.add_liquidity(pool, owner, 10**9, 10**9).ok
        targets.append((chain.pool_info(pool), token))
    chain.advance_block()
    for info, _token in targets:
        assert chain.swap(info.pool, buyer, base, 10**6, buyer).ok
    chain.advance_block(3)
    return chain, targets


def staggered_trap_chain():
    """One mock chain with five pools of different behaviors, created three
    blocks apart and each bought by three buyers, then a quiet tail: the
    pools' rounds fall in different stretches of unchanged state."""
    owner = Address.derive("owner")
    buyers = [Address.derive(f"buyer:{i}") for i in range(3)]
    chain = MockChain()
    base = chain.deploy_token(Honest(Fraction(0)), 10**24, owner)
    for buyer in buyers:
        assert chain.token_transfer(base, owner, buyer, 10**8).ok
    behaviors = [
        Honest(Fraction(0)),
        LimitedSell(Fraction(1, 100)),
        DelayedSellTax(Fraction(9, 10), trigger=SwitchTrigger.at_block(20)),
        HiddenTax(Fraction(1, 2)),
        ListGate(mode=GateMode.ALLOW, members=frozenset({owner})),
    ]
    targets = []
    for behavior in behaviors:
        chain.advance_block(3)
        token = chain.deploy_token(behavior, 10**24, owner)
        pool = chain.create_pool(base, token)
        assert chain.add_liquidity(pool, owner, 10**9, 10**9).ok
        targets.append((chain.pool_info(pool), token))
        for buyer in buyers:
            chain.advance_block()
            assert chain.swap(pool, buyer, base, 10**6, buyer).ok
    chain.advance_block(12)
    return chain, targets


def cohort_chain(pools=12):
    """One mock chain with `pools` pools of mixed behaviors, created two
    blocks apart and each bought by three shared buyers on the blocks after,
    with drains and a delayed tax, then a quiet tail: cohorts of these pools
    have windows where some pools do not exist yet, where several swap in
    one block, and where transfers need their senders looked up. No token
    logs two transfers in one block, so a node that answers one log per
    query can still serve every window."""
    owner = Address.derive("cohort:owner")
    buyers = [Address.derive(f"cohort:buyer:{i}") for i in range(3)]
    chain = MockChain()
    base = chain.deploy_token(Honest(Fraction(0)), 10**24, owner)
    for buyer in buyers:
        assert chain.token_transfer(base, owner, buyer, 10**9).ok
    behaviors = [
        Honest(Fraction(0)),
        LimitedSell(Fraction(1, 100), fee_exempt=frozenset({owner})),
        OwnerDrain(owner=owner, emits_event=True),
        Honest(Fraction(30, 100)),
        DelayedSellTax(Fraction(9, 10), trigger=SwitchTrigger.at_block(20)),
        HiddenTax(Fraction(1, 2), exempt=frozenset({owner})),
        ListGate(mode=GateMode.ALLOW, members=frozenset({owner})),
        OwnerDrain(owner=owner, emits_event=False),
    ]
    targets, drains = [], {}
    for step in range(2 * pools + 8):
        chain.advance_block()
        if step % 2 == 0 and len(targets) < pools:
            behavior = behaviors[len(targets) % len(behaviors)]
            token = chain.deploy_token(behavior, 10**24, owner)
            chain.advance_block()  # the mint and the deposit log in blocks of their own
            pool = chain.create_pool(base, token)
            assert chain.add_liquidity(pool, owner, 10**9, 10**9).ok
            targets.append((chain.pool_info(pool), token))
            if isinstance(behavior, OwnerDrain):
                drains[chain.pending_block + 5] = token
            continue
        drained = drains.get(chain.pending_block)
        for k, (info, token) in enumerate(targets):
            if (k + step) % 3 and token != drained:
                buyer = buyers[(k + step) % len(buyers)]
                assert chain.swap(info.pool, buyer, base, 10**6 + k, buyer).ok
        if drained is not None:
            assert chain.owner_drain(drained, buyers[1], owner).ok
    chain.advance_block(10)
    return chain, targets


class FailingView:
    """Delegates to a chain, but the swaps of one pool in every window it
    serves raise."""

    def __init__(self, chain, bad_pool):
        self._chain = chain
        self._bad_pool = bad_pool

    def get_window(self, pools, tokens, block_range):
        window = self._chain.get_window(pools, tokens, block_range)
        if self._bad_pool in pools:
            window.answers["swaps", self._bad_pool] = RuntimeError("node fell over")
        return window

    def __getattr__(self, name):
        return getattr(self._chain, name)


class TestFailureParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_pools_counts_a_failing_pool(self, workers):
        chain, targets = three_pool_chain()
        view = FailingView(chain, targets[1][0].pool)
        verdicts, summary = scan_pools(
            view, targets, 1, chain.head(), ScanSettings(workers=workers)
        )
        assert summary.failures == 1
        assert summary.scanned == 2
        assert [v.pool.pool for v in verdicts] == [targets[0][0].pool, targets[2][0].pool]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumable_counts_a_failing_pool(self, workers, tmp_path):
        chain, targets = three_pool_chain()
        view = FailingView(chain, targets[1][0].pool)
        path = tmp_path / "scan.ckpt"
        lines, summary = scan_pools_resumable(
            view, targets, 1, chain.head(), ScanSettings(workers=workers), path
        )
        assert summary.failures == 1
        kept = [targets[0], targets[2]]
        assert [json.loads(line)["pool"] for line in lines] == [p.pool.hex for p, _ in kept]
        assert read_checkpoint(path) == {
            f"{p.pool.hex}:{t.hex}": line for (p, t), line in zip(kept, lines)
        }


class TestCrashSafeResume:
    def test_torn_last_record_rescans_only_that_pool(self, tmp_path, monkeypatch):
        chain, targets = three_pool_chain()
        one_pass, _ = scan_pools_resumable(chain, targets, 1, chain.head())
        path = tmp_path / "scan.ckpt"
        scan_pools_resumable(chain, targets, 1, chain.head(), checkpoint_path=path)
        text = path.read_text()
        last_start = text.rstrip("\n").rfind("\n") + 1
        path.write_text(text[: last_start + (len(text) - last_start) // 2])

        scanned = []
        real_scan_cohort = pipeline.scan_cohort

        def counting_scan_cohort(chain, states, *args, **kwargs):
            scanned.extend(state.watch.pool.pool for state in states)
            return real_scan_cohort(chain, states, *args, **kwargs)

        monkeypatch.setattr(pipeline, "scan_cohort", counting_scan_cohort)
        lines, summary = scan_pools_resumable(
            chain, targets, 1, chain.head(), checkpoint_path=path
        )
        assert scanned == [targets[2][0].pool]
        assert lines == one_pass
        assert summary.scanned == 3 and summary.failures == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {"schema": "trapscan-scan-checkpoint/2"}
        assert [r["line"] for r in records[1:]] == one_pass

    def test_torn_cohort_append_rescans_its_unrecorded_pools(self, tmp_path, monkeypatch):
        """A cohort's pools are appended in one write and one fsync. Torn in
        the middle of its second record, the append keeps the first pool;
        a resume rescans the other two, as one cohort, and gives the
        one-pass lines."""
        chain, targets = three_pool_chain()
        one_pass, _ = scan_pools_resumable(chain, targets, 1, chain.head())
        path = tmp_path / "scan.ckpt"
        writes = []
        real_write = pipeline.write_checkpoint

        def counting_write(path, records):
            writes.append(len(records))
            return real_write(path, records)

        monkeypatch.setattr(pipeline, "write_checkpoint", counting_write)
        scan_pools_resumable(chain, targets, 1, chain.head(), checkpoint_path=path)
        assert writes == [3]
        header, first, second, _third = path.read_text().splitlines(keepends=True)
        path.write_text(header + first + second[: len(second) // 2])

        cohorts = []
        real_scan_cohort = pipeline.scan_cohort

        def recording_scan_cohort(chain, states, *args, **kwargs):
            cohorts.append([state.watch.pool.pool for state in states])
            return real_scan_cohort(chain, states, *args, **kwargs)

        monkeypatch.setattr(pipeline, "scan_cohort", recording_scan_cohort)
        lines, summary = scan_pools_resumable(
            chain, targets, 1, chain.head(), checkpoint_path=path
        )
        assert cohorts == [[targets[1][0].pool, targets[2][0].pool]]
        assert writes == [3, 2]
        assert lines == one_pass
        assert summary.scanned == 3 and summary.failures == 0
        assert list(read_checkpoint(path).values()) == one_pass

    def test_torn_header_starts_afresh(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.write_text('{"schema": "trapscan-sc')
        assert read_checkpoint(path) == {}
        assert path.read_text() == ""

    def test_version_one_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.write_text(json.dumps({"schema": "trapscan-scan-checkpoint/1", "done": {}}))
        with pytest.raises(ValueError, match="trapscan-scan-checkpoint/1"):
            read_checkpoint(path)


class _SealedChainNode(FakeNode):
    """A fake node that builds its log list once: the chain it serves
    seals no block while the tests scan it."""

    def _all_logs(self):
        if not hasattr(self, "_logs"):
            self._logs = super()._all_logs()
        return self._logs


def _rpc_view(chain, transport=None, **node_options):
    node = _SealedChainNode(chain=chain, **node_options)
    return RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport or node)


class TestCohortScan:
    @pytest.fixture(scope="class")
    def world(self):
        return cohort_chain()

    @pytest.mark.parametrize("interval", [1, 3, 10])
    def test_cohorts_give_the_one_pool_lines(self, world, interval, monkeypatch):
        """Whatever the cohort size, every verdict line is byte-identical to
        a scan of one pool at a time, on each backend; with `log_limit=1` the
        window's log queries are split by range, then by address list."""
        chain, targets = world

        def scan(view, cohort):
            monkeypatch.setattr(pipeline, "COHORT_SIZE", cohort)
            settings = ScanSettings(interval=interval)
            lines, summary = scan_pools_resumable(view, targets, 1, chain.head(), settings)
            assert summary.failures == 0
            return lines

        one_pool = scan(chain, 1)
        assert len(one_pool) == len(targets)
        for cohort in (2, 5, 12):
            assert scan(chain, cohort) == one_pool, ("mock", cohort)
        rpc_one_pool = scan(_rpc_view(chain), 1)
        assert [json.loads(line)["traps"] for line in rpc_one_pool] == [
            json.loads(line)["traps"] for line in one_pool
        ]
        for log_limit, cohorts in ((None, (2, 5, 12)), (1, (1, 2, 5, 12))):
            for cohort in cohorts:
                node = _SealedChainNode(chain=chain, log_limit=log_limit)
                view = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=node)
                assert scan(view, cohort) == rpc_one_pool, (log_limit, cohort)
        # The last cohort's one-block queries were split down to one address.
        one_block = [params[0] for method, params in node.requests if method == "eth_getLogs"
                     and params[0]["fromBlock"] == params[0]["toBlock"]]
        assert any(isinstance(flt["address"], str) for flt in one_block)

    def test_a_failed_state_is_never_advanced(self, world, monkeypatch):
        """A state whose `error` is set on entry is returned as failed and
        never advanced: no window asks for its pool, and its watch and
        standing bundles stay as they were, while the others get their
        one-pool verdicts. A cohort of failed states asks for nothing."""
        chain, targets = world
        asked = []
        real_get_window = MockChain.get_window

        def recording_get_window(view, pools, tokens, block_range):
            asked.extend(pools)
            return real_get_window(view, pools, tokens, block_range)

        monkeypatch.setattr(MockChain, "get_window", recording_get_window)
        settings = ScanSettings(interval=3)
        states = [PoolScanState(watch=PoolWatch.create(*target)) for target in targets[:3]]
        error = states[1].error = RuntimeError("failed before")
        results = pipeline.scan_cohort(chain, states, 1, chain.head(), settings)
        assert results[1] is error and states[1].error is error
        failed = states[1]
        assert failed.watch.last_ingested is None and not failed.watch.buyers
        assert (failed.findings, failed.skipped_rounds) == ({}, [])
        assert (failed.sells, failed.buy_probe, failed.roundtrip) == ({}, None, None)
        assert asked and targets[1][0].pool not in asked
        for target, result in zip(targets[::2], results[::2]):
            expected = scan_pool(chain, *target, 1, chain.head(), settings)
            assert verdict_to_json_line(result) == verdict_to_json_line(expected)

        asked.clear()
        assert pipeline.scan_cohort(chain, [failed], 1, chain.head(), settings) == [error]
        assert asked == []

    def test_both_orientations_of_a_pool_share_a_cohort(self, world, monkeypatch):
        """A pool watched from both sides is queried and read once per
        window for both watches, which still get the one-pool lines."""
        chain, targets = world
        both = [(info, token) for info, trap in targets[:4] for token in (trap, info.token_x)]

        def scan(cohort):
            monkeypatch.setattr(pipeline, "COHORT_SIZE", cohort)
            node = _SealedChainNode(chain=chain)
            view = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=node)
            lines, summary = scan_pools_resumable(
                view, both, 1, chain.head(), ScanSettings(interval=3)
            )
            assert summary.failures == 0
            return lines, node.requests.count_method("eth_call")

        (one_pool, one_pool_calls), (paired, paired_calls) = scan(1), scan(8)
        assert paired == one_pool
        assert paired_calls < one_pool_calls

    @pytest.mark.parametrize("backend", ["mock", "rpc"])
    @pytest.mark.parametrize("cohort", [1, 12])
    def test_scans_call_no_single_form(self, world, backend, cohort, monkeypatch):
        """A scan reads balances and simulates bundles only through the
        batched forms: with the backend class's `balance_of` and
        `simulate_bundle` raising, it gives the same lines, in cohorts of
        one pool or of all twelve."""
        chain, targets = world
        monkeypatch.setattr(pipeline, "COHORT_SIZE", cohort)
        settings = ScanSettings(interval=3)

        def scan():
            view = chain if backend == "mock" else _rpc_view(chain)
            lines, summary = scan_pools_resumable(view, targets, 1, chain.head(), settings)
            assert summary.failures == 0
            return lines

        expected = scan()

        def single_form(*args, **kwargs):
            raise AssertionError("a scan called a single form")

        cls = MockChain if backend == "mock" else RpcChainView
        monkeypatch.setattr(cls, "balance_of", single_form)
        monkeypatch.setattr(cls, "simulate_bundle", single_form)
        assert scan() == expected

    @pytest.mark.parametrize("cap, workers, sizes", [
        (12, 1, [12]), (12, 2, [6, 6]), (12, 5, [3, 3, 3, 3]), (5, 1, [2, 5, 5]),
    ])
    def test_cohorts_spread_over_the_workers(self, world, cap, workers, sizes, monkeypatch):
        """Twelve pools run in cohorts of up to `COHORT_SIZE` pools, each
        of at most a worker's share of the pools."""
        chain, targets = world
        seen = []
        real_scan_cohort = pipeline.scan_cohort

        def recording_scan_cohort(chain, states, *args, **kwargs):
            seen.append(len(states))
            return real_scan_cohort(chain, states, *args, **kwargs)

        monkeypatch.setattr(pipeline, "COHORT_SIZE", cap)
        monkeypatch.setattr(pipeline, "scan_cohort", recording_scan_cohort)
        _, summary = scan_pools(chain, targets, 1, chain.head(), ScanSettings(workers=workers))
        assert summary.scanned == len(targets)
        assert sorted(seen) == sizes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_shared_post_fails_only_its_cohort(
        self, world, workers, tmp_path, monkeypatch
    ):
        """The node drops one log-query POST of the second of three cohorts:
        that cohort's four pools fail, the scan goes on, and every other
        pool's line and checkpoint record is the one-pass one."""
        chain, targets = world
        monkeypatch.setattr(pipeline, "COHORT_SIZE", 4)
        settings = ScanSettings(interval=3, workers=workers)
        one_pass, _ = scan_pools_resumable(_rpc_view(chain), targets, 1, chain.head(), settings)
        node = _SealedChainNode(chain=chain)
        second = targets[4][0].pool.hex
        dropped = []

        def transport(payload):
            for item in payload:
                flt = item["params"][0] if item["method"] == "eth_getLogs" else {}
                if not dropped and second in flt.get("address", ()) and flt["fromBlock"] != "0x1":
                    dropped.append(flt["fromBlock"])
                    raise OSError("connection reset")
            return node(payload)

        path = tmp_path / "scan.ckpt"
        lines, summary = scan_pools_resumable(
            _rpc_view(chain, transport), targets, 1, chain.head(), settings, path
        )
        assert dropped and summary.failures == 4
        kept = one_pass[:4] + one_pass[8:]
        assert lines == kept
        assert list(read_checkpoint(path).values()) == kept

        # Each pool of the failed cohort carries the failure itself.
        dropped.clear()
        states = [PoolScanState(watch=PoolWatch.create(*target)) for target in targets[4:8]]
        results = pipeline.scan_cohort(
            _rpc_view(chain, transport), states, 1, chain.head(), settings
        )
        assert dropped and all(isinstance(r, BackendUnavailable) for r in results)
