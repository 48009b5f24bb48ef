"""Contract suite every chainview backend must pass.

Runs twice: once against the mock chain directly, once against the RPC
backend driven by the in-process fake node (scripted replay, no network).
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import run_simple
from fake_node import FakeNode
from trapscan.chainview import (
    BalanceOfCall,
    CallStatus,
    EmptyBundle,
    SwapExactInCall,
    UnknownPool,
)
from trapscan.core import Address
from trapscan.corpus import gen_corpus
from trapscan.mockchain import (
    Drain,
    GateMode,
    Honest,
    ListGate,
    OwnerDrain,
    HiddenTax,
    Wait,
    derive_actors,
    load_scenario,
    run_attack_script,
    wash_and_drain_script,
)
from trapscan.pipeline import ScanSettings, scan_pool
from trapscan.rpcbackend import EndpointConfig, RpcChainView


def _mock_backend(trace):
    return trace.chain


def _rpc_backend(trace):
    node = FakeNode(chain=trace.chain)
    return RpcChainView(EndpointConfig(url="fake://node", retries=1), transport=node)


BACKENDS = {"mock": _mock_backend, "rpc-replay": _rpc_backend}


@pytest.fixture(params=sorted(BACKENDS))
def backend_factory(request):
    return BACKENDS[request.param]


@pytest.fixture
def drain_world(backend_factory):
    script, seed = wash_and_drain_script()
    trace = run_attack_script(script, seed)
    return trace, backend_factory(trace)


class TestQueries:
    def test_single_pool_creation(self, drain_world):
        trace, chain = drain_world
        pools = chain.get_pool_created((0, chain.head()))
        assert len(pools) == 1
        info = pools[0]
        assert info.pool == trace.pool.pool
        assert {info.token_x, info.token_y} == {trace.base_token, trace.trap_token}

    def test_empty_creation_range(self, drain_world):
        _, chain = drain_world
        assert chain.get_pool_created((0, 1)) == []

    def test_creation_range_filters_by_block(self, backend_factory):
        from fake_node import FakeNode  # local import keeps param symmetry
        from trapscan.core import Address
        from trapscan.mockchain import Honest, MockChain

        owner = Address.derive("owner")
        mock = MockChain()
        base = mock.deploy_token(Honest(Fraction(0)), 10**24, owner)
        tok_a = mock.deploy_token(Honest(Fraction(0)), 10**24, owner)
        tok_b = mock.deploy_token(Honest(Fraction(0)), 10**24, owner)
        mock.advance_block(2)  # head=2, pending=3
        early = mock.create_pool(base, tok_a)  # created at block 3
        mock.advance_block(4)  # head=6, pending=7
        late = mock.create_pool(base, tok_b)  # created at block 7
        mock.advance_block(4)

        class _Trace:
            chain = mock

        chain = backend_factory(_Trace)
        pools = chain.get_pool_created((4, 10))
        assert [p.pool for p in pools] == [late]
        both = chain.get_pool_created((0, 10))
        assert [p.pool for p in both] == [early, late]

    def test_invalid_creation_range_rejected(self, drain_world):
        _, chain = drain_world
        with pytest.raises(ValueError):
            chain.get_pool_created((5, 1))

    def test_swaps_complete_and_ordered(self, drain_world):
        trace, chain = drain_world
        swaps = chain.get_swaps(trace.pool.pool, (0, chain.head()))
        assert len(swaps) == 6  # 5 washes + 1 victim buy
        blocks = [s.block for s in swaps]
        assert blocks == sorted(blocks)
        assert all(s.amount_in > 0 for s in swaps)

    def test_swaps_before_creation_empty(self, drain_world):
        trace, chain = drain_world
        assert chain.get_swaps(trace.pool.pool, (0, 2)) == []

    def test_range_partition_completeness(self, drain_world):
        trace, chain = drain_world
        head = chain.head()
        whole = chain.get_swaps(trace.pool.pool, (0, head))
        mid = head // 2
        parts = chain.get_swaps(trace.pool.pool, (0, mid)) + chain.get_swaps(
            trace.pool.pool, (mid + 1, head)
        )
        assert whole == parts
        whole_t = chain.get_transfers(trace.trap_token, (0, head))
        parts_t = chain.get_transfers(trace.trap_token, (0, mid)) + chain.get_transfers(
            trace.trap_token, (mid + 1, head)
        )
        assert whole_t == parts_t

    def test_liquidity_events_in_order(self, drain_world):
        trace, chain = drain_world
        events = chain.get_liquidity_events(trace.pool.pool, (0, chain.head()))
        assert [e.kind.value for e in events] == ["add", "remove"]

    def test_balances_after_drain(self, drain_world):
        trace, chain = drain_world
        victim = trace.actors.victims[0]
        head = chain.head()
        assert chain.balance_of(trace.trap_token, victim, head) == 0
        unseen = Address.derive("nobody")
        assert chain.balance_of(trace.trap_token, unseen, head) == 0
        # a read of a token that does not exist reverts: None, not an error
        assert chain.balance_of(Address.derive("not-a-token"), victim, head) is None

    def test_reserves_after_remove_all(self, drain_world):
        trace, chain = drain_world
        assert chain.get_reserves(trace.pool.pool, chain.head()) == (0, 0)

    def test_unknown_pool_rejected(self, drain_world):
        _, chain = drain_world
        with pytest.raises(UnknownPool):
            chain.get_reserves(Address.derive("missing-pool"), chain.head())


class TestSimulation:
    @pytest.fixture
    def live_world(self, backend_factory):
        trace = run_simple(Honest(Fraction(0)))
        return trace, backend_factory(trace)

    def test_bundle_of_balance_reads_is_stable(self, live_world):
        trace, chain = live_world
        victim = trace.actors.victims[0]
        calls = [
            BalanceOfCall(caller=victim, token=trace.trap_token, holder=victim),
            BalanceOfCall(caller=victim, token=trace.trap_token, holder=victim),
        ]
        outcomes = chain.simulate_bundle(chain.head(), calls)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].return_value == outcomes[1].return_value > 0

    def test_sell_bundle_changes_fork_only(self, live_world):
        trace, chain = live_world
        victim = trace.actors.victims[0]
        head = chain.head()
        held = chain.balance_of(trace.trap_token, victim, head)
        calls = [
            BalanceOfCall(caller=victim, token=trace.base_token, holder=victim),
            SwapExactInCall(
                caller=victim, pool=trace.pool.pool, token_in=trace.trap_token,
                token_out=trace.base_token, amount_in=held, recipient=victim,
            ),
            BalanceOfCall(caller=victim, token=trace.base_token, holder=victim),
        ]
        before = {
            "reserves": chain.get_reserves(trace.pool.pool, head),
            "balance": held,
            "swaps": len(chain.get_swaps(trace.pool.pool, (0, head))),
        }
        outcomes = chain.simulate_bundle(head, calls)
        assert [o.status for o in outcomes] == [CallStatus.SUCCESS] * 3
        assert outcomes[2].return_value > outcomes[0].return_value
        after = {
            "reserves": chain.get_reserves(trace.pool.pool, head),
            "balance": chain.balance_of(trace.trap_token, victim, head),
            "swaps": len(chain.get_swaps(trace.pool.pool, (0, head))),
        }
        assert before == after  # simulation never leaks into public state

    def test_calls_see_prior_effects_in_bundle(self, live_world):
        trace, chain = live_world
        victim = trace.actors.victims[0]
        head = chain.head()
        held = chain.balance_of(trace.trap_token, victim, head)
        calls = [
            BalanceOfCall(caller=victim, token=trace.trap_token, holder=victim),
            SwapExactInCall(
                caller=victim, pool=trace.pool.pool, token_in=trace.trap_token,
                token_out=trace.base_token, amount_in=held, recipient=victim,
            ),
            BalanceOfCall(caller=victim, token=trace.trap_token, holder=victim),
        ]
        outcomes = chain.simulate_bundle(head, calls)
        assert outcomes[0].return_value == held
        assert outcomes[2].return_value == 0  # sold everything inside the fork

    def test_reverted_swap_leaves_fork_as_before(self, live_world):
        trace, chain = live_world
        victim = trace.actors.victims[0]
        head = chain.head()
        held = chain.balance_of(trace.trap_token, victim, head)
        sell = SwapExactInCall(
            caller=victim, pool=trace.pool.pool, token_in=trace.trap_token,
            token_out=trace.base_token, amount_in=held, recipient=victim,
        )
        (alone,) = chain.simulate_bundle(head, [sell])
        assert alone.ok
        calls = [
            # Its transfers run before the min_out check reverts the call.
            replace(sell, min_out=alone.return_value + 1),
            BalanceOfCall(caller=victim, token=trace.trap_token, holder=victim),
            BalanceOfCall(caller=victim, token=trace.base_token, holder=victim),
            sell,
        ]
        outcomes = chain.simulate_bundle(head, calls)
        assert outcomes[0].reverted
        assert outcomes[1].return_value == held
        assert outcomes[2].return_value == chain.balance_of(trace.base_token, victim, head)
        assert outcomes[3].ok
        assert outcomes[3].return_value == alone.return_value  # reserves unmoved

    def test_revert_isolates_single_call(self, backend_factory):
        trace = run_simple(ListGate(mode=GateMode.ALLOW, members=frozenset()))
        chain = backend_factory(trace)
        victim = trace.actors.victims[0]
        head = chain.head()
        held = chain.balance_of(trace.trap_token, victim, head)
        assert held > 0
        calls = [
            BalanceOfCall(caller=victim, token=trace.base_token, holder=victim),
            SwapExactInCall(
                caller=victim, pool=trace.pool.pool, token_in=trace.trap_token,
                token_out=trace.base_token, amount_in=held, recipient=victim,
            ),
            BalanceOfCall(caller=victim, token=trace.base_token, holder=victim),
        ]
        outcomes = chain.simulate_bundle(head, calls)
        assert outcomes[1].reverted
        assert outcomes[1].revert_reason  # misleading reason text preserved
        assert outcomes[0].return_value == outcomes[2].return_value

    def test_balance_override_funds_probe(self, live_world):
        trace, chain = live_world
        probe = Address.derive("contract-probe")
        head = chain.head()
        calls = [
            BalanceOfCall(caller=probe, token=trace.base_token, holder=probe),
            SwapExactInCall(
                caller=probe, pool=trace.pool.pool, token_in=trace.base_token,
                token_out=trace.trap_token, amount_in=10**6, recipient=probe,
            ),
            BalanceOfCall(caller=probe, token=trace.trap_token, holder=probe),
        ]
        broke = chain.simulate_bundle(head, calls)
        assert broke[1].reverted  # unfunded probe cannot buy
        funded = chain.simulate_bundle(
            head, calls, balance_overrides={(trace.base_token, probe): 10**12}
        )
        assert funded[0].return_value == 10**12
        assert funded[1].ok
        assert funded[2].return_value > 0

    def test_bundle_leaves_chain_unchanged(self, live_world):
        trace, chain = live_world
        victim = trace.actors.victims[0]
        probe = Address.derive("contract-probe")
        pool, base, trap = trace.pool.pool, trace.base_token, trace.trap_token
        head = chain.head()

        def observed():
            return (
                chain.head(),
                [chain.balance_of(t, h, head)
                 for t in (base, trap) for h in (victim, probe, pool)],
                chain.get_reserves(pool, head),
                [chain.get_transfers(t, (0, head)) for t in (base, trap)],
                chain.get_swaps(pool, (0, head)),
                [chain.get_approvals(t, (0, head)) for t in (base, trap)],
            )

        buy = SwapExactInCall(
            caller=probe, pool=pool, token_in=base, token_out=trap,
            amount_in=10**6, recipient=probe,
        )
        calls = [
            buy,
            # Pays into the pool before its min_out check reverts it.
            replace(buy, min_out=10**30),
            BalanceOfCall(caller=probe, token=trap, holder=probe),
        ]
        before = observed()
        outcomes = chain.simulate_bundle(
            head, calls, balance_overrides={(base, probe): 10**12}
        )
        assert [o.status for o in outcomes] == [
            CallStatus.SUCCESS, CallStatus.REVERT, CallStatus.SUCCESS,
        ]
        assert outcomes[2].return_value > 0
        assert observed() == before

    def test_empty_bundle_rejected(self, live_world):
        _, chain = live_world
        with pytest.raises(EmptyBundle):
            chain.simulate_bundle(chain.head(), [])

    def test_a_bundle_that_cannot_run_fails_alone(self, live_world):
        """An empty bundle in a batch gets its own EmptyBundle; the other
        bundle's outcomes equal its lone simulation."""
        trace, chain = live_world
        probe = Address.derive("contract-probe")
        head = chain.head()
        calls = [
            SwapExactInCall(
                caller=probe, pool=trace.pool.pool, token_in=trace.base_token,
                token_out=trace.trap_token, amount_in=10**6, recipient=probe,
            ),
            BalanceOfCall(caller=probe, token=trace.trap_token, holder=probe),
        ]
        funding = {(trace.base_token, probe): 10**12}
        alone = chain.simulate_bundle(head, calls, funding)
        good, empty = chain.simulate_bundles(head, [(calls, funding), ([], None)])
        assert good == alone and alone[1].return_value > 0
        assert isinstance(empty, EmptyBundle)


class TestLogVisibility:
    def test_silent_drain_invisible_to_logs(self, backend_factory):
        script, seed = wash_and_drain_script(emits_event=False)
        trace = run_attack_script(script, seed)
        chain = backend_factory(trace)
        victim = trace.actors.victims[0]
        head = chain.head()
        assert chain.balance_of(trace.trap_token, victim, head) == 0
        outgoing = [
            r for r in chain.get_transfers(trace.trap_token, (0, head))
            if r.sender == victim
        ]
        assert outgoing == []  # the drain left no event trail

    def test_silent_drain_files_nothing_and_is_flagged(self, backend_factory):
        """The mock files no record for a movement that emitted no event;
        the drain still shows as a balance drop with no logged cause."""
        script, seed = wash_and_drain_script(emits_event=False)
        trace = run_attack_script(script, seed)
        victim = trace.actors.victims[0]
        records = trace.chain._transfers[trace.trap_token]  # noqa: SLF001
        assert not [r for r in records if r.sender == victim]
        chain = backend_factory(trace)
        verdict = scan_pool(chain, trace.pool, trace.trap_token, 1, trace.final_block)
        flagged = [
            f for f in verdict.findings
            if f.subject == victim and f.evidence["kind"] == "unauthorized_transfer_mismatch"
        ]
        assert len(flagged) == 1
        assert flagged[0].evidence["direction"] == "silent_movement"

    def test_hidden_tax_log_overstates(self, backend_factory):
        trace = run_simple(HiddenTax(Fraction(1, 10)))
        chain = backend_factory(trace)
        victim = trace.actors.victims[0]
        head = chain.head()
        delivered = [
            r for r in chain.get_transfers(trace.trap_token, (0, head))
            if r.recipient == victim
        ]
        assert delivered
        actual = chain.balance_of(trace.trap_token, victim, head)
        assert delivered[0].value > actual * 2  # event claims far more than arrived


class TestFalsePositiveGuard:
    def test_honest_taxed_pools_clean(self, backend_factory):
        """Honest pools taxed 0-49% give zero findings on every backend."""
        rng = random.Random(20)
        for i in range(20):
            tax = Fraction(49 * i // 19, 100)  # 0% up to 49%
            trace = run_simple(Honest(tax), seed=rng.randrange(2**31), victims=2)
            chain = backend_factory(trace)
            verdict = scan_pool(chain, trace.pool, trace.trap_token, 1, trace.final_block)
            assert verdict.findings == [], f"pool {i} (tax={tax}): {verdict.findings}"


CREATOR = derive_actors(42, 0).creator

# Scanned 1..final_block at interval 10: rounds at 10, 20, ... and a final
# partial round. The drains land at block 22, inside that last window.
WINDOWED_CASES = {
    "owner_drain": (OwnerDrain(owner=CREATOR, emits_event=True), (Wait(12), Drain(victim=0))),
    "owner_drain_silent": (OwnerDrain(owner=CREATOR, emits_event=False),
                           (Wait(12), Drain(victim=0))),
    "list_gate": (ListGate(mode=GateMode.ALLOW), (Wait(20),)),
    "hidden_tax": (HiddenTax(Fraction(1, 10), exempt=frozenset({CREATOR})), (Wait(15),)),
    "honest": (Honest(Fraction(0)), (Wait(15),)),
}


def _verdict_key(verdict):
    # Revert reasons are worded by each backend, so evidence is left out.
    return verdict.traps, [(f.trap, f.subject, f.block) for f in verdict.findings]


class TestWindowedScanAgreement:
    @pytest.mark.parametrize("name", sorted(WINDOWED_CASES))
    def test_backends_agree_at_interval_ten(self, name):
        behavior, extra = WINDOWED_CASES[name]
        trace = run_simple(behavior, extra=extra)
        assert trace.final_block % 10 != 0
        settings = ScanSettings(interval=10)
        nodes = [FakeNode(chain=trace.chain)]
        if name == "honest":
            nodes.append(FakeNode(chain=trace.chain, log_limit=1))
        mock = scan_pool(trace.chain, trace.pool, trace.trap_token, 1, trace.final_block, settings)
        assert mock.traps == trace.ground_truth
        for node in nodes:
            rpc = RpcChainView(EndpointConfig(url="fake://node", retries=1), transport=node)
            verdict = scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block, settings)
            assert _verdict_key(verdict) == _verdict_key(mock)
        if len(nodes) == 2:  # the windowed fetches were split to fit the limit
            plain, limited = (node.requests.count_method("eth_getLogs") for node in nodes)
            assert limited > plain


class TestPinnedCorpusAgreement:
    """The corpus whose sim verdicts `test_sim_verdicts.py` pins, scanned
    through the RPC backend over the fake node: every verdict must agree
    with the mock's at intervals 1, 3 and 7."""

    def test_backends_agree_on_pinned_corpus(self, tmp_path):
        paths = gen_corpus(24, 7, tmp_path)
        disagree = []
        for path in paths:
            scenario = load_scenario(path)
            trace = run_attack_script(scenario.script, scenario.seed)
            rpc = _rpc_backend(trace)
            for interval in (1, 3, 7):
                settings = ScanSettings(interval=interval)
                args = (trace.pool, trace.trap_token, 1, trace.final_block, settings)
                mock = scan_pool(trace.chain, *args)
                live = scan_pool(rpc, *args)
                if _verdict_key(live) != _verdict_key(mock):
                    disagree.append((path.name, interval))
        assert len(paths) == 24
        assert disagree == []
