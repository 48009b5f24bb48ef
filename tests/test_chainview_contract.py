"""Contract suite every chainview backend must pass.

Runs twice: once against the mock chain directly, once against the RPC
backend driven by the in-process fake node (scripted replay, no network).
"""

import random
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
from trapscan.mockchain import (
    Drain,
    GateMode,
    Honest,
    ListGate,
    OwnerDrain,
    HiddenTax,
    run_attack_script,
    wash_and_drain_script,
)
from trapscan.pipeline import scan_pool
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
        blocks = [s.block.number for s in swaps]
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
        assert chain.balance_of(trace.trap_token, victim, head).balance == 0
        unseen = Address.derive("nobody")
        assert chain.balance_of(trace.trap_token, unseen, head).balance == 0

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
        held = chain.balance_of(trace.trap_token, victim, head).balance
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
            "balance": chain.balance_of(trace.trap_token, victim, head).balance,
            "swaps": len(chain.get_swaps(trace.pool.pool, (0, head))),
        }
        assert before == after  # simulation never leaks into public state

    def test_calls_see_prior_effects_in_bundle(self, live_world):
        trace, chain = live_world
        victim = trace.actors.victims[0]
        head = chain.head()
        held = chain.balance_of(trace.trap_token, victim, head).balance
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

    def test_revert_isolates_single_call(self, backend_factory):
        trace = run_simple(ListGate(mode=GateMode.ALLOW, members=frozenset()))
        chain = backend_factory(trace)
        victim = trace.actors.victims[0]
        head = chain.head()
        held = chain.balance_of(trace.trap_token, victim, head).balance
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

    def test_empty_bundle_rejected(self, live_world):
        _, chain = live_world
        with pytest.raises(EmptyBundle):
            chain.simulate_bundle(chain.head(), [])


class TestLogVisibility:
    def test_silent_drain_invisible_to_logs(self, backend_factory):
        script, seed = wash_and_drain_script(emits_event=False)
        trace = run_attack_script(script, seed)
        chain = backend_factory(trace)
        victim = trace.actors.victims[0]
        head = chain.head()
        assert chain.balance_of(trace.trap_token, victim, head).balance == 0
        outgoing = [
            r for r in chain.get_transfers(trace.trap_token, (0, head))
            if r.sender == victim
        ]
        assert outgoing == []  # the drain left no event trail

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
        actual = chain.balance_of(trace.trap_token, victim, head).balance
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
