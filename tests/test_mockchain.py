import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_simple, simple_script
from trapscan.chainview import (
    BalanceOfCall,
    BlockOutOfRange,
    CallStatus,
    EmptyBundle,
    LiquidityKind,
    SwapExactInCall,
    UnknownPool,
    UnknownToken,
)
from trapscan.core import Address, AmountRangeError, ZERO_ADDRESS
from trapscan.mockchain import (
    AmbiguousParameters,
    AttackScript,
    CreatePool,
    DelayedSellTax,
    DeployToken,
    Drain,
    FlipSwitch,
    GateMode,
    HiddenTax,
    Honest,
    LimitedSell,
    ListGate,
    MockChain,
    OwnerDrain,
    ScriptError,
    SwitchTrigger,
    TransferContext,
    VictimBuy,
    Wait,
    WashBuy,
    run_attack_script,
    validate_script,
    wash_and_drain_script,
)
from trapscan.core import TrapType
from trapscan.mockchain.chain import _bal, _Overlay, _Revert

OWNER = Address.derive("owner")
ALICE = Address.derive("alice")
BOB = Address.derive("bob")


def fresh_pool(chain, behavior_y, x_liq=1000, y_liq=1000, supply=10**24):
    base = chain.deploy_token(Honest(Fraction(0)), supply, OWNER)
    trap = chain.deploy_token(behavior_y, supply, OWNER)
    pool = chain.create_pool(base, trap)
    assert chain.add_liquidity(pool, OWNER, x_liq, y_liq).ok
    chain.advance_block()
    return base, trap, pool


class TestDeploy:
    def test_owner_holds_supply(self, chain):
        token = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        chain.advance_block()
        assert chain.balance_of(token, OWNER, chain.head()) == 10**24

    def test_mint_record_from_zero_address(self, chain):
        token = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        chain.advance_block()
        (rec,) = chain.get_transfers(token, (0, chain.head()))
        assert rec.sender == ZERO_ADDRESS and rec.recipient == OWNER
        assert rec.value == 10**24

    def test_trap_deploys_look_identical(self, chain):
        hidden = chain.deploy_token(HiddenTax(Fraction(1, 10)), 10**24, OWNER)
        delayed = chain.deploy_token(DelayedSellTax(Fraction(1)), 10**24, OWNER)
        chain.advance_block()
        for token in (hidden, delayed):
            assert chain.balance_of(token, OWNER, chain.head()) == 10**24
            assert len(chain.get_transfers(token, (0, chain.head()))) == 1


class TestTokenTransfer:
    def test_honest_tax_nets_and_logs_net(self, chain):
        token = chain.deploy_token(Honest(Fraction(60, 100)), 10**24, OWNER)
        chain.token_transfer(token, OWNER, ALICE, 10**6)  # owner exempt
        out = chain.token_transfer(token, ALICE, BOB, 1000)
        chain.advance_block()
        assert out.ok
        assert chain.balance_of(token, BOB, chain.head()) == 400
        rec = chain.get_transfers(token, (0, chain.head()))[-1]
        assert rec.value == 400

    def test_hidden_tax_delivers_fraction_logs_full(self, chain):
        token = chain.deploy_token(HiddenTax(Fraction(1, 10)), 10**24, OWNER)
        chain.token_transfer(token, OWNER, ALICE, 10**6)
        chain.token_transfer(token, ALICE, BOB, 1000)
        chain.advance_block()
        assert chain.balance_of(token, BOB, chain.head()) == 100
        rec = chain.get_transfers(token, (0, chain.head()))[-1]
        assert rec.value == 1000  # the event lies

    def test_hidden_tax_exempt_sender_moves_full(self, chain):
        token = chain.deploy_token(
            HiddenTax(Fraction(1, 10), exempt=frozenset({OWNER})), 10**24, OWNER
        )
        chain.token_transfer(token, OWNER, ALICE, 1000)
        chain.advance_block()
        assert chain.balance_of(token, ALICE, chain.head()) == 1000

    def test_list_gate_blocks_nonmember(self, chain):
        token = chain.deploy_token(
            ListGate(mode=GateMode.ALLOW, members=frozenset(), global_open=False),
            10**24, OWNER,
        )
        chain.token_transfer(token, OWNER, ALICE, 1000)  # owner auto-member
        out = chain.token_transfer(token, ALICE, BOB, 10)
        assert out.reverted
        assert out.revert_reason == "ERC20: transfer to the zero address"

    def test_limited_sell_caps_pool_payment(self, chain):
        token = chain.deploy_token(LimitedSell(Fraction(1, 100)), 10**24, OWNER)
        chain.token_transfer(token, OWNER, ALICE, 10**6)
        out = chain.token_transfer(token, ALICE, BOB, 10**5, TransferContext.POOL_IN)
        chain.advance_block()
        assert out.ok
        assert chain.balance_of(token, BOB, chain.head()) == 10**4

    def test_balance_check_reason_strings(self, chain):
        limited = chain.deploy_token(LimitedSell(Fraction(1, 2)), 100, OWNER)
        plain = chain.deploy_token(Honest(Fraction(0)), 100, OWNER)
        deny = chain.token_transfer(limited, ALICE, BOB, 10)
        assert deny.reverted and deny.revert_reason == "balanceNotEnough"
        deny2 = chain.token_transfer(plain, ALICE, BOB, 10)
        assert deny2.reverted and "exceeds balance" in deny2.revert_reason


class TestOwnerDrain:
    def test_logged_drain(self, chain):
        token = chain.deploy_token(OwnerDrain(owner=OWNER, emits_event=True), 10**24, OWNER)
        chain.token_transfer(token, OWNER, ALICE, 500)
        out = chain.owner_drain(token, ALICE, OWNER)
        chain.advance_block()
        assert out.ok and out.return_value == 500
        assert chain.balance_of(token, ALICE, chain.head()) == 0
        rec = chain.get_transfers(token, (0, chain.head()))[-1]
        assert rec.sender == ALICE and rec.recipient == ZERO_ADDRESS and rec.value == 500
        assert rec.tx_sender == OWNER

    def test_silent_drain_leaves_no_log(self, chain):
        token = chain.deploy_token(OwnerDrain(owner=OWNER, emits_event=False), 10**24, OWNER)
        chain.token_transfer(token, OWNER, ALICE, 500)
        before = len(chain.get_transfers(token, (0, chain.head() + 1)))
        assert chain.owner_drain(token, ALICE, OWNER).ok
        chain.advance_block()
        assert chain.balance_of(token, ALICE, chain.head()) == 0
        assert len(chain.get_transfers(token, (0, chain.head()))) == before

    def test_drain_empty_is_noop(self, chain):
        token = chain.deploy_token(OwnerDrain(owner=OWNER), 10**24, OWNER)
        out = chain.owner_drain(token, ALICE, OWNER)
        assert out.ok and out.return_value == 0

    def test_non_owner_rejected(self, chain):
        token = chain.deploy_token(OwnerDrain(owner=OWNER), 10**24, OWNER)
        assert chain.owner_drain(token, ALICE, BOB).reverted


class TestSwap:
    def test_constant_product_example(self, chain):
        base, trap, pool = fresh_pool(chain, Honest(Fraction(0)))
        chain.token_transfer(base, OWNER, ALICE, 1000)
        out = chain.swap(pool, ALICE, base, 100, ALICE)
        chain.advance_block()
        assert out.ok and out.return_value == 90
        assert chain.balance_of(trap, ALICE, chain.head()) == 90
        assert chain.get_reserves(pool, chain.head()) == (1100, 910)
        (swap,) = chain.get_swaps(pool, (0, chain.head()))
        assert swap.amount_in == 100 and swap.amount_out == 90

    def test_hidden_tax_distorts_delivery_not_record(self, chain):
        base, trap, pool = fresh_pool(chain, HiddenTax(Fraction(1, 10)))
        chain.token_transfer(base, OWNER, ALICE, 1000)
        out = chain.swap(pool, ALICE, base, 100, ALICE)
        chain.advance_block()
        assert out.ok
        (swap,) = chain.get_swaps(pool, (0, chain.head()))
        assert swap.amount_out == 90
        assert chain.balance_of(trap, ALICE, chain.head()) == 9

    def test_gated_sell_reverts_and_preserves_reserves(self, chain):
        base, trap, pool = fresh_pool(
            chain, ListGate(mode=GateMode.ALLOW, members=frozenset())
        )
        chain.token_transfer(base, OWNER, ALICE, 1000)
        assert chain.swap(pool, ALICE, base, 100, ALICE).ok  # buy works
        chain.advance_block()
        reserves = chain.get_reserves(pool, chain.head())
        out = chain.swap(pool, ALICE, trap, 90, ALICE)
        chain.advance_block()
        assert out.reverted
        assert chain.get_reserves(pool, chain.head()) == reserves

    def test_zero_input_and_empty_pool_revert(self, chain):
        base = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        trap = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        pool = chain.create_pool(base, trap)
        assert chain.swap(pool, OWNER, base, 0, OWNER).reverted
        assert chain.swap(pool, OWNER, base, 100, OWNER).reverted  # no liquidity

    def test_revert_after_first_write_leaves_no_trace(self, chain):
        base, trap, pool = fresh_pool(chain, OwnerDrain(owner=OWNER))
        chain.token_transfer(base, OWNER, ALICE, 1000)
        assert chain.owner_drain(trap, pool, OWNER).ok  # the pool cannot pay out
        chain.advance_block()

        def observed():
            head = chain.head()
            return (
                [chain.balance_of(t, h, head)
                 for t in (base, trap) for h in (ALICE, pool)],
                chain.get_reserves(pool, head),
                chain.get_transfers(base, (0, head)),
                chain.get_transfers(trap, (0, head)),
                chain.get_swaps(pool, (0, head)),
            )

        before = observed()
        # Pays base into the pool and moves the reserves, then reverts on
        # the pool's empty trap balance.
        out = chain.swap(pool, ALICE, base, 100, ALICE)
        assert out.reverted and "exceeds balance" in out.revert_reason
        chain.advance_block()
        assert observed() == before

    def test_emitted_records_on_success(self, chain):
        base, trap, pool = fresh_pool(chain, Honest(Fraction(0)))
        chain.token_transfer(base, OWNER, ALICE, 1000)
        chain.advance_block()
        assert chain.swap(pool, ALICE, base, 100, ALICE).ok
        chain.advance_block()
        block = (chain.head(), chain.head())
        transfers = chain.get_transfers(base, block) + chain.get_transfers(trap, block)
        assert [(r.token, r.sender, r.recipient, r.value) for r in transfers] == [
            (base, ALICE, pool, 100), (trap, pool, ALICE, 90),
        ]
        (swap,) = chain.get_swaps(pool, block)
        assert (swap.sender, swap.amount_in, swap.amount_out) == (ALICE, 100, 90)
        assert {r.block for r in transfers} == {swap.block}


class TestLiquidity:
    def test_add_then_reserves(self, chain):
        base, trap, pool = fresh_pool(chain, Honest(Fraction(0)))
        assert chain.get_reserves(pool, chain.head()) == (1000, 1000)
        events = chain.get_liquidity_events(pool, (0, chain.head()))
        assert [e.kind for e in events] == [LiquidityKind.ADD]

    def test_remove_all_returns_current_reserves(self, chain):
        base, trap, pool = fresh_pool(chain, Honest(Fraction(0)))
        chain.token_transfer(base, OWNER, ALICE, 1000)
        chain.swap(pool, ALICE, base, 100, ALICE)
        chain.advance_block()
        before = chain.get_reserves(pool, chain.head())
        assert before == (1100, 910)
        out = chain.remove_liquidity(pool, OWNER)
        chain.advance_block()
        assert out.ok
        event = chain.get_liquidity_events(pool, (0, chain.head()))[-1]
        assert (event.amount_x, event.amount_y) == before
        assert chain.get_reserves(pool, chain.head()) == (0, 0)

    def test_remove_empty_reverts(self, chain):
        base = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        trap = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        pool = chain.create_pool(base, trap)
        assert chain.remove_liquidity(pool, OWNER).reverted


class TestFlipSwitch:
    def test_delayed_tax_before_and_after(self, chain):
        base, trap, pool = fresh_pool(
            chain, DelayedSellTax(Fraction(1)), x_liq=10**6, y_liq=10**6
        )
        chain.token_transfer(trap, OWNER, ALICE, 10**4)
        chain.advance_block()
        out = chain.swap(pool, ALICE, trap, 1000, ALICE)
        assert out.ok and out.return_value > 900  # full-value sell pre-switch
        assert chain.flip_switch(trap, OWNER).ok
        chain.advance_block()
        out2 = chain.swap(pool, ALICE, trap, 1000, ALICE)
        assert out2.ok and out2.return_value == 0  # sell delivers nothing

    def test_idempotent_and_owner_only(self, chain):
        token = chain.deploy_token(DelayedSellTax(Fraction(1)), 10**24, OWNER)
        assert chain.flip_switch(token, ALICE).reverted
        assert chain.flip_switch(token, OWNER).ok
        assert chain.flip_switch(token, OWNER).ok

    def test_switchless_behavior_rejected(self, chain):
        token = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        assert chain.flip_switch(token, OWNER).reverted

    def test_at_block_auto_switch(self, chain):
        token = chain.deploy_token(
            DelayedSellTax(Fraction(1), trigger=SwitchTrigger.at_block(5)), 10**24, OWNER
        )
        chain.advance_block(3)
        assert chain.switched_at(token) is None
        chain.advance_block(5)
        assert chain.switched_at(token) == 5

    def test_at_block_flipped_by_hand(self, chain):
        early = chain.deploy_token(
            DelayedSellTax(Fraction(1), trigger=SwitchTrigger.at_block(10)), 10**24, OWNER
        )
        late = chain.deploy_token(
            DelayedSellTax(Fraction(1), trigger=SwitchTrigger.at_block(3)), 10**24, OWNER
        )
        chain.advance_block(3)
        flip_block = chain.pending_block
        assert chain.flip_switch(early, OWNER).ok
        assert chain.flip_switch(late, OWNER).ok  # already on since block 3
        chain.advance_block(20)
        assert chain.switched_at(early) == flip_block
        assert chain.switched_at(late) == 3


class TestBlocks:
    def test_advance(self, chain):
        assert chain.head() == 0
        assert chain.advance_block(1) == 1
        assert chain.advance_block(10) == 11

    def test_snapshot_immutability(self, chain):
        token = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        chain.token_transfer(token, OWNER, ALICE, 100)
        chain.advance_block()
        snapshot_block = chain.head()
        chain.token_transfer(token, OWNER, ALICE, 900)
        chain.advance_block()
        assert chain.balance_of(token, ALICE, snapshot_block) == 100
        assert chain.balance_of(token, ALICE, chain.head()) == 1000

    def test_sealing_and_bundles_copy_no_state(self, chain):
        base, trap, pool = fresh_pool(chain, Honest(Fraction(0)))
        for i in range(200):
            chain.token_transfer(base, OWNER, Address.derive(f"holder:{i}"), 1000 + i)
        chain.token_transfer(base, OWNER, ALICE, 10**6)
        chain.advance_block()
        calls = [
            BalanceOfCall(caller=ALICE, token=trap, holder=ALICE),
            SwapExactInCall(caller=ALICE, pool=pool, token_in=base, token_out=trap,
                            amount_in=100, recipient=ALICE),
            BalanceOfCall(caller=ALICE, token=trap, holder=ALICE),
        ]
        chain.simulate_bundle(chain.head(), calls)  # warm up lazy imports and caches

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def simulate_afresh():
            chain._version += 1  # no reuse: the engine runs
            chain.simulate_bundle(chain.head(), calls)

        assert peak_bytes(lambda: chain.advance_block(1000)) < 64 * 1024
        assert peak_bytes(simulate_afresh) < 8 * 1024


class TestScripts:
    def test_canonical_drain_scenario(self):
        script, seed = wash_and_drain_script()
        trace = run_attack_script(script, seed)
        assert trace.ground_truth == frozenset({TrapType.UNAUTHORIZED_TRANSFER})
        victim = trace.actors.victims[0]
        head = trace.chain.head()
        assert trace.chain.balance_of(trace.trap_token, victim, head) == 0
        assert trace.chain.get_reserves(trace.pool.pool, head) == (0, 0)  # rug pulled
        washes = [
            s for s in trace.chain.get_swaps(trace.pool.pool, (0, head))
            if s.recipient == trace.actors.wash_trader
        ]
        assert len(washes) == 5
        assert all(s.recipient == washes[0].recipient for s in washes)

    def test_honest_script_has_empty_truth(self, honest_trace):
        assert honest_trace.ground_truth == frozenset()

    def test_delayed_script_truth_and_activation(self):
        trace = run_simple(DelayedSellTax(Fraction(9, 10)), extra=(FlipSwitch(),))
        assert trace.ground_truth == frozenset({TrapType.INVALID_SELL})
        assert trace.activation_block is not None

    def test_validation_rejects_bad_scripts(self):
        with pytest.raises(ScriptError):
            validate_script(AttackScript(steps=(CreatePool(),)))
        with pytest.raises(ScriptError):
            validate_script(
                AttackScript(steps=(DeployToken(Honest(Fraction(0))), CreatePool(),
                                    FlipSwitch()))
            )
        with pytest.raises(ScriptError):
            validate_script(
                AttackScript(steps=(DeployToken(Honest(Fraction(0))), CreatePool(),
                                    Drain(victim=0)))
            )

    def test_boundary_parameters_rejected(self):
        with pytest.raises(AmbiguousParameters):
            run_simple(Honest(Fraction(1, 2)))
        with pytest.raises(AmbiguousParameters):
            run_simple(LimitedSell(Fraction(1, 2)))

    def test_determinism_byte_identical(self):
        script, seed = wash_and_drain_script()
        a = run_attack_script(script, seed)
        b = run_attack_script(script, seed)
        assert a.events and a.events == b.events
        assert a.ground_truth == b.ground_truth
        assert a.pool == b.pool


class TestInvariants:
    @given(
        transfers=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 10**6)),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_honest_conservation(self, transfers):
        chain = MockChain()
        actors = [OWNER, ALICE, BOB]
        token = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        for frm, to, amount in transfers:
            chain.token_transfer(token, actors[frm], actors[to], amount)
        chain.advance_block()
        total = sum(
            chain.balance_of(token, a, chain.head()) for a in actors
        )
        assert total == 10**24

    @given(
        swaps=st.lists(st.tuples(st.booleans(), st.integers(1, 10**7)), min_size=1,
                       max_size=15)
    )
    @settings(max_examples=50, deadline=None)
    def test_constant_product_non_decreasing(self, swaps):
        chain = MockChain()
        base, trap, pool = fresh_pool(chain, Honest(Fraction(0)),
                                      x_liq=10**9, y_liq=10**9)
        chain.token_transfer(base, OWNER, ALICE, 10**12)
        chain.token_transfer(trap, OWNER, ALICE, 10**12)
        for buy_base, amount in swaps:
            rx, ry = chain.get_reserves(pool, chain.head())
            k_before = rx * ry
            token_in = base if buy_base else trap
            chain.swap(pool, ALICE, token_in, amount, ALICE)
            chain.advance_block()
            rx2, ry2 = chain.get_reserves(pool, chain.head())
            assert rx2 * ry2 >= k_before

    def test_honest_deltas_fully_logged(self, honest_trace):
        """Every balance change of an honest token is explained by logged
        transfer records (analyzer case-2 must never fire on these)."""
        chain = honest_trace.chain
        token = honest_trace.trap_token
        head = chain.head()
        holders = {honest_trace.actors.wash_trader, *honest_trace.actors.victims}
        transfers = chain.get_transfers(token, (0, head))
        swaps = chain.get_swaps(honest_trace.pool.pool, (0, head))
        for holder in holders:
            expected = 0
            for rec in transfers:
                if rec.recipient == holder:
                    expected += rec.value
                if rec.sender == holder:
                    expected -= rec.value
            assert chain.balance_of(token, holder, head) == expected
        # and swap records agree with the logged pool deliveries
        for swap in swaps:
            if swap.token_out != token:
                continue
            delivered = [
                r for r in transfers
                if r.block == swap.block and r.recipient == swap.recipient
                and r.sender == honest_trace.pool.pool
            ]
            assert delivered and delivered[0].value == swap.amount_out


class TestLogWindows:
    """The log queries bisect a store's records to the window; a linear
    filter over the same store is the reference."""

    @given(
        steps=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 10**6)), max_size=40),
        windows=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1,
                         max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_windows_match_linear_filter(self, steps, windows):
        chain = MockChain()
        base = chain.deploy_token(Honest(Fraction(0)), 10**24, OWNER)
        trap = chain.deploy_token(OwnerDrain(owner=OWNER, emits_event=False), 10**24, OWNER)
        pool = chain.create_pool(base, trap)
        chain.add_liquidity(pool, OWNER, 10**9, 10**9)
        chain.token_transfer(base, OWNER, ALICE, 10**12)
        for op, n in steps:
            if op == 0:
                chain.advance_block(n % 4 + 1)
            elif op == 1:
                chain.token_transfer(trap, OWNER, ALICE, n)
            elif op == 2:
                chain.swap(pool, ALICE, base, n, ALICE)
            elif op == 3:
                chain.approve(trap, ALICE, BOB, n)
            else:
                chain.owner_drain(trap, ALICE, OWNER)  # silent: files no record
        chain.advance_block()
        for a, b in windows:
            lo, hi = min(a, b), max(a, b)

            def within(records):
                return [r for r in records if lo <= r.block <= hi]

            assert chain.get_swaps(pool, (lo, hi)) == within(chain._swaps[pool])
            for token in (base, trap):
                assert chain.get_transfers(token, (lo, hi)) == within(chain._transfers[token])
                assert chain.get_approvals(token, (lo, hi)) == within(chain._approvals[token])


# --------------------------------------------------------------------------
# Bundle engine against a reference: each call on an overlay of its own.

PROBE = Address.derive("bundle-probe")
BUNDLE_ACTORS = (ALICE, BOB, PROBE)
UNMEETABLE = 10**30  # a min_out no swap here can deliver
OVER_BALANCE = 10**20  # more than any actor holds

# Trap-side behaviours of the differential worlds: taxes that net or lie,
# a sell cap, sender gates that stop BOB, and a switch that the bundle's
# own buys can flip (ALICE is buyer 1 at the world's head).
BUNDLE_BEHAVIORS = (
    Honest(Fraction(1, 10)),
    HiddenTax(Fraction(1, 10)),
    LimitedSell(Fraction(1, 100)),
    ListGate(mode=GateMode.ALLOW, members=frozenset({ALICE})),
    ListGate(mode=GateMode.DENY, members=frozenset({BOB})),
    DelayedSellTax(Fraction(9, 10), trigger=SwitchTrigger.after_buyers(3)),
)


@cache
def bundle_world(index):
    """A sealed pool whose actors hold both tokens; bundles never change it."""
    chain = MockChain()
    base, trap, pool = fresh_pool(chain, BUNDLE_BEHAVIORS[index], 10**9, 10**9)
    for who in (ALICE, BOB):
        assert chain.token_transfer(base, OWNER, who, 10**8).ok
    assert chain.swap(pool, ALICE, base, 10**7, ALICE).ok
    assert chain.token_transfer(trap, OWNER, BOB, 10**6).ok
    chain.advance_block()
    return chain, base, trap, pool


def reference_bundle(chain, block, calls, overrides):
    """The bundle engine with one overlay per call over the fork: a call's
    writes reach the fork only if it succeeds. Returns the outcomes and the
    fork's writes before each call and after the last."""
    fork = _Overlay(partial(chain._read_at, block), block)
    for (token, holder), amount in overrides.items():
        fork.set(_bal(token, holder), amount)
    outcomes, states = [], []
    for call in calls:
        states.append(dict(fork.writes))
        ov = _Overlay(fork.get, block)
        try:
            value = chain._exec_call(call, ov)
        except _Revert as exc:
            outcomes.append((CallStatus.REVERT, exc.reason, None))
        else:
            fork.writes.update(ov.writes)
            outcomes.append((CallStatus.SUCCESS, None, value))
    states.append(dict(fork.writes))
    return outcomes, states


def engine_bundle(chain, block, calls, overrides):
    """`simulate_bundle`, with the fork's writes seen before each call and
    after the last, in the shape `reference_bundle` returns. The version
    bump ends the chain's memo scope, so the engine runs even for a bundle
    simulated before."""
    states, forks = [], []
    chain._version += 1

    def spy(call, fork):
        states.append(dict(fork.writes))
        forks.append(fork)
        return MockChain._exec_call(chain, call, fork)

    chain._exec_call = spy
    try:
        outs = chain.simulate_bundle(block, calls, overrides)
    finally:
        del chain._exec_call
    states.append(dict(forks[-1].writes))
    return [(o.status, o.revert_reason, o.return_value) for o in outs], states


BUNDLE_CALL = st.tuples(
    st.sampled_from(("read", "buy", "sell")),
    st.sampled_from(BUNDLE_ACTORS),
    st.one_of(st.integers(0, 2 * 10**6), st.just(OVER_BALANCE)),
    st.booleans(),  # read: the trap token; swap: an unmeetable min_out
)


class TestBundleEngine:
    @given(
        world=st.integers(0, len(BUNDLE_BEHAVIORS) - 1),
        earlier=st.booleans(),
        funded=st.tuples(st.booleans(), st.booleans()),
        drawn=st.lists(BUNDLE_CALL, min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_one_overlay_per_call(self, world, earlier, funded, drawn):
        chain, base, trap, pool = bundle_world(world)
        block = chain.head() - earlier  # one block earlier ALICE holds no trap
        overrides = {
            key: amount
            for key, amount, on in (((base, PROBE), 10**8, funded[0]),
                                    ((trap, PROBE), 10**6, funded[1]))
            if on
        }
        calls = []
        for kind, actor, amount, flag in drawn:
            if kind == "read":
                calls.append(BalanceOfCall(caller=actor, token=trap if flag else base,
                                           holder=actor))
                continue
            token_in, token_out = (base, trap) if kind == "buy" else (trap, base)
            calls.append(SwapExactInCall(
                caller=actor, pool=pool, token_in=token_in, token_out=token_out,
                amount_in=amount, recipient=actor, min_out=UNMEETABLE if flag else 0,
            ))
        assert engine_bundle(chain, block, calls, overrides) == reference_bundle(
            chain, block, calls, overrides
        )


# --------------------------------------------------------------------------
# Bundle reuse within a quiet stretch, against memo-free runs.


def outcomes_of(chain, block, calls, overrides=None):
    """`simulate_bundle`, in the outcome shape `reference_bundle` returns."""
    return [(o.status, o.revert_reason, o.return_value)
            for o in chain.simulate_bundle(block, calls, overrides)]


def memo_free(chain, block, calls, overrides=None):
    """The same bundle run afresh on its own fork, never through the memo."""
    return reference_bundle(chain, block, calls, overrides or {})[0]


def count_engine_runs(chain):
    """Spy on `_exec_call`; returns the list each engine call appends to."""
    seen = []

    def spy(call, fork):
        seen.append(call)
        return MockChain._exec_call(chain, call, fork)

    chain._exec_call = spy
    return seen


def delayed_world(switch=5):
    """A pool, sealed at block 1, of a 9/10 sell tax that turns on at block
    `switch`, then a quiet chain up to two blocks past the switch."""
    chain = MockChain()
    base, trap, pool = fresh_pool(
        chain, DelayedSellTax(Fraction(9, 10), SwitchTrigger.at_block(switch)),
        10**9, 10**9,
    )
    chain.advance_block(switch + 1)
    sell = [SwapExactInCall(caller=PROBE, pool=pool, token_in=trap, token_out=base,
                            amount_in=10**6, recipient=PROBE)]
    return chain, base, trap, pool, sell, {(trap, PROBE): 10**6}


class TestBundleReuse:
    def test_identical_bundle_runs_once_per_quiet_stretch(self):
        switch = 5
        chain, base, trap, pool, sell, funded = delayed_world(switch)
        # The trailing read shows what the sell paid; each run is two calls.
        sell = [*sell, BalanceOfCall(caller=PROBE, token=base, holder=PROBE)]
        runs = count_engine_runs(chain)
        untaxed = chain.simulate_bundle(switch - 2, sell, funded)
        assert len(runs) == 2
        again = chain.simulate_bundle(switch - 1, sell, funded)
        assert again == untaxed and again is not untaxed and len(runs) == 2
        again.clear()  # a reused result is a fresh list
        assert chain.simulate_bundle(switch - 2, sell, funded) == untaxed
        taxed = chain.simulate_bundle(switch, sell, funded)
        assert len(runs) == 4 and taxed[1].return_value < untaxed[1].return_value
        assert chain.simulate_bundle(switch + 1, sell, funded) == taxed and len(runs) == 4
        chain.simulate_bundle(switch + 1, sell, {(trap, PROBE): 10**5})
        assert len(runs) == 6  # other overrides: another bundle
        assert chain.token_transfer(base, OWNER, ALICE, 1).ok  # a write ends the stretch
        chain.advance_block()
        assert chain.simulate_bundle(chain.head(), sell, funded) == taxed
        assert len(runs) == 8

    def test_every_call_is_validated(self):
        chain, base, trap, pool, sell, funded = delayed_world()
        head = chain.head()
        chain.simulate_bundle(head, sell, funded)
        with pytest.raises(EmptyBundle):
            chain.simulate_bundle(head, [], funded)
        with pytest.raises(BlockOutOfRange):
            chain.simulate_bundle(head + 1, sell, funded)
        with pytest.raises(UnknownToken):
            chain.simulate_bundle(head, sell, {**funded, (Address.derive("nope"), PROBE): 1})
        with pytest.raises(AmountRangeError):
            chain.simulate_bundle(head, sell, {(trap, PROBE): -1})
        with pytest.raises(TypeError):
            chain.simulate_bundle(head, sell, {(trap, PROBE): True})

    def test_a_hit_on_the_same_tuple_hashes_no_call(self, monkeypatch):
        """A call tuple run before in the stretch is found by identity: no
        call is hashed and no override is checked again."""
        chain, base, trap, pool, sell, funded = delayed_world()
        calls = (BalanceOfCall(caller=PROBE, token=trap, holder=PROBE), *sell)
        first = chain.simulate_bundle(chain.head(), calls, funded)
        hashed, checked = [], []
        for cls in (BalanceOfCall, SwapExactInCall):
            monkeypatch.setattr(cls, "__hash__", lambda call: hashed.append(call) or call._hash)
        real_require = MockChain._require_token
        monkeypatch.setattr(MockChain, "_require_token",
                            lambda chain, token: checked.append(token) or real_require(chain, token))
        assert chain.simulate_bundle(chain.head(), calls, dict(funded)) == first
        assert hashed == [] and checked == []
        # an equal tuple that is another object is found by value
        again = tuple(calls)[:1] + tuple(sell)
        assert again is not calls
        assert chain.simulate_bundle(chain.head(), again, funded) == first
        assert len(hashed) == len(calls) and checked == [trap]

    def test_a_bad_override_raises_every_time(self):
        """An entry is filed only once its overrides passed, so a bundle
        with a bad override raises on each try, however often its calls
        ran with good ones."""
        chain, base, trap, pool, sell, funded = delayed_world()
        calls, head = tuple(sell), chain.head()
        good = chain.simulate_bundle(head, calls, {(trap, PROBE): 1})
        bad = [({(Address.derive("nope"), PROBE): 1}, UnknownToken),
               ({(trap, PROBE): -1}, AmountRangeError),
               ({(trap, PROBE): True}, TypeError),
               ({(trap, PROBE): 1.0}, TypeError)]
        for _ in range(2):
            for overrides, error in bad:
                with pytest.raises(error):
                    chain.simulate_bundle(head, calls, overrides)
        assert chain.simulate_bundle(head, calls, {(trap, PROBE): 1}) == good

    def test_registry_change_ends_reuse(self):
        chain, base, trap, pool, sell, funded = delayed_world()
        later_token = memo_token(chain._token_counter + 1)
        read = [BalanceOfCall(caller=ALICE, token=later_token, holder=ALICE)]
        early = 2  # in the closed stretch [1, 5): no later write ends it
        assert memo_free(chain, early, read)[0][1] == f"unknown token: {later_token}"
        assert outcomes_of(chain, early, read) == memo_free(chain, early, read)
        assert chain.deploy_token(Honest(), 10**24, OWNER) == later_token
        assert outcomes_of(chain, early, read) == [(CallStatus.SUCCESS, None, 0)]

    def test_threads_in_two_stretches_get_their_own_outcomes(self):
        chain, base, trap, pool, sell, funded = delayed_world()
        sell = [*sell, BalanceOfCall(caller=PROBE, token=base, holder=PROBE)]
        blocks = (4, 6)  # before and after the switch at block 5
        expected = {b: memo_free(chain, b, sell, funded) for b in blocks}
        assert expected[4] != expected[6]
        results = {b: [] for b in blocks}

        def worker(block):
            for _ in range(300):
                results[block].append(outcomes_of(chain, block, sell, funded))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(b,)) for b in blocks]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for b in blocks:
            assert len(results[b]) == 300
            assert all(got == expected[b] for got in results[b])


# A random public history interleaved with bundles at random sealed blocks.
# Bundles name tokens and pools by the chain's own counters, so a bundle can
# name one that a later op creates: token 1 is the base token, token k + 1
# the k-th trap, and pool k pairs the base token with trap k.
MEMO_KINDS = ("honest", "hidden", "limited", "drain", "allow", "deny",
              "at_block", "manual", "after_buyers")


def memo_behavior(kind, switch):
    return {
        "honest": Honest(Fraction(1, 10)),
        "hidden": HiddenTax(Fraction(1, 2)),
        "limited": LimitedSell(Fraction(1, 100)),
        "drain": OwnerDrain(OWNER, emits_event=False),
        "allow": ListGate(GateMode.ALLOW, frozenset({ALICE}), active_from=switch),
        "deny": ListGate(GateMode.DENY, frozenset({BOB}), active_from=switch),
        "at_block": DelayedSellTax(Fraction(9, 10), SwitchTrigger.at_block(switch)),
        "manual": DelayedSellTax(Fraction(9, 10)),
        "after_buyers": DelayedSellTax(Fraction(9, 10), SwitchTrigger.after_buyers(2)),
    }[kind]


def memo_token(k):
    return Address.derive(f"mock-token:{k}")


def memo_pool(k):
    return Address.derive(f"mock-pool:{k}")


MEMO_INDEX = st.integers(1, 3)
MEMO_AMOUNT = st.sampled_from((0, 10**4, 10**6, OVER_BALANCE))
MEMO_BACKS = st.lists(st.integers(0, 6), min_size=1, max_size=3)
MEMO_DEPLOY = st.tuples(st.just("deploy"), st.sampled_from(MEMO_KINDS), st.integers(-3, 4))
MEMO_CALL = st.tuples(
    st.sampled_from(("read", "buy", "sell")), st.sampled_from(BUNDLE_ACTORS),
    MEMO_INDEX, MEMO_AMOUNT, st.booleans(),  # swap: an unmeetable min_out
)
MEMO_WRITE = st.one_of(
    st.tuples(st.just("swap"), MEMO_INDEX, st.sampled_from((ALICE, BOB)), st.booleans(),
              MEMO_AMOUNT),
    st.tuples(st.just("transfer"), MEMO_INDEX, st.sampled_from((OWNER, ALICE, BOB)),
              st.sampled_from(BUNDLE_ACTORS), MEMO_AMOUNT),
    st.tuples(st.just("flip"), MEMO_INDEX),
    st.tuples(st.just("drain"), MEMO_INDEX, st.sampled_from(BUNDLE_ACTORS)),
    MEMO_DEPLOY,
    st.tuples(st.just("pool")),
)
# Public transactions are one op kind in six, so that quiet stretches,
# and bundles repeated across them, are common.
MEMO_OP = st.sampled_from((
    MEMO_WRITE,
    st.tuples(st.just("advance"), st.integers(1, 4)),
    # the simulator's bundle shapes, so that the same bundle recurs
    st.tuples(st.just("shape"), st.sampled_from(("read", "sell", "buy_sell", "held_sell")),
              MEMO_INDEX, MEMO_BACKS),
    st.tuples(st.just("calls"), st.lists(MEMO_CALL, min_size=1, max_size=3),
              st.booleans(), MEMO_BACKS),
    # the last bundle again, after the ops since: at its last block, or at others
    st.tuples(st.just("again")),
    st.tuples(st.just("again"), MEMO_BACKS),
)).flatmap(lambda kind: kind)


class MemoWorld:
    """A chain driven by `MEMO_OP`s; a bundle op returns the bundles it
    asks for, as (block, calls, overrides)."""

    def __init__(self):
        self.chain = MockChain()
        assert self.chain.deploy_token(Honest(), 10**24, OWNER) == memo_token(1)
        self.base = memo_token(1)
        self.tokens = 1
        self.pools = 0
        self.last = None  # the last bundle asked for, and its last block
        for who in (ALICE, BOB):
            assert self.chain.token_transfer(self.base, OWNER, who, 10**9).ok
        self.chain.advance_block()

    def swap(self, actor, k, buy, amount, min_out=0):
        token_in, token_out = (self.base, memo_token(k + 1))[::1 if buy else -1]
        return SwapExactInCall(caller=actor, pool=memo_pool(k), token_in=token_in,
                               token_out=token_out, amount_in=amount, recipient=actor,
                               min_out=min_out)

    def funded(self, k):
        """PROBE's overrides: the base token and trap k, if it exists yet."""
        overrides = {(self.base, PROBE): 10**8}
        if k < self.tokens:
            overrides[memo_token(k + 1), PROBE] = 10**6
        return overrides

    def apply(self, op):
        chain, kind = self.chain, op[0]
        if kind == "swap" and op[1] <= self.pools:
            _, k, actor, buy, amount = op
            chain.swap(memo_pool(k), actor, self.base if buy else memo_token(k + 1),
                       amount, actor)
        elif kind == "transfer" and op[1] <= self.tokens:
            chain.token_transfer(memo_token(op[1]), *op[2:])
        elif kind == "flip" and op[1] <= self.tokens:
            chain.flip_switch(memo_token(op[1]), OWNER)
        elif kind == "drain" and op[1] <= self.tokens:
            chain.owner_drain(memo_token(op[1]), op[2], OWNER)
        elif kind == "deploy":
            switch = max(0, chain.head() + op[2])
            self.tokens += 1
            token = chain.deploy_token(memo_behavior(op[1], switch), 10**24, OWNER)
            assert token == memo_token(self.tokens)
        elif kind == "pool" and self.pools + 1 < self.tokens:
            self.pools += 1
            pool = chain.create_pool(self.base, memo_token(self.pools + 1))
            assert pool == memo_pool(self.pools)
            assert chain.add_liquidity(pool, OWNER, 10**9, 10**9).ok
        elif kind == "advance":
            chain.advance_block(op[1])
        elif kind in ("shape", "calls") or (kind == "again" and self.last):
            if kind != "again":
                self.last = (*self.bundle(*op[1:-1]), None)
            calls, overrides, block = self.last
            blocks = [max(0, chain.head() - back) for back in op[-1]] if op[1:] else [block]
            self.last = (calls, overrides, blocks[-1])
            return [(b, calls, overrides) for b in blocks]
        return []

    def bundle(self, *spec):
        if spec[0] == "read":
            return [BalanceOfCall(caller=ALICE, token=memo_token(spec[1] + 1), holder=ALICE)], {}
        if spec[0] == "sell":
            return [self.swap(PROBE, spec[1], False, 10**5)], self.funded(spec[1])
        if spec[0] == "buy_sell":
            k = spec[1]
            calls = [self.swap(PROBE, k, True, 10**5),
                     BalanceOfCall(caller=PROBE, token=memo_token(k + 1), holder=PROBE),
                     self.swap(PROBE, k, False, 10**4)]
            return calls, {(self.base, PROBE): 10**8}
        if spec[0] == "held_sell":
            return [self.swap(BOB, spec[1], False, 10**4)], {}
        drawn, funding = spec
        calls = []
        for kind, actor, k, amount, flag in drawn:
            if kind == "read":
                calls.append(BalanceOfCall(caller=actor, token=memo_token(k), holder=actor))
            else:
                calls.append(self.swap(actor, k, kind == "buy", amount,
                                       UNMEETABLE if flag else 0))
        return calls, self.funded(drawn[0][2]) if funding else {}


# Each op sequence below makes a stale reuse visible: a sell before and
# after a switch block in one write-free stretch (tax, then gate), and a
# bundle naming a token or pool re-run at its closed stretch once that
# token or pool exists.
SEAL_A_WRITE = [("advance", 1), ("transfer", 1, OWNER, ALICE, 10**4), ("advance", 1)]


class TestBundleReuseDifferential:
    @example(traps=[(("deploy", "at_block", 3), True)],
             ops=[("advance", 4), ("shape", "sell", 1, [3, 0])])
    @example(traps=[(("deploy", "allow", 3), True)],
             ops=[("advance", 4), ("shape", "sell", 1, [3, 0])])
    @example(traps=[(("deploy", "honest", 0), True)],
             ops=[*SEAL_A_WRITE, ("shape", "read", 2, [1]), ("deploy", "honest", 0), ("again",)])
    @example(traps=[(("deploy", "honest", 0), False)],
             ops=[*SEAL_A_WRITE, ("shape", "sell", 1, [1]), ("pool",), ("again",)])
    @given(
        traps=st.lists(st.tuples(MEMO_DEPLOY, st.booleans()), min_size=1, max_size=3),
        ops=st.lists(MEMO_OP, min_size=1, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_reused_outcomes_equal_memo_free_runs(self, traps, ops):
        world = MemoWorld()
        for deploy, pooled in traps:  # a head start, so that most bundles can trade
            world.apply(deploy)
            if pooled:
                world.apply(("pool",))
        for op in ops:
            for block, calls, overrides in world.apply(op):
                assert outcomes_of(world.chain, block, calls, overrides) == memo_free(
                    world.chain, block, calls, overrides
                )


class TestAmountEntryChecks:
    """Amounts are range-checked where they enter the mock, at its public
    methods; the transfer path inside a transaction trusts them."""

    @pytest.mark.parametrize("amount", [-1, 2**256])
    def test_out_of_range_amount_raises_at_each_public_method(self, amount):
        chain, base, trap, pool, sell, funded = delayed_world()
        head = chain.head()
        entries = [
            lambda: chain.deploy_token(Honest(), amount, OWNER),
            lambda: chain.token_transfer(base, OWNER, ALICE, amount),
            lambda: chain.approve(trap, OWNER, ALICE, amount),
            lambda: chain.swap(pool, OWNER, base, amount, OWNER),
            lambda: chain.add_liquidity(pool, OWNER, amount, 1),
            lambda: chain.simulate_bundle(head, sell, {(trap, PROBE): amount}),
            lambda: chain.simulate_bundle(
                head, [SwapExactInCall(caller=PROBE, pool=pool, token_in=trap, token_out=base,
                                       amount_in=amount, recipient=PROBE)], funded),
        ]
        for enter in entries:
            with pytest.raises(AmountRangeError):
                enter()
