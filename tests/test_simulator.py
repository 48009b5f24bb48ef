from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_simple
from trapscan.analyzer import check_invalid_sell
from trapscan.chainview import BalanceOfCall, CallOutcome, CallStatus, SwapExactInCall
from trapscan.core import Address
from trapscan.mockchain import GateMode, Honest, ListGate, MockChain
from trapscan.simulator import (
    BundleKind,
    NoLiquidity,
    ProbeFailed,
    ZeroBalance,
    build_buy_probe,
    build_buy_sell_bundle,
    build_sell_bundle,
    estimate_output,
    run,
)

OWNER = Address.derive("owner")


class TestEstimateOutput:
    def test_reference_value(self):
        # floor(99,700,000 / 1,099,700)
        assert estimate_output(1000, 1000, 100, 3, 1000) == 90

    def test_dust_input_floors_to_zero(self):
        assert estimate_output(10**9, 10**9, 1, 3, 1000) == 0

    def test_symmetry(self):
        for amount in (1, 7, 1000, 12345):
            fwd = estimate_output(10**6, 10**6, amount)
            rev = estimate_output(10**6, 10**6, amount)
            assert fwd == rev

    def test_zero_reserves_rejected(self):
        with pytest.raises(NoLiquidity):
            estimate_output(0, 1000, 10)
        with pytest.raises(NoLiquidity):
            estimate_output(1000, 0, 10)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_output(1000, 1000, 0)

    @given(
        r_in=st.integers(10**3, 10**24),
        r_out=st.integers(10**3, 10**24),
        amount=st.integers(1, 10**20),
    )
    @settings(max_examples=300)
    def test_output_bounded_and_k_preserved(self, r_in, r_out, amount):
        out = estimate_output(r_in, r_out, amount)
        assert 0 <= out < r_out
        assert (r_in + amount) * (r_out - out) >= r_in * r_out

    @given(
        r_in=st.integers(10**3, 10**18),
        r_out=st.integers(10**3, 10**18),
        a=st.integers(1, 10**12),
        b=st.integers(1, 10**12),
    )
    @settings(max_examples=200)
    def test_monotone_in_amount(self, r_in, r_out, a, b):
        lo, hi = sorted((a, b))
        assert estimate_output(r_in, r_out, lo) <= estimate_output(r_in, r_out, hi)


@pytest.fixture
def honest_world():
    trace = run_simple(Honest(Fraction(0)))
    return trace


def reserves_at(trace, block):
    """The pool's reserves at `block`, as the monitor reads them."""
    return trace.chain.get_reserves(trace.pool.pool, block)


def swap_of_interest(bundle):
    """The swap in the middle of the bundle's last three calls, after
    checking that both ends read the actor's balance of its output token."""
    pre, swap, post = bundle.calls[-3:]
    assert isinstance(swap, SwapExactInCall)
    actor = bundle.actor
    assert pre == post == BalanceOfCall(caller=actor, token=swap.token_out, holder=actor)
    assert swap.caller == swap.recipient == actor and swap.pool == bundle.pool.pool
    return swap


class TestBundleTemplates:
    def test_sell_bundle_shape(self, honest_world):
        t = honest_world
        victim = t.actors.victims[0]
        head = t.chain.head()
        held = t.chain.balance_of(t.trap_token, victim, head)
        bundle = build_sell_bundle(reserves_at(t, head), victim, t.pool, t.trap_token, held, head)
        assert bundle.kind is BundleKind.SELL and len(bundle.calls) == 3
        assert bundle.actor == victim
        sell = swap_of_interest(bundle)
        assert sell.token_in == t.trap_token and sell.token_out == t.base_token
        assert sell.amount_in == held > 0 and sell.min_out == 0

    def test_buy_probe_shape(self, honest_world):
        t = honest_world
        probe = Address.derive("probe")
        bundle = build_buy_probe(
            reserves_at(t, t.chain.head()), probe, t.pool, t.trap_token, 1000, t.chain.head()
        )
        assert bundle.kind is BundleKind.BUY_PROBE and len(bundle.calls) == 3
        assert bundle.actor == probe
        buy = swap_of_interest(bundle)
        assert buy.token_in == t.base_token and buy.token_out == t.trap_token
        assert buy.amount_in == 1000

    def test_buy_sell_shape_and_sizing(self, honest_world):
        t = honest_world
        probe = Address.derive("probe")
        head = t.chain.head()
        overrides = {(t.base_token, probe): 10**12}
        probe_bundle = build_buy_probe(
            reserves_at(t, head), probe, t.pool, t.trap_token, 10**5, head
        )
        probe_result = run(t.chain, probe_bundle, overrides)
        rt = build_buy_sell_bundle(
            reserves_at(t, head), probe, t.pool, t.trap_token, 10**5, probe_result, head
        )
        assert rt.kind is BundleKind.BUY_SELL and len(rt.calls) == 4
        buy = rt.calls[0]
        assert isinstance(buy, SwapExactInCall) and buy.token_in == t.base_token
        assert buy.token_out == t.trap_token and buy.amount_in == 10**5
        sell = swap_of_interest(rt)
        assert sell.token_in == t.trap_token and sell.token_out == t.base_token
        assert sell.amount_in == probe_result.balance_delta

    def test_zero_balance_rejected(self, honest_world):
        t = honest_world
        stranger = Address.derive("stranger")
        head = t.chain.head()
        held = t.chain.balance_of(t.trap_token, stranger, head)
        assert held == 0
        with pytest.raises(ZeroBalance):
            build_sell_bundle(reserves_at(t, head), stranger, t.pool, t.trap_token, held, head)

    # A failed read is None and the pipeline skips that sell before any
    # bundle is built, so only the emptied, unfailed read reaches the builder.
    @pytest.mark.parametrize("failed", [False])
    def test_empty_or_failed_snapshot_rejected(self, honest_world, failed):
        t = honest_world
        victim = t.actors.victims[0]
        head = t.chain.head()
        assert t.chain.balance_of(t.trap_token, victim, head) > 0
        with pytest.raises(ZeroBalance):
            build_sell_bundle(reserves_at(t, head), victim, t.pool, t.trap_token, 0, head)

    def test_drained_pool_rejected(self, honest_world):
        t = honest_world
        t.chain.remove_liquidity(t.pool.pool, t.actors.creator)
        t.chain.advance_block()
        victim = t.actors.victims[0]
        head = t.chain.head()
        held = t.chain.balance_of(t.trap_token, victim, head)
        with pytest.raises(NoLiquidity):
            build_sell_bundle(reserves_at(t, head), victim, t.pool, t.trap_token, held, head)

    @pytest.mark.parametrize("reserves", [(0, 10**9), (10**9, 0), (0, 0)])
    def test_empty_reserve_rejected_by_every_builder(self, honest_world, reserves):
        t = honest_world
        victim, probe = t.actors.victims[0], Address.derive("probe")
        head = t.chain.head()
        held = t.chain.balance_of(t.trap_token, victim, head)
        overrides = {(t.base_token, probe): 10**12}
        probe_result = run(
            t.chain,
            build_buy_probe(reserves_at(t, head), probe, t.pool, t.trap_token, 10**5, head),
            overrides,
        )
        with pytest.raises(NoLiquidity):
            build_sell_bundle(reserves, victim, t.pool, t.trap_token, held, head)
        with pytest.raises(NoLiquidity):
            build_buy_probe(reserves, probe, t.pool, t.trap_token, 10**5, head)
        with pytest.raises(NoLiquidity):
            build_buy_sell_bundle(
                reserves, probe, t.pool, t.trap_token, 10**5, probe_result, head
            )

    def test_failed_probe_blocks_roundtrip(self):
        trace = run_simple(Honest(Fraction(1)))  # 100% buy tax delivers nothing
        probe = Address.derive("probe")
        head = trace.chain.head()
        overrides = {(trace.base_token, probe): 10**12}
        probe_bundle = build_buy_probe(reserves_at(trace, head), probe, trace.pool,
                                       trace.trap_token, 10**5, head)
        result = run(trace.chain, probe_bundle, overrides)
        assert result.balance_delta == 0
        with pytest.raises(ProbeFailed):
            build_buy_sell_bundle(reserves_at(trace, head), probe, trace.pool, trace.trap_token,
                                  10**5, result, head)


class TestRun:
    def test_honest_sell_matches_estimate(self, honest_world):
        t = honest_world
        victim = t.actors.victims[0]
        head = t.chain.head()
        held = t.chain.balance_of(t.trap_token, victim, head)
        bundle = build_sell_bundle(reserves_at(t, head), victim, t.pool, t.trap_token, held, head)
        result = run(t.chain, bundle)
        assert not result.sell_reverted
        assert result.balance_delta == result.estimate > 0

    def test_priced_from_the_bundles_reserves(self, honest_world, monkeypatch):
        t = honest_world
        victim = t.actors.victims[0]
        head = t.chain.head()
        held = t.chain.balance_of(t.trap_token, victim, head)
        rx, ry = reserves_at(t, head)
        bundle = build_sell_bundle((rx, ry), victim, t.pool, t.trap_token, held, head)

        def no_reads(*args):
            raise AssertionError("run read the reserves from the chain")

        monkeypatch.setattr(t.chain, "get_reserves", no_reads)
        trap_in = (ry, rx) if t.trap_token == t.pool.token_y else (rx, ry)
        assert run(t.chain, bundle).estimate == estimate_output(*trap_in, held)
        halved = replace(bundle, reserves=(rx // 2, ry // 2))
        half_in = (trap_in[0] // 2, trap_in[1] // 2)
        assert run(t.chain, halved).estimate == estimate_output(*half_in, held)

    def test_swap_outcome_is_the_swap_of_interest(self, honest_world):
        t = honest_world
        probe = Address.derive("probe")
        head = t.chain.head()
        overrides = {(t.base_token, probe): 10**12}
        reserves = reserves_at(t, head)
        probe_result = run(
            t.chain,
            build_buy_probe(reserves, probe, t.pool, t.trap_token, 10**5, head),
            overrides,
        )
        rt_result = run(
            t.chain,
            build_buy_sell_bundle(
                reserves, probe, t.pool, t.trap_token, 10**5, probe_result, head
            ),
            overrides,
        )
        for result, token_in in ((probe_result, t.base_token), (rt_result, t.trap_token)):
            pos = next(i for i, o in enumerate(result.outcomes) if o is result.swap_outcome)
            swap = result.bundle.calls[pos]
            assert isinstance(swap, SwapExactInCall) and swap.token_in == token_in
            assert result.swap_outcome.ok

    def test_reverted_balance_read_is_unread(self, honest_world, monkeypatch):
        """A balance read that reverts gives None, and only that read: a
        sell or round trip with one unread edge has no balance change and
        no delivery finding, and an unread probe sizes no round trip."""
        t = honest_world
        victim, probe = t.actors.victims[0], Address.derive("probe")
        head = t.chain.head()
        reserves = reserves_at(t, head)
        held = t.chain.balance_of(t.trap_token, victim, head)
        sell = build_sell_bundle(reserves, victim, t.pool, t.trap_token, held, head)
        overrides = {(t.base_token, probe): 10**12}
        probe_bundle = build_buy_probe(reserves, probe, t.pool, t.trap_token, 10**5, head)
        probe_result = run(t.chain, probe_bundle, overrides)
        roundtrip = build_buy_sell_bundle(
            reserves, probe, t.pool, t.trap_token, 10**5, probe_result, head
        )
        revert = CallOutcome(status=CallStatus.REVERT, revert_reason="read failed")
        ok = CallOutcome(status=CallStatus.SUCCESS, return_value=50)
        answers = {
            sell.calls: [ok, ok, revert],
            roundtrip.calls: [ok, revert, ok, ok],
            probe_bundle.calls: [revert, ok, ok],
        }
        monkeypatch.setattr(t.chain, "simulate_bundles",
                            lambda block, items: [answers[calls] for calls, _ in items])

        result = run(t.chain, sell)
        assert (result.pre_balance, result.post_balance) == (50, None)
        assert result.balance_delta is None and not result.sell_reverted
        assert result.estimate > 0
        assert check_invalid_sell(result, Fraction(1, 2)) is None
        rt_result = run(t.chain, roundtrip, overrides)
        assert (rt_result.pre_balance, rt_result.post_balance) == (None, 50)
        assert rt_result.balance_delta is None
        assert check_invalid_sell(rt_result, Fraction(1, 2)) is None
        unread_probe = run(t.chain, probe_bundle, overrides)
        assert unread_probe.balance_delta is None and not unread_probe.swap_outcome.reverted
        with pytest.raises(ProbeFailed, match="unread"):
            build_buy_sell_bundle(
                reserves, probe, t.pool, t.trap_token, 10**5, unread_probe, head
            )

    def test_gated_seller_reverts_cleanly(self):
        trace = run_simple(ListGate(mode=GateMode.ALLOW, members=frozenset()))
        victim = trace.actors.victims[0]
        head = trace.chain.head()
        held = trace.chain.balance_of(trace.trap_token, victim, head)
        bundle = build_sell_bundle(reserves_at(trace, head), victim, trace.pool,
                                   trace.trap_token, held, head)
        result = run(trace.chain, bundle)
        assert result.sell_reverted
        assert result.balance_delta == 0

    def test_simulation_purity(self, honest_world):
        t = honest_world
        head = t.chain.head()
        victim = t.actors.victims[0]
        held = t.chain.balance_of(t.trap_token, victim, head)
        snapshot = (
            t.chain.get_reserves(t.pool.pool, head),
            len(t.chain.get_swaps(t.pool.pool, (0, head))),
            len(t.chain.get_transfers(t.trap_token, (0, head))),
        )
        bundle = build_sell_bundle(reserves_at(t, head), victim, t.pool, t.trap_token, held, head)
        for _ in range(3):
            run(t.chain, bundle)
        assert snapshot == (
            t.chain.get_reserves(t.pool.pool, head),
            len(t.chain.get_swaps(t.pool.pool, (0, head))),
            len(t.chain.get_transfers(t.trap_token, (0, head))),
        )

    def test_estimator_matches_swap_accounting(self):
        """The local estimator and the chain's swap accounting agree
        exactly for honest tokens, across random reserves and sizes."""
        import random

        rng = random.Random(7)
        chain = MockChain()
        base = chain.deploy_token(Honest(Fraction(0)), 2**255, OWNER)
        trap = chain.deploy_token(Honest(Fraction(0)), 2**255, OWNER)
        for _ in range(100):
            rx = rng.randint(10**3, 10**18)
            ry = rng.randint(10**3, 10**18)
            pool = chain.create_pool(base, trap)
            assert chain.add_liquidity(pool, OWNER, rx, ry).ok
            chain.advance_block()
            amount = rng.randint(1, rx // 2)
            expected = estimate_output(rx, ry, amount, 3, 1000)
            out = chain.swap(pool, OWNER, base, amount, OWNER)
            chain.advance_block()
            if expected == 0:
                continue  # dust trade; accounting also rounds to nothing
            assert out.ok and out.return_value == expected
