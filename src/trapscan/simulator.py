"""Swap-output estimation and transaction-bundle construction.

Three bundle shapes probe a pool without publishing anything:

  Sell      [balance_of(X, buyer), sell Y, balance_of(X, buyer)]
  BuyProbe  [balance_of(Y, account), buy Y, balance_of(Y, account)]
  BuySell   [buy Y, balance_of(X, account), sell Y, balance_of(X, account)]

X is the pool's base token, Y the trap-token side being examined. Every
shape ends in the swap of interest between two reads of the actor's
balance of its output token, whose change the analyzer compares against
the estimator's prediction. Builders take the pool's reserves at the
bundle's block, as the monitor read them, and the bundle carries them to
`run_many`, which prices the swap from them: building and pricing a bundle
read nothing from the chain.

`run_many` hands each bundle's call tuple to the backend as it is,
through one `simulate_bundles` call for several bundles of one block,
which the RPC backend sends as one POST. It asks for the quotes of every
bundle that ran through one `quotes_exact_in` call, which costs the RPC
backend one more POST only when a V3 pool takes part, and packages the
evidence as plain values: the two balance reads, the third-last and
last outcomes (None where a read reverted), and the estimate. `run` is
`run_many` of one bundle, so a lone bundle is estimated and packaged the
same way. A cohort's rounds run every pool's sells and buy probe through
one `run_many`, and every round trip, sized from its probe's result,
through one more, however few pools or bundles take part. The mock
chain answers most of them from its memo, so the packaging builds no
per-result snapshot or block object.

A scan builds the same calls round after round: a buyer's sell is of
its whole balance, which seldom moves, and the probe spends a fixed
share of a reserve. So each builder takes `previous`, the last bundle
it built for the same subject, and reuses its call tuple when it holds
exactly the calls the builder would make: the same actor, pool, token
pair and swap amount, checked field by field, and for a round trip the
same lead buy. A round trip whose buy amount held but whose sell did
not still reuses its buy call. Every bundle is new, with its own block
and reserves, and is simulated in its own round.
A reused tuple is the same object, so the mock chain's memo finds it by
identity, hashing no call, and the RPC backend's template memo finds it
in one dict read that compares no call, the key being the same object;
its calls' hashes were computed when they were built. A scan also passes
each builder `base_token`, the orientation its `PoolWatch` holds, so no
builder re-derives it from the pool (see `pool_sides`).

Most of a scan's rounds also repeat their subjects' answers, so
`run_many` takes each item's settled result, or None: the last result
of the item's subject, which the pipeline judged and which judging
again would not change (see `pipeline.StandingResult`). An item whose
bundle has the settled result's call tuple, as the same object, and
whose backend answer repeats it (equal outcomes, and no quote with
equal reserves, or a quote equal to its estimate) gets that very result
back, neither packaged nor estimated. The pipeline does not judge it
again, so its evidence stays that of its own round: a result is never
judged at a block other than its own. Any other answer is packaged
into a new result.

`Bundle` and `SimulationResult`, like the calls and outcomes they hold,
are built once and never mutated, but are not frozen: building the
records is most of a bundle's cost when the mock answers it from its
memo, and a frozen slots dataclass pays 0.9-1.4 us per record for
setting its fields through `object.__setattr__`, against 0.3-0.6 us for
a plain one (CPython 3.11). `build_sell_bundle` takes about 2.4 us when
it builds its calls and 1.2 us when it reuses those of `previous`.
Nothing hashes a bundle or a result. The write-once test in
`tests/test_records.py` enforces that none is assigned to after
construction; see the `chainview` module docstring.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .chainview import (
    BalanceOfCall,
    BalanceOverrides,
    Call,
    CallOutcome,
    ChainView,
    SwapExactInCall,
)
from .core import Address, DexVersion, PoolInfo, TokenAmount, check_amount


class SimulatorError(Exception):
    pass


class NoLiquidity(SimulatorError):
    pass


class ZeroBalance(SimulatorError):
    pass


class ProbeFailed(SimulatorError):
    """The buy probe reverted or delivered nothing, so no sell leg can be
    built from it. This is itself buy-side trap evidence."""


def estimate_output(
    reserve_in: TokenAmount,
    reserve_out: TokenAmount,
    amount_in: TokenAmount,
    fee_num: int = 3,
    fee_den: int = 1000,
) -> TokenAmount:
    """Constant-product swap output after the pool fee, floored.

    output = amount_in * (fee_den - fee_num) * reserve_out
             // (reserve_in * fee_den + amount_in * (fee_den - fee_num))

    The amounts are not range-checked here: each comes from a chain read
    or from an entry point that checked it.
    """
    if reserve_in == 0 or reserve_out == 0:
        raise NoLiquidity("estimate_output: empty reserve")
    if amount_in == 0:
        raise ValueError("estimate_output: zero input")
    if not (0 <= fee_num < fee_den):
        raise ValueError("fee must satisfy 0 <= fee_num < fee_den")
    net_in = amount_in * (fee_den - fee_num)
    return (net_in * reserve_out) // (reserve_in * fee_den + net_in)


class BundleKind(Enum):
    SELL = "sell"
    BUY_PROBE = "buy_probe"
    BUY_SELL = "buy_sell"


# Enum members that per-bundle code compares or passes, as module names:
# on CPython 3.11 reading a member through its class takes about 15
# times as long as reading a global.
_SELL, _BUY_PROBE, _BUY_SELL = BundleKind.SELL, BundleKind.BUY_PROBE, BundleKind.BUY_SELL
_V2 = DexVersion.V2


@dataclass(slots=True)
class Bundle:
    """Calls to simulate at `block`, ending in read, swap, read (see the
    module docstring): `calls[-2]` is the swap of interest. Built once
    and never mutated."""

    kind: BundleKind
    actor: Address
    pool: PoolInfo
    calls: tuple[Call, ...]
    block: int
    reserves: tuple[TokenAmount, TokenAmount]  # pool's (token_x, token_y) at `block`


@dataclass(slots=True)
class SimulationResult:
    """A bundle's outcomes and the evidence read from them.

    `pre_balance` and `post_balance` are the actor's balance as read just
    before and just after the swap of interest, or None where that read
    reverted. `estimate` is the swap's expected output. Built once and
    never mutated.
    """

    bundle: Bundle
    outcomes: tuple[CallOutcome, ...]
    pre_balance: TokenAmount | None
    post_balance: TokenAmount | None
    estimate: TokenAmount

    @property
    def balance_delta(self) -> int | None:
        """post - pre around the swap of interest, or None if either read
        reverted; negative only if the bundle somehow cost the actor
        balance."""
        if self.pre_balance is None or self.post_balance is None:
            return None
        return self.post_balance - self.pre_balance

    @property
    def swap_outcome(self) -> CallOutcome:
        """Outcome of the swap of interest: the buy of a probe, the sell
        of any other bundle."""
        return self.outcomes[-2]

    @property
    def sell_reverted(self) -> bool:
        return self.bundle.kind is not _BUY_PROBE and self.swap_outcome.reverted


def _require_liquidity(
    reserves: tuple[TokenAmount, TokenAmount], pool: PoolInfo, block: int
) -> None:
    if 0 in reserves:
        raise NoLiquidity(f"pool {pool.pool} has no liquidity at block {block}")


def pool_sides(pool: PoolInfo, trap_token: Address) -> tuple[Address, Address]:
    """(trap_token, base_token) orientation for a pool. A builder whose
    caller passes `base_token`, the orientation it holds, as a scan's
    `PoolWatch` does, takes it as it is instead."""
    if not pool.has_token(trap_token):
        raise ValueError(f"{trap_token} is not a token of pool {pool.pool}")
    return trap_token, pool.other_token(trap_token)


def _holds(
    swap: SwapExactInCall, actor: Address, pool: PoolInfo, token_in: Address,
    token_out: Address, amount: TokenAmount,
) -> bool:
    """Whether `swap` is the swap a builder would make of these values."""
    return (
        swap.amount_in == amount and swap.caller == actor and swap.pool == pool.pool
        and swap.token_in == token_in and swap.token_out == token_out
    )


def _bundle(
    kind: BundleKind, reserves: tuple[TokenAmount, TokenAmount], actor: Address,
    pool: PoolInfo, block: int, token_in: Address, token_out: Address,
    amount: TokenAmount, previous: Bundle | None, lead: tuple[Call, ...] = (),
) -> Bundle:
    """The one bundle layout: `lead`, then a swap of `amount` of
    `token_in` for `token_out` between two reads of the actor's
    `token_out` balance. The calls of `previous`, a bundle of this layout,
    are reused when they are the ones this would build."""
    if previous is not None:
        calls = previous.calls
        if calls[:-3] == lead and _holds(calls[-2], actor, pool, token_in, token_out, amount):
            return Bundle(kind, actor, pool, calls, block, reserves)
    read = BalanceOfCall(caller=actor, token=token_out, holder=actor)
    swap = SwapExactInCall(
        caller=actor, pool=pool.pool, token_in=token_in, token_out=token_out,
        amount_in=amount, recipient=actor,
    )
    return Bundle(kind, actor, pool, (*lead, read, swap, read), block, reserves)


def build_sell_bundle(
    reserves: tuple[TokenAmount, TokenAmount],
    buyer: Address,
    pool: PoolInfo,
    trap_token: Address,
    amount: TokenAmount,
    block: int,
    previous: Bundle | None = None,
    *,
    base_token: Address | None = None,
) -> Bundle:
    """Sell bundle for a tracked buyer: can they cash out what they hold?

    The sell is of `amount`, the buyer's trap-token balance at `block` as
    the monitor read it at the round's block, and is priced from
    `reserves`, the pool's reserves at `block`, so building the bundle
    reads nothing from the chain. An amount of 0 raises ZeroBalance, and
    an empty reserve NoLiquidity. `previous` is the last sell built for
    this buyer, if any (see the module docstring).
    """
    trap, base = pool_sides(pool, trap_token) if base_token is None else (trap_token, base_token)
    _require_liquidity(reserves, pool, block)
    if amount == 0:
        raise ZeroBalance(f"buyer {buyer} holds nothing to sell at block {block}")
    return _bundle(_SELL, reserves, buyer, pool, block, trap, base, amount, previous)


def build_buy_probe(
    reserves: tuple[TokenAmount, TokenAmount],
    account: Address,
    pool: PoolInfo,
    trap_token: Address,
    buy_amount: TokenAmount,
    block: int,
    previous: Bundle | None = None,
    *,
    base_token: Address | None = None,
) -> Bundle:
    """Buy probe with a funded synthetic account: does buying deliver?

    `reserves` are the pool's reserves at `block`; an empty one raises
    NoLiquidity. `previous` is the last probe built for this account, if
    any (see the module docstring).
    """
    trap, base = pool_sides(pool, trap_token) if base_token is None else (trap_token, base_token)
    _require_liquidity(reserves, pool, block)
    check_amount(buy_amount, "buy_amount")
    if buy_amount == 0:
        raise ValueError("buy_amount must be positive")
    return _bundle(_BUY_PROBE, reserves, account, pool, block, base, trap, buy_amount, previous)


def build_buy_sell_bundle(
    reserves: tuple[TokenAmount, TokenAmount],
    account: Address,
    pool: PoolInfo,
    trap_token: Address,
    buy_amount: TokenAmount,
    probe_result: SimulationResult,
    block: int,
    previous: Bundle | None = None,
    *,
    base_token: Address | None = None,
) -> Bundle:
    """Buy-then-sell round trip; the sell amount is exactly what the probe
    observed arriving, not what any log claimed, so a probe whose balance
    read reverted raises ProbeFailed. `reserves` are the pool's reserves
    at `block`; an empty one raises NoLiquidity. `previous` is the last
    round trip built for this account, if any, whose buy is reused when
    its amount holds, even if the sell's does not (see the module
    docstring)."""
    trap, base = pool_sides(pool, trap_token) if base_token is None else (trap_token, base_token)
    if probe_result.bundle.kind is not _BUY_PROBE:
        raise ProbeFailed("need a buy-probe result to size the sell")
    if probe_result.swap_outcome.reverted:
        raise ProbeFailed("buy probe reverted")
    received = probe_result.balance_delta
    if received is None:
        raise ProbeFailed("buy probe balance unread")
    if received <= 0:
        raise ProbeFailed("buy probe delivered nothing")
    _require_liquidity(reserves, pool, block)
    if previous is not None and _holds(previous.calls[0], account, pool, base, trap, buy_amount):
        buy = previous.calls[0]
    else:
        buy = SwapExactInCall(
            caller=account, pool=pool.pool, token_in=base, token_out=trap,
            amount_in=buy_amount, recipient=account,
        )
    return _bundle(
        _BUY_SELL, reserves, account, pool, block, trap, base, received, previous, lead=(buy,)
    )


def _estimate_for(bundle: Bundle, quoted: TokenAmount | None) -> TokenAmount:
    """Expected output of the bundle's swap of interest under its block
    state: `quoted`, the backend's own quote (live V3-style pools), if it
    gave one, else the local constant-product formula's output from the
    reserves the bundle carries.
    """
    if quoted is not None:
        return quoted
    swap = bundle.calls[-2]
    pool = bundle.pool
    rx, ry = bundle.reserves
    reserve_in, reserve_out = (rx, ry) if swap.token_in == pool.token_x else (ry, rx)
    return estimate_output(reserve_in, reserve_out, swap.amount_in, pool.fee_num, pool.fee_den)


def run(
    chain: ChainView,
    bundle: Bundle,
    balance_overrides: BalanceOverrides | None = None,
) -> SimulationResult:
    """`run_many` of one bundle: execute it on a private fork and package
    the evidence. A failed simulation is raised."""
    [result] = run_many(chain, [(bundle, balance_overrides)])
    if isinstance(result, Exception):
        raise result
    return result


def run_many(
    chain: ChainView,
    items: Sequence[tuple[Bundle, BalanceOverrides | None]],
    settled: Sequence[SimulationResult | None] | None = None,
) -> list[SimulationResult | Exception]:
    """Each `(bundle, balance_overrides)` run on its own fork, in order,
    through one `simulate_bundles` call at the first bundle's block (the
    bundles must all be of that block, as a round's are), and packaged
    with its estimate: the backend's quote if it gives one, asked for
    every bundle that ran through one `quotes_exact_in` call, else the
    constant-product output from the bundle's reserves. A bundle whose
    simulation failed gets the backend's exception in place of its result.

    `settled` holds, per item, the settled result of its subject, or
    None (see the module docstring). An item whose bundle repeats its
    settled result gets that very result back, unpackaged (`_repeats`)."""
    if not items:
        return []
    block = items[0][0].block
    answers = chain.simulate_bundles(
        block, [(bundle.calls, overrides) for bundle, overrides in items]
    )
    swaps = []
    for (bundle, _), outcomes in zip(items, answers):
        if not isinstance(outcomes, Exception):
            swap = bundle.calls[-2]
            swaps.append((bundle.pool, swap.token_in, swap.amount_in))
    quotes = iter(chain.quotes_exact_in(swaps, block))
    results: list[SimulationResult | Exception] = []
    for (bundle, _), outcomes, was in zip(items, answers, settled or repeat(None)):
        if isinstance(outcomes, Exception):
            results.append(outcomes)
            continue
        quoted = next(quotes)
        if was is not None and _repeats(bundle, outcomes, quoted, was):
            results.append(was)
        else:
            results.append(_package(bundle, outcomes, _estimate_for(bundle, quoted)))
    return results


def _repeats(
    bundle: Bundle, outcomes: Sequence[CallOutcome], quoted: TokenAmount | None,
    was: SimulationResult,
) -> bool:
    """Whether `bundle`, answered with `outcomes` and `quoted`, would be
    packaged into a result that `was` stands for: the same call tuple, as
    the same object, equal outcomes and the same estimate. A quote is
    compared with `was`'s estimate. Without one, equal reserves give the
    formula's estimate again, which is `was`'s unless `was` was quoted;
    only a V3 pool is ever quoted (see `ChainView.quotes_exact_in`), so
    for one the formula's output is worked out and compared."""
    old = was.bundle
    if bundle.calls is not old.calls or was.outcomes != tuple(outcomes):
        return False
    if quoted is not None:
        return quoted == was.estimate
    return bundle.reserves == old.reserves and (
        bundle.pool.dex_version is _V2 or _estimate_for(bundle, None) == was.estimate
    )


def _package(
    bundle: Bundle, outcomes: Sequence[CallOutcome], estimate: TokenAmount
) -> SimulationResult:
    """The result of a bundle's outcomes: the balance reads bracketing the
    swap of interest are the third-last and last calls of every bundle."""
    outcomes = tuple(outcomes)
    pre, post = _read_value(outcomes[-3]), _read_value(outcomes[-1])
    return SimulationResult(bundle, outcomes, pre, post, estimate)


def _read_value(outcome: CallOutcome) -> TokenAmount | None:
    """A balance read's value, or None if it reverted."""
    return outcome.return_value if outcome.ok else None
