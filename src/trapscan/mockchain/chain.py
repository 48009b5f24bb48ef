"""In-memory deterministic blockchain with a constant-product AMM.

World state is one per-key history. A key is a balance `(token, holder)`
or a `(field, address)` pair such as a pool's reserves; it holds the
values it took and the blocks that wrote them. Transactions write at the
pending block (head + 1), a sealed read bisects the key's history, and
`advance_block` only moves the head, so sealing costs nothing and a
sealed block never changes. Every read is of sealed blocks: `get_window`
reads the record stores and the history over a sealed range and refuses
any other, so a record filed at the pending block shows in no read.

Every execution runs on an `_Overlay` that buffers its writes over a
read function. A public transaction gets its own overlay over the pending
block and queues its event records there; a revert drops the overlay, a
success commits its writes into the history and files its records. A
bundle runs all its calls on one overlay over a sealed block, its fork.
Before each call the fork's few writes are copied, and a revert restores
that copy, so a reverted call leaves the fork as it found it. A bundle
builds no event records at all: nothing reads them, and the fork is
dropped when the bundle ends. Every balance movement routes through the
token's behavior model, so the ledger of emitted events can diverge from
actual balances exactly the way scam tokens make it diverge.

A bundle's outcomes depend only on the sealed state at its block, the
token and pool registries, and how its block compares with the blocks at
which a behavior rule switches. So the chain keeps the sorted blocks at
which a quiet stretch starts: every block a write lands at, and every
switch block of every deployed token's rule. Within one stretch, an
identical bundle (same calls, same balance overrides) has identical
outcomes, and `simulate_bundles` reuses them. Invariant: a behavior rule
that reads the block number must register its switch blocks in
`deploy_token`, or that reuse is unsound. The registries are not kept by
block, so `deploy_token` and `create_pool` bump a version that ends every
stretch. The memo holds one stretch of one chain at a time, process-wide.
A scan hands a subject's call tuple back round after round while its
amounts hold, so the memo first looks for the very tuple that ran, by
identity, which hashes no call and checks no balance override again.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable

from ..chainview import (
    ApproveRecord,
    BalanceOfCall,
    BalanceOverrides,
    BlockOutOfRange,
    Call,
    CallOutcome,
    CallStatus,
    ChainView,
    EmptyBundle,
    LiquidityEvent,
    LiquidityKind,
    SwapExactInCall,
    SwapRecord,
    TransferRecord,
    UnknownPool,
    UnknownToken,
    Window,
    check_range,
)
from ..core import (
    Address,
    DexVersion,
    PoolInfo,
    TokenAmount,
    ZERO_ADDRESS,
    check_amount,
)
from ..simulator import estimate_output
from .behaviors import (
    DelayedSellTax,
    GateMode,
    HiddenTax,
    Honest,
    LimitedSell,
    ListGate,
    OwnerDrain,
    TokenBehavior,
    TransferContext,
    TriggerKind,
    apply_rate,
)

REASON_BALANCE = "ERC20: transfer amount exceeds balance"
REASON_BALANCE_LIMITED = "balanceNotEnough"
# Misleading strings lifted from deployed traps: reason text carries no signal.
REASON_GATE = "ERC20: transfer to the zero address"
REASON_DRAIN_AUTH = "ERC20: mint to the zero address"


class _Revert(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True, slots=True)
class _TokenMeta:
    behavior: TokenBehavior
    owner: Address


_UNSET = object()

# State keys hold the `Address` objects themselves: an address is a
# `bytes` that caches its hash, so hashing a key, which a read does once
# per layer (overlay, history), runs no Python code and allocates nothing.


def _bal(token: Address, holder: Address) -> tuple[Address, Address]:
    """State key of a token balance."""
    return token, holder


def _key(name: str, address: Address) -> tuple[str, Address]:
    """State key of any other per-address field, such as a pool's reserves."""
    return name, address


class _Overlay:
    """Writes at `block` over `read(key, default)`.

    Keys not written here fall through to `read`. A public transaction
    queues its event records in `records` until the owner files them; a
    bundle's fork has `records` None and queues nothing.
    """

    __slots__ = ("read", "writes", "block", "records")

    def __init__(
        self, read: Callable[[tuple, object], object], block: int,
        records: list[tuple[list, object]] | None = None,
    ) -> None:
        self.read = read
        self.writes: dict[tuple, object] = {}
        self.block = block
        self.records = records

    def get(self, key: tuple, default=0):
        value = self.writes.get(key, _UNSET)
        return self.read(key, default) if value is _UNSET else value

    def set(self, key: tuple, value) -> None:
        self.writes[key] = value


def _move(
    ov: _Overlay, token: Address, sender: Address, recipient: Address,
    debit: TokenAmount, credit: TokenAmount,
) -> None:
    ov.set(_bal(token, sender), ov.get(_bal(token, sender)) - debit)
    ov.set(_bal(token, recipient), ov.get(_bal(token, recipient)) + credit)


_block_of = attrgetter("block")


def _window(records: list, lo: int, hi: int) -> list:
    """The records of blocks lo..hi. A store's records are filed as their
    transactions commit, so they are in block order and the window is
    found by bisection, whatever the length of the history."""
    return records[
        bisect_left(records, lo, key=_block_of):bisect_right(records, hi, key=_block_of)
    ]


_chain_serials = itertools.count()

# Bundle outcomes of one quiet stretch: (scope, {(calls, overrides):
# outcomes}, {id(calls): (calls, overrides, outcomes)}), the second the
# same entries found by the identity of the call tuple that ran each. An
# equal tuple that is another object finds its entry by value and adds
# none, so the second holds no more entries than the first; an entry
# holds its tuple, so the id is not reused while it is filed. A move to
# another scope swaps the whole triple in one assignment, so a thread
# never reads entries of a scope it did not look up, and no chain or
# stretch keeps entries after another one is used.
_memo: tuple[tuple, dict, dict] = ((), {}, {})

# Enum members that per-bundle code compares or passes, as module names:
# on CPython 3.11 reading a member through its class takes about 15
# times as long as reading a global.
_SUCCESS, _REVERT = CallStatus.SUCCESS, CallStatus.REVERT
_POOL_IN, _POOL_OUT = TransferContext.POOL_IN, TransferContext.POOL_OUT


class MockChain(ChainView):
    """Deterministic single-writer chain; sealed blocks are safe to read
    concurrently, because a commit only adds history at the pending block."""

    def __init__(self) -> None:
        self._head = 0
        self._history: dict[tuple, tuple[list[int], list]] = {}
        self._tokens: dict[Address, _TokenMeta] = {}
        self._pools: dict[Address, PoolInfo] = {}
        self._pool_created: list[tuple[int, PoolInfo]] = []
        self._swaps: dict[Address, list[SwapRecord]] = {}
        self._liquidity: dict[Address, list[LiquidityEvent]] = {}
        self._transfers: dict[Address, list[TransferRecord]] = {}
        self._approvals: dict[Address, list[ApproveRecord]] = {}
        self._token_counter = 0
        self._pool_counter = 0
        self._serial = next(_chain_serials)
        self._version = 0  # bumped when a registry changes
        self._bounds: list[int] = []  # sorted blocks at which a quiet stretch starts

    # ------------------------------------------------------------------
    # block clock and state history

    def head(self) -> int:
        return self._head

    @property
    def pending_block(self) -> int:
        return self._head + 1

    def advance_block(self, n: int = 1) -> int:
        if n < 1:
            raise ValueError("advance_block needs n >= 1")
        self._head += n
        return self._head

    def _read_pending(self, key: tuple, default):
        entry = self._history.get(key)
        return entry[1][-1] if entry else default

    def _read_at(self, block: int, key: tuple, default):
        entry = self._history.get(key)
        if entry is None:
            return default
        i = bisect_right(entry[0], block)
        return entry[1][i - 1] if i else default

    def _add_bound(self, block: int) -> None:
        bounds = self._bounds
        i = bisect_left(bounds, block)
        if i == len(bounds) or bounds[i] != block:
            bounds.insert(i, block)

    def _write(self, key: tuple, value) -> None:
        block = self.pending_block
        self._add_bound(block)
        entry = self._history.get(key)
        if entry is None:
            self._history[key] = ([block], [value])
        elif entry[0][-1] == block:
            entry[1][-1] = value
        else:
            entry[0].append(block)
            entry[1].append(value)

    def _check_sealed(self, block: int) -> None:
        if block < 0 or block > self._head:
            raise BlockOutOfRange(f"block {block} not sealed (head={self._head})")

    # ------------------------------------------------------------------
    # registry

    def deploy_token(
        self, behavior: TokenBehavior, supply: TokenAmount, owner: Address
    ) -> Address:
        check_amount(supply, "supply")
        if supply == 0:
            raise ValueError("supply must be positive")
        self._token_counter += 1
        token = Address.derive(f"mock-token:{self._token_counter}")
        self._tokens[token] = _TokenMeta(behavior, owner)
        self._transfers[token] = []
        self._approvals[token] = []

        def run(ov):
            ov.set(_bal(token, owner), supply)
            self._log_transfer(ov, token, ZERO_ADDRESS, owner, supply, owner)

        self._run_tx(run)
        # The rule's switch block starts a stretch, even at or below the head.
        if isinstance(behavior, ListGate):
            self._add_bound(behavior.active_from)
        elif isinstance(behavior, DelayedSellTax) and behavior.trigger.kind is TriggerKind.AT_BLOCK:
            self._add_bound(behavior.trigger.value)
        self._version += 1
        return token

    def create_pool(
        self,
        token_x: Address,
        token_y: Address,
        fee_num: int = 3,
        fee_den: int = 1000,
    ) -> Address:
        self._require_token(token_x)
        self._require_token(token_y)
        self._pool_counter += 1
        pool = Address.derive(f"mock-pool:{self._pool_counter}")
        info = PoolInfo(
            pool=pool,
            token_x=token_x,
            token_y=token_y,
            dex_version=DexVersion.V2,
            fee_num=fee_num,
            fee_den=fee_den,
        )
        self._pools[pool] = info
        self._pool_created.append((self.pending_block, info))
        self._swaps[pool] = []
        self._liquidity[pool] = []
        self._write(_key("reserves", pool), (0, 0))
        self._version += 1
        return pool

    def _require_token(self, token: Address) -> _TokenMeta:
        meta = self._tokens.get(token)
        if meta is None:
            raise UnknownToken(f"unknown token: {token}")
        return meta

    def _require_pool(self, pool: Address) -> PoolInfo:
        info = self._pools.get(pool)
        if info is None:
            raise UnknownPool(f"unknown pool: {pool}")
        return info

    def token_behavior(self, token: Address) -> TokenBehavior:
        return self._require_token(token).behavior

    def switched_at(self, token: Address) -> int | None:
        """Block from which a delayed trap is active, if it ever switched."""
        beh = self._require_token(token).behavior
        flipped = self._read_pending(_key("switched", token), None)
        if (
            isinstance(beh, DelayedSellTax)
            and beh.trigger.kind is TriggerKind.AT_BLOCK
            and self._head >= beh.trigger.value
        ):
            return beh.trigger.value if flipped is None else min(flipped, beh.trigger.value)
        return flipped

    # ------------------------------------------------------------------
    # transfer engine

    def _transfer_allowed(self, ov: _Overlay, token: Address, sender: Address) -> None:
        meta = self._tokens[token]
        beh = meta.behavior
        if not isinstance(beh, ListGate):
            return
        if ov.block < ov.get(_key("active_from", token), beh.active_from):
            return
        if beh.mode is GateMode.DENY:
            if sender in beh.members:
                raise _Revert(REASON_GATE)
            return
        # Deployed allow-list traps also list their owner and every pair
        # contract of the token, so that buys keep working.
        pool = self._pools.get(sender)
        listed = (
            sender in beh.members
            or sender == meta.owner
            or (pool is not None and pool.has_token(token))
        )
        if not beh.global_open and not listed:
            raise _Revert(REASON_GATE)

    def _sell_tax_active(self, ov: _Overlay, token: Address) -> bool:
        beh = self._tokens[token].behavior
        if not isinstance(beh, DelayedSellTax):
            return False
        if beh.trigger.kind is TriggerKind.AT_BLOCK and ov.block >= beh.trigger.value:
            return True
        switched = ov.get(_key("switched", token), None)
        return switched is not None and switched <= ov.block

    def _log_transfer(
        self,
        ov: _Overlay,
        token: Address,
        sender: Address,
        recipient: Address,
        value: TokenAmount,
        tx_sender: Address,
    ) -> None:
        if ov.records is None:  # a bundle's fork files nothing
            return
        record = TransferRecord(
            token=token,
            block=ov.block,
            sender=sender,
            recipient=recipient,
            value=value,
            tx_sender=tx_sender,
        )
        ov.records.append((self._transfers[token], record))

    def _exec_transfer(
        self,
        ov: _Overlay,
        token: Address,
        sender: Address,
        recipient: Address,
        amount: TokenAmount,
        context: TransferContext,
        tx_sender: Address,
    ) -> TokenAmount:
        """Move balances per the token's behavior; returns the amount the
        recipient was actually credited. Raises _Revert. `amount` is not
        range-checked here: it comes from a balance read or from an entry
        point that checked it."""
        meta = self._tokens[token]
        beh = meta.behavior
        balance = ov.get(_bal(token, sender))
        if amount > balance:
            reason = REASON_BALANCE_LIMITED if isinstance(beh, LimitedSell) else REASON_BALANCE
            raise _Revert(reason)
        self._transfer_allowed(ov, token, sender)

        debit = amount
        credit = amount
        logged_value = amount

        if isinstance(beh, Honest):
            if beh.tax and sender != meta.owner and recipient != meta.owner:
                credit = amount - apply_rate(amount, beh.tax)
            logged_value = credit
        elif isinstance(beh, HiddenTax):
            if sender not in beh.exempt:
                credit = apply_rate(amount, beh.keep_fraction)
            logged_value = amount
        elif isinstance(beh, LimitedSell):
            if context is _POOL_IN and sender not in beh.fee_exempt:
                cap = apply_rate(balance, beh.max_sell_rate)
                moved = min(amount, cap)
                debit = credit = logged_value = moved
        elif isinstance(beh, DelayedSellTax):
            if context is _POOL_IN and self._sell_tax_active(ov, token):
                credit = amount - apply_rate(amount, beh.final_sell_tax)
                logged_value = credit
        # OwnerDrain and ListGate (past the gate) move honestly.

        _move(ov, token, sender, recipient, debit, credit)
        self._log_transfer(ov, token, sender, recipient, logged_value, tx_sender)
        return credit

    def _exec_swap(
        self,
        ov: _Overlay,
        pool: Address,
        trader: Address,
        token_in: Address,
        amount_in: TokenAmount,
        recipient: Address,
    ) -> TokenAmount:
        info = self._pools.get(pool)
        if info is None:
            raise _Revert(f"unknown pool: {pool}")
        if not info.has_token(token_in):
            raise _Revert(f"{token_in} is not a pool token")
        if amount_in == 0:
            raise _Revert("swap: zero input")
        token_out = info.other_token(token_in)
        rx, ry = ov.get(_key("reserves", pool), (0, 0))
        reserve_in, reserve_out = (rx, ry) if token_in == info.token_x else (ry, rx)
        if reserve_in == 0 or reserve_out == 0:
            raise _Revert("swap: no liquidity")

        delivered_in = self._exec_transfer(
            ov, token_in, trader, pool, amount_in, _POOL_IN, trader
        )
        if delivered_in > 0:
            amount_out = estimate_output(
                reserve_in, reserve_out, delivered_in, info.fee_num, info.fee_den
            )
        else:
            amount_out = 0
        reserve_in += delivered_in
        reserve_out -= amount_out
        ov.set(
            _key("reserves", pool),
            (reserve_in, reserve_out) if token_in == info.token_x else (reserve_out, reserve_in),
        )
        self._exec_transfer(
            ov, token_out, pool, recipient, amount_out, _POOL_OUT, trader
        )
        self._track_buyer(ov, token_out, recipient)
        if ov.records is None:
            return amount_out
        record = SwapRecord(
            block=ov.block,
            sender=trader,
            token_in=token_in,
            amount_in=delivered_in,
            token_out=token_out,
            amount_out=amount_out,
            recipient=recipient,
        )
        ov.records.append((self._swaps[pool], record))
        return amount_out

    def _track_buyer(self, ov: _Overlay, token: Address, buyer: Address) -> None:
        """Count distinct buyers of an after-buyers token until it switches."""
        beh = self._tokens[token].behavior
        if not (
            isinstance(beh, DelayedSellTax)
            and beh.trigger.kind is TriggerKind.AFTER_BUYERS
            and ov.get(_key("switched", token), None) is None
        ):
            return
        seen = ov.get(_key("buyers", token), frozenset()) | {buyer}
        ov.set(_key("buyers", token), seen)
        if len(seen) >= beh.trigger.value:
            ov.set(_key("switched", token), ov.block)

    # ------------------------------------------------------------------
    # public transactions (pending block)

    def _run_tx(self, fn) -> CallOutcome:
        """Run `fn(overlay)` as the next transaction of the pending block;
        only a success reaches the history and the record stores."""
        ov = _Overlay(self._read_pending, self.pending_block, [])
        try:
            value = fn(ov)
        except _Revert as exc:
            return CallOutcome(status=CallStatus.REVERT, revert_reason=exc.reason)
        for key, written in ov.writes.items():
            self._write(key, written)
        for store, record in ov.records:
            store.append(record)
        return CallOutcome(status=CallStatus.SUCCESS, return_value=value)

    def token_transfer(
        self,
        token: Address,
        sender: Address,
        recipient: Address,
        amount: TokenAmount,
        context: TransferContext = TransferContext.PLAIN,
    ) -> CallOutcome:
        self._require_token(token)
        check_amount(amount, "amount")

        def run(ov):
            return self._exec_transfer(ov, token, sender, recipient, amount, context, sender)

        return self._run_tx(run)

    def approve(
        self, token: Address, approver: Address, spender: Address, amount: TokenAmount
    ) -> CallOutcome:
        self._require_token(token)
        check_amount(amount, "amount")

        def run(ov):
            record = ApproveRecord(
                token=token, block=ov.block, approver=approver, spender=spender, value=amount
            )
            ov.records.append((self._approvals[token], record))

        return self._run_tx(run)

    def owner_drain(self, token: Address, victim: Address, caller: Address) -> CallOutcome:
        beh = self._require_token(token).behavior

        def run(ov):
            if not isinstance(beh, OwnerDrain):
                raise _Revert("drain not supported")
            if caller != beh.owner:
                raise _Revert(REASON_DRAIN_AUTH)
            amount = ov.get(_bal(token, victim))
            if amount:
                ov.set(_bal(token, victim), 0)
                if beh.emits_event:  # a silent drain leaves no record at all
                    self._log_transfer(ov, token, victim, ZERO_ADDRESS, amount, caller)
            return amount

        return self._run_tx(run)

    def flip_switch(self, token: Address, caller: Address) -> CallOutcome:
        meta = self._require_token(token)
        beh = meta.behavior

        def run(ov):
            if caller != meta.owner:
                raise _Revert("caller is not the owner")
            if not isinstance(beh, (DelayedSellTax, ListGate)):
                raise _Revert("behavior has no switch")
            if isinstance(beh, ListGate):
                current = ov.get(_key("active_from", token), beh.active_from)
                ov.set(_key("active_from", token), min(current, ov.block))
            if ov.get(_key("switched", token), None) is None:
                ov.set(_key("switched", token), ov.block)

        return self._run_tx(run)

    def swap(
        self,
        pool: Address,
        trader: Address,
        token_in: Address,
        amount_in: TokenAmount,
        recipient: Address,
    ) -> CallOutcome:
        self._require_pool(pool)
        check_amount(amount_in, "amount_in")

        def run(ov):
            return self._exec_swap(ov, pool, trader, token_in, amount_in, recipient)

        return self._run_tx(run)

    def add_liquidity(
        self, pool: Address, provider: Address, x: TokenAmount, y: TokenAmount
    ) -> CallOutcome:
        info = self._require_pool(pool)
        check_amount(x, "x")
        check_amount(y, "y")

        def run(ov):
            if x == 0 and y == 0:
                raise _Revert("nothing to deposit")
            short_x = ov.get(_bal(info.token_x, provider)) < x
            if short_x or ov.get(_bal(info.token_y, provider)) < y:
                raise _Revert(REASON_BALANCE)
            for token, amount in ((info.token_x, x), (info.token_y, y)):
                if amount:
                    _move(ov, token, provider, pool, amount, amount)
                    self._log_transfer(ov, token, provider, pool, amount, provider)
            rx, ry = ov.get(_key("reserves", pool), (0, 0))
            ov.set(_key("reserves", pool), (rx + x, ry + y))
            ov.set(_key("provider", pool), provider)
            event = LiquidityEvent(pool=pool, block=ov.block, kind=LiquidityKind.ADD,
                                   amount_x=x, amount_y=y, provider=provider)
            ov.records.append((self._liquidity[pool], event))

        return self._run_tx(run)

    def remove_liquidity(self, pool: Address, provider: Address) -> CallOutcome:
        info = self._require_pool(pool)

        def run(ov):
            if ov.get(_key("provider", pool), None) != provider:
                raise _Revert("not the liquidity provider")
            rx, ry = ov.get(_key("reserves", pool), (0, 0))
            if rx == 0 and ry == 0:
                raise _Revert("pool is empty")
            for token, amount in ((info.token_x, rx), (info.token_y, ry)):
                if amount:
                    moved = min(amount, ov.get(_bal(token, pool)))
                    _move(ov, token, pool, provider, moved, moved)
                    self._log_transfer(ov, token, pool, provider, moved, provider)
            ov.set(_key("reserves", pool), (0, 0))
            ov.set(_key("provider", pool), None)
            event = LiquidityEvent(pool=pool, block=ov.block, kind=LiquidityKind.REMOVE,
                                   amount_x=rx, amount_y=ry, provider=provider)
            ov.records.append((self._liquidity[pool], event))

        return self._run_tx(run)

    # ------------------------------------------------------------------
    # ChainView queries (sealed state only)

    def get_pool_created(self, block_range: tuple[int, int]) -> list[PoolInfo]:
        lo, hi = check_range(block_range)
        return [info for blk, info in self._pool_created if lo <= blk <= hi]

    def get_liquidity_events(
        self, pool: Address, block_range: tuple[int, int]
    ) -> list[LiquidityEvent]:
        lo, hi = check_range(block_range)
        self._require_pool(pool)
        return _window(self._liquidity[pool], lo, hi)

    def balances_at(
        self, reads: Sequence[tuple[Address, Address, int]]
    ) -> list[TokenAmount | None]:
        for _, _, block in reads:
            self._check_sealed(block)
        # A read of an unknown token reverts, as a bundle's BalanceOfCall does.
        return [self._read_at(block, _bal(token, holder), 0) if token in self._tokens else None
                for token, holder, block in reads]

    def get_window(
        self,
        pools: Sequence[PoolInfo],
        tokens: Sequence[Address],
        block_range: tuple[int, int],
    ) -> Window:
        """The window of a sealed range (else BlockOutOfRange). An unknown
        pool or token fails its own answers, and a pool created after the
        range's last block has no reserves there."""
        lo, hi = check_range(block_range)
        self._check_sealed(hi)
        answers: dict[tuple[str, Address], object] = {}
        for info in pools:
            pool = info.pool
            if pool not in self._pools:
                answers["swaps", pool] = answers["reserves", pool] = UnknownPool(
                    f"unknown pool: {pool}")
                continue
            answers["swaps", pool] = _window(self._swaps[pool], lo, hi)
            answers["reserves", pool] = self._read_at(hi, _key("reserves", pool), None) or (
                UnknownPool(f"pool {pool} does not exist at block {hi}"))
        for token in tokens:
            if token not in self._tokens:
                answers["transfers", token] = answers["approvals", token] = UnknownToken(
                    f"unknown token: {token}")
                continue
            answers["transfers", token] = _window(self._transfers[token], lo, hi)
            answers["approvals", token] = _window(self._approvals[token], lo, hi)
        return Window(answers)

    def pool_infos(self, pools: Sequence[Address]) -> list[PoolInfo | UnknownPool]:
        return [self._pools.get(pool) or UnknownPool(f"unknown pool: {pool}") for pool in pools]

    # ------------------------------------------------------------------
    # simulation

    def simulate_bundles(
        self,
        block: int,
        items: Sequence[tuple[Sequence[Call], BalanceOverrides | None]],
    ) -> list[list[CallOutcome] | Exception]:
        """Each bundle's outcomes, from the memo of the block's quiet
        stretch, whose scope is worked out once for the whole batch."""
        global _memo
        self._check_sealed(block)
        bounds = self._bounds
        i = bisect_right(bounds, block)
        scope = (
            self._serial, self._version,
            bounds[i - 1] if i else None, bounds[i] if i < len(bounds) else None,
        )
        memo_scope, entries, seen = _memo
        if memo_scope != scope:
            entries, seen = {}, {}
            _memo = (scope, entries, seen)
        results: list[list[CallOutcome] | Exception] = []
        for calls, balance_overrides in items:
            try:
                results.append(self._run_bundle(block, calls, balance_overrides, entries, seen))
            except Exception as exc:  # the bundle's own failure, not the batch's
                results.append(exc.with_traceback(None))
        return results

    def _run_bundle(
        self, block: int, calls: Sequence[Call], balance_overrides: BalanceOverrides | None,
        entries: dict, seen: dict,
    ) -> list[CallOutcome]:
        """One bundle's outcomes, from the memo (see `_memo`) or run on a
        fork and filed there. A call tuple that ran in the stretch is
        found by identity, and its overrides are not checked again: they
        passed before the entry was filed. An amount that is not an int,
        such as True, can equal a checked one, so it is checked first."""
        if not calls:
            raise EmptyBundle("bundle must contain at least one call")
        calls = calls if type(calls) is tuple else tuple(calls)
        overrides: tuple = ()
        if balance_overrides:
            overrides = tuple(balance_overrides.items())
            for amount in balance_overrides.values():
                if type(amount) is not int:
                    check_amount(amount)
        # Comparing the overrides compares their keys and amounts by
        # identity first, so a hit here hashes nothing.
        hit = seen.get(id(calls))
        if hit is not None and hit[1] == overrides:
            return list(hit[2])
        for (token, _), amount in overrides:
            self._require_token(token)
            check_amount(amount)
        # One lookup finds the bundle's outcomes by value, or files an empty
        # entry to fill in: hashing the calls is the dearest part of a
        # miss. Another thread that finds the entry still empty simulates
        # the bundle too, and fills in the same outcomes.
        filed = entries.setdefault((calls, overrides), [])
        if filed:
            return list(filed)

        fork = _Overlay(partial(self._read_at, block), block)
        for (token, holder), amount in overrides:
            fork.set(_bal(token, holder), amount)
        outcomes: list[CallOutcome] = []
        for call in calls:
            # A reverted call's writes are rolled back; a read writes nothing.
            undo = None if type(call) is BalanceOfCall else fork.writes.copy()
            try:
                value = self._exec_call(call, fork)
            except _Revert as exc:
                if undo is not None:
                    fork.writes = undo
                outcomes.append(CallOutcome(_REVERT, exc.reason))
            else:
                outcomes.append(CallOutcome(_SUCCESS, None, value))
        filed[:] = outcomes
        seen[id(calls)] = (calls, overrides, filed)
        return outcomes

    def _exec_call(self, call: Call, ov: _Overlay) -> TokenAmount | None:
        """Run a bundle call on the fork: a balance read gives the balance,
        and a swap no value, only that it went through (see `CallOutcome`)."""
        if isinstance(call, BalanceOfCall):
            if call.token not in self._tokens:
                raise _Revert(f"unknown token: {call.token}")
            return ov.get(_bal(call.token, call.holder))
        if isinstance(call, SwapExactInCall):
            check_amount(call.amount_in, "amount_in")
            out = self._exec_swap(
                ov, call.pool, call.caller, call.token_in, call.amount_in, call.recipient
            )
            if out < call.min_out:
                raise _Revert("swap: insufficient output")
            return None
        raise _Revert(f"unsupported call: {call!r}")
