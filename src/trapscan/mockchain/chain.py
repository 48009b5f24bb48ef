"""In-memory deterministic blockchain with a constant-product AMM.

Transactions execute against a pending block (head + 1); `advance_block`
seals the pending state, making it immutable and addressable by height.
Every balance movement routes through the token's behavior model, so the
ledger of emitted events can diverge from actual balances exactly the way
scam tokens make it diverge. Sealed states also back `simulate_bundle`,
which runs call bundles on a private fork without touching public state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..chainview import (
    ApproveRecord,
    BalanceOfCall,
    BalanceSnapshot,
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
    check_range,
)
from ..core import (
    Address,
    BlockIndex,
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


@dataclass
class _ChainState:
    """Mutable world state; sealed blocks hold immutable copies."""

    balances: dict[Address, dict[Address, int]] = field(default_factory=dict)
    reserves: dict[Address, tuple[int, int]] = field(default_factory=dict)
    gate_members: dict[Address, set[Address]] = field(default_factory=dict)
    gate_active_from: dict[Address, int] = field(default_factory=dict)
    switched_at: dict[Address, int | None] = field(default_factory=dict)
    buyers_seen: dict[Address, set[Address]] = field(default_factory=dict)
    pool_provider: dict[Address, Address | None] = field(default_factory=dict)

    def copy(self) -> "_ChainState":
        return _ChainState(
            balances={t: dict(h) for t, h in self.balances.items()},
            reserves=dict(self.reserves),
            gate_members={t: set(m) for t, m in self.gate_members.items()},
            gate_active_from=dict(self.gate_active_from),
            switched_at=dict(self.switched_at),
            buyers_seen={t: set(b) for t, b in self.buyers_seen.items()},
            pool_provider=dict(self.pool_provider),
        )

    def balance(self, token: Address, holder: Address) -> int:
        return self.balances.get(token, {}).get(holder, 0)

    def set_balance(self, token: Address, holder: Address, value: int) -> None:
        self.balances.setdefault(token, {})[holder] = value


@dataclass(frozen=True, slots=True)
class _TokenMeta:
    behavior: TokenBehavior
    owner: Address
    supply: TokenAmount


class _Sink:
    """Collects records emitted by executing transactions."""

    def __init__(self) -> None:
        self.transfers: list[TransferRecord] = []
        self.swaps: list[tuple[Address, SwapRecord]] = []

    def emitted(self) -> tuple[TransferRecord | SwapRecord, ...]:
        return tuple(self.transfers) + tuple(rec for _, rec in self.swaps)


def _tx_hash(block: int, index: int) -> bytes:
    return hashlib.sha256(f"mocktx:{block}:{index}".encode()).digest()


class MockChain(ChainView):
    """Deterministic single-writer chain; sealed blocks are safe to read
    concurrently."""

    def __init__(self) -> None:
        self._head = 0
        self._state = _ChainState()
        self._sealed: dict[int, _ChainState] = {0: self._state.copy()}
        self._tokens: dict[Address, _TokenMeta] = {}
        self._pools: dict[Address, PoolInfo] = {}
        self._pool_created: list[tuple[int, PoolInfo]] = []
        self._swaps: dict[Address, list[SwapRecord]] = {}
        self._liquidity: dict[Address, list[LiquidityEvent]] = {}
        self._transfers: dict[Address, list[TransferRecord]] = {}
        self._approvals: dict[Address, list[ApproveRecord]] = {}
        self._pending_tx = 0
        self._token_counter = 0
        self._pool_counter = 0

    # ------------------------------------------------------------------
    # block clock

    def head(self) -> int:
        return self._head

    @property
    def pending_block(self) -> int:
        return self._head + 1

    def advance_block(self, n: int = 1) -> int:
        if n < 1:
            raise ValueError("advance_block needs n >= 1")
        for _ in range(n):
            self._auto_switch_at_block(self.pending_block)
            self._head += 1
            self._sealed[self._head] = self._state.copy()
            self._pending_tx = 0
        return self._head

    def _auto_switch_at_block(self, block: int) -> None:
        for token, meta in self._tokens.items():
            beh = meta.behavior
            if (
                isinstance(beh, DelayedSellTax)
                and beh.trigger.kind is TriggerKind.AT_BLOCK
                and block >= beh.trigger.value
                and self._state.switched_at.get(token) is None
            ):
                self._state.switched_at[token] = beh.trigger.value

    def _next_tx(self) -> BlockIndex:
        idx = BlockIndex(self.pending_block, self._pending_tx)
        self._pending_tx += 1
        return idx

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
        self._tokens[token] = _TokenMeta(behavior, owner, supply)
        self._transfers[token] = []
        self._approvals[token] = []
        self._state.set_balance(token, owner, supply)
        self._state.switched_at[token] = None
        self._state.buyers_seen[token] = set()
        if isinstance(behavior, ListGate):
            members = set(behavior.members)
            if behavior.mode is GateMode.ALLOW:
                members.add(owner)
            self._state.gate_members[token] = members
            self._state.gate_active_from[token] = behavior.active_from
        tx = self._next_tx()
        self._transfers[token].append(
            TransferRecord(
                token=token,
                block=tx,
                sender=ZERO_ADDRESS,
                recipient=owner,
                value=supply,
                logged=True,
                tx_sender=owner,
            )
        )
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
        self._state.reserves[pool] = (0, 0)
        self._state.pool_provider[pool] = None
        # Deployed allow-list traps whitelist the pair contract so that buys
        # keep working; mirror that here.
        for token in (token_x, token_y):
            beh = self._tokens[token].behavior
            if isinstance(beh, ListGate) and beh.mode is GateMode.ALLOW:
                self._state.gate_members[token].add(pool)
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
        self._require_token(token)
        return self._state.switched_at.get(token)

    # ------------------------------------------------------------------
    # transfer engine

    def _transfer_allowed(
        self, state: _ChainState, token: Address, sender: Address, block: int
    ) -> None:
        beh = self._tokens[token].behavior
        if not isinstance(beh, ListGate):
            return
        if block < state.gate_active_from.get(token, beh.active_from):
            return
        members = state.gate_members.get(token, set(beh.members))
        if beh.mode is GateMode.ALLOW:
            if not beh.global_open and sender not in members:
                raise _Revert(REASON_GATE)
        else:
            if sender in members:
                raise _Revert(REASON_GATE)

    def _sell_tax_active(self, state: _ChainState, token: Address, block: int) -> bool:
        beh = self._tokens[token].behavior
        if not isinstance(beh, DelayedSellTax):
            return False
        if beh.trigger.kind is TriggerKind.AT_BLOCK and block >= beh.trigger.value:
            return True
        switched = state.switched_at.get(token)
        return switched is not None and switched <= block

    def _exec_transfer(
        self,
        state: _ChainState,
        sink: _Sink,
        token: Address,
        sender: Address,
        recipient: Address,
        amount: TokenAmount,
        context: TransferContext,
        tx: BlockIndex,
        tx_sender: Address,
    ) -> TokenAmount:
        """Move balances per the token's behavior; returns the amount the
        recipient was actually credited. Raises _Revert; never mutates on
        failure (callers checkpoint state)."""
        check_amount(amount, "amount")
        meta = self._tokens[token]
        beh = meta.behavior
        balance = state.balance(token, sender)
        if amount > balance:
            reason = REASON_BALANCE_LIMITED if isinstance(beh, LimitedSell) else REASON_BALANCE
            raise _Revert(reason)
        self._transfer_allowed(state, token, sender, tx.number)

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
            if context is TransferContext.POOL_IN and sender not in beh.fee_exempt:
                cap = apply_rate(balance, beh.max_sell_rate)
                moved = min(amount, cap)
                debit = credit = logged_value = moved
        elif isinstance(beh, DelayedSellTax):
            if context is TransferContext.POOL_IN and self._sell_tax_active(
                state, token, tx.number
            ):
                credit = amount - apply_rate(amount, beh.final_sell_tax)
                logged_value = credit
        # OwnerDrain and ListGate (past the gate) move honestly.

        state.set_balance(token, sender, balance - debit)
        state.set_balance(token, recipient, state.balance(token, recipient) + credit)
        sink.transfers.append(
            TransferRecord(
                token=token,
                block=tx,
                sender=sender,
                recipient=recipient,
                value=logged_value,
                logged=True,
                tx_sender=tx_sender,
            )
        )
        return credit

    def _exec_swap(
        self,
        state: _ChainState,
        sink: _Sink,
        pool: Address,
        trader: Address,
        token_in: Address,
        amount_in: TokenAmount,
        recipient: Address,
        tx: BlockIndex,
    ) -> TokenAmount:
        info = self._pools.get(pool)
        if info is None:
            raise _Revert(f"unknown pool: {pool}")
        if not info.has_token(token_in):
            raise _Revert(f"{token_in} is not a pool token")
        if amount_in == 0:
            raise _Revert("swap: zero input")
        token_out = info.other_token(token_in)
        rx, ry = state.reserves[pool]
        reserve_in, reserve_out = (rx, ry) if token_in == info.token_x else (ry, rx)
        if reserve_in == 0 or reserve_out == 0:
            raise _Revert("swap: no liquidity")

        delivered_in = self._exec_transfer(
            state, sink, token_in, trader, pool, amount_in, TransferContext.POOL_IN, tx, trader
        )
        if delivered_in > 0:
            amount_out = estimate_output(
                reserve_in, reserve_out, delivered_in, info.fee_num, info.fee_den
            )
        else:
            amount_out = 0
        reserve_in += delivered_in
        reserve_out -= amount_out
        state.reserves[pool] = (
            (reserve_in, reserve_out) if token_in == info.token_x else (reserve_out, reserve_in)
        )
        self._exec_transfer(
            state, sink, token_out, pool, recipient, amount_out, TransferContext.POOL_OUT, tx, trader
        )
        self._track_buyer(state, token_out, recipient, tx.number)
        sink.swaps.append(
            (
                pool,
                SwapRecord(
                    tx_hash=_tx_hash(tx.number, tx.tx_index or 0),
                    block=tx,
                    sender=trader,
                    token_in=token_in,
                    amount_in=delivered_in,
                    token_out=token_out,
                    amount_out=amount_out,
                    recipient=recipient,
                ),
            )
        )
        return amount_out

    def _track_buyer(
        self, state: _ChainState, token: Address, buyer: Address, block: int
    ) -> None:
        meta = self._tokens.get(token)
        if meta is None:
            return
        seen = state.buyers_seen.setdefault(token, set())
        seen.add(buyer)
        beh = meta.behavior
        if (
            isinstance(beh, DelayedSellTax)
            and beh.trigger.kind is TriggerKind.AFTER_BUYERS
            and len(seen) >= beh.trigger.value
            and state.switched_at.get(token) is None
        ):
            state.switched_at[token] = block

    # ------------------------------------------------------------------
    # public transactions (pending block)

    def _run_tx(self, fn) -> CallOutcome:
        tx = self._next_tx()
        sink = _Sink()
        backup = self._state.copy()
        try:
            value = fn(self._state, sink, tx)
        except _Revert as exc:
            self._state = backup
            return CallOutcome(status=CallStatus.REVERT, revert_reason=exc.reason)
        for rec in sink.transfers:
            self._transfers.setdefault(rec.token, []).append(rec)
        for pool, rec in sink.swaps:
            self._swaps.setdefault(pool, []).append(rec)
        return CallOutcome(
            status=CallStatus.SUCCESS, return_value=value, emitted=sink.emitted()
        )

    def token_transfer(
        self,
        token: Address,
        sender: Address,
        recipient: Address,
        amount: TokenAmount,
        context: TransferContext = TransferContext.PLAIN,
    ) -> CallOutcome:
        self._require_token(token)

        def run(state, sink, tx):
            return self._exec_transfer(
                state, sink, token, sender, recipient, amount, context, tx, sender
            )

        return self._run_tx(run)

    def approve(
        self, token: Address, approver: Address, spender: Address, amount: TokenAmount
    ) -> CallOutcome:
        self._require_token(token)
        check_amount(amount, "amount")
        tx = self._next_tx()
        self._approvals.setdefault(token, []).append(
            ApproveRecord(token=token, block=tx, approver=approver, spender=spender, value=amount)
        )
        return CallOutcome(status=CallStatus.SUCCESS)

    def owner_drain(self, token: Address, victim: Address, caller: Address) -> CallOutcome:
        meta = self._require_token(token)
        beh = meta.behavior
        tx = self._next_tx()
        if not isinstance(beh, OwnerDrain):
            return CallOutcome(status=CallStatus.REVERT, revert_reason="drain not supported")
        if caller != beh.owner:
            return CallOutcome(status=CallStatus.REVERT, revert_reason=REASON_DRAIN_AUTH)
        amount = self._state.balance(token, victim)
        if amount == 0:
            return CallOutcome(status=CallStatus.SUCCESS, return_value=0)
        self._state.set_balance(token, victim, 0)
        record = TransferRecord(
            token=token,
            block=tx,
            sender=victim,
            recipient=ZERO_ADDRESS,
            value=amount,
            logged=beh.emits_event,
            tx_sender=caller,
        )
        self._transfers.setdefault(token, []).append(record)
        emitted = (record,) if beh.emits_event else ()
        return CallOutcome(status=CallStatus.SUCCESS, return_value=amount, emitted=emitted)

    def flip_switch(self, token: Address, caller: Address) -> CallOutcome:
        meta = self._require_token(token)
        beh = meta.behavior
        self._next_tx()
        if caller != meta.owner:
            return CallOutcome(status=CallStatus.REVERT, revert_reason="caller is not the owner")
        if isinstance(beh, DelayedSellTax):
            if self._state.switched_at.get(token) is None:
                self._state.switched_at[token] = self.pending_block
            return CallOutcome(status=CallStatus.SUCCESS)
        if isinstance(beh, ListGate):
            current = self._state.gate_active_from.get(token, beh.active_from)
            self._state.gate_active_from[token] = min(current, self.pending_block)
            if self._state.switched_at.get(token) is None:
                self._state.switched_at[token] = self.pending_block
            return CallOutcome(status=CallStatus.SUCCESS)
        return CallOutcome(status=CallStatus.REVERT, revert_reason="behavior has no switch")

    def swap(
        self,
        pool: Address,
        trader: Address,
        token_in: Address,
        amount_in: TokenAmount,
        recipient: Address,
    ) -> CallOutcome:
        self._require_pool(pool)

        def run(state, sink, tx):
            return self._exec_swap(state, sink, pool, trader, token_in, amount_in, recipient, tx)

        return self._run_tx(run)

    def add_liquidity(
        self, pool: Address, provider: Address, x: TokenAmount, y: TokenAmount
    ) -> CallOutcome:
        info = self._require_pool(pool)
        check_amount(x, "x")
        check_amount(y, "y")
        tx = self._next_tx()
        if x == 0 and y == 0:
            return CallOutcome(status=CallStatus.REVERT, revert_reason="nothing to deposit")
        state = self._state
        if state.balance(info.token_x, provider) < x or state.balance(info.token_y, provider) < y:
            return CallOutcome(status=CallStatus.REVERT, revert_reason=REASON_BALANCE)
        records = []
        for token, amount in ((info.token_x, x), (info.token_y, y)):
            if amount == 0:
                continue
            state.set_balance(token, provider, state.balance(token, provider) - amount)
            state.set_balance(token, pool, state.balance(token, pool) + amount)
            rec = TransferRecord(
                token=token, block=tx, sender=provider, recipient=pool,
                value=amount, logged=True, tx_sender=provider,
            )
            self._transfers.setdefault(token, []).append(rec)
            records.append(rec)
        rx, ry = state.reserves[pool]
        state.reserves[pool] = (rx + x, ry + y)
        state.pool_provider[pool] = provider
        self._liquidity[pool].append(
            LiquidityEvent(pool=pool, block=tx, kind=LiquidityKind.ADD,
                           amount_x=x, amount_y=y, provider=provider)
        )
        return CallOutcome(status=CallStatus.SUCCESS, emitted=tuple(records))

    def remove_liquidity(self, pool: Address, provider: Address) -> CallOutcome:
        info = self._require_pool(pool)
        tx = self._next_tx()
        state = self._state
        if state.pool_provider.get(pool) != provider:
            return CallOutcome(status=CallStatus.REVERT, revert_reason="not the liquidity provider")
        rx, ry = state.reserves[pool]
        if rx == 0 and ry == 0:
            return CallOutcome(status=CallStatus.REVERT, revert_reason="pool is empty")
        records = []
        for token, amount in ((info.token_x, rx), (info.token_y, ry)):
            if amount == 0:
                continue
            moved = min(amount, state.balance(token, pool))
            state.set_balance(token, pool, state.balance(token, pool) - moved)
            state.set_balance(token, provider, state.balance(token, provider) + moved)
            rec = TransferRecord(
                token=token, block=tx, sender=pool, recipient=provider,
                value=moved, logged=True, tx_sender=provider,
            )
            self._transfers.setdefault(token, []).append(rec)
            records.append(rec)
        state.reserves[pool] = (0, 0)
        state.pool_provider[pool] = None
        self._liquidity[pool].append(
            LiquidityEvent(pool=pool, block=tx, kind=LiquidityKind.REMOVE,
                           amount_x=rx, amount_y=ry, provider=provider)
        )
        return CallOutcome(status=CallStatus.SUCCESS, emitted=tuple(records))

    # ------------------------------------------------------------------
    # ChainView queries (sealed state only)

    def _sealed_state(self, block: int) -> _ChainState:
        if block < 0 or block > self._head:
            raise BlockOutOfRange(f"block {block} not sealed (head={self._head})")
        return self._sealed[block]

    def get_pool_created(self, block_range: tuple[int, int]) -> list[PoolInfo]:
        lo, hi = check_range(block_range)
        return [info for blk, info in self._pool_created if lo <= blk <= hi]

    def get_swaps(self, pool: Address, block_range: tuple[int, int]) -> list[SwapRecord]:
        lo, hi = check_range(block_range)
        self._require_pool(pool)
        return [r for r in self._swaps[pool] if lo <= r.block.number <= hi]

    def get_liquidity_events(
        self, pool: Address, block_range: tuple[int, int]
    ) -> list[LiquidityEvent]:
        lo, hi = check_range(block_range)
        self._require_pool(pool)
        return [r for r in self._liquidity[pool] if lo <= r.block.number <= hi]

    def get_transfers(self, token: Address, block_range: tuple[int, int]) -> list[TransferRecord]:
        lo, hi = check_range(block_range)
        self._require_token(token)
        return [r for r in self._transfers[token] if r.logged and lo <= r.block.number <= hi]

    def get_approvals(self, token: Address, block_range: tuple[int, int]) -> list[ApproveRecord]:
        lo, hi = check_range(block_range)
        self._require_token(token)
        return [r for r in self._approvals[token] if lo <= r.block.number <= hi]

    def balance_of(self, token: Address, holder: Address, block: int) -> BalanceSnapshot:
        self._require_token(token)
        state = self._sealed_state(block)
        return BalanceSnapshot(
            token=token, holder=holder, block=BlockIndex(block),
            balance=state.balance(token, holder),
        )

    def get_reserves(self, pool: Address, block: int) -> tuple[TokenAmount, TokenAmount]:
        self._require_pool(pool)
        state = self._sealed_state(block)
        if pool not in state.reserves:
            raise UnknownPool(f"pool {pool} does not exist at block {block}")
        return state.reserves[pool]

    def pool_info(self, pool: Address) -> PoolInfo:
        return self._require_pool(pool)

    # ------------------------------------------------------------------
    # simulation

    def simulate_bundle(
        self,
        block: int,
        calls: list[Call],
        balance_overrides: dict[tuple[Address, Address], TokenAmount] | None = None,
    ) -> list[CallOutcome]:
        if not calls:
            raise EmptyBundle("bundle must contain at least one call")
        fork = self._sealed_state(block).copy()
        if balance_overrides:
            for (token, holder), amount in balance_overrides.items():
                self._require_token(token)
                fork.set_balance(token, holder, check_amount(amount))
        outcomes: list[CallOutcome] = []
        for i, call in enumerate(calls):
            tx = BlockIndex(block, i)
            sink = _Sink()
            backup = fork.copy()
            try:
                value = self._exec_call(fork, sink, call, tx)
            except _Revert as exc:
                fork = backup
                outcomes.append(CallOutcome(status=CallStatus.REVERT, revert_reason=exc.reason))
                continue
            outcomes.append(
                CallOutcome(status=CallStatus.SUCCESS, return_value=value, emitted=sink.emitted())
            )
        return outcomes

    def _exec_call(
        self, state: _ChainState, sink: _Sink, call: Call, tx: BlockIndex
    ) -> TokenAmount | None:
        if isinstance(call, BalanceOfCall):
            if call.token not in self._tokens:
                raise _Revert(f"unknown token: {call.token}")
            return state.balance(call.token, call.holder)
        if isinstance(call, SwapExactInCall):
            out = self._exec_swap(
                state, sink, call.pool, call.caller, call.token_in,
                call.amount_in, call.recipient, tx,
            )
            if out < call.min_out:
                raise _Revert("swap: insufficient output")
            return out
        raise _Revert(f"unsupported call: {call!r}")
