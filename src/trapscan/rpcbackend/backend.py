"""Live chain access over an archive node's JSON-RPC interface.

Implements the chainview contract: pool discovery and event queries via
eth_getLogs (with automatic range splitting when the node refuses large
result sets), state reads via eth_call at historical blocks, and bundle
simulation via the node's callMany interface with state overrides funding
the probe account. callMany is the only simulation path: on a node that
lacks it, `simulate_bundle` and `simulate_bundles` raise
`MethodNotSupported` and the pool gets no verdict, since independent
eth_calls cannot see each other's effects.

The batched methods send one JSON-RPC 2.0 batch POST each:
`balances_at` one `eth_call` per read, and `simulate_bundles` one
`eth_callMany` request per bundle. The single forms, `balance_of` and
`simulate_bundle`, build and decode their request with the same code.
Each distinct bundle call is encoded once per view and memoised.

Pinned callMany request shape (positional), one bundle per request,
whether the request is sent alone or inside a batch:

    eth_callMany [[{"transactions": [...], "blockOverride": {}}],
                  {"blockNumber": "0x..", "transactionIndex": -1},
                  {<address>: {"balance"|"stateDiff": ...}, ...}]

and the response is one list of {"value": hex} | {"error": {...}} per
bundle.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from ..chainview import (
    ApproveRecord,
    BalanceOfCall,
    BalanceOverrides,
    BackendUnavailable,
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
    check_range,
)
from ..core import Address, DexVersion, PoolInfo, TokenAmount
from . import abi
from .abi import DecodeError
from .client import (
    EndpointConfig,
    JsonRpcClient,
    NodeLimitError,
    RpcError,
    TransportError,
)

# Default contract addresses (Ethereum mainnet); all overridable via config.
V2_ROUTER = Address.from_hex("0x7a250d5630B4cF539739dF2C5dAcb4c659F2488D")
V3_ROUTER = Address.from_hex("0x68b3465833fb72A70ecDF485E0e4C7bD8665Fc45")
V3_QUOTER = Address.from_hex("0xb27308f9F90D607463bb33eA1BeBb41C27CE5AB6")
V2_FACTORY = Address.from_hex("0x5C69bEE701ef814a2B6a3EDD4B1652CB9cc5aA6f")
V3_FACTORY = Address.from_hex("0x1F98431c8aD98523631AE4a59f267346ea31F984")

DEADLINE = 2**63
GAS_LIMIT = 1_500_000
ETH_FUNDING = 10**21
_ETH_FUNDING_HEX = hex(ETH_FUNDING)
DEFAULT_BALANCE_SLOT = 3  # canonical wrapped-native token layout
CALL_CACHE_SIZE = 4096  # encoded bundle calls memoised per view

_Tx = tuple[tuple[str, str], ...]  # one transaction's (field, value) pairs


@dataclass
class _RawLog:
    address: Address
    topics: list[str]
    data: bytes
    order: tuple[int, int]  # (block number, transaction index): the sort key
    tx_hash: bytes

    @property
    def block(self) -> int:
        return self.order[0]

    @classmethod
    def parse(cls, obj: dict) -> "_RawLog":
        try:
            return cls(
                address=Address.from_hex(obj["address"]),
                topics=list(obj["topics"]),
                data=abi.hex_to_bytes(obj.get("data", "0x")),
                order=(
                    abi.hex_to_int(obj["blockNumber"]),
                    abi.hex_to_int(obj.get("transactionIndex", "0x0")),
                ),
                tx_hash=abi.hex_to_bytes(obj["transactionHash"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"malformed log object: {exc}: {obj!r}") from exc


_log_order = attrgetter("order")


class RpcChainView(ChainView):
    """chainview backend over JSON-RPC; safe for concurrent callers."""

    def __init__(self, config: EndpointConfig, transport=None):
        self.client = JsonRpcClient(config, transport)
        extra = config.extra or {}
        self.v2_router = _addr(extra.get("v2_router"), V2_ROUTER)
        self.v3_router = _addr(extra.get("v3_router"), V3_ROUTER)
        self.v3_quoter = _addr(extra.get("v3_quoter"), V3_QUOTER)
        self.factories = [
            _addr(h, None) for h in extra.get("factories", [])
        ] or [V2_FACTORY, V3_FACTORY]
        self.balance_slots: dict[Address, int] = {
            Address.from_hex(k): int(v)
            for k, v in extra.get("balance_slots", {}).items()
        }
        self.default_balance_slot = int(
            extra.get("default_balance_slot", DEFAULT_BALANCE_SLOT)
        )
        self._pool_cache: dict[Address, PoolInfo] = {}
        self._lock = threading.Lock()
        self.decode_skipped = 0
        # Tail rounds send the same calls again and again, so each distinct
        # call is encoded once per view (see `_encoded_call`).
        self._call_memo: dict[Call, tuple[tuple[_Tx, ...], str]] = {}

    # ------------------------------------------------------------------
    # plumbing

    def head(self) -> int:
        try:
            return abi.hex_to_int(self.client.call("eth_blockNumber", []))
        except (TransportError, RpcError) as exc:
            raise BackendUnavailable(str(exc)) from exc

    def fetch_logs(
        self,
        address: Address | None,
        topic0: str | None,
        block_range: tuple[int, int],
    ) -> list[_RawLog]:
        """Complete logs for the filter in (block, transaction index) order,
        splitting the range when the node rejects it as too large."""
        lo, hi = check_range(block_range)
        flt: dict = {"fromBlock": hex(lo), "toBlock": hex(hi)}
        if address is not None:
            flt["address"] = address.hex
        if topic0 is not None:
            flt["topics"] = [topic0]
        try:
            raw = self.client.call("eth_getLogs", [flt])
        except NodeLimitError:
            if lo == hi:
                raise
            mid = (lo + hi) // 2
            left = self.fetch_logs(address, topic0, (lo, mid))
            right = self.fetch_logs(address, topic0, (mid + 1, hi))
            return left + right
        except TransportError as exc:
            raise BackendUnavailable(str(exc)) from exc
        return sorted(self._decode_each(raw, _RawLog.parse), key=_log_order)

    def _decode_each(self, items: list, decode: Callable) -> list:
        """`decode` of each item, in order; an item it rejects with
        DecodeError is dropped and counted in `decode_skipped`."""
        decoded, skipped = [], 0
        for item in items:
            try:
                decoded.append(decode(item))
            except DecodeError:
                skipped += 1
        if skipped:
            with self._lock:
                self.decode_skipped += skipped
        return decoded

    def _eth_call(self, to: Address, data: bytes, block: int):
        return self.client.call("eth_call", _call_params(to, data, block))

    def _tx_senders(self, logs: list[_RawLog]) -> dict[bytes, Address]:
        """The sender of each log's transaction, from one batch of lookups.

        A transaction the node answers with null, or without a sender, is
        left out, and its transfers carry no `tx_sender`. A failed lookup
        (the POST, or an error for any one transaction) raises
        `BackendUnavailable`: the transfers it would have attributed could
        be a drain, so the pool fails rather than go unreconciled.
        """
        hashes = list(dict.fromkeys(log.tx_hash for log in logs))
        if not hashes:
            return {}
        reqs = [("eth_getTransactionByHash", [abi.bytes_to_hex(h)]) for h in hashes]
        try:
            results = self.client.call_batch(reqs)
        except TransportError as exc:
            raise BackendUnavailable(f"transaction sender lookup failed: {exc}") from exc
        failed = next((res for res in results if isinstance(res, RpcError)), None)
        if failed is not None:
            raise BackendUnavailable(f"transaction sender lookup failed: {failed}")
        senders: dict[bytes, Address] = {}
        for h, res in zip(hashes, results):
            if isinstance(res, dict) and res.get("from"):
                try:
                    senders[h] = Address.from_hex(res["from"])
                except ValueError:
                    pass
        return senders

    # ------------------------------------------------------------------
    # decoders

    def decode_pool_created(self, log: _RawLog) -> PoolInfo:
        """Factory pool/pair creation log -> PoolInfo (both factory styles)."""
        if not log.topics:
            raise DecodeError("log has no topics")
        topic0 = log.topics[0]
        if topic0 == abi.SIG_PAIR_CREATED.topic0_hex:
            if len(log.topics) != 3:
                raise DecodeError("pair-created log needs 3 topics")
            return PoolInfo(
                pool=abi.dec_address(log.data, 0),
                token_x=abi.topic_address(log.topics[1]),
                token_y=abi.topic_address(log.topics[2]),
                dex_version=DexVersion.V2,
                fee_num=3,
                fee_den=1000,
            )
        if topic0 == abi.SIG_POOL_CREATED.topic0_hex:
            if len(log.topics) != 4:
                raise DecodeError("pool-created log needs 4 topics")
            fee_ppm = abi.hex_to_int(log.topics[3])
            return PoolInfo(
                pool=abi.dec_address(log.data, 1),
                token_x=abi.topic_address(log.topics[1]),
                token_y=abi.topic_address(log.topics[2]),
                dex_version=DexVersion.V3,
                fee_num=fee_ppm,
                fee_den=1_000_000,
            )
        raise DecodeError(f"unknown creation signature: {topic0}")

    def decode_swap(self, log: _RawLog, info: PoolInfo) -> SwapRecord:
        topic0 = log.topics[0] if log.topics else None
        if topic0 == abi.SIG_V2_SWAP.topic0_hex:
            a0_in, a1_in = abi.dec_uint(log.data, 0), abi.dec_uint(log.data, 1)
            a0_out, a1_out = abi.dec_uint(log.data, 2), abi.dec_uint(log.data, 3)
            if a0_in >= a1_in:
                token_in, amount_in = info.token_x, a0_in
                token_out, amount_out = info.token_y, a1_out
            else:
                token_in, amount_in = info.token_y, a1_in
                token_out, amount_out = info.token_x, a0_out
        elif topic0 == abi.SIG_V3_SWAP.topic0_hex:
            amount0 = _int256(abi.dec_uint(log.data, 0))
            amount1 = _int256(abi.dec_uint(log.data, 1))
            if amount0 >= 0:
                token_in, amount_in = info.token_x, amount0
                token_out, amount_out = info.token_y, -amount1
            else:
                token_in, amount_in = info.token_y, amount1
                token_out, amount_out = info.token_x, -amount0
        else:
            raise DecodeError(f"unknown swap signature: {topic0}")
        if len(log.topics) != 3:
            raise DecodeError("swap log needs sender and recipient topics")
        if amount_in <= 0 or amount_out < 0:
            raise DecodeError("swap log amounts out of range")
        return SwapRecord(
            block=log.block,
            sender=abi.topic_address(log.topics[1]),
            token_in=token_in,
            amount_in=amount_in,
            token_out=token_out,
            amount_out=amount_out,
            recipient=abi.topic_address(log.topics[2]),
        )

    def decode_liquidity(self, log: _RawLog, info: PoolInfo) -> LiquidityEvent:
        topic0 = log.topics[0] if log.topics else None
        if topic0 == abi.SIG_V2_MINT.topic0_hex:
            kind, a_x, a_y = LiquidityKind.ADD, abi.dec_uint(log.data, 0), abi.dec_uint(log.data, 1)
            provider = abi.topic_address(log.topics[1])
        elif topic0 == abi.SIG_V2_BURN.topic0_hex:
            kind, a_x, a_y = LiquidityKind.REMOVE, abi.dec_uint(log.data, 0), abi.dec_uint(log.data, 1)
            provider = abi.topic_address(log.topics[1])
        elif topic0 == abi.SIG_V3_MINT.topic0_hex:
            kind, a_x, a_y = LiquidityKind.ADD, abi.dec_uint(log.data, 2), abi.dec_uint(log.data, 3)
            provider = abi.topic_address(log.topics[1])
        elif topic0 == abi.SIG_V3_BURN.topic0_hex:
            kind, a_x, a_y = LiquidityKind.REMOVE, abi.dec_uint(log.data, 1), abi.dec_uint(log.data, 2)
            provider = abi.topic_address(log.topics[1])
        else:
            raise DecodeError(f"unknown liquidity signature: {topic0}")
        return LiquidityEvent(
            pool=info.pool, block=log.block, kind=kind,
            amount_x=a_x, amount_y=a_y, provider=provider,
        )

    def decode_transfer(self, log: _RawLog, tx_sender: Address | None = None) -> TransferRecord:
        if len(log.topics) != 3 or log.topics[0] != abi.SIG_TRANSFER.topic0_hex:
            raise DecodeError("not an ERC20 transfer log")
        return TransferRecord(
            token=log.address,
            block=log.block,
            sender=abi.topic_address(log.topics[1]),
            recipient=abi.topic_address(log.topics[2]),
            value=abi.dec_uint(log.data, 0),
            tx_sender=tx_sender,
        )

    def decode_approval(self, log: _RawLog) -> ApproveRecord:
        if len(log.topics) != 3 or log.topics[0] != abi.SIG_APPROVAL.topic0_hex:
            raise DecodeError("not an ERC20 approval log")
        return ApproveRecord(
            token=log.address,
            block=log.block,
            approver=abi.topic_address(log.topics[1]),
            spender=abi.topic_address(log.topics[2]),
            value=abi.dec_uint(log.data, 0),
        )

    # ------------------------------------------------------------------
    # chainview queries

    def get_pool_created(self, block_range: tuple[int, int]) -> list[PoolInfo]:
        logs = self.fetch_logs(self.factories[0], abi.SIG_PAIR_CREATED.topic0_hex, block_range)
        logs += self.fetch_logs(self.factories[-1], abi.SIG_POOL_CREATED.topic0_hex, block_range)
        pools = self._decode_each(sorted(logs, key=_log_order), self.decode_pool_created)
        with self._lock:
            self._pool_cache.update((info.pool, info) for info in pools)
        return pools

    def pool_info(self, pool: Address) -> PoolInfo:
        with self._lock:
            cached = self._pool_cache.get(pool)
        if cached:
            return cached
        head = self.head()
        try:
            t0 = abi.dec_address(abi.hex_to_bytes(
                self._eth_call(pool, abi.encode_token0(), head)))
            t1 = abi.dec_address(abi.hex_to_bytes(
                self._eth_call(pool, abi.encode_token1(), head)))
        except (RpcError, DecodeError) as exc:
            raise UnknownPool(f"{pool} does not answer token0/token1: {exc}") from exc
        version, fee_num, fee_den = DexVersion.V2, 3, 1000
        try:
            fee_ppm = abi.dec_uint(abi.hex_to_bytes(
                self._eth_call(pool, abi.encode_fee(), head)))
            version, fee_num, fee_den = DexVersion.V3, fee_ppm, 1_000_000
        except (RpcError, DecodeError):
            pass
        info = PoolInfo(pool=pool, token_x=t0, token_y=t1,
                        dex_version=version, fee_num=fee_num, fee_den=fee_den)
        with self._lock:
            self._pool_cache[pool] = info
        return info

    def get_swaps(self, pool: Address, block_range: tuple[int, int]) -> list[SwapRecord]:
        info = self.pool_info(pool)
        sig = abi.SIG_V2_SWAP if info.dex_version is DexVersion.V2 else abi.SIG_V3_SWAP
        logs = self.fetch_logs(pool, sig.topic0_hex, block_range)
        return self._decode_each(logs, lambda log: self.decode_swap(log, info))

    def get_liquidity_events(
        self, pool: Address, block_range: tuple[int, int]
    ) -> list[LiquidityEvent]:
        info = self.pool_info(pool)
        if info.dex_version is DexVersion.V2:
            sigs = (abi.SIG_V2_MINT, abi.SIG_V2_BURN)
        else:
            sigs = (abi.SIG_V3_MINT, abi.SIG_V3_BURN)
        logs = [log for sig in sigs for log in self.fetch_logs(pool, sig.topic0_hex, block_range)]
        return self._decode_each(
            sorted(logs, key=_log_order), lambda log: self.decode_liquidity(log, info)
        )

    def get_transfers(self, token: Address, block_range: tuple[int, int]) -> list[TransferRecord]:
        logs = self.fetch_logs(token, abi.SIG_TRANSFER.topic0_hex, block_range)
        senders = self._tx_senders(logs)
        return self._decode_each(
            logs, lambda log: self.decode_transfer(log, senders.get(log.tx_hash))
        )

    def get_approvals(self, token: Address, block_range: tuple[int, int]) -> list[ApproveRecord]:
        logs = self.fetch_logs(token, abi.SIG_APPROVAL.topic0_hex, block_range)
        return self._decode_each(logs, self.decode_approval)

    def balance_of(self, token: Address, holder: Address, block: int) -> TokenAmount | None:
        try:
            raw = self.client.call("eth_call", _balance_params(token, holder, block))
        except RpcError:
            return None
        return _balance_value(raw)

    def balances_at(
        self, reads: Sequence[tuple[Address, Address, int]]
    ) -> list[TokenAmount | None]:
        """Every read as one `eth_call` in one batched POST; a read the node
        answers with an error or an undecodable payload is None."""
        results = self.client.call_batch(
            [("eth_call", _balance_params(token, holder, block)) for token, holder, block in reads]
        )
        return [None if isinstance(raw, RpcError) else _balance_value(raw) for raw in results]

    def get_reserves(self, pool: Address, block: int) -> tuple[TokenAmount, TokenAmount]:
        info = self.pool_info(pool)
        if info.dex_version is DexVersion.V2:
            try:
                raw = abi.hex_to_bytes(self._eth_call(pool, abi.encode_get_reserves(), block))
                return abi.dec_uint(raw, 0), abi.dec_uint(raw, 1)
            except (RpcError, DecodeError):
                pass
        x = self.balance_of(info.token_x, pool, block)
        y = self.balance_of(info.token_y, pool, block)
        if x is None or y is None:
            raise UnknownPool(f"cannot read reserves of {pool} at block {block}")
        return x, y

    def quote_exact_in(
        self, pool: PoolInfo, token_in: Address, amount_in: TokenAmount, block: int
    ) -> TokenAmount | None:
        if pool.dex_version is not DexVersion.V3:
            return None
        data = abi.encode_quote_exact_input_single(
            token_in, pool.other_token(token_in), pool.fee_num, amount_in
        )
        try:
            raw = abi.hex_to_bytes(self._eth_call(self.v3_quoter, data, block))
            return abi.dec_uint(raw)
        except (RpcError, DecodeError):
            return None

    # ------------------------------------------------------------------
    # simulation

    def _router_for(self, info: PoolInfo) -> Address:
        return self.v2_router if info.dex_version is DexVersion.V2 else self.v3_router

    def _encoded_call(self, call: Call) -> tuple[tuple[_Tx, ...], str]:
        """`_compile_call` of the call, memoised. A lookup is one atomic
        dict read; a miss encodes outside the lock and stores under it,
        dropping the oldest entry once `CALL_CACHE_SIZE` are held."""
        encoded = self._call_memo.get(call)
        if encoded is None:
            encoded = self._compile_call(call)
            with self._lock:
                if len(self._call_memo) >= CALL_CACHE_SIZE:
                    del self._call_memo[next(iter(self._call_memo))]
                self._call_memo[call] = encoded
        return encoded

    def _compile_call(self, call: Call) -> tuple[tuple[_Tx, ...], str]:
        """Transactions for one call slot, each as its (field, value)
        pairs, and the slot's kind. Swap slots carry a router approval
        first; its result is folded into the slot's outcome. The result
        is immutable, since `_encoded_call` memoises it: every request
        builds its own dicts from it."""
        if isinstance(call, BalanceOfCall):
            read_tx = (
                ("from", call.caller.hex),
                ("to", call.token.hex),
                ("data", abi.bytes_to_hex(abi.encode_balance_of(call.holder))),
            )
            return (read_tx,), "balance"
        if isinstance(call, SwapExactInCall):
            info = self.pool_info(call.pool)
            router = self._router_for(info)
            approve_tx = (
                ("from", call.caller.hex),
                ("to", call.token_in.hex),
                ("gas", hex(GAS_LIMIT)),
                ("data", abi.bytes_to_hex(abi.encode_approve(router, call.amount_in))),
            )
            swap_tx = (
                ("from", call.caller.hex),
                ("to", router.hex),
                ("gas", hex(GAS_LIMIT)),
                ("data", abi.bytes_to_hex(
                    abi.encode_swap_exact_tokens(
                        call.amount_in, call.min_out,
                        [call.token_in, call.token_out],
                        call.recipient, DEADLINE,
                    )
                )),
            )
            return (approve_tx, swap_tx), "swap"
        raise ValueError(f"unsupported call: {call!r}")

    def _state_overrides(
        self, balance_overrides: dict[tuple[Address, Address], TokenAmount] | None,
        senders: set[Address],
    ) -> dict:
        overrides: dict[str, dict] = {
            sender.hex: {"balance": _ETH_FUNDING_HEX} for sender in senders
        }
        if balance_overrides:
            for (token, holder), amount in balance_overrides.items():
                slot_index = self.balance_slots.get(token, self.default_balance_slot)
                slot = abi.erc20_balance_slot(holder, slot_index)
                entry = overrides.setdefault(token.hex, {})
                entry.setdefault("stateDiff", {})[abi.bytes_to_hex(slot)] = (
                    abi.bytes_to_hex(abi.enc_uint(amount))
                )
        return overrides

    def _bundle_request(
        self,
        block: int,
        calls: Sequence[Call],
        balance_overrides: BalanceOverrides | None,
    ) -> tuple[list, list[tuple[int, int, str]]]:
        """The params of one bundle's `eth_callMany` (the pinned shape in
        the module docstring), and its slot layout: (first transaction
        index, transaction count, kind) per call, for `_bundle_outcomes`."""
        if not calls:
            raise EmptyBundle("bundle must contain at least one call")
        txs: list[dict] = []
        slots: list[tuple[int, int, str]] = []
        for call in calls:
            call_txs, kind = self._encoded_call(call)
            slots.append((len(txs), len(call_txs), kind))
            txs += map(dict, call_txs)
        params = [
            [{"transactions": txs, "blockOverride": {}}],
            {"blockNumber": hex(block), "transactionIndex": -1},
            self._state_overrides(balance_overrides, {call.caller for call in calls}),
        ]
        return params, slots

    def _bundle_outcomes(self, response, slots: list[tuple[int, int, str]]) -> list[CallOutcome]:
        """One outcome per call slot from a bundle's `eth_callMany` answer."""
        last, last_count, _ = slots[-1]
        results = self._bundle_results(response, last + last_count)
        return [
            self._slot_outcome(results[start:start + count], kind)
            for start, count, kind in slots
        ]

    def simulate_bundle(
        self,
        block: int,
        calls: Sequence[Call],
        balance_overrides: dict[tuple[Address, Address], TokenAmount] | None = None,
    ) -> list[CallOutcome]:
        params, slots = self._bundle_request(block, calls, balance_overrides)
        try:
            response = self.client.call("eth_callMany", params)
        except TransportError as exc:
            raise BackendUnavailable(str(exc)) from exc
        return self._bundle_outcomes(response, slots)

    def simulate_bundles(
        self,
        block: int,
        items: Sequence[tuple[Sequence[Call], BalanceOverrides | None]],
    ) -> list[list[CallOutcome]]:
        """Every bundle as its own `eth_callMany` request, all in one
        batched POST. One request never holds two bundles: the node runs
        the bundles of one request on shared state, so one sell would move
        the next one's reserves. An error answer to any request raises as
        `simulate_bundle` raises it, so a node without `eth_callMany`
        fails with `MethodNotSupported`."""
        requests = [self._bundle_request(block, calls, overrides) for calls, overrides in items]
        try:
            responses = self.client.call_batch(
                [("eth_callMany", params) for params, _ in requests]
            )
        except TransportError as exc:
            raise BackendUnavailable(str(exc)) from exc
        outcomes = []
        for (_, slots), response in zip(requests, responses):
            if isinstance(response, RpcError):
                raise response
            outcomes.append(self._bundle_outcomes(response, slots))
        return outcomes

    @staticmethod
    def _bundle_results(response, expected: int) -> list[dict]:
        if not isinstance(response, list) or not response:
            raise BackendUnavailable(f"unexpected callMany response: {response!r}")
        results = response[0]
        if not isinstance(results, list) or len(results) != expected:
            raise BackendUnavailable(
                f"callMany returned {len(results) if isinstance(results, list) else '?'}"
                f" results, expected {expected}"
            )
        return results

    def _slot_outcome(self, chunk: list[dict], kind: str) -> CallOutcome:
        if kind == "swap":
            approve, swap = chunk
            if "error" in approve:
                return _revert(f"approve failed: {_error_text(approve['error'])}")
            item = swap
        else:
            item = chunk[0]
        if "error" in item:
            return _revert(_error_text(item["error"]))
        value = item.get("value", "0x")
        if kind == "balance":
            balance = _balance_value(value)
            if balance is None:
                return _revert(f"bad balance payload: {value!r}")
            return _success(balance)
        try:
            amounts = abi.decode_uint_array(abi.hex_to_bytes(value))
            return _success(amounts[-1] if amounts else 0)
        except DecodeError:
            return _revert(f"bad swap payload: {value!r}")


def _call_params(to: Address, data: bytes, block: int) -> list:
    return [{"to": to.hex, "data": abi.bytes_to_hex(data)}, hex(block)]


def _balance_params(token: Address, holder: Address, block: int) -> list:
    return _call_params(token, abi.encode_balance_of(holder), block)


def _balance_value(raw) -> TokenAmount | None:
    """A balanceOf answer's value, or None for a payload that is not one."""
    try:
        return abi.dec_uint(abi.hex_to_bytes(raw))
    except DecodeError:
        return None


def _addr(hex_or_none, default: Address | None) -> Address:
    if hex_or_none is None:
        if default is None:
            raise ValueError("address required")
        return default
    return Address.from_hex(hex_or_none)


def _int256(raw: int) -> int:
    return raw - 2**256 if raw >= 2**255 else raw


def _revert(reason: str) -> CallOutcome:
    return CallOutcome(status=CallStatus.REVERT, revert_reason=reason)


def _success(value) -> CallOutcome:
    return CallOutcome(status=CallStatus.SUCCESS, return_value=value)


def _error_text(err) -> str:
    if isinstance(err, dict):
        return str(err.get("message") or err.get("data") or err)
    return str(err)
