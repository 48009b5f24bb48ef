"""In-process JSON-RPC node emulator backed by a MockChain.

Serves eth_getLogs (with address lists and topic OR-lists) / eth_call /
eth_callMany / eth_getTransactionByHash with real Ethereum wire
encodings (topics, ABI words, hex quantities), so
the RPC backend's encoders and decoders are exercised end to end with
zero network access. Fault injection knobs cover the node-limit split
path, a node without callMany (which must fail the simulation),
transient transport failures, and balance reads the node answers with
an error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from trapscan.chainview import LiquidityKind
from trapscan.core import Address, ZERO_ADDRESS
from trapscan.mockchain import MockChain
from trapscan.rpcbackend import abi
from trapscan.rpcbackend.abi import (
    SIG_APPROVAL,
    SIG_PAIR_CREATED,
    SIG_TRANSFER,
    SIG_V2_BURN,
    SIG_V2_MINT,
    SIG_V2_SWAP,
    SEL_APPROVE,
    SEL_BALANCE_OF,
    SEL_FEE,
    SEL_GET_RESERVES,
    SEL_SWAP_EXACT_TOKENS,
    SEL_TOKEN0,
    SEL_TOKEN1,
    enc_uint,
    erc20_balance_slot,
)
from trapscan.rpcbackend.backend import V2_FACTORY
from trapscan.chainview import (
    BalanceOfCall,
    Call,
    SwapExactInCall,
)


def _topic_addr(addr: Address) -> str:
    return abi.bytes_to_hex(abi.pad32(addr.raw))


def _uint_hex(value: int) -> str:
    return abi.bytes_to_hex(enc_uint(value))


class RequestLog(list):
    def count_method(self, method: str) -> int:
        return sum(1 for m, _ in self if m == method)


@dataclass
class FakeNode:
    """Translate JSON-RPC requests into MockChain queries."""

    chain: MockChain
    factory: Address = V2_FACTORY
    router: Address = field(default_factory=lambda: Address.derive("fake-router"))
    log_limit: int | None = None  # max logs per eth_getLogs call
    support_call_many: bool = True
    fail_next: int = 0  # raise transport errors for the next N requests
    # (holder, block) of balanceOf eth_calls answered with a JSON-RPC error
    fail_balance_reads: set[tuple[Address, int]] = field(default_factory=set)
    balance_slot: int = 3
    requests: RequestLog = field(default_factory=RequestLog)
    posts: int = 0  # transport calls: one per POST, a whole batch included

    def __post_init__(self) -> None:
        self._tx_senders: dict[str, Address] = {}

    # ------------------------------------------------------------------
    # transport interface

    def __call__(self, payload):
        self.posts += 1
        if isinstance(payload, list):
            return [self._handle(item) for item in payload]
        return self._handle(payload)

    def _handle(self, item: dict) -> dict:
        if self.fail_next > 0:
            self.fail_next -= 1
            raise OSError("injected transport failure")
        method = item["method"]
        params = item.get("params", [])
        self.requests.append((method, params))
        try:
            result = self._dispatch(method, params)
        except _RpcFault as exc:
            return {
                "jsonrpc": "2.0", "id": item.get("id"),
                "error": {"code": exc.code, "message": exc.message},
            }
        return {"jsonrpc": "2.0", "id": item.get("id"), "result": result}

    def _dispatch(self, method: str, params: list):
        if method == "eth_blockNumber":
            return hex(self.chain.head())
        if method == "eth_getLogs":
            return self._get_logs(params[0])
        if method == "eth_call":
            return self._eth_call(params[0], params[1])
        if method == "eth_getTransactionByHash":
            sender = self._tx_senders.get(params[0])
            if sender is None:
                return None
            return {"hash": params[0], "from": sender.hex}
        if method == "eth_callMany":
            if not self.support_call_many:
                raise _RpcFault(-32601, "the method eth_callMany does not exist")
            return self._call_many(params)
        raise _RpcFault(-32601, f"the method {method} does not exist")

    # ------------------------------------------------------------------
    # logs

    def _all_logs(self) -> list[dict]:
        # The mock keeps no transaction position, so a log's
        # transactionIndex is its record's position in the record's store:
        # sorting by (block, index) keeps each store's filing order.
        logs: list[dict] = []
        head = self.chain.head()
        for blk, info in self.chain._pool_created:  # noqa: SLF001
            if blk > head:
                continue
            data = abi.pad32(info.pool.raw) + enc_uint(len(logs) + 1)
            logs.append(self._log(
                address=self.factory,
                topics=[SIG_PAIR_CREATED.topic0_hex,
                        _topic_addr(info.token_x), _topic_addr(info.token_y)],
                data=data,
                block=blk, tx_index=0, tx_hash_tag=f"pool:{info.pool.hex}",
                sender=ZERO_ADDRESS,
            ))
        for pool, records in self.chain._swaps.items():  # noqa: SLF001
            info = self.chain.pool_info(pool)
            for i, rec in enumerate(records):
                if rec.block > head:
                    continue
                if rec.token_in == info.token_x:
                    words = (rec.amount_in, 0, 0, rec.amount_out)
                else:
                    words = (0, rec.amount_in, rec.amount_out, 0)
                logs.append(self._log(
                    address=pool,
                    topics=[SIG_V2_SWAP.topic0_hex,
                            _topic_addr(rec.sender), _topic_addr(rec.recipient)],
                    data=b"".join(enc_uint(w) for w in words),
                    block=rec.block, tx_index=i,
                    tx_hash_tag=f"swap:{pool.hex}:{i}", sender=rec.sender,
                ))
        for pool, events in self.chain._liquidity.items():  # noqa: SLF001
            for i, ev in enumerate(events):
                if ev.block > head:
                    continue
                if ev.kind is LiquidityKind.ADD:
                    topics = [SIG_V2_MINT.topic0_hex, _topic_addr(ev.provider)]
                    data = enc_uint(ev.amount_x) + enc_uint(ev.amount_y)
                else:
                    topics = [SIG_V2_BURN.topic0_hex, _topic_addr(ev.provider),
                              _topic_addr(ev.provider)]
                    data = enc_uint(ev.amount_x) + enc_uint(ev.amount_y)
                logs.append(self._log(
                    address=pool, topics=topics, data=data,
                    block=ev.block, tx_index=i,
                    tx_hash_tag=f"liq:{pool.hex}:{i}", sender=ev.provider,
                ))
        for token, records in self.chain._transfers.items():  # noqa: SLF001
            for i, rec in enumerate(records):
                if rec.block > head:
                    continue
                logs.append(self._log(
                    address=token,
                    topics=[SIG_TRANSFER.topic0_hex,
                            _topic_addr(rec.sender), _topic_addr(rec.recipient)],
                    data=enc_uint(rec.value),
                    block=rec.block, tx_index=i,
                    tx_hash_tag=f"xfer:{token.hex}:{i}",
                    sender=rec.tx_sender or rec.sender,
                ))
        for token, records in self.chain._approvals.items():  # noqa: SLF001
            for i, rec in enumerate(records):
                if rec.block > head:
                    continue
                logs.append(self._log(
                    address=token,
                    topics=[SIG_APPROVAL.topic0_hex,
                            _topic_addr(rec.approver), _topic_addr(rec.spender)],
                    data=enc_uint(rec.value),
                    block=rec.block, tx_index=i,
                    tx_hash_tag=f"appr:{token.hex}:{i}", sender=rec.approver,
                ))
        logs.sort(key=lambda lg: (int(lg["blockNumber"], 16), int(lg["transactionIndex"], 16)))
        return logs

    def _log(self, address, topics, data, block, tx_index, tx_hash_tag, sender) -> dict:
        tx_hash = "0x" + hashlib.sha256(tx_hash_tag.encode()).hexdigest()
        self._tx_senders[tx_hash] = sender
        return {
            "address": address.hex,
            "topics": topics,
            "data": abi.bytes_to_hex(data) if isinstance(data, bytes) else data,
            "blockNumber": hex(block),
            "transactionIndex": hex(tx_index),
            "transactionHash": tx_hash,
            "logIndex": "0x0",
        }

    def _get_logs(self, flt: dict) -> list[dict]:
        """The logs matching the filter, scanning every log the chain
        holds. `address` is one address or a list of them; each entry of
        `topics` is null (any), one topic, or a list of alternatives.
        `log_limit` bounds the whole answer."""
        lo = int(flt.get("fromBlock", "0x0"), 16)
        hi = int(flt.get("toBlock", hex(self.chain.head())), 16)
        address = flt.get("address")
        if isinstance(address, str):
            address = [address]
        addresses = {a.lower() for a in address} if address else None
        topics = [
            None if t is None else {t} if isinstance(t, str) else set(t)
            for t in flt.get("topics") or []
        ]
        out = []
        for log in self._all_logs():
            blk = int(log["blockNumber"], 16)
            if not (lo <= blk <= hi):
                continue
            if addresses is not None and log["address"].lower() not in addresses:
                continue
            logged = log["topics"]
            if len(logged) < len(topics) or any(
                wanted is not None and topic not in wanted
                for topic, wanted in zip(logged, topics)
            ):
                continue
            out.append(log)
        if self.log_limit is not None and len(out) > self.log_limit:
            raise _RpcFault(-32005, "query returned more than allowed results")
        return out

    # ------------------------------------------------------------------
    # calls

    def _eth_call(self, tx: dict, block_hex: str) -> str:
        block = self.chain.head() if block_hex == "latest" else int(block_hex, 16)
        to = Address.from_hex(tx["to"])
        data = abi.hex_to_bytes(tx.get("data", "0x"))
        selector, args = data[:4], data[4:]
        if selector == SEL_BALANCE_OF:
            holder = abi.dec_address(args, 0)
            if (holder, block) in self.fail_balance_reads:
                raise _RpcFault(-32005, "request timed out")
            try:
                balance = self.chain.balance_of(to, holder, block)
            except Exception as exc:
                raise _RpcFault(3, f"execution reverted: {exc}") from exc
            if balance is None:
                raise _RpcFault(3, "execution reverted")
            return _uint_hex(balance)
        if selector in (SEL_TOKEN0, SEL_TOKEN1):
            try:
                info = self.chain.pool_info(to)
            except Exception as exc:
                raise _RpcFault(3, "execution reverted") from exc
            token = info.token_x if selector == SEL_TOKEN0 else info.token_y
            return abi.bytes_to_hex(abi.pad32(token.raw))
        if selector == SEL_FEE:
            raise _RpcFault(3, "execution reverted")  # pair-style pools have no fee()
        if selector == SEL_GET_RESERVES:
            try:
                rx, ry = self.chain.get_reserves(to, block)
            except Exception as exc:
                raise _RpcFault(3, f"execution reverted: {exc}") from exc
            return abi.bytes_to_hex(enc_uint(rx) + enc_uint(ry) + enc_uint(0))
        raise _RpcFault(3, f"execution reverted: unknown selector {selector.hex()}")

    # ------------------------------------------------------------------
    # bundle simulation

    def _call_many(self, params: list):
        bundles, context, overrides = params[0], params[1], params[2]
        block = int(context["blockNumber"], 16)
        txs = bundles[0]["transactions"]

        calls: list[tuple[Call | None, str]] = []
        senders: list[Address] = []
        for tx in txs:
            call = self._decode_tx(tx)
            calls.append(call)
            senders.append(Address.from_hex(tx["from"]))

        balance_overrides = self._decode_overrides(overrides, senders)

        results = []
        mock_calls: list[Call] = []
        kinds: list[str] = []
        for call, kind in calls:
            if call is not None:
                mock_calls.append(call)
            kinds.append(kind)
        outcomes = iter(
            self.chain.simulate_bundle(block, mock_calls, balance_overrides)
            if mock_calls else []
        )
        for call, kind in calls:
            if call is None:  # plain approve: state-free success
                results.append({"value": _uint_hex(1)})
                continue
            outcome = next(outcomes)
            if outcome.reverted:
                results.append(
                    {"error": {"code": 3,
                               "message": f"execution reverted: {outcome.revert_reason}"}}
                )
                continue
            if kind == "balance":
                results.append({"value": _uint_hex(outcome.return_value or 0)})
            elif kind == "swap":
                # the router's uint256[] return (offset, length, amounts);
                # the mock reports no swap amount and the backend reads none
                arr = enc_uint(32) + enc_uint(2) + enc_uint(0) + enc_uint(0)
                results.append({"value": abi.bytes_to_hex(arr)})
            else:
                results.append({"value": _uint_hex(1)})
        return [results]

    def _decode_tx(self, tx: dict) -> tuple[Call | None, str]:
        sender = Address.from_hex(tx["from"])
        to = Address.from_hex(tx["to"])
        data = abi.hex_to_bytes(tx.get("data", "0x"))
        selector, args = data[:4], data[4:]
        if selector == SEL_BALANCE_OF:
            return BalanceOfCall(caller=sender, token=to, holder=abi.dec_address(args, 0)), "balance"
        if selector == SEL_APPROVE:
            return None, "approve"
        if selector == SEL_SWAP_EXACT_TOKENS:
            amount_in = abi.dec_uint(args, 0)
            min_out = abi.dec_uint(args, 1)
            recipient = abi.dec_address(args, 3)
            path_len = abi.dec_uint(args, 5)
            if path_len != 2:
                raise _RpcFault(3, "execution reverted: only single-hop paths")
            token_in = abi.dec_address(args, 6)
            token_out = abi.dec_address(args, 7)
            pool = self._find_pool(token_in, token_out)
            return (
                SwapExactInCall(
                    caller=sender, pool=pool, token_in=token_in, token_out=token_out,
                    amount_in=amount_in, recipient=recipient, min_out=min_out,
                ),
                "swap",
            )
        raise _RpcFault(3, f"execution reverted: unknown calldata {selector.hex()}")

    def _find_pool(self, token_a: Address, token_b: Address) -> Address:
        for pool, info in self.chain._pools.items():  # noqa: SLF001
            if info.has_token(token_a) and info.has_token(token_b):
                return pool
        raise _RpcFault(3, "execution reverted: no pair for path")

    def _decode_overrides(
        self, overrides: dict, senders: list[Address]
    ) -> dict[tuple[Address, Address], int]:
        """Reverse-map stateDiff slots to (token, holder) balances using the
        known balance-slot convention; unknown slots are a hard error so a
        mis-encoded override cannot silently pass."""
        balance_overrides: dict[tuple[Address, Address], int] = {}
        for addr_hex, entry in (overrides or {}).items():
            diff = entry.get("stateDiff")
            if not diff:
                continue  # plain ETH balance funding
            token = Address.from_hex(addr_hex)
            for slot_hex, value_hex in diff.items():
                holder = None
                for candidate in senders:
                    expected = erc20_balance_slot(candidate, self.balance_slot)
                    if abi.bytes_to_hex(expected) == slot_hex:
                        holder = candidate
                        break
                if holder is None:
                    raise _RpcFault(3, f"unmatched storage slot {slot_hex}")
                balance_overrides[(token, holder)] = abi.hex_to_int(value_hex)
        return balance_overrides


class _RpcFault(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message
