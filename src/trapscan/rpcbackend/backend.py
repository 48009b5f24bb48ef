"""Live chain access over an archive node's JSON-RPC interface.

Implements the chainview contract: pool discovery and event queries via
eth_getLogs (with automatic range splitting when the node refuses large
result sets), state reads via eth_call at historical blocks, and bundle
simulation via the node's callMany interface with state overrides funding
the probe account. callMany is the only simulation path: on a node that
lacks it, every bundle of `simulate_bundles` gets `MethodNotSupported`
and the pool gets no verdict, since independent eth_calls cannot see
each other's effects.

Every request goes out inside a JSON-RPC 2.0 batch POST (per `max_batch`
requests), a lone request as a batch of one, and a transport failure
raises BackendUnavailable. `balances_at` sends one `eth_call` per read,
`simulate_bundles` one `eth_callMany` request per bundle and
`quotes_exact_in` one quoter `eth_call` per V3 swap, each in one POST;
`balance_of` and `simulate_bundle` are the contract's views of the
first two. `get_window` sends at most two: first one `eth_getLogs`
over every pool address with either swap signature, one over every token
with Transfer or Approval (an address list and a topic OR-list), and
every pool's reserves read; then, when the window logged transfers, the
senders of their transactions, each looked up once. It is handed each
pool's metadata and reads none. A pair whose getReserves read fails is
unknown at the block, as it is on the mock chain. An oversized log
answer is split by block range, then by address list, then by topic
list, and the halves are sent together. The contract's single-query
forms (`get_swaps`, `get_reserves` and the rest) are windows of one.
`get_pool_created` sends one `eth_getLogs` over every configured factory
with either creation signature, and `pool_infos` reads the token0,
token1 and fee of every pool not yet known at the latest block in one
POST. Every `PoolInfo` the view finds or is handed is kept, so a swap
bundle finds its pool's router without a metadata read.

A scan sends the same bundles round after round, and the pipeline hands
each subject's call tuple back while its amounts hold. So each distinct
call tuple is encoded once per view into a template (see `_Template`):
its transactions, its slot layout and its senders. A request copies the
template's transaction dicts and adds the block and the funding
overrides. One function decodes each answer (`_bundle_outcomes`): a
balance slot gets the word its item holds, and a swap slot only
whether its approval and its swap went through, since no predicate
reads what a swap returns. A template also keeps its last answer whose
outcomes were read from strings alone, with those outcomes, and an
equal answer gets them again, undecoded; like the template, it belongs
to its view.

Pinned callMany request shape (positional), one bundle per request:

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
from functools import partial
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
    Window,
    LiquidityEvent,
    LiquidityKind,
    SwapExactInCall,
    SwapRecord,
    TransferRecord,
    UnknownPool,
    check_range,
    fresh_error,
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
# Bundle templates memoised per view.
CALL_CACHE_SIZE = 4096

# As a module name: on CPython 3.11 reading an enum member through its
# class takes about 15 times as long as reading a global.
_SUCCESS = CallStatus.SUCCESS

# A log query: the addresses and the topic-0 alternatives it matches (an
# empty tuple matches any) over an inclusive block range.
_LogQuery = tuple[tuple[Address, ...], tuple[str, ...], tuple[int, int]]
SWAP_TOPICS = (abi.SIG_V2_SWAP.topic0_hex, abi.SIG_V3_SWAP.topic0_hex)
TOKEN_TOPICS = (abi.SIG_TRANSFER.topic0_hex, abi.SIG_APPROVAL.topic0_hex)
CREATION_TOPICS = (abi.SIG_PAIR_CREATED.topic0_hex, abi.SIG_POOL_CREATED.topic0_hex)


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


@dataclass(slots=True)
class _Template:
    """One call tuple's `eth_callMany` request, encoded once. A swap slot
    carries a router approval first; its answer is folded into the
    slot's outcome. The transaction dicts are never sent or changed:
    every request sends copies.

    `last` is the template's last answer whose outcomes were read from
    strings alone, with those outcomes: an equal answer has the same
    outcomes (see `_bundle_outcomes`). A reverted sell is kept like a
    success. It is replaced whole, so a concurrent reader sees an answer
    with its own outcomes."""

    txs: tuple[dict[str, str], ...]
    # (index of the answer item that gives the slot's outcome, is a swap)
    # per call: a swap's approval answers at the index before.
    slots: tuple[tuple[int, bool], ...]
    senders: tuple[str, ...]  # the callers, in call order, each once
    last: tuple[list, tuple[CallOutcome, ...]] | None = None


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
        # Tail rounds send the same bundles again and again, so each is
        # encoded once per view (see `_template`).
        self._templates: dict[tuple[Call, ...], _Template] = {}

    # ------------------------------------------------------------------
    # plumbing

    def head(self) -> int:
        [answer] = self._batch([("eth_blockNumber", [])])
        if isinstance(answer, RpcError):
            raise BackendUnavailable(str(answer)) from answer
        return abi.hex_to_int(answer)

    def _query_logs(self, queries: list[_LogQuery]) -> list[_RawLog]:
        """Every log the queries match, sent in one POST, in (block,
        transaction index) order; a query that failed raises its error."""
        logs: list[_RawLog] = []
        for found, failed in self._logs(queries, self._batch([_log_request(q) for q in queries])):
            if failed:
                raise fresh_error(next(iter(failed.values())))
            logs += found
        return sorted(logs, key=_log_order)

    def _logs(
        self, queries: list[_LogQuery], answers: list
    ) -> list[tuple[list[_RawLog], dict[Address | None, Exception]]]:
        """For each query, the logs it matched, in (block, transaction index)
        order, and the error of each address whose logs could not all be
        fetched (None standing for a query of any address), from the node's
        `answers` to the queries' requests. A query the node refused as too
        large is split (see `_split`), and every half is sent in one more
        POST; a half that still fails fails only its own addresses."""
        out: list = []
        pending: list[tuple[int, list[_LogQuery]]] = []
        for query, answer in zip(queries, answers):
            if isinstance(answer, NodeLimitError) and (halves := _split(query)):
                pending.append((len(out), halves))
                out.append(None)
            elif isinstance(answer, Exception):
                out.append(([], dict.fromkeys(query[0] or (None,), answer)))
            else:
                out.append((sorted(self._decode_each(answer, _RawLog.parse), key=_log_order), {}))
        if pending:
            halves = [half for _, pair in pending for half in pair]
            found = iter(self._logs(halves, self._batch([_log_request(q) for q in halves])))
            for position, _ in pending:
                (left, left_failed), (right, right_failed) = next(found), next(found)
                out[position] = (sorted(left + right, key=_log_order), left_failed | right_failed)
        return out

    def _batch(self, requests: list[tuple[str, list]]) -> list:
        """`call_batch`, with a transport failure raised as BackendUnavailable."""
        try:
            return self.client.call_batch(requests)
        except TransportError as exc:
            raise BackendUnavailable(str(exc)) from exc

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
        logs = self._query_logs(
            [(tuple(self.factories), CREATION_TOPICS, check_range(block_range))]
        )
        pools = self._decode_each(logs, self.decode_pool_created)
        with self._lock:
            self._pool_cache.update((info.pool, info) for info in pools)
        return pools

    def pool_infos(self, pools: Sequence[Address]) -> list[PoolInfo | UnknownPool]:
        """The metadata of each pool, in order, or an UnknownPool for a
        pool that does not answer token0/token1. The token0, token1 and fee
        of every pool not yet known are read together in one batched POST
        (split by `max_batch`), at the latest block: a pool's tokens and
        fee never change once it is deployed, so the latest state answers
        for every block."""
        with self._lock:
            known = {pool: self._pool_cache[pool] for pool in pools if pool in self._pool_cache}
        unknown = [pool for pool in dict.fromkeys(pools) if pool not in known]
        if unknown:
            replies = self._batch([
                ("eth_call", _call_params(pool, data, "latest"))
                for pool in unknown
                for data in (abi.encode_token0(), abi.encode_token1(), abi.encode_fee())
            ])
            found = {pool: _pool_metadata(pool, *replies[3 * i:3 * i + 3])
                     for i, pool in enumerate(unknown)}
            with self._lock:
                self._pool_cache.update(
                    (pool, info) for pool, info in found.items() if isinstance(info, PoolInfo)
                )
            known.update(found)
        return [known[pool] for pool in pools]

    def get_liquidity_events(
        self, pool: Address, block_range: tuple[int, int]
    ) -> list[LiquidityEvent]:
        info = self.pool_info(pool)
        if info.dex_version is DexVersion.V2:
            sigs = (abi.SIG_V2_MINT, abi.SIG_V2_BURN)
        else:
            sigs = (abi.SIG_V3_MINT, abi.SIG_V3_BURN)
        span = check_range(block_range)
        logs = self._query_logs([((pool,), (sig.topic0_hex,), span) for sig in sigs])
        return self._decode_each(logs, partial(self.decode_liquidity, info=info))

    def balances_at(
        self, reads: Sequence[tuple[Address, Address, int]]
    ) -> list[TokenAmount | None]:
        """Every read as one `eth_call` in one batched POST; a read the node
        answers with an error or an undecodable payload is None."""
        requests = [
            ("eth_call", _call_params(token, abi.encode_balance_of(holder), hex(block)))
            for token, holder, block in reads
        ]
        return [_balance_value(raw) for raw in self._batch(requests)]

    def get_window(
        self,
        pools: Sequence[PoolInfo],
        tokens: Sequence[Address],
        block_range: tuple[int, int],
    ) -> Window:
        """Every answer of the window, fetched in at most two POSTs (see the
        module docstring); the pools' metadata is filed for `_compile`. A
        transport failure raises BackendUnavailable. An error answer fails
        only what it answers: a failed log query its addresses, and a
        failed sender lookup the transfers of each token that logged the
        transaction; a reserves read that fails leaves the pool unknown at
        the block."""
        lo, hi = check_range(block_range)
        answers: dict[tuple[str, Address], object] = {}
        infos = {info.pool: info for info in pools}
        with self._lock:
            self._pool_cache.update(infos)
        tokens = list(dict.fromkeys(tokens))
        queries: list[_LogQuery] = []
        if infos:
            queries.append((tuple(infos), SWAP_TOPICS, (lo, hi)))
        if tokens:
            queries.append((tuple(tokens), TOKEN_TOPICS, (lo, hi)))
        reads = [_reserves_requests(info, hi) for info in infos.values()]
        replies = self._batch([*map(_log_request, queries), *(r for req in reads for r in req)])

        transfer_logs: dict[Address, list[_RawLog]] = {}
        for query, (found, failed) in zip(queries, self._logs(queries, replies)):
            grouped = _by_address(found)
            for address in query[0]:
                logged = grouped.get(address, [])
                if query[1] == SWAP_TOPICS:
                    answers["swaps", address] = failed.get(address) or self._decode_each(
                        logged, partial(self.decode_swap, info=infos[address])
                    )
                elif address in failed:
                    answers["transfers", address] = answers["approvals", address] = failed[address]
                else:
                    transfer_logs[address] = [
                        log for log in logged if log.topics[:1] == [abi.SIG_TRANSFER.topic0_hex]
                    ]
                    answers["approvals", address] = self._decode_each(
                        [log for log in logged if log.topics[:1] == [abi.SIG_APPROVAL.topic0_hex]],
                        self.decode_approval,
                    )

        position = len(queries)
        for info, requests in zip(infos.values(), reads):
            answers["reserves", info.pool] = _reserves_value(
                info, replies[position:position + len(requests)]
            ) or UnknownPool(f"cannot read reserves of {info.pool} at block {hi}")
            position += len(requests)

        hashes = list(dict.fromkeys(
            log.tx_hash for logged in transfer_logs.values() for log in logged
        ))
        senders, failed = _senders(hashes, self._batch(_sender_requests(hashes)))
        for token, logged in transfer_logs.items():
            answers["transfers", token] = BackendUnavailable(
                f"transaction sender lookup failed for a transfer of {token}"
            ) if any(log.tx_hash in failed for log in logged) else self._decode_each(
                logged, lambda log: self.decode_transfer(log, senders.get(log.tx_hash))
            )
        return Window(answers)

    def quotes_exact_in(
        self, items: Sequence[tuple[PoolInfo, Address, TokenAmount]], block: int
    ) -> list[TokenAmount | None]:
        """The quoter's answer for each V3 item, all read in one POST. A
        V2 item sends no request and gets None, as does a V3 item whose
        answer is an error or cannot be decoded."""
        quotes: list[TokenAmount | None] = [None] * len(items)
        v3 = [i for i, (pool, _, _) in enumerate(items) if pool.dex_version is DexVersion.V3]
        if not v3:
            return quotes
        at = hex(block)
        requests = []
        for i in v3:
            pool, token_in, amount_in = items[i]
            data = abi.encode_quote_exact_input_single(
                token_in, pool.other_token(token_in), pool.fee_num, amount_in
            )
            requests.append(("eth_call", _call_params(self.v3_quoter, data, at)))
        for i, answer in zip(v3, self._batch(requests)):
            try:
                quotes[i] = abi.dec_uint(_answer_bytes(answer))
            except (RpcError, DecodeError):
                pass
        return quotes

    # ------------------------------------------------------------------
    # simulation

    def _router_for(self, info: PoolInfo) -> Address:
        return self.v2_router if info.dex_version is DexVersion.V2 else self.v3_router

    def _template(self, calls: Sequence[Call]) -> _Template:
        """The template of the call tuple, memoised: a lookup is one atomic
        dict read, outside the lock, and a miss encodes it outside the lock
        and files it under the lock, dropping the oldest template once
        `CALL_CACHE_SIZE` are held."""
        key = calls if type(calls) is tuple else tuple(calls)
        memo = self._templates
        template = memo.get(key)
        if template is None:
            template = self._compile(key)
            with self._lock:
                if len(memo) >= CALL_CACHE_SIZE:
                    del memo[next(iter(memo))]
                memo[key] = template
        return template

    def _compile(self, calls: tuple[Call, ...]) -> _Template:
        if not calls:
            raise EmptyBundle("bundle must contain at least one call")
        txs: list[dict[str, str]] = []
        slots: list[tuple[int, bool]] = []
        for call in calls:
            if isinstance(call, BalanceOfCall):
                slots.append((len(txs), False))
                txs.append({
                    "from": call.caller.hex,
                    "to": call.token.hex,
                    "data": abi.bytes_to_hex(abi.encode_balance_of(call.holder)),
                })
            elif isinstance(call, SwapExactInCall):
                router = self._router_for(self.pool_info(call.pool))
                txs.append({
                    "from": call.caller.hex,
                    "to": call.token_in.hex,
                    "gas": hex(GAS_LIMIT),
                    "data": abi.bytes_to_hex(abi.encode_approve(router, call.amount_in)),
                })
                slots.append((len(txs), True))
                txs.append({
                    "from": call.caller.hex,
                    "to": router.hex,
                    "gas": hex(GAS_LIMIT),
                    "data": abi.bytes_to_hex(
                        abi.encode_swap_exact_tokens(
                            call.amount_in, call.min_out,
                            [call.token_in, call.token_out],
                            call.recipient, DEADLINE,
                        )
                    ),
                })
            else:
                raise ValueError(f"unsupported call: {call!r}")
        senders = tuple(dict.fromkeys(call.caller.hex for call in calls))
        return _Template(tuple(txs), tuple(slots), senders)

    def _bundle_request(
        self, block_hex: str, template: _Template, balance_overrides: BalanceOverrides | None,
    ) -> list:
        """The params of one bundle's `eth_callMany`, in the pinned shape
        of the module docstring: the template's transactions, each its
        own dict, at the block, with every sender funded with ether and
        each balance override written to its token's balance slot."""
        overrides: dict[str, dict] = {
            sender: {"balance": _ETH_FUNDING_HEX} for sender in template.senders
        }
        if balance_overrides:
            for (token, holder), amount in balance_overrides.items():
                slot_index = self.balance_slots.get(token, self.default_balance_slot)
                slot = abi.erc20_balance_slot(holder, slot_index)
                entry = overrides.setdefault(token.hex, {})
                entry.setdefault("stateDiff", {})[abi.bytes_to_hex(slot)] = (
                    abi.bytes_to_hex(abi.enc_uint(amount))
                )
        return [
            [{"transactions": list(map(dict.copy, template.txs)), "blockOverride": {}}],
            {"blockNumber": block_hex, "transactionIndex": -1},
            overrides,
        ]

    def simulate_bundles(
        self,
        block: int,
        items: Sequence[tuple[Sequence[Call], BalanceOverrides | None]],
    ) -> list[list[CallOutcome] | Exception]:
        """Every bundle as its own `eth_callMany` request, all in one
        batched POST. One request never holds two bundles: the node runs the
        bundles of one request on shared state, so one sell would move the
        next one's reserves. A bundle that cannot be built, such as an
        empty one or one that swaps at an unknown pool, is not sent, and an
        error answer to a request takes the place of that bundle's
        outcomes: on a node without `eth_callMany`, each is a
        `MethodNotSupported`. A transport failure raises
        BackendUnavailable."""
        block_hex = hex(block)
        outcomes: list[list[CallOutcome] | Exception | None] = []
        sent: list[tuple[int, _Template]] = []  # (position, template)
        requests: list[tuple[str, list]] = []
        for calls, overrides in items:
            try:
                template = self._template(calls)
                requests.append(
                    ("eth_callMany", self._bundle_request(block_hex, template, overrides))
                )
            except Exception as exc:  # the bundle's own failure, not the batch's
                outcomes.append(exc.with_traceback(None))
            else:
                sent.append((len(outcomes), template))
                outcomes.append(None)
        for (position, template), response in zip(sent, self._batch(requests)):
            try:
                outcomes[position] = _bundle_outcomes(response, template)
            except (RpcError, BackendUnavailable) as exc:
                outcomes[position] = exc.with_traceback(None)
        return outcomes


def _bundle_outcomes(response, template: _Template) -> list[CallOutcome]:
    """One outcome per call slot from a bundle's `eth_callMany` answer; an
    error answer is raised, and a malformed one, or an answer item that is
    not an object, is BackendUnavailable.

    An error item reverts its slot with its text, a swap slot's approval
    as "approve failed: <text>". A balance slot is otherwise the word its
    `value` holds, or a "bad balance payload" revert. A swap slot is
    otherwise a success with no value, whatever data it returned: no
    predicate reads a swap's return, which the fee-on-transfer router
    functions leave empty.

    An answer equal to the template's `last` gets its outcomes again,
    undecoded. An answer is kept when its outcomes were read from strings
    alone: every balance `value` a string, and every error text the error
    itself, its `message` or its `data` as a string. An equal answer then
    holds the same strings. Equal error objects whose text comes from
    anything else can word it apart (a `message` of 1 and of True), so
    they are decoded each time."""
    if isinstance(response, RpcError):
        raise response
    if not isinstance(response, list) or not response:
        raise BackendUnavailable(f"unexpected callMany response: {response!r}")
    results = response[0]
    last = template.last
    if last is not None and results == last[0]:
        return list(last[1])
    expected = len(template.txs)
    if not isinstance(results, list) or len(results) != expected:
        raise BackendUnavailable(
            f"callMany returned {len(results) if isinstance(results, list) else '?'}"
            f" results, expected {expected}"
        )
    outcomes: list[CallOutcome] = []
    keep = True
    for at, swap in template.slots:
        chunk = results[at - swap:at + 1]  # a swap's approval answers first
        if not all(isinstance(item, dict) for item in chunk):
            raise BackendUnavailable(f"malformed callMany answer item: {chunk!r}")
        item = chunk[-1]
        if swap and "error" in chunk[0]:
            text, read = _error_text(chunk[0]["error"])
            outcome = _revert(f"approve failed: {text}")
        elif "error" in item:
            text, read = _error_text(item["error"])
            outcome = _revert(text)
        elif swap:
            outcome, read = CallOutcome(_SUCCESS), True
        else:
            value = item.get("value", "0x")
            balance, read = _balance_value(value), type(value) is str
            outcome = (
                _revert(f"bad balance payload: {value!r}") if balance is None
                else CallOutcome(_SUCCESS, None, balance)
            )
        outcomes.append(outcome)
        keep = keep and read
    if keep:
        template.last = (results, tuple(outcomes))
    return outcomes


def _log_request(query: _LogQuery) -> tuple[str, list]:
    addresses, topics, (lo, hi) = query
    flt: dict = {"fromBlock": hex(lo), "toBlock": hex(hi)}
    if addresses:
        flt["address"] = addresses[0].hex if len(addresses) == 1 else [a.hex for a in addresses]
    if topics:
        flt["topics"] = [topics[0] if len(topics) == 1 else list(topics)]
    return "eth_getLogs", [flt]


def _split(query: _LogQuery) -> list[_LogQuery] | None:
    """The two halves of a query the node refused as too large: of its
    block range, else of its address list, else of its topic list; None
    when it is one block, one address and one topic."""
    addresses, topics, (lo, hi) = query
    if lo < hi:
        mid = (lo + hi) // 2
        return [(addresses, topics, (lo, mid)), (addresses, topics, (mid + 1, hi))]
    if len(addresses) > 1:
        half = len(addresses) // 2
        return [(addresses[:half], topics, (lo, hi)), (addresses[half:], topics, (lo, hi))]
    if len(topics) > 1:
        half = len(topics) // 2
        return [(addresses, topics[:half], (lo, hi)), (addresses, topics[half:], (lo, hi))]
    return None


def _by_address(logs: list[_RawLog]) -> dict[Address, list[_RawLog]]:
    grouped: dict[Address, list[_RawLog]] = {}
    for log in logs:
        grouped.setdefault(log.address, []).append(log)
    return grouped


def _sender_requests(hashes: list[bytes]) -> list[tuple[str, list]]:
    return [("eth_getTransactionByHash", [abi.bytes_to_hex(h)]) for h in hashes]


def _senders(hashes: list[bytes], results: list) -> tuple[dict[bytes, Address], set[bytes]]:
    """The sender of each looked-up transaction, and the hashes whose
    lookup got an error. A null answer, or one without a sender, leaves
    the sender unknown: its transfers carry no `tx_sender`."""
    senders: dict[bytes, Address] = {}
    failed: set[bytes] = set()
    for h, res in zip(hashes, results):
        if isinstance(res, Exception):
            failed.add(h)
        elif isinstance(res, dict) and res.get("from"):
            try:
                senders[h] = Address.from_hex(res["from"])
            except ValueError:
                pass
    return senders, failed


def _pool_metadata(pool: Address, token0, token1, fee) -> PoolInfo | UnknownPool:
    """A pool's metadata from the answers to its token0, token1 and fee
    reads; a pool without a fee read is a V2 pair."""
    try:
        t0 = abi.dec_address(_answer_bytes(token0))
        t1 = abi.dec_address(_answer_bytes(token1))
    except (RpcError, DecodeError) as exc:
        return UnknownPool(f"{pool} does not answer token0/token1: {exc}")
    try:
        fee_ppm = abi.dec_uint(_answer_bytes(fee))
    except (RpcError, DecodeError):
        return PoolInfo(pool=pool, token_x=t0, token_y=t1)
    return PoolInfo(pool=pool, token_x=t0, token_y=t1, dex_version=DexVersion.V3,
                    fee_num=fee_ppm, fee_den=1_000_000)


def _reserves_requests(info: PoolInfo, block: int) -> list[tuple[str, list]]:
    """A pair's getReserves read; a pool without one is read by its
    balance of each of its tokens."""
    if info.dex_version is DexVersion.V2:
        return [("eth_call", _call_params(info.pool, abi.encode_get_reserves(), hex(block)))]
    return [("eth_call", _call_params(token, abi.encode_balance_of(info.pool), hex(block)))
            for token in (info.token_x, info.token_y)]


def _reserves_value(info: PoolInfo, answers: list) -> tuple[TokenAmount, TokenAmount] | None:
    """The reserves from the answers to `_reserves_requests`, or None if
    a read failed."""
    if info.dex_version is not DexVersion.V2:
        x, y = map(_balance_value, answers)
        return None if x is None or y is None else (x, y)
    [answer] = answers
    try:
        raw = _answer_bytes(answer)
        return abi.dec_uint(raw, 0), abi.dec_uint(raw, 1)
    except (RpcError, DecodeError):
        return None


def _answer_bytes(answer) -> bytes:
    """An `eth_call` answer's data; an error answer is raised, as a
    `fresh_error`, since the batch's answers outlive the raise."""
    if isinstance(answer, Exception):
        raise fresh_error(answer)
    return abi.hex_to_bytes(answer)


def _call_params(to: Address, data: bytes, block: str) -> list:
    return [{"to": to.hex, "data": abi.bytes_to_hex(data)}, block]


def _balance_value(answer) -> TokenAmount | None:
    """A balanceOf answer's value, or None for an error answer or a
    payload that is not one."""
    try:
        return abi.dec_uint(_answer_bytes(answer))
    except (RpcError, DecodeError):
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


def _error_text(err) -> tuple[str, bool]:
    """An error item's revert text, and whether it was read from a string:
    the error itself, its `message` or its `data`, else the object."""
    if isinstance(err, dict):
        err = err.get("message") or err.get("data") or err
    return str(err), type(err) is str
