import gc
import json
import os
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import run_simple
from fake_node import FakeNode
from trapscan import pipeline
from trapscan.chainview import BalanceOfCall, SwapExactInCall
from trapscan.core import Address, DexVersion, PoolInfo
from trapscan.mockchain import Honest, Wait, run_attack_script, wash_and_drain_script
from trapscan.monitor import PoolWatch
from trapscan.pipeline import (
    PoolScanState,
    ScanSettings,
    scan_pool,
    scan_pools,
    scan_pools_resumable,
)
from trapscan.rpcbackend import (
    EndpointConfig,
    JsonRpcClient,
    MethodNotSupported,
    RpcChainView,
    TransportError,
    erc20_balance_slot,
    keccak256,
    keccak256_text,
    load_backend_config,
    selector,
)
from trapscan.chainview import BackendUnavailable, UnknownPool
from trapscan.rpcbackend import abi, backend as backend_module, client as client_module, keccak
from trapscan.rpcbackend.abi import DecodeError
from trapscan.rpcbackend.client import NodeLimitError, RpcError
from trapscan.rpcbackend.backend import _RawLog

OWNER = Address.derive("owner")


class TestKeccak:
    # Published reference digests for the original-Keccak variant.
    VECTORS = {
        b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
        b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
        b"Transfer(address,address,uint256)":
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef",
    }

    def test_known_vectors(self):
        for msg, want in self.VECTORS.items():
            assert keccak256(msg).hex() == want

    def test_multi_block_input(self):
        # crosses the 136-byte rate boundary
        digest = keccak256(b"x" * 300)
        assert len(digest) == 32
        assert digest != keccak256(b"x" * 299)

    def test_differs_from_nist_sha3(self):
        import hashlib

        assert keccak256(b"") != hashlib.sha3_256(b"").digest()


class TestSignatures:
    def test_topic0_matches_derivation(self):
        for sig in abi.ALL_SIGNATURES:
            assert sig.topic0 == keccak256_text(sig.text)

    def test_known_public_topics(self):
        assert abi.SIG_PAIR_CREATED.topic0_hex == (
            "0x0d3648bd0f6ba80134a33ba9275ac585d9d315f0ad8355cddefde31afa28d0e9"
        )
        assert abi.SIG_TRANSFER.topic0_hex == (
            "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
        )

    def test_selectors(self):
        assert selector("balanceOf(address)").hex() == "70a08231"
        assert selector("approve(address,uint256)").hex() == "095ea7b3"
        assert selector("getReserves()").hex() == "0902f1ac"


def make_log(address, topics, data, block=100, tx_index=1, tx_hash="0x" + "ab" * 32):
    return {
        "address": address,
        "topics": topics,
        "data": data,
        "blockNumber": hex(block),
        "transactionIndex": hex(tx_index),
        "transactionHash": tx_hash,
        "logIndex": "0x0",
    }


def pad_addr(hex_addr):
    return "0x" + "0" * 24 + hex_addr[2:].lower()


@pytest.fixture
def backend():
    trace = run_simple(Honest(Fraction(0)))
    node = FakeNode(chain=trace.chain)
    rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
    return trace, node, rpc


class TestBalanceSlotMemo:
    def test_equals_keccak_of_preimage(self):
        erc20_balance_slot.cache_clear()
        holders = [OWNER, Address.derive("probe"), Address.derive("victim-0")]
        for holder in holders:
            for slot in (0, 1, 3, 51):
                want = keccak256(abi.pad32(holder.raw) + abi.enc_uint(slot))
                assert erc20_balance_slot(holder, slot) == want
                assert erc20_balance_slot(holder, slot) == want  # from the memo

    def test_scan_hashes_each_slot_once(self, monkeypatch):
        trace = run_simple(Honest(Fraction(0)), victims=2, extra=(Wait(80),))
        node = FakeNode(chain=trace.chain)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        preimages = Counter()
        real = keccak.keccak256

        def counting(data):
            preimages[bytes(data)] += 1
            return real(data)

        monkeypatch.setattr(keccak, "keccak256", counting)
        monkeypatch.setattr(abi, "keccak256", counting, raising=False)
        erc20_balance_slot.cache_clear()
        scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block,
                  ScanSettings(interval=10))
        assert node.requests.count_method("eth_callMany") > len(preimages) > 0
        assert set(preimages.values()) == {1}


class TestLazyImport:
    def test_rpcbackend_does_not_import_requests(self):
        import trapscan

        src = os.path.dirname(os.path.dirname(trapscan.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, trapscan.rpcbackend; print('requests' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"


class TestDecoders:
    USDC = "0xa0b86991c6218b36c1d19d4a2e9eb0ce3606eb48"
    WETH = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
    PAIR = "0xb4e16d0168e52d35cacd2c6185b44281ec28c9dc"
    FACTORY = "0x5c69bee701ef814a2b6a3edd4b1652cb9cc5aa6f"

    def test_pair_creation_log(self, backend):
        _, _, rpc = backend
        data = "0x" + self.PAIR[2:].rjust(64, "0") + hex(1)[2:].rjust(64, "0")
        log = _RawLog.parse(make_log(
            self.FACTORY,
            [abi.SIG_PAIR_CREATED.topic0_hex, pad_addr(self.USDC), pad_addr(self.WETH)],
            data,
        ))
        info = rpc.decode_pool_created(log)
        assert info.pool.hex == self.PAIR
        assert info.token_x.hex == self.USDC and info.token_y.hex == self.WETH
        assert info.dex_version is DexVersion.V2
        assert (info.fee_num, info.fee_den) == (3, 1000)

    def test_v3_pool_creation_log(self, backend):
        _, _, rpc = backend
        tick_spacing = hex(60)[2:].rjust(64, "0")
        data = "0x" + tick_spacing + self.PAIR[2:].rjust(64, "0")
        log = _RawLog.parse(make_log(
            "0x1f98431c8ad98523631ae4a59f267346ea31f984",
            [
                abi.SIG_POOL_CREATED.topic0_hex,
                pad_addr(self.USDC),
                pad_addr(self.WETH),
                "0x" + hex(3000)[2:].rjust(64, "0"),
            ],
            data,
        ))
        info = rpc.decode_pool_created(log)
        assert info.dex_version is DexVersion.V3
        assert (info.fee_num, info.fee_den) == (3000, 1_000_000)
        assert info.pool.hex == self.PAIR

    def test_erc20_transfer_log(self, backend):
        _, _, rpc = backend
        sender, recipient = Address.derive("a"), Address.derive("b")
        log = _RawLog.parse(make_log(
            self.USDC,
            [abi.SIG_TRANSFER.topic0_hex, pad_addr(sender.hex), pad_addr(recipient.hex)],
            "0x" + hex(1000)[2:].rjust(64, "0"),
        ))
        rec = rpc.decode_transfer(log)
        assert rec.sender == sender and rec.recipient == recipient
        assert rec.value == 1000

    def test_corrupted_data_rejected(self, backend):
        _, _, rpc = backend
        log = _RawLog.parse(make_log(
            self.USDC,
            [abi.SIG_TRANSFER.topic0_hex, pad_addr(self.USDC), pad_addr(self.WETH)],
            "0x1234",  # short payload
        ))
        with pytest.raises(DecodeError):
            rpc.decode_transfer(log)

    def test_unknown_signature_rejected(self, backend):
        _, _, rpc = backend
        log = _RawLog.parse(make_log(self.USDC, ["0x" + "00" * 32], "0x"))
        with pytest.raises(DecodeError):
            rpc.decode_pool_created(log)

    def test_corrupted_log_skipped_and_counted(self, backend):
        trace, node, rpc = backend

        def poisoned(payload):
            response = node(payload)
            for item, answer in zip(payload, response):
                if item["method"] == "eth_getLogs":
                    answer["result"].append(make_log(
                        trace.trap_token.hex,
                        [abi.SIG_TRANSFER.topic0_hex, pad_addr(self.USDC)],  # topic missing
                        "0x" + "00" * 32,
                    ))
            return response

        poisoned_rpc = RpcChainView(EndpointConfig(url="fake://", retries=1),
                                    transport=poisoned)
        before = poisoned_rpc.decode_skipped
        good = rpc.get_transfers(trace.trap_token, (0, trace.chain.head()))
        seen = poisoned_rpc.get_transfers(trace.trap_token, (0, trace.chain.head()))
        assert len(seen) == len(good)
        assert poisoned_rpc.decode_skipped == before + 1


class TestFetchLogs:
    def test_oversized_range_split_equals_whole(self, backend):
        trace, node, _ = backend
        head = trace.chain.head()
        free = RpcChainView(EndpointConfig(url="fake://", retries=1),
                            transport=FakeNode(chain=trace.chain))
        whole = free.get_transfers(trace.trap_token, (0, head))

        limited_node = FakeNode(chain=trace.chain, log_limit=2)
        limited = RpcChainView(EndpointConfig(url="fake://", retries=1),
                               transport=limited_node)
        split = limited.get_transfers(trace.trap_token, (0, head))
        assert split == whole
        assert limited_node.requests.count_method("eth_getLogs") > 1

    def test_empty_range(self, backend):
        trace, _, rpc = backend
        assert rpc.get_transfers(trace.trap_token, (0, 0)) == []

    def test_a_refused_query_leaves_no_cycle(self, backend):
        """The node's refusal, kept with the batch's answers, is raised as
        a new exception: with the cyclic collector off, no traceback of
        the failed call outlives it."""
        trace, _, _ = backend
        refusing = RpcChainView(EndpointConfig(url="fake://", retries=1),
                                transport=FakeNode(chain=trace.chain, log_limit=0))

        def tracebacks():
            return sum(isinstance(obj, types.TracebackType) for obj in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = tracebacks()
            try:
                refusing.get_pool_created((0, trace.chain.head()))
            except NodeLimitError:
                pass
            after = tracebacks()
        finally:
            gc.enable()
        assert after == before


class TestFakeNodeFilters:
    def test_list_filters_merge_the_single_address_answers(self):
        """An address list and a topic OR-list answer the merge of the
        single-address, single-topic answers, in (block, transaction index)
        order, and `log_limit` bounds the merged answer."""
        from test_pipeline import cohort_chain

        chain, targets = cohort_chain(pools=3)
        token = targets[0][1]
        assert chain.approve(token, Address.derive("cohort:buyer:0"), OWNER, 5).ok
        chain.advance_block()
        node = FakeNode(chain=chain)

        def logs(address, topics, node=node):
            flt = {"fromBlock": "0x0", "toBlock": hex(chain.head()),
                   "address": address, "topics": topics}
            response = node({"jsonrpc": "2.0", "id": 1, "method": "eth_getLogs",
                             "params": [flt]})
            return response.get("result", response.get("error"))

        def order(log):
            return int(log["blockNumber"], 16), int(log["transactionIndex"], 16)

        swap, transfer, approval = (sig.topic0_hex for sig in (
            abi.SIG_V2_SWAP, abi.SIG_TRANSFER, abi.SIG_APPROVAL))
        pools = [info.pool.hex for info, _ in targets]
        cases = [
            (pools, [[swap, abi.SIG_V3_SWAP.topic0_hex]], [(p, [swap]) for p in pools]),
            ([token.hex], [[transfer, approval]], [(token.hex, [transfer]), (token.hex, [approval])]),
        ]
        for address, topics, parts in cases:
            merged = logs(address, topics)
            assert all(logs(*part) for part in parts)
            singles = [log for part in parts for log in logs(*part)]
            assert merged == sorted(singles, key=order)
            assert merged == sorted(merged, key=order)
            limited = FakeNode(chain=chain, log_limit=len(merged) - 1)
            assert "more than allowed" in logs(address, topics, limited)["message"]
            assert all(isinstance(logs(*part, limited), list) for part in parts)


class TestLogOrder:
    def test_reversed_node_logs_come_back_in_chain_order(self):
        trace = run_simple(Honest(Fraction(0)), victims=2)
        chain, pool, trap = trace.chain, trace.pool.pool, trace.trap_token
        creator, (v0, v1) = trace.actors.creator, trace.actors.victims
        # Several records of each kind in one block: only the transaction
        # index orders them.
        for spender, amount in ((v1, 3), (v0, 1), (creator, 2)):
            chain.approve(trap, v0, spender, amount)
        for recipient, amount in ((v1, 5), (creator, 4)):
            chain.token_transfer(trap, v0, recipient, amount)
        for amount in (7 * 10**5, 3 * 10**5):
            chain.swap(pool, creator, trace.base_token, amount, creator)
        chain.advance_block()
        node = FakeNode(chain=chain)

        def reversing(payload):
            response = node(payload)
            for item, answer in zip(payload, response):
                if item["method"] == "eth_getLogs":
                    answer["result"].reverse()
            return response

        config = EndpointConfig(url="fake://", retries=1)
        plain = RpcChainView(config, transport=node)
        reversed_ = RpcChainView(config, transport=reversing)
        span = (0, chain.head())
        queries = (
            (lambda view: view.get_swaps(pool, span), "amount_in"),
            (lambda view: view.get_transfers(trap, span), "value"),
            (lambda view: view.get_approvals(trap, span), "value"),
        )
        for query, amount in queries:
            records = query(reversed_)
            assert records == query(plain)
            assert [(r.block, getattr(r, amount)) for r in records] == [
                (r.block, getattr(r, amount)) for r in query(chain)
            ]


class TestDecodeSkips:
    def test_count_is_exact_under_threads(self):
        malformed = {"address": OWNER.hex, "topics": []}  # no block, no hash
        wrong_topics = make_log(OWNER.hex, [abi.SIG_APPROVAL.topic0_hex], "0x")
        logs = [malformed, wrong_topics] * 20

        def transport(payload):
            return [{"jsonrpc": "2.0", "id": item["id"], "result": list(logs)}
                    for item in payload]

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        calls = 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool_exec:
                got = list(pool_exec.map(lambda _: rpc.get_approvals(OWNER, (1, 2)),
                                          range(calls), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [[]] * calls
        assert rpc.decode_skipped == calls * len(logs)


class TestTxSenders:
    def test_lookups_are_not_kept_across_windows(self):
        token, sender = Address.derive("token"), Address.derive("sender")
        lookups = []

        def transport(payload):
            if payload[0]["method"] == "eth_getTransactionByHash":
                lookups.append(len(payload))
                return [{"jsonrpc": "2.0", "id": item["id"],
                         "result": {"hash": item["params"][0], "from": sender.hex}}
                        for item in payload]
            [query] = payload
            block = int(query["params"][0]["fromBlock"], 16)
            log = make_log(
                token.hex,
                [abi.SIG_TRANSFER.topic0_hex, pad_addr(sender.hex), pad_addr(OWNER.hex)],
                "0x" + "00" * 31 + "01", block=block,
                tx_hash="0x" + block.to_bytes(32, "big").hex(),
            )
            return [{"jsonrpc": "2.0", "id": query["id"], "result": [log, log]}]

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)

        def scan(lo, hi):
            for block in range(lo, hi):
                records = rpc.get_transfers(token, (block, block))
                assert [r.tx_sender for r in records] == [sender, sender]

        scan(0, 50)
        tracemalloc.start()
        try:
            scan(50, 100)
            base = tracemalloc.get_traced_memory()[0]
            scan(100, 500)
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024
        # one batch per window, one lookup per transaction
        assert lookups == [1] * 500


class TestWindowSenders:
    def test_a_transaction_seen_by_two_cohort_pools_is_looked_up_once(self):
        """A window over three pools' trap tokens: the transaction that logged
        a transfer of two of them is looked up once, and the error answer to
        the third token's transaction fails only that token's transfers."""
        a, b, c = (Address.derive(f"cohort-token-{k}") for k in "abc")
        sender = Address.derive("sender")
        shared, bad = "0x" + "11" * 32, "0x" + "22" * 32
        transfer = [abi.SIG_TRANSFER.topic0_hex, pad_addr(sender.hex), pad_addr(OWNER.hex)]
        logs = [
            make_log(a.hex, transfer, "0x" + "00" * 31 + "01", tx_index=1, tx_hash=shared),
            make_log(b.hex, transfer, "0x" + "00" * 31 + "02", tx_index=1, tx_hash=shared),
            make_log(c.hex, transfer, "0x" + "00" * 31 + "03", tx_index=2, tx_hash=bad),
        ]
        looked_up = []

        def transport(payload):
            answers = []
            for item in payload:
                if item["method"] == "eth_getLogs":
                    answers.append({"jsonrpc": "2.0", "id": item["id"], "result": logs})
                    continue
                looked_up.append(item["params"][0])
                if item["params"][0] == bad:
                    answers.append({"jsonrpc": "2.0", "id": item["id"],
                                    "error": {"code": -32000, "message": "header not found"}})
                else:
                    answers.append({"jsonrpc": "2.0", "id": item["id"],
                                    "result": {"hash": item["params"][0], "from": sender.hex}})
            return answers

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        window = rpc.get_window([], [a, b, c], (100, 100))
        assert sorted(looked_up) == [shared, bad]
        span = (100, 100)
        assert [(r.value, r.tx_sender) for r in window.get_transfers(a, span)] == [(1, sender)]
        assert [(r.value, r.tx_sender) for r in window.get_transfers(b, span)] == [(2, sender)]
        with pytest.raises(BackendUnavailable):
            window.get_transfers(c, span)
        assert window.get_approvals(c, span) == []


class Recorder:
    """Transport that keeps every payload it passes on to the node."""

    def __init__(self, node, refuse=None):
        self.node = node
        self.refuse = refuse  # payload -> bool: raise OSError instead of sending
        self.payloads = []

    def __call__(self, payload):
        if self.refuse is not None and self.refuse(payload):
            raise OSError("injected transport failure")
        self.payloads.append(payload)
        return self.node(payload)


def _is_sender_lookup(payload):
    return any(item["method"] == "eth_getTransactionByHash" for item in payload)


class TestFailedSenderLookup:
    """The logged drain of `wash_and_drain_script` is found only by
    attributing its transfer to the drainer's transaction."""

    def _drain(self):
        script, seed = wash_and_drain_script()
        return run_attack_script(script, seed)

    def test_refused_lookup_fails_the_pool(self, tmp_path):
        trace = self._drain()
        answered = RpcChainView(EndpointConfig(url="fake://", retries=0),
                                transport=FakeNode(chain=trace.chain))
        verdicts, _ = scan_pools(answered, [(trace.pool, trace.trap_token)], 1,
                                 trace.final_block)
        assert [t.value for t in verdicts[0].traps] == ["UnauthorizedTransfer"]

        transport = Recorder(FakeNode(chain=trace.chain), refuse=_is_sender_lookup)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=transport)
        with pytest.raises(BackendUnavailable):
            rpc.get_transfers(trace.trap_token, (1, trace.final_block))
        checkpoint = tmp_path / "scan.ckpt"
        lines, summary = scan_pools_resumable(
            rpc, [(trace.pool, trace.trap_token)], 1, trace.final_block, None, checkpoint
        )
        assert (lines, summary.failures, summary.scanned) == ([], 1, 0)
        assert not checkpoint.exists()

    def test_lookup_error_item_fails_the_pool(self):
        trace = self._drain()
        node = FakeNode(chain=trace.chain)

        def transport(payload):
            response = node(payload)
            if _is_sender_lookup(payload):
                response[0] = {"jsonrpc": "2.0", "id": response[0]["id"],
                               "error": {"code": -32000, "message": "header not found"}}
            return response

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        verdicts, summary = scan_pools(rpc, [(trace.pool, trace.trap_token)], 1,
                                       trace.final_block)
        assert (verdicts, summary.failures) == ([], 1)

    def test_null_answer_leaves_the_sender_unknown(self):
        trace = self._drain()
        node = FakeNode(chain=trace.chain)

        def transport(payload):
            response = node(payload)
            if _is_sender_lookup(payload):
                for item in response:
                    item["result"] = None
            return response

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        records = rpc.get_transfers(trace.trap_token, (1, trace.final_block))
        assert records and all(rec.tx_sender is None for rec in records)


class TestClientRetry:
    def test_transient_failures_retried(self, backend):
        trace, _, _ = backend
        node = FakeNode(chain=trace.chain, fail_next=2)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=3), transport=node)
        assert rpc.head() == trace.chain.head()

    def test_exhausted_retries_surface(self, backend):
        trace, _, _ = backend
        node = FakeNode(chain=trace.chain, fail_next=10)
        client = JsonRpcClient(EndpointConfig(url="fake://", retries=2), transport=node)
        with pytest.raises(TransportError):
            client.call_batch([("eth_blockNumber", [])])

    @pytest.mark.parametrize("query", [
        lambda rpc, trace: rpc.head(),
        lambda rpc, trace: rpc.balance_of(trace.trap_token, OWNER, 1),
        lambda rpc, trace: rpc.balances_at([(trace.trap_token, OWNER, 1)] * 2),
    ], ids=["head", "balance_of", "balances_at"])
    def test_exhausted_retries_are_backend_unavailable(self, backend, query):
        trace, _, _ = backend
        node = FakeNode(chain=trace.chain, fail_next=1)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=node)
        with pytest.raises(BackendUnavailable):
            query(rpc, trace)

    def test_batch_preserves_order_and_errors(self, backend):
        trace, node, _ = backend
        client = JsonRpcClient(EndpointConfig(url="fake://", retries=1, max_batch=2),
                               transport=node)
        results = client.call_batch([
            ("eth_blockNumber", []),
            ("bogus_method", []),
            ("eth_blockNumber", []),
        ])
        assert results[0] == hex(trace.chain.head())
        assert isinstance(results[1], Exception)
        assert results[2] == hex(trace.chain.head())

    @pytest.mark.parametrize("bad_item", [None, "0x1", 7, ["nested"]])
    def test_batch_item_that_is_not_an_object(self, bad_item):
        def transport(payload):
            return [bad_item, *({"jsonrpc": "2.0", "id": item["id"], "result": "0x1"}
                                for item in payload)]

        client = JsonRpcClient(EndpointConfig(url="fake://", retries=0), transport=transport)
        with pytest.raises(TransportError):
            client.call_batch([("eth_blockNumber", []), ("eth_blockNumber", [])])

    @pytest.mark.parametrize("member, message", [
        ("boom", "boom"),
        ({"code": "x"}, "{'code': 'x'}"),
        (["nested"], "['nested']"),
    ])
    def test_malformed_error_member_is_that_items_rpc_error(self, member, message):
        """An `error` member that is not an object with an int code fails
        only its own item, as an RpcError of code -32000."""
        def transport(payload):
            first, second = payload
            return [{"jsonrpc": "2.0", "id": first["id"], "error": member},
                    {"jsonrpc": "2.0", "id": second["id"], "result": "0x1"}]

        client = JsonRpcClient(EndpointConfig(url="fake://", retries=0), transport=transport)
        error, answer = client.call_batch([("eth_blockNumber", []), ("eth_blockNumber", [])])
        assert type(error) is RpcError
        assert (error.code, error.message) == (-32000, message)
        assert answer == "0x1"

    def test_error_object_without_a_code_keeps_its_message(self):
        def transport(payload):
            return [{"jsonrpc": "2.0", "id": item["id"],
                     "error": {"message": "query returned more than 10000 results"}}
                    for item in payload]

        client = JsonRpcClient(EndpointConfig(url="fake://", retries=0), transport=transport)
        [error] = client.call_batch([("eth_getLogs", [{}])])
        assert isinstance(error, NodeLimitError)
        assert (error.code, error.message) == (-32000, "query returned more than 10000 results")


class TestRateLimit:
    def test_each_post_is_charged_its_request_count(self, monkeypatch):
        """At 10 requests/second, a POST of 50 requests holds the next one
        back 5 seconds, and that one's 50 the POST after it."""
        clock, slept = [100.0], []

        def sleep(seconds):
            slept.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(client_module.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(client_module.time, "sleep", sleep)
        sizes = []

        def transport(payload):
            sizes.append(len(payload))
            return [{"jsonrpc": "2.0", "id": item["id"], "result": "0x1"} for item in payload]

        client = JsonRpcClient(
            EndpointConfig(url="fake://", retries=0, max_batch=50, rate_limit=10), transport
        )
        client.call_batch([("eth_blockNumber", [])] * 150)
        assert sizes == [50, 50, 50]
        assert slept == [pytest.approx(5.0)] * 2

    def test_zero_disables_the_gate(self, monkeypatch):
        monkeypatch.setattr(client_module.time, "sleep", pytest.fail)
        client = JsonRpcClient(
            EndpointConfig(url="fake://", retries=0, max_batch=2),
            lambda payload: [{"jsonrpc": "2.0", "id": item["id"], "result": "0x1"}
                             for item in payload],
        )
        assert client.call_batch([("eth_blockNumber", [])] * 5) == ["0x1"] * 5


class TestRequestIds:
    def test_ids_unique_and_consecutive_within_a_post_under_threads(self):
        """Threads sharing one client: every POST's ids are consecutive
        and increasing, and no id is used twice."""
        posts = []

        def transport(payload):
            posts.append([item["id"] for item in payload])
            return [{"jsonrpc": "2.0", "id": item["id"], "result": "0x1"} for item in payload]

        client = JsonRpcClient(EndpointConfig(url="fake://", max_batch=7), transport)

        def send(n):
            return client.call_batch([("eth_blockNumber", [])] * n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool_exec:
                answers = list(pool_exec.map(send, [1 + i % 20 for i in range(200)], timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert [len(a) for a in answers] == [1 + i % 20 for i in range(200)]
        assert all(ids == list(range(ids[0], ids[0] + len(ids))) for ids in posts)
        sent = [rid for ids in posts for rid in ids]
        assert len(set(sent)) == len(sent) == sum(1 + i % 20 for i in range(200))


class TestSimulateBundle:
    def _calls(self, trace, probe):
        return [
            BalanceOfCall(caller=probe, token=trace.base_token, holder=probe),
            SwapExactInCall(
                caller=probe, pool=trace.pool.pool, token_in=trace.base_token,
                token_out=trace.trap_token, amount_in=10**6, recipient=probe,
            ),
            BalanceOfCall(caller=probe, token=trace.trap_token, holder=probe),
        ]

    def test_pinned_call_many_shape(self, backend):
        trace, node, rpc = backend
        probe = Address.derive("probe")
        rpc.simulate_bundle(trace.chain.head(), self._calls(trace, probe),
                            {(trace.base_token, probe): 10**12})
        call_many = [p for m, p in node.requests if m == "eth_callMany"]
        bundles, context, overrides = call_many[-1]
        assert isinstance(bundles, list) and "transactions" in bundles[0]
        assert set(context) == {"blockNumber", "transactionIndex"}
        assert context["transactionIndex"] == -1
        # swap slots carry an approve transaction first
        txs = bundles[0]["transactions"]
        assert len(txs) == 4  # balance, approve, swap, balance
        # the probe funding override uses the documented storage-slot shape
        token_entry = overrides[trace.base_token.hex]
        slot = abi.bytes_to_hex(erc20_balance_slot(probe, 3))
        assert token_entry["stateDiff"][slot] == abi.bytes_to_hex(abi.enc_uint(10**12))

    def test_outcomes_chain_state(self, backend):
        trace, _, rpc = backend
        probe = Address.derive("probe")
        calls = [*self._calls(trace, probe),
                 BalanceOfCall(caller=probe, token=trace.base_token, holder=probe)]
        outcomes = rpc.simulate_bundle(trace.chain.head(), calls,
                                       {(trace.base_token, probe): 10**12})
        assert outcomes[0].return_value == 10**12
        assert outcomes[1].ok and outcomes[1].return_value is None
        assert outcomes[2].return_value > 0  # the probe held none before its buy
        assert outcomes[3].return_value == 10**12 - 10**6  # the buy's amount in left

    def test_revert_reason_preserved(self, backend):
        trace, _, rpc = backend
        broke = Address.derive("broke-probe")
        outcomes = rpc.simulate_bundle(trace.chain.head(), self._calls(trace, broke))
        assert outcomes[1].reverted
        assert "execution reverted" in outcomes[1].revert_reason

    def test_empty_bundle_rejected(self, backend):
        _, _, rpc = backend
        with pytest.raises(Exception):
            rpc.simulate_bundle(1, [])

    def test_missing_call_many_raises(self, backend):
        """No eth_call fallback: one eth_callMany request, then the error."""
        trace, _, _ = backend
        node = FakeNode(chain=trace.chain, support_call_many=False)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        probe = Address.derive("probe")
        rpc.pool_info(trace.pool.pool)  # metadata reads are not simulation
        node.requests.clear()
        with pytest.raises(MethodNotSupported):
            rpc.simulate_bundle(trace.chain.head(), self._calls(trace, probe),
                                {(trace.base_token, probe): 10**12})
        assert node.requests.count_method("eth_callMany") == 1
        assert node.requests.count_method("eth_call") == 0

    def test_batched_bundles_one_request_each_in_one_post(self, backend):
        trace, node, rpc = backend
        head = trace.chain.head()
        probes = [Address.derive(f"probe-{i}") for i in range(3)]
        items = [(self._calls(trace, p), {(trace.base_token, p): 10**12}) for p in probes]
        single = [rpc.simulate_bundle(head, calls, funding) for calls, funding in items]
        transport = Recorder(node)
        batched = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=transport)
        batched.pool_info(trace.pool.pool)
        transport.payloads.clear()
        assert batched.simulate_bundles(head, items) == single
        [post] = transport.payloads
        assert [item["method"] for item in post] == ["eth_callMany"] * 3
        # one bundle per request, in the pinned shape
        assert all(len(item["params"][0]) == 1 for item in post)
        assert [item["params"][0][0]["transactions"][0]["from"] for item in post] == [
            p.hex for p in probes
        ]

    def test_a_bundle_error_fails_only_its_pool(self):
        """One POST carries the bundles of three pools; the node's error
        answers to one pool's bundles fail that pool alone."""
        from test_pipeline import three_pool_chain

        chain, targets = three_pool_chain()
        node = FakeNode(chain=chain)
        probe = pipeline.probe_account_for(targets[1][0]).hex

        def transport(payload):
            response = node(payload)
            for item, answer in zip(payload, response):
                txs = item["params"][0][0]["transactions"] if item["method"] == "eth_callMany" else []
                if any(tx["from"] == probe for tx in txs):
                    answer.pop("result")
                    answer["error"] = {"code": -32000, "message": "execution timeout"}
            return response

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        verdicts, summary = scan_pools(rpc, targets, 1, chain.head())
        assert summary.failures == 1
        assert [v.pool.pool for v in verdicts] == [targets[0][0].pool, targets[2][0].pool]

    def test_batched_bundles_without_call_many_fail_each_bundle(self, backend):
        trace, _, _ = backend
        node = FakeNode(chain=trace.chain, support_call_many=False)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        probe = Address.derive("probe")
        results = rpc.simulate_bundles(
            trace.chain.head(), [(self._calls(trace, probe), None)] * 2
        )
        assert len(results) == 2
        assert all(isinstance(result, MethodNotSupported) for result in results)

    def test_a_bundle_at_an_unknown_pool_fails_alone(self, backend):
        """A bundle whose request cannot be built is not sent: it gets its
        own exception, and the other bundles of the batch are answered."""
        trace, node, rpc = backend
        head = trace.chain.head()
        probe = Address.derive("probe")
        good = (self._calls(trace, probe), {(trace.base_token, probe): 10**12})
        stray = [SwapExactInCall(
            caller=probe, pool=Address.derive("no-such-pool"), token_in=trace.base_token,
            token_out=trace.trap_token, amount_in=10**6, recipient=probe,
        )]
        alone = rpc.simulate_bundle(head, *good)
        node.requests.clear()
        first, second = rpc.simulate_bundles(head, [good, (stray, None)])
        assert first == alone and isinstance(second, UnknownPool)
        assert node.requests.count_method("eth_callMany") == 1

    def test_mock_batches_as_single_bundles(self, backend):
        trace, _, _ = backend
        head = trace.chain.head()
        probe = Address.derive("probe")
        items = [(self._calls(trace, probe), {(trace.base_token, probe): 10**12}),
                 (self._calls(trace, probe), None)]
        assert trace.chain.simulate_bundles(head, items) == [
            trace.chain.simulate_bundle(head, calls, funding) for calls, funding in items
        ]


class TestCallMemo:
    """A view encodes each distinct call tuple once into a template, and
    each balance read's calldata once, in memos bounded by
    `CALL_CACHE_SIZE`; every request still gets its own dicts."""

    def test_each_distinct_call_tuple_encoded_once_per_view(self, monkeypatch):
        trace = run_simple(Honest(Fraction(0)), victims=2, extra=(Wait(80),))
        compiled, sent = Counter(), Counter()
        real_compile = RpcChainView._compile
        real_template = RpcChainView._template

        def counting_compile(self, calls):
            compiled[calls] += 1
            return real_compile(self, calls)

        def counting_template(self, calls):
            sent[tuple(calls)] += 1
            return real_template(self, calls)

        monkeypatch.setattr(RpcChainView, "_compile", counting_compile)
        monkeypatch.setattr(RpcChainView, "_template", counting_template)
        args = (trace.pool, trace.trap_token, 1, trace.final_block, ScanSettings(interval=10))
        node = FakeNode(chain=trace.chain)
        scan_pool(RpcChainView(EndpointConfig(url="fake://"), transport=node), *args)
        assert compiled == Counter(set(sent))
        assert sum(sent.values()) > 2 * len(sent)  # tail rounds resend their bundles
        # the memo belongs to its view: a second view encodes again
        scan_pool(RpcChainView(EndpointConfig(url="fake://"), transport=node), *args)
        assert set(compiled.values()) == {2}

    def test_memo_is_bounded_and_requests_get_their_own_dicts(self, backend, monkeypatch):
        trace, node, rpc = backend
        monkeypatch.setattr(backend_module, "CALL_CACHE_SIZE", 2)
        probes = [Address.derive(f"probe-{i}") for i in range(3)]
        bundles = [(BalanceOfCall(caller=p, token=trace.trap_token, holder=p),) for p in probes]
        for calls in bundles + bundles[:1]:
            rpc.simulate_bundles(1, [(calls, None)])
        assert len(rpc._templates) == 2
        sent = [p[0][0]["transactions"] for m, p in node.requests if m == "eth_callMany"]
        first, again = sent[0][0], sent[-1][0]
        assert first == again and first is not again
        assert all(tx is not kept for tx in first for kept in rpc._template(bundles[0]).txs)
        rpc.balances_at([(trace.trap_token, p, 1) for p in probes + probes[:1]])
        assert len(rpc._balance_calls) == 2
        reads = [p for m, p in node.requests if m == "eth_call"][-4:]
        assert reads[0] == reads[-1] and reads[0][0] is not reads[-1][0]

    def test_memo_under_threads(self, backend, monkeypatch):
        """Threads sharing one view, with the memo smaller than the call
        tuples they send, each get their own tuple's template, and the
        memo never grows past its bound."""
        trace, _, rpc = backend
        monkeypatch.setattr(backend_module, "CALL_CACHE_SIZE", 8)
        bundles = [
            (SwapExactInCall(caller=Address.derive(f"caller-{i % 24}"), pool=trace.pool.pool,
                             token_in=trace.base_token, token_out=trace.trap_token,
                             amount_in=10**6 + i % 24, recipient=OWNER),)
            for i in range(600)
        ]
        expected = {calls: rpc._compile(calls) for calls in set(bundles)}
        sizes = []

        def encode(calls):
            got = rpc._template(calls)
            sizes.append(len(rpc._templates))
            return got == expected[calls]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool_exec:
                agreed = list(pool_exec.map(encode, bundles, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(agreed) == len(bundles) and all(agreed)
        assert max(sizes) <= 8


class TestBackendQueries:
    def test_pool_info_via_calls(self, backend):
        """A pool not yet known costs one POST, its token0, token1 and fee
        reads together at the latest block; a known one costs none."""
        trace, node, rpc = backend
        info = rpc.pool_info(trace.pool.pool)
        assert info.token_x == trace.base_token
        assert info.token_y == trace.trap_token
        assert info.dex_version is DexVersion.V2
        assert node.posts == 1 and len(node.requests) == 3
        assert {params[1] for _, params in node.requests} == {"latest"}
        assert rpc.pool_info(trace.pool.pool) is info and node.posts == 1

    def test_quotes_are_one_post_of_the_v3_items(self):
        """Three V3 and two V2 quotes cost one POST of three quoter
        `eth_call`s at the block; each answer lands at its own item, in
        order, and a V2 item or an error answer gets None."""
        payloads = []

        def transport(payload):
            payloads.append(payload)
            return [
                {"jsonrpc": "2.0", "id": item["id"], "error": {"code": 3, "message": "revert"}}
                if k == 1 else
                {"jsonrpc": "2.0", "id": item["id"],
                 "result": abi.bytes_to_hex(abi.enc_uint(1000 + k))}
                for k, item in enumerate(payload)
            ]

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=transport)
        a, b = Address.derive("quote-a"), Address.derive("quote-b")
        v2 = PoolInfo(pool=Address.derive("quote-v2"), token_x=a, token_y=b)
        v3 = PoolInfo(pool=Address.derive("quote-v3"), token_x=a, token_y=b,
                      dex_version=DexVersion.V3, fee_num=3000, fee_den=10**6)
        items = [(v3, a, 10), (v2, a, 11), (v3, b, 12), (v2, b, 13), (v3, a, 14)]
        assert rpc.quotes_exact_in(items, 7) == [1000, None, None, None, 1002]
        [post] = payloads
        assert [item["method"] for item in post] == ["eth_call"] * 3
        assert [item["params"] for item in post] == [
            [{"to": rpc.v3_quoter.hex,
              "data": abi.bytes_to_hex(abi.encode_quote_exact_input_single(
                  token_in, v3.other_token(token_in), 3000, amount))}, hex(7)]
            for token_in, amount in ((a, 10), (b, 12), (a, 14))
        ]
        assert rpc.quotes_exact_in([(v2, a, 11)], 7) == [None] and len(payloads) == 1
        assert rpc.quotes_exact_in([(v3, a, 10)], 7) == [1000] and len(payloads) == 2

    @pytest.mark.parametrize("max_batch, posts", [(100, 1), (4, 5)])
    def test_unknown_pools_cost_one_metadata_post(self, max_batch, posts):
        """A window over five pools not yet known, and one address that is
        no pool, reads all six pools' token0, token1 and fee in one POST
        (split by `max_batch`); the address that is no pool fails alone,
        and known pools cost no more reads."""
        from test_pipeline import cohort_chain

        chain, targets = cohort_chain(pools=5)
        node = FakeNode(chain=chain)
        payloads = []

        def transport(payload):
            payloads.append(payload)
            return node(payload)

        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0, max_batch=max_batch),
                           transport=transport)
        pools = [info.pool for info, _ in targets]
        stray = Address.derive("not-a-pool")
        span = (1, chain.head())
        window = rpc.get_window([*pools, stray], [], span)
        metadata = [payload for payload in payloads
                    if all(item["params"][-1] == "latest" for item in payload)]
        assert len(metadata) == posts and sum(map(len, metadata)) == 3 * 6
        for pool in pools:
            assert window.get_swaps(pool, span) == chain.get_swaps(pool, span)
        with pytest.raises(UnknownPool):
            window.get_swaps(stray, span)
        sent = len(payloads)
        assert rpc.pool_infos(pools) == [info for info, _ in targets]
        assert len(payloads) == sent

    def test_pool_discovery_is_one_post(self, backend):
        """One log query over both factories and both creation signatures,
        and discovery fills the metadata cache."""
        trace, node, rpc = backend
        pools = rpc.get_pool_created((0, trace.chain.head()))
        assert [info.pool for info in pools] == [trace.pool.pool]
        assert node.posts == 1 and node.requests.count_method("eth_getLogs") == 1
        assert rpc.pool_info(trace.pool.pool) == pools[0] and node.posts == 1

    def test_pool_discovery_queries_every_factory(self, backend):
        """A factory that is neither first nor last in the config is still
        queried, for either creation signature."""
        trace, node, _ = backend
        others = [Address.derive("factory-a").hex, Address.derive("factory-b").hex]
        config = EndpointConfig(url="fake://", retries=1,
                                extra={"factories": [others[0], node.factory.hex, others[1]]})
        rpc = RpcChainView(config, transport=node)
        pools = rpc.get_pool_created((0, trace.chain.head()))
        assert [info.pool for info in pools] == [trace.pool.pool]
        [(_, [flt])] = node.requests
        assert flt["address"] == [others[0], node.factory.hex, others[1]]
        assert flt["topics"] == [[abi.SIG_PAIR_CREATED.topic0_hex,
                                  abi.SIG_POOL_CREATED.topic0_hex]]

    def test_every_payload_is_a_batch(self, tmp_path, monkeypatch):
        """Over discovery, pool metadata, the single-form queries, a cohort
        scan and a checkpoint resume, every payload the node receives is a
        list of requests, a lone request included."""
        from test_pipeline import cohort_chain

        chain, targets = cohort_chain(pools=6)
        head = chain.head()
        node = FakeNode(chain=chain)
        payloads = []

        def guard(payload):
            payloads.append(payload)
            return node(payload)

        def view():
            return RpcChainView(EndpointConfig(url="fake://", retries=0), transport=guard)

        rpc = view()
        assert len(rpc.get_pool_created((0, head))) == len(targets)
        pool, trap = targets[0][0].pool, targets[0][1]
        fresh = view()
        assert fresh.pool_info(pool) == targets[0][0]
        probe = Address.derive("probe")
        fresh.head()
        fresh.balance_of(trap, probe, head)
        fresh.get_swaps(pool, (1, head))
        fresh.get_reserves(pool, head)
        fresh.get_liquidity_events(pool, (1, head))
        v3_style = replace(targets[0][0], dex_version=DexVersion.V3, fee_num=3000, fee_den=10**6)
        assert fresh.quotes_exact_in([(v3_style, trap, 10**6)], head) == [None]  # no quoter
        fresh.simulate_bundle(head, [BalanceOfCall(caller=probe, token=trap, holder=probe)])

        monkeypatch.setattr(pipeline, "COHORT_SIZE", 3)
        settings = ScanSettings(interval=10)
        checkpoint = tmp_path / "scan.ckpt"
        first, _ = scan_pools_resumable(rpc, targets[:3], 1, head, settings, checkpoint)
        lines, summary = scan_pools_resumable(view(), targets, 1, head, settings, checkpoint)
        assert summary.failures == 0 and lines[:3] == first and len(lines) == len(targets)
        assert payloads and all(
            isinstance(payload, list) and payload for payload in payloads
        )

    def test_reserves_match_mock(self, backend):
        trace, _, rpc = backend
        head = trace.chain.head()
        assert rpc.get_reserves(trace.pool.pool, head) == \
            trace.chain.get_reserves(trace.pool.pool, head)

    def test_reserves_memo_under_threads(self, backend):
        """Concurrent reads of several blocks each get their own block's
        reserves."""
        trace, _, rpc = backend
        pool, head = trace.pool.pool, trace.chain.head()
        blocks = [head - i % 4 for i in range(200)]
        expected = {b: trace.chain.get_reserves(pool, b) for b in set(blocks)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool_exec:
                got = list(pool_exec.map(lambda b: (b, rpc.get_reserves(pool, b)), blocks,
                                          timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(reserves == expected[b] for b, reserves in got)

    def test_failed_snapshot_not_exception(self, backend):
        trace, _, rpc = backend
        not_a_token = Address.derive("not-a-token")
        assert rpc.balance_of(not_a_token, OWNER, trace.chain.head()) is None

    def test_swap_records_match_the_mock(self, backend):
        trace, _, rpc = backend
        swaps = rpc.get_swaps(trace.pool.pool, (0, trace.chain.head()))
        mock_swaps = trace.chain.get_swaps(trace.pool.pool, (0, trace.chain.head()))
        assert swaps and swaps == mock_swaps


class TestWindowedScanCost:
    def test_interval_ten_scan_cost(self):
        trace = run_simple(Honest(Fraction(0)), victims=2, extra=(Wait(80),))
        node = FakeNode(chain=trace.chain)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        blocks = trace.final_block
        assert blocks % 10 != 0  # the last round is a partial one
        verdict = scan_pool(rpc, trace.pool, trace.trap_token, 1, blocks, ScanSettings(interval=10))
        assert verdict.traps == set()
        rounds = blocks // 10 + 1
        assert node.requests.count_method("eth_getLogs") <= 2 * rounds
        assert len(node.requests) < 2 * blocks
        # Per round: the log queries with the reserves, the sender lookups,
        # the balance reads, the sells and probe, and the round trip; plus 2
        # for the pool's metadata: the head, then token0, token1 and fee.
        assert node.posts <= 5 * rounds + 2

    def test_reserves_read_once_per_round(self, monkeypatch):
        """Ingestion's getReserves call at each round's block is the only
        one: bundles are priced from it and nothing memoises it."""
        trace = run_simple(Honest(Fraction(0)), victims=2, extra=(Wait(80),))
        node = FakeNode(chain=trace.chain)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        rounds = []
        real_round = pipeline.run_detection_round

        def counting_round(chain, state, block, settings):
            rounds.append(block)
            return real_round(chain, state, block, settings)

        monkeypatch.setattr(pipeline, "run_detection_round", counting_round)
        scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block,
                  ScanSettings(interval=10))
        get_reserves = abi.bytes_to_hex(abi.SEL_GET_RESERVES)
        reads = [int(params[1], 16) for method, params in node.requests
                 if method == "eth_call" and params[0]["data"].startswith(get_reserves)]
        assert len(rounds) > 1
        assert reads == rounds

    def test_balance_reads_are_the_snapshots(self, monkeypatch):
        """A sell is sized from the round's snapshot: the scan's only
        balanceOf reads are the snapshots ingestion takes."""
        trace = run_simple(Honest(Fraction(0)), victims=2, extra=(Wait(80),))
        node = FakeNode(chain=trace.chain)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        taken = []
        real_ingest = pipeline.ingest_window

        def recording_ingest(watches, chain, block, start=None):
            # each buyer starts the window with its last balance
            carried = [set(watch.buyers) for watch in watches]
            errors = real_ingest(watches, chain, block, start)
            for watch, kept in zip(watches, carried):
                for buyer, ledger in watch.buyers.items():
                    new = ledger.snapshots[1:] if buyer in kept else ledger.snapshots
                    taken.extend((buyer, edge) for edge, _ in new)
            return errors

        monkeypatch.setattr(pipeline, "ingest_window", recording_ingest)
        scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block,
                  ScanSettings(interval=10))
        balance_of = abi.bytes_to_hex(abi.SEL_BALANCE_OF)
        reads = [(Address.from_hex("0x" + params[0]["data"][-40:]), int(params[1], 16))
                 for method, params in node.requests
                 if method == "eth_call" and params[0]["data"].startswith(balance_of)]
        assert len(taken) > 3
        assert sorted(reads) == sorted(taken)


class TestCohortScanCost:
    @pytest.mark.parametrize("cohort", [1, 4, 12])
    def test_requests_per_window_do_not_grow_with_the_cohort(self, cohort, monkeypatch):
        """Twelve pools at interval 10: each window of a cohort makes at most
        two log queries and five POSTs, whatever the cohort's size, also in
        windows where some of its pools do not exist yet."""
        from test_pipeline import cohort_chain

        chain, targets = cohort_chain()
        node = FakeNode(chain=chain)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=0), transport=node)
        assert len(rpc.get_pool_created((0, chain.head()))) == len(targets)
        node.requests.clear()
        node.posts = 0
        monkeypatch.setattr(pipeline, "COHORT_SIZE", cohort)
        settings = ScanSettings(interval=10)
        verdicts, summary = scan_pools(rpc, targets, 1, chain.head(), settings)
        assert summary.failures == 0 and len(verdicts) == len(targets)
        windows = len(list(pipeline._round_blocks(1, 1, chain.head(), 10)))
        cohort_windows = windows * -(-len(targets) // cohort)
        assert node.requests.count_method("eth_getLogs") <= 2 * cohort_windows
        assert node.posts <= 5 * cohort_windows
        # Windows before a pair existed read none of its balances: its
        # failed getReserves leaves it unknown at the block.
        pairs = {info.pool.hex[2:] for info, _ in targets}
        balance_of = abi.bytes_to_hex(abi.SEL_BALANCE_OF)
        assert not any(
            method == "eth_call" and params[0]["data"].startswith(balance_of)
            and params[0]["data"][-40:] in pairs
            for method, params in node.requests
        )


class TestUnreadBalance:
    def test_reverted_victim_read_is_no_finding(self):
        """An honest pool whose victim balanceOf read at block 10 gets an
        error reply: the read is unknown, not 0, so no window edge built
        on it is reconciled, and the round's sell for the victim is
        skipped and recorded."""
        trace = run_simple(Honest(Fraction(0)))
        victim = trace.actors.victims[0]
        node = FakeNode(chain=trace.chain, fail_balance_reads={(victim, 10)})
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=node)
        state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
        verdict = scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block,
                            ScanSettings(), state)
        assert verdict.findings == []
        assert {"block": 10, "reason": "balance unread", "subject": victim.hex} in (
            state.skipped_rounds
        )


class TestBatchedBalanceReads:
    def test_one_failed_read_in_a_batch(self):
        """At interval 1, block 11's three buyer reads go in one POST. The
        node fails the first victim's: only that read is None, that buyer
        alone is skipped, and the other two still sell."""
        trace = run_simple(Honest(Fraction(0)), victims=2)
        wash, (victim, other) = trace.actors.wash_trader, trace.actors.victims
        node = FakeNode(chain=trace.chain, fail_balance_reads={(victim, 11)})
        transport = Recorder(node)
        rpc = RpcChainView(EndpointConfig(url="fake://", retries=1), transport=transport)
        holders = (wash, victim, other)
        reads = rpc.balances_at([(trace.trap_token, h, 11) for h in holders])
        assert len(transport.payloads) == 1
        assert reads == [None if h == victim else trace.chain.balance_of(trace.trap_token, h, 11)
                         for h in holders]
        assert reads[0] > 0 and reads[2] > 0

        transport.payloads.clear()
        state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
        verdict = scan_pool(rpc, trace.pool, trace.trap_token, 1, trace.final_block,
                            ScanSettings(), state)
        assert verdict.findings == []
        unread = [skip for skip in state.skipped_rounds if skip["reason"] == "balance unread"]
        assert unread == [{"block": 11, "reason": "balance unread", "subject": victim.hex}]
        balance_of = abi.bytes_to_hex(abi.SEL_BALANCE_OF)
        read_posts = [
            post for post in transport.payloads
            if post[0]["method"] == "eth_call"
            and post[0]["params"][0]["data"].startswith(balance_of)
            and post[0]["params"][1] == hex(11)
        ]
        assert len(read_posts) == 1 and len(read_posts[0]) == 3
        sellers = [
            item["params"][0][0]["transactions"][0]["from"]
            for post in transport.payloads for item in post
            if item["method"] == "eth_callMany" and item["params"][1]["blockNumber"] == hex(11)
        ]
        assert wash.hex in sellers and other.hex in sellers and victim.hex not in sellers


class TestConfig:
    def test_endpoint_config_from_doc(self, tmp_path):
        doc = {
            "url": "http://node:8545",
            "retries": 5,
            "rate_limit": 10,
            "base_tokens": ["0x" + "11" * 20],
            "v2_router": "0x" + "22" * 20,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        loaded = load_backend_config(path)
        config = EndpointConfig.from_doc(loaded)
        assert config.url == "http://node:8545"
        assert config.retries == 5
        assert config.extra["v2_router"] == "0x" + "22" * 20
        rpc = RpcChainView(config, transport=lambda p: None)
        assert rpc.v2_router.hex == "0x" + "22" * 20

    def test_default_router_addresses(self):
        from trapscan.rpcbackend import V2_ROUTER, V3_QUOTER, V3_ROUTER

        assert V2_ROUTER.hex == "0x7a250d5630b4cf539739df2c5dacb4c659f2488d"
        assert V3_ROUTER.hex == "0x68b3465833fb72a70ecdf485e0e4c7bd8665fc45"
        assert V3_QUOTER.hex == "0xb27308f9f90d607463bb33ea1bebb41c27ce5ab6"

    def test_unknown_extra_key_rejected(self):
        """Built directly or from a document, a config with a key the view
        does not read is rejected, naming the key."""
        with pytest.raises(ValueError, match="unknown config key: 'v2router'"):
            EndpointConfig(url="x", extra={"v2router": "0x" + "22" * 20})
        with pytest.raises(ValueError, match="unknown config key: 'balance_slot'"):
            EndpointConfig.from_doc({"url": "x", "balance_slot": 3})

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EndpointConfig(url="x", request_timeout=0)
        with pytest.raises(ValueError):
            EndpointConfig(url="x", retries=99)
