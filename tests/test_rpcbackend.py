import json
from fractions import Fraction

import pytest

from conftest import run_simple
from fake_node import FakeNode
from trapscan.chainview import BalanceOfCall, SwapExactInCall
from trapscan.core import Address, DexVersion
from trapscan.mockchain import Honest
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
from trapscan.rpcbackend import abi
from trapscan.rpcbackend.abi import DecodeError
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
        assert rec.value == 1000 and rec.logged

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
            if isinstance(payload, dict) and payload.get("method") == "eth_getLogs":
                result = node(payload)
                result["result"].append(make_log(
                    trace.trap_token.hex,
                    [abi.SIG_TRANSFER.topic0_hex, pad_addr(self.USDC)],  # topic missing
                    "0x" + "00" * 32,
                ))
                return result
            return node(payload)

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
        assert rpc.fetch_logs(trace.trap_token, abi.SIG_TRANSFER.topic0_hex, (0, 0)) == []


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
            client.call("eth_blockNumber", [])

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
        outcomes = rpc.simulate_bundle(trace.chain.head(), self._calls(trace, probe),
                                       {(trace.base_token, probe): 10**12})
        assert outcomes[0].return_value == 10**12
        assert outcomes[1].ok and outcomes[1].return_value > 0
        assert outcomes[2].return_value == outcomes[1].return_value

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


class TestBackendQueries:
    def test_pool_info_via_calls(self, backend):
        trace, _, rpc = backend
        info = rpc.pool_info(trace.pool.pool)
        assert info.token_x == trace.base_token
        assert info.token_y == trace.trap_token
        assert info.dex_version is DexVersion.V2

    def test_reserves_match_mock(self, backend):
        trace, _, rpc = backend
        head = trace.chain.head()
        assert rpc.get_reserves(trace.pool.pool, head) == \
            trace.chain.get_reserves(trace.pool.pool, head)

    def test_failed_snapshot_not_exception(self, backend):
        trace, _, rpc = backend
        snap = rpc.balance_of(Address.derive("not-a-token"), OWNER, trace.chain.head())
        assert snap.failed

    def test_swap_records_carry_tx_sender(self, backend):
        trace, _, rpc = backend
        swaps = rpc.get_swaps(trace.pool.pool, (0, trace.chain.head()))
        mock_swaps = trace.chain.get_swaps(trace.pool.pool, (0, trace.chain.head()))
        assert [s.sender for s in swaps] == [s.sender for s in mock_swaps]


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

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EndpointConfig(url="x", request_timeout=0)
        with pytest.raises(ValueError):
            EndpointConfig(url="x", retries=99)
