"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import pytest  # noqa: E402

from fake_node import FakeNode  # noqa: E402
from trapscan import pipeline  # noqa: E402
from trapscan.mockchain import MockChain  # noqa: E402
from trapscan.monitor import pick_orientations  # noqa: E402
from trapscan.rpcbackend import EndpointConfig, RpcChainView  # noqa: E402

import run  # noqa: E402
from layers import PER_LAYER_METRICS, LayerProbe  # noqa: E402
from tracing import Tracer, covered_length, self_times  # noqa: E402
from transport import CachedFakeNode, CountingTransport  # noqa: E402
from workloads import WORKLOADS, build_live_chain  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0, 10, [(1, 3), (2, 5), (7, 12)]) == pytest.approx(4 + 3)
    assert covered_length(0, 10, [(2, 4), (2, 4)]) == pytest.approx(2)
    assert covered_length(0, 10, [(3, 9), (4, 5)]) == pytest.approx(6)
    assert covered_length(5, 6, [(0, 1), (7, 8)]) == 0.0
    assert covered_length(0, 10, []) == 0.0


def test_self_times_nested_and_overlapping_children():
    # root [0,10] has two overlapping children [1,4] and [3,6]; the first
    # child has a grandchild [1.5,2] that must not reduce the root again.
    starts = [0.0, 1.0, 3.0, 1.5]
    ends = [10.0, 4.0, 6.0, 2.0]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_tracer_records_parents_and_restores_attributes():
    class Base:
        def inherited(self):
            return "base"

    class Chain(Base):
        def query(self):
            return self.inherited()

    module = types.SimpleNamespace(outer=lambda chain: chain.query())
    original_outer = module.outer
    tracer = Tracer()
    with tracer.patch([
        (module, "outer", tracer.wrap("outer", module.outer)),
        (Chain, "query", tracer.wrap("query", Chain.query)),
        (Chain, "inherited", tracer.wrap("inherited", Chain.inherited)),
    ]):
        assert module.outer(Chain()) == "base"
    assert tracer.names == ["outer", "query", "inherited"]
    assert tracer.parents == [-1, 0, 1]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    assert tracer.has_ancestor(2, "outer") and not tracer.has_ancestor(0, "outer")
    assert module.outer is original_outer
    assert "inherited" not in vars(Chain) and "query" in vars(Chain)


def test_layer_probe_unpatches_pipeline():
    original = pipeline.scan_pool
    with LayerProbe(MockChain).patch():
        assert pipeline.scan_pool is not original
    assert pipeline.scan_pool is original


# ----------------------------------------------------------------------
# counting transport and cached node


@pytest.fixture(scope="module")
def tiny_live():
    return build_live_chain(3, pools=6, buyers=1, tail=10)


def _view(transport):
    return RpcChainView(EndpointConfig(url="fake://test", retries=1), transport=transport)


def test_counting_transport_counts_methods_and_round_trips(tiny_live):
    plan = tiny_live.pools[0]
    counter = CountingTransport(CachedFakeNode(chain=tiny_live.chain))
    view = _view(counter)
    view.head()
    view.balance_of(plan.token, plan.victims[0], tiny_live.head)
    view.get_transfers(plan.token, (1, tiny_live.head))
    view.client.call_batch([("eth_blockNumber", []), ("eth_blockNumber", [])])
    assert dict(counter.requests) == {
        "eth_blockNumber": 3,
        "eth_call": 1,
        "eth_getLogs": 1,
        # one batched lookup of the senders of the token's transfer logs
        "eth_getTransactionByHash": counter.requests["eth_getTransactionByHash"],
    }
    senders = counter.requests["eth_getTransactionByHash"]
    assert senders > 1
    # head, balance, logs, one sender batch, one two-call batch
    assert counter.round_trips == 5
    assert counter.total_requests == 5 + senders
    assert counter.retries == 0
    assert counter.node_s > 0


def test_counting_transport_splits_client_and_node_time(tiny_live):
    counter = CountingTransport(CachedFakeNode(chain=tiny_live.chain))
    view = _view(counter)
    begin = time.perf_counter()
    view.head()
    view.head()
    end = time.perf_counter()
    client, node = counter.split_timings(begin, end)
    assert (len(client), len(node)) == (3, 2)
    assert sum(client) + sum(node) == pytest.approx(end - begin)
    assert sum(node) == pytest.approx(counter.node_s)
    assert counter.requests["eth_blockNumber"] == 2  # counts survive the split


def test_counting_transport_counts_resent_ids(tiny_live):
    counter = CountingTransport(FakeNode(chain=tiny_live.chain, fail_next=1))
    _view(counter).head()
    assert counter.requests["eth_blockNumber"] == 2
    assert counter.round_trips == 2
    assert counter.retries == 1


def test_cached_node_answers_like_the_stock_node(tiny_live):
    stock = CountingTransport(FakeNode(chain=tiny_live.chain))
    cached = CountingTransport(CachedFakeNode(chain=tiny_live.chain))
    settings = pipeline.ScanSettings(interval=10)
    lines = []
    for transport in (stock, cached):
        view = _view(transport)
        targets = [
            (info, trap)
            for info in view.get_pool_created((1, tiny_live.head))
            for trap, _base in pick_orientations(info, {tiny_live.base})
        ]
        scanned, summary = pipeline.scan_pools_resumable(
            view, targets, 1, tiny_live.head, settings
        )
        assert summary.failures == 0
        lines.append(scanned)
    assert lines[0] == lines[1]
    assert stock.requests == cached.requests
    assert stock.round_trips == cached.round_trips
    labels = tiny_live.labels()
    assert [json.loads(line)["traps"] for line in lines[1]] == [
        labels[json.loads(line)["pool"]] for line in lines[1]
    ]


# ----------------------------------------------------------------------
# builders


def test_live_builder_is_deterministic_for_a_seed():
    def fingerprint(seed):
        live = build_live_chain(seed, pools=6, buyers=2, tail=5)
        node = CachedFakeNode(chain=live.chain)
        pools = [(p.family, p.pool.hex, p.token.hex, p.liquidity, p.buys) for p in live.pools]
        return pools, node._all_logs(), live.head  # noqa: SLF001

    first, again, other = fingerprint(11), fingerprint(11), fingerprint(12)
    assert first == again
    assert first[2] == other[2]  # the seed moves amounts, never the shape
    assert first[1] != other[1]


def _result(wall, units, node=()):
    return types.SimpleNamespace(wall_s=wall, units=units, node_units=node)


def test_passes_keep_each_units_fastest_time():
    passes = run.Passes()
    passes.add(_result(9.0, [3.0, 1.0], [5.0]))
    passes.add(_result(8.0, [2.0, 2.0], [4.0]))
    client, node, basis = passes.fastest_units()
    assert (list(client), list(node)) == ([2.0, 1.0], [4.0])
    assert basis is passes.results[0]
    assert passes.seconds() == (3.0, 4.0)


def test_passes_fall_back_to_the_fastest_pass_when_units_differ():
    passes = run.Passes()
    passes.add(_result(5.0, [3.0, 2.0]))
    passes.add(_result(4.0, [1.0, 1.0, 2.0]))
    passes.add(_result(6.0, [0.5, 0.5]))
    client, node, basis = passes.fastest_units()
    assert list(client) == [1.0, 1.0, 2.0] and list(node) == []
    assert basis is passes.results[1]


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER_METRICS
