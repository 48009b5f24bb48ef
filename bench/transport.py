"""Benchmark-owned JSON-RPC transport pieces for the live-replay workload.

`CountingTransport` sits between `JsonRpcClient` and the in-process node
and counts what crosses the wire: requests by method, round trips (one
per transport call, so a batched POST is one), re-sent request ids, and
the time spent inside the node.

`CachedFakeNode` is the repository's test node with one change: the full
log list is built once per chain head instead of on every eth_getLogs.
The stock node rebuilds and sha256-hashes every log per request, which
would dominate the run; requests and responses are unchanged because the
mock chain never alters a sealed block.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

from fake_node import FakeNode, RequestLog


class CountingTransport:
    """Transport callable wrapping a node; one instance per client.

    The start and end of every node call are kept, so the time between
    calls (the client's own work) can be told apart from the node's.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.requests: Counter[str] = Counter()
        self.round_trips = 0
        self.retries = 0
        self.node_s = 0.0
        self.starts = array("d")
        self.ends = array("d")
        self._sent_ids: set = set()

    def __call__(self, payload):
        items = payload if isinstance(payload, list) else [payload]
        self.round_trips += 1
        for item in items:
            self.requests[item["method"]] += 1
            rid = item.get("id")
            if rid in self._sent_ids:
                self.retries += 1
            else:
                self._sent_ids.add(rid)
        start = time.perf_counter()
        try:
            return self.node(payload)
        finally:
            end = time.perf_counter()
            self.node_s += end - start
            self.starts.append(start)
            self.ends.append(end)

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    def split_timings(self, begin: float, end: float) -> tuple[array, array]:
        """(client stretches, node calls) of the calls made in [begin, end].

        Client stretches are the times before the first node call,
        between consecutive calls and after the last. The per-call marks
        and the sent ids are released; the counts stay.
        """
        client = array("d", [self.starts[0] - begin] if self.starts else [end - begin])
        client.extend(self.starts[i + 1] - self.ends[i] for i in range(len(self.starts) - 1))
        if self.starts:
            client.append(end - self.ends[-1])
        node = array("d", (stop - start for start, stop in zip(self.starts, self.ends)))
        self.starts, self.ends, self._sent_ids = array("d"), array("d"), set()
        return client, node


class _DiscardLog(RequestLog):
    def append(self, item) -> None:
        pass


class CachedFakeNode(FakeNode):
    """`FakeNode` whose log list is rebuilt only when the chain head moves.

    It also keeps no request log: `CountingTransport` does the counting,
    and a log of every request would add tens of megabytes to the
    benchmark's peak memory.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.requests = _DiscardLog()
        self._logs_head: int | None = None
        self._logs: list[dict] = []

    def _all_logs(self) -> list[dict]:
        head = self.chain.head()
        if head != self._logs_head:
            self._logs = super()._all_logs()
            self._logs_head = head
        return self._logs
