"""Which trapscan functions the traced run wraps, and the per-layer
metrics computed from the spans and counters it records.

Functions are wrapped where their callers look them up: the pipeline
imports the monitor, simulator and analyzer entry points into its own
namespace, so those are replaced on `trapscan.pipeline`; backend queries
are replaced on the chain class in use (`MockChain` for sim workloads,
`RpcChainView` for live replay, leaving the node's own `MockChain` calls
unwrapped).
"""

from __future__ import annotations

import os

from trapscan import analyzer, pipeline
from trapscan.monitor import PoolWatch
from trapscan.pipeline import PoolScanState
from trapscan.simulator import BundleKind

from tracing import Tracer

CHAINVIEW_QUERIES = (
    "get_swaps",
    "get_transfers",
    "get_approvals",
    "get_liquidity_events",
    "balance_of",
    "get_reserves",
)
RPC_METHODS = (
    "eth_getLogs",
    "eth_call",
    "eth_callMany",
    "eth_getTransactionByHash",
    "eth_blockNumber",
)
PREDICATES = (
    "check_cannot_sell",
    "check_unauthorized_transfer",
    "check_invalid_sell",
    "check_invalid_buy",
)
BUILDERS = ("build_sell_bundle", "build_buy_probe", "build_buy_sell_bundle")
SKIP_REASONS = {"no liquidity": "no_liquidity", "estimate=0": "estimate_0"}

# (name, unit) of every per-layer metric, in report order. Times and
# counts are per traced pass.
PER_LAYER_METRICS: list[tuple[str, str]] = [
    ("analyzer.check_cannot_sell_s", "s"),
    ("analyzer.check_cannot_sell_calls", "count"),
    ("analyzer.check_unauthorized_transfer_s", "s"),
    ("analyzer.check_invalid_sell_s", "s"),
    ("analyzer.check_invalid_buy_s", "s"),
    ("analyzer.classify_pool_s", "s"),
    ("analyzer.verdict_export_s", "s"),
    ("analyzer.findings_kept_ratio", "ratio"),
    ("monitor.ingest_block_calls", "count"),
    ("monitor.ingest_self_s", "s"),
    ("monitor.buyers_tracked", "count"),
    ("monitor.snapshots_held", "count"),
    *[(f"chainview.query_calls.{m}", "count") for m in CHAINVIEW_QUERIES],
    *[(f"chainview.query_s.{m}", "s") for m in CHAINVIEW_QUERIES],
    ("chainview.get_reserves_calls_per_round", "count/round"),
    ("chainview.simulate_bundle_calls", "count"),
    ("chainview.simulate_bundle_ms_per_call", "ms"),
    *[(f"simulator.bundles_built.{k.value}", "count") for k in BundleKind],
    ("simulator.run_self_s", "s"),
    ("simulator.useful_ratio", "ratio"),
    ("pipeline.rounds_run", "count"),
    *[(f"pipeline.rounds_skipped.{r}", "count") for r in SKIP_REASONS.values()],
    ("pipeline.round_self_s", "s"),
    ("pipeline.checkpoint_writes", "count"),
    ("pipeline.checkpoint_write_s", "s"),
    ("pipeline.checkpoint_bytes_written", "bytes"),
    ("pipeline.checkpoint_read_s", "s"),
    ("rpcbackend.requests_per_pool_block", "req/pool-block"),
    ("rpcbackend.round_trips_per_pool_block", "POST/pool-block"),
    *[(f"rpcbackend.requests_per_pool_block.{m}", "req/pool-block") for m in RPC_METHODS],
    ("rpcbackend.batch_size_mean", "req/POST"),
    ("rpcbackend.retries", "count"),
    ("rpcbackend.node_s", "s"),
    ("rpcbackend.client_s", "s"),
    ("corpus.generate_s", "s"),
    ("mockchain.replay_s", "s"),
    ("rpcbackend.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class LayerProbe:
    """The traced run's wrappers plus the counters their hooks fill."""

    def __init__(self, chain_cls: type) -> None:
        self.tracer = Tracer()
        self.chain_cls = chain_cls
        self._counters = self.tracer.counters
        # Simulation results of the pool being scanned, kept alive so ids
        # stay unique until the pool's usefulness tally is taken.
        self._results: dict[int, object] = {}
        self._useful: set[int] = set()
        # Every scan state seen, by identity: a pool scanned in two calls
        # on one state is counted once, as it stood after the last call.
        self._states: dict[int, PoolScanState] = {}

    # ------------------------------------------------------------------
    # hooks

    def _inject_state(self, args, kwargs):
        if len(args) < 7 and kwargs.get("state") is None:
            kwargs = {**kwargs, "state": PoolScanState(watch=PoolWatch.create(args[1], args[2]))}
        return args, kwargs

    def _pool_done(self, args, kwargs, verdict) -> None:
        state = args[6] if len(args) >= 7 else kwargs["state"]
        self._states[id(state)] = state
        self._counters["useful"] += len(self._useful)
        self._results.clear()
        self._useful.clear()

    def _count_builder(self, args, kwargs):
        self._counters["bundles_attempted"] += 1
        return args, kwargs

    def _bundle_built(self, args, kwargs, bundle) -> None:
        self._counters[f"built.{bundle.kind.value}"] += 1

    def _result_made(self, args, kwargs, result) -> None:
        self._results[id(result)] = result

    def _mark(self, result) -> None:
        if id(result) in self._results:
            self._useful.add(id(result))

    def _predicate_done(self, args, kwargs, finding) -> None:
        subject = args[0]
        if isinstance(subject, list):
            # check_cannot_sell gets the whole history; only its newest
            # entry can be unseen, earlier ones reached a predicate already.
            if subject:
                self._mark(subject[-1])
        else:
            self._mark(subject)
        if finding is not None:
            self._counters["findings_returned"] += 1

    def _checkpoint_written(self, args, kwargs, _result) -> None:
        self._counters["checkpoint_bytes"] += os.path.getsize(args[0])

    # ------------------------------------------------------------------

    def replacements(self) -> list:
        t = self.tracer
        reps = [
            (pipeline, "scan_pool",
             t.wrap("pipeline.scan_pool", pipeline.scan_pool,
                    before=self._inject_state, after=self._pool_done)),
            (pipeline, "run_detection_round",
             t.wrap("pipeline.run_detection_round", pipeline.run_detection_round)),
            (pipeline, "ingest_block", t.wrap("monitor.ingest_block", pipeline.ingest_block)),
            (pipeline, "run",
             t.wrap("simulator.run", pipeline.run, after=self._result_made)),
            (pipeline, "classify_pool",
             t.wrap("analyzer.classify_pool", pipeline.classify_pool)),
            (pipeline, "verdict_to_json_line",
             t.wrap("analyzer.verdict_export", pipeline.verdict_to_json_line)),
            (analyzer, "verdict_to_json_line",
             t.wrap("analyzer.verdict_export", analyzer.verdict_to_json_line)),
            (pipeline, "write_checkpoint",
             t.wrap("pipeline.checkpoint_write", pipeline.write_checkpoint,
                    after=self._checkpoint_written)),
            (pipeline, "read_checkpoint",
             t.wrap("pipeline.checkpoint_read", pipeline.read_checkpoint)),
        ]
        for name in BUILDERS:
            reps.append((pipeline, name, t.wrap(
                f"simulator.{name}", getattr(pipeline, name),
                before=self._count_builder, after=self._bundle_built)))
        for name in PREDICATES:
            reps.append((pipeline, name, t.wrap(
                f"analyzer.{name}", getattr(pipeline, name), after=self._predicate_done)))
        for name in (*CHAINVIEW_QUERIES, "simulate_bundle"):
            reps.append((self.chain_cls, name, t.wrap(
                f"chainview.{name}", getattr(self.chain_cls, name))))

        original_add = PoolScanState.add_finding
        counters = self._counters

        def add_finding(state, finding):
            before = len(state.findings)
            original_add(state, finding)
            counters["findings_kept"] += len(state.findings) - before

        reps.append((PoolScanState, "add_finding", add_finding))
        return reps

    def patch(self):
        return self.tracer.patch(self.replacements())

    # ------------------------------------------------------------------

    def metrics(self, passes: int, pool_blocks: int, transports: list) -> dict[str, float]:
        """Per-pass per-layer figures from everything recorded so far."""
        t = self.tracer
        c = self._counters
        selfs = t.self_times()
        total: dict[str, float] = {}
        self_total: dict[str, float] = {}
        calls: dict[str, int] = {}
        chain_top: dict[str, float] = {}
        chain_calls: dict[str, int] = {}
        reserves_in_rounds = 0
        for i, name in enumerate(t.names):
            dur = t.ends[i] - t.starts[i]
            total[name] = total.get(name, 0.0) + dur
            self_total[name] = self_total.get(name, 0.0) + selfs[i]
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("chainview."):
                parent = t.parents[i]
                if parent != -1 and t.names[parent].startswith("chainview."):
                    continue  # backend-internal call, counted in its caller
                chain_top[name] = chain_top.get(name, 0.0) + dur
                chain_calls[name] = chain_calls.get(name, 0) + 1
                if name == "chainview.get_reserves" and t.has_ancestor(
                    i, "pipeline.run_detection_round"
                ):
                    reserves_in_rounds += 1

        for state in self._states.values():
            c["buyers"] += len(state.watch.buyers)
            c["snapshots"] += sum(len(led.snapshots) for led in state.watch.buyers.values())
            for skip in state.skipped_rounds:
                c[f"skip.{SKIP_REASONS.get(skip['reason'], 'other')}"] += 1
        self._states.clear()

        n = max(passes, 1)
        rounds_called = calls.get("pipeline.run_detection_round", 0)
        no_liquidity = c["skip.no_liquidity"]
        sim_calls = chain_calls.get("chainview.simulate_bundle", 0)
        out: dict[str, float] = {
            "analyzer.check_cannot_sell_s": total.get("analyzer.check_cannot_sell", 0.0) / n,
            "analyzer.check_cannot_sell_calls": calls.get("analyzer.check_cannot_sell", 0) / n,
            "analyzer.check_unauthorized_transfer_s":
                total.get("analyzer.check_unauthorized_transfer", 0.0) / n,
            "analyzer.check_invalid_sell_s": total.get("analyzer.check_invalid_sell", 0.0) / n,
            "analyzer.check_invalid_buy_s": total.get("analyzer.check_invalid_buy", 0.0) / n,
            "analyzer.classify_pool_s": total.get("analyzer.classify_pool", 0.0) / n,
            "analyzer.verdict_export_s": total.get("analyzer.verdict_export", 0.0) / n,
            "analyzer.findings_kept_ratio": _ratio(c["findings_kept"], c["findings_returned"]),
            "monitor.ingest_block_calls": calls.get("monitor.ingest_block", 0) / n,
            "monitor.ingest_self_s": self_total.get("monitor.ingest_block", 0.0) / n,
            "monitor.buyers_tracked": c["buyers"] / n,
            "monitor.snapshots_held": c["snapshots"] / n,
            "chainview.get_reserves_calls_per_round": _ratio(reserves_in_rounds, rounds_called),
            "chainview.simulate_bundle_calls": sim_calls / n,
            "chainview.simulate_bundle_ms_per_call":
                _ratio(chain_top.get("chainview.simulate_bundle", 0.0) * 1000, sim_calls),
            "simulator.run_self_s": self_total.get("simulator.run", 0.0) / n,
            "simulator.useful_ratio": _ratio(c["useful"], c["bundles_attempted"]),
            "pipeline.rounds_run": (rounds_called - no_liquidity) / n,
            "pipeline.round_self_s": self_total.get("pipeline.run_detection_round", 0.0) / n,
            "pipeline.checkpoint_writes": calls.get("pipeline.checkpoint_write", 0) / n,
            "pipeline.checkpoint_write_s": total.get("pipeline.checkpoint_write", 0.0) / n,
            "pipeline.checkpoint_bytes_written": c["checkpoint_bytes"] / n,
            "pipeline.checkpoint_read_s": total.get("pipeline.checkpoint_read", 0.0) / n,
            "trace.spans": len(t) / n,
        }
        for m in CHAINVIEW_QUERIES:
            out[f"chainview.query_calls.{m}"] = chain_calls.get(f"chainview.{m}", 0) / n
            out[f"chainview.query_s.{m}"] = chain_top.get(f"chainview.{m}", 0.0) / n
        for kind in BundleKind:
            out[f"simulator.bundles_built.{kind.value}"] = c[f"built.{kind.value}"] / n
        for reason in SKIP_REASONS.values():
            out[f"pipeline.rounds_skipped.{reason}"] = c[f"skip.{reason}"] / n
        out.update(rpc_metrics(transports, pool_blocks, sum(chain_top.values()) / n))
        return out


def rpc_metrics(transports: list, pool_blocks: int, chainview_s: float) -> dict[str, float]:
    """Wire counts averaged over passes; all zero when no RPC was used.

    `chainview_s` is the per-pass time spent in backend calls, so the
    backend's own share is that minus the node's time.
    """
    n = max(len(transports), 1)
    requests = sum(tr.total_requests for tr in transports) / n
    round_trips = sum(tr.round_trips for tr in transports) / n
    node_s = sum(tr.node_s for tr in transports) / n
    out = {
        "rpcbackend.requests_per_pool_block": _ratio(requests, pool_blocks),
        "rpcbackend.round_trips_per_pool_block": _ratio(round_trips, pool_blocks),
        "rpcbackend.batch_size_mean": _ratio(requests, round_trips),
        "rpcbackend.retries": sum(tr.retries for tr in transports) / n,
        "rpcbackend.node_s": node_s,
        "rpcbackend.client_s": max(chainview_s - node_s, 0.0) if transports else 0.0,
    }
    for m in RPC_METHODS:
        count = sum(tr.requests[m] for tr in transports) / n
        out[f"rpcbackend.requests_per_pool_block.{m}"] = _ratio(count, pool_blocks)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
