"""trapscan benchmark: build a seeded workload, scan it for a fixed time,
check every verdict, and report.

    python3 bench/run.py --workload corpus-sim --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

A run sets the workload's input up several times (the median is part of
`setup_s`), then scans the whole input in passes until `--seconds` have
gone by. `--trace 0` reports the end-to-end metrics of unmodified code.
`--trace 1` alternates untraced passes with passes that take spans
around the calls into each layer, and reports the per-layer metrics
plus the traced-minus-untraced client time per pass. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; lines before it are a readable
table. `--workload all` runs each workload in its own process.

Exit status: 0 when every pool passed its correctness check, 1 when any
failed, 2 when the trapscan sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "trapscan-bench"
WORKLOAD_NAMES = ("corpus-sim", "long-horizon", "live-replay")

# Set-up repeats: at least MIN_SETUPS, then more while the set-ups so far
# took under SETUP_BUDGET_S, up to MAX_SETUPS. Imports are timed in
# IMPORT_REPEATS fresh interpreters.
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 0.5
IMPORT_REPEATS = 5

# The end-to-end metrics of the JSON line; every workload reports each.
END_TO_END = (
    ("pools_per_s", "1/s"),
    ("blocks_per_s", "1/s"),
    ("client_ms_per_pool_block", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

clock = time.perf_counter


def require_sources() -> None:
    if not (SRC / "trapscan" / "__init__.py").is_file():
        print(f"error: trapscan sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)


def import_program():
    """Import the harness and trapscan from this checkout's `src/` only."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import trapscan
    import workloads

    if Path(trapscan.__file__).resolve().parent != SRC / "trapscan":
        print(f"error: imported trapscan from {trapscan.__file__}", file=sys.stderr)
        sys.exit(2)
    return workloads


def import_seconds(modules: tuple[str, ...]) -> list[float]:
    """Median seconds a fresh interpreter takes to import each module in
    turn, from this checkout."""
    code = "\n".join([
        "import sys, time",
        f"sys.path.insert(0, {str(SRC)!r})",
        "marks = [time.perf_counter()]",
        *[f"import {m}; marks.append(time.perf_counter())" for m in modules],
        "print(*[b - a for a, b in zip(marks, marks[1:])])",
    ])
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            check=True, timeout=120,
        )
        samples.append([float(x) for x in out.stdout.split()])
    return [statistics.median(column) for column in zip(*samples)]


def set_up(workload, seed: int, workdir: Path):
    """Build the input repeatedly; return the last build, the median
    build time, and the median of each named set-up part."""
    totals: list[float] = []
    parts: list[dict[str, float]] = []
    inp = None
    begun = clock()
    while len(totals) < MIN_SETUPS or (
        len(totals) < MAX_SETUPS and clock() - begun < SETUP_BUDGET_S
    ):
        inp = None  # release the previous build before making the next
        start = clock()
        inp, part = workload.build(seed, workdir)
        totals.append(clock() - start)
        parts.append(part)
    names = {k for part in parts for k in part}
    return inp, statistics.median(totals), {
        k: statistics.median(part.get(k, 0.0) for part in parts) for k in names
    }


class Passes:
    """Pass results, folded as they arrive into each unit's fastest time.

    Every pass over one input does the same work in the same units, so a
    unit's fastest time is its cost without the bursts of host
    interference that slow some passes. Memory does not grow with the
    number of passes. If passes split their work differently, the
    fastest whole pass stands in.
    """

    def __init__(self) -> None:
        self.results: list = []
        self._best: list[array] | None = None
        self._uniform = True
        self._fastest = None
        self._fastest_units: list[array] = []

    def add(self, result) -> None:
        units = [array("d", result.units), array("d", result.node_units)]
        if self._best is None:
            self._best = units
        elif [len(u) for u in units] == [len(b) for b in self._best]:
            self._best = [array("d", map(min, b, u)) for b, u in zip(self._best, units)]
        else:
            self._uniform = False
        if self._fastest is None or result.wall_s < self._fastest.wall_s:
            self._fastest, self._fastest_units = result, units
        result.units = result.node_units = ()
        self.results.append(result)

    def fastest_units(self):
        """(client units, node units, the pass whose layout they follow)."""
        if self._uniform:
            return self._best[0], self._best[1], self.results[0]
        return self._fastest_units[0], self._fastest_units[1], self._fastest

    def seconds(self) -> tuple[float, float]:
        """(client, node) seconds of one pass at each unit's fastest."""
        client, node, _ = self.fastest_units()
        return sum(client), sum(node)


def run_passes(workload, inp, workdir: Path, seconds: float) -> Passes:
    """Whole-input passes until `seconds` have elapsed; at least one."""
    passes = Passes()
    begun = clock()
    while not passes.results or clock() - begun < seconds:
        passes.add(workload.scan(inp, workdir))
    return passes


def run_traced_passes(workload, inp, workdir: Path, seconds: float, probe):
    """Untraced and traced passes in alternation until `seconds` have
    elapsed, so both sides get as many passes and the same host."""
    plain, traced = Passes(), Passes()
    begun = clock()
    while not plain.results or clock() - begun < seconds:
        plain.add(workload.scan(inp, workdir))
        with probe.patch():
            traced.add(workload.scan(inp, workdir))
    return plain, traced


def end_to_end(passes: Passes, setup_s: float) -> dict[str, float]:
    client_s, node_s = passes.seconds()
    shape = passes.results[0]
    return {
        "pools_per_s": shape.pools / (client_s + node_s),
        "blocks_per_s": shape.pool_blocks / (client_s + node_s),
        "client_ms_per_pool_block": client_s * 1000 / shape.pool_blocks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def workload_figures(passes: Passes) -> list[tuple[str, object, str]]:
    """The figures that exist only on some workloads, for the table."""
    results = passes.results
    rows: list[tuple[str, object, str]] = []
    pool_ms = [ms for p in results for ms in p.pool_ms]
    # A percentile is shown only with at least ten samples beyond it.
    if len(pool_ms) >= 20:
        rows.append(("pool_ms_p50", statistics.median(pool_ms), f"ms (n={len(pool_ms)})"))
    else:
        rows.append(("pool_ms_p50", "n/a", f"ms (n={len(pool_ms)}, needs 20)"))
    if len(pool_ms) >= 200:
        p95 = statistics.quantiles(pool_ms, n=100)[94]
        rows.append(("pool_ms_p95", p95, f"ms (n={len(pool_ms)})"))
    else:
        rows.append(("pool_ms_p95", "n/a", f"ms (n={len(pool_ms)}, needs 200)"))
    units, _node, basis = passes.fastest_units()
    if basis.quarter_blocks:
        quarter_s = sum(units[i] for i in basis.quarter_units)
        growth = (sum(units) / basis.pool_blocks) / (quarter_s / basis.quarter_blocks)
        rows.append(("block_cost_growth", growth, "ratio"))
    else:
        rows.append(("block_cost_growth", "n/a", "ratio"))
    live = [p for p in results if p.transport is not None]
    for name, attr in (("rpc_requests_per_pool_block", "total_requests"),
                       ("rpc_round_trips_per_pool_block", "round_trips")):
        values = [getattr(p.transport, attr) / p.pool_blocks for p in live]
        rows.append((name, statistics.median(values) if values else "n/a", "req/pool-block"))
    rows.append(("pass_s_median_wall", statistics.median(p.wall_s for p in results),
                 f"s (n={len(results)} passes, host interference included)"))
    return rows


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<48} {shown:>14}  {unit}")


def run_one(args) -> int:
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path) -> int:
    # The command-line entry module, plus the RPC backend (and its
    # pure-Python keccak) for live replay.
    modules = ("trapscan.cli",) + (("trapscan.rpcbackend",) if workload.live else ())
    import_s = import_seconds(modules)
    inp, build_s, setup_parts = set_up(workload, args.seed, workdir)
    setup_s = sum(import_s) + build_s
    workload.prepare(inp)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("  params " + json.dumps(workload.params, sort_keys=True))

    if args.trace:
        from layers import PER_LAYER_METRICS, LayerProbe

        probe = LayerProbe(workload.chain_cls)
        plain, traced = run_traced_passes(workload, inp, workdir, args.seconds, probe)
        results = plain.results + traced.results
        # Spans only add client-side work; the node's time would add noise.
        plain_s, traced_s = plain.seconds()[0], traced.seconds()[0]
        metrics = probe.metrics(
            len(traced.results), traced.results[0].pool_blocks,
            [p.transport for p in traced.results if p.transport is not None],
        )
        metrics.update({
            "corpus.generate_s": setup_parts.get("corpus.generate_s", 0.0),
            "mockchain.replay_s": setup_parts.get("mockchain.replay_s", 0.0),
            "rpcbackend.import_s": import_s[1] if workload.live else 0.0,
            "trace.overhead_s": traced_s - plain_s,
            "trace.overhead_ratio": (traced_s - plain_s) / plain_s,
        })
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.csv"
        probe.tracer.write(spans_path)
        units = dict(PER_LAYER_METRICS)
        print(f"  passes {len(plain.results)} untraced + {len(traced.results)} traced; "
              f"spans in {spans_path.relative_to(ROOT)}")
        print_table("per-layer (per traced pass)",
                    [(name, metrics[name], units[name]) for name, _ in PER_LAYER_METRICS])
        rows = []
    else:
        passes = run_passes(workload, inp, workdir, args.seconds)
        results = passes.results
        units = dict(END_TO_END)
        metrics = end_to_end(passes, setup_s)
        print(f"  passes {len(results)}")
        print_table("end-to-end", [(n, metrics[n], u) for n, u in END_TO_END])
        rows = workload_figures(passes)

    attempted = sum(p.pools for p in results)
    failures = [f for p in results for f in p.failures]
    rows.append(("pool_error_rate", len(failures) / attempted, f"{len(failures)}/{attempted}"))
    print_table("workload figures", rows)
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_sources()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
