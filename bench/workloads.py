"""The benchmark's workloads: input builders, one timed scan pass each,
and the correctness check applied to every pass.

Each workload is a closed loop over a fixed input: a pass scans every
pool of the input once, on one thread with `ScanSettings.workers=1`, and
the next pass starts when it ends. Builders take the seed and are
deterministic for it; only amounts, rates and addresses depend on the
seed, so every seed yields the same pool count, buyer count and horizon.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from trapscan import analyzer, pipeline
from trapscan.core import Address, TrapType
from trapscan.corpus import gen_corpus
from trapscan.mockchain import (
    AddLiquidity,
    AttackScript,
    CreatePool,
    DelayedSellTax,
    DeployToken,
    GateMode,
    HiddenTax,
    Honest,
    LimitedSell,
    ListGate,
    MockChain,
    OwnerDrain,
    SwitchTrigger,
    VictimBuy,
    Wait,
    WashBuy,
    load_scenario,
    run_attack_script,
)
from trapscan.mockchain.scripts import BASE_SUPPLY, TRAP_SUPPLY
from trapscan.monitor import PoolWatch, pick_orientations
from trapscan.pipeline import PoolScanState, ScanSettings

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass over a workload's whole input measured.

    `units` splits the pass's client-side time into a sequence of pieces
    of work that is the same on every pass over the same input (one per
    pool, per scan segment, or per gap between node calls), and
    `node_units` does the same for time spent inside the node. Taking
    each unit's fastest time across passes removes host interference
    from the totals.
    """

    wall_s: float
    pools: int
    pool_blocks: int
    units: Sequence[float]
    node_units: Sequence[float] = ()
    failures: list[str] = field(default_factory=list)
    pool_ms: list[float] = field(default_factory=list)
    quarter_units: list[int] = field(default_factory=list)  # units of the first quarter
    quarter_blocks: int = 0
    transport: object | None = None  # live-replay: the CountingTransport


def _traps(line: str) -> list[str]:
    return json.loads(line)["traps"]


# ----------------------------------------------------------------------
# corpus-sim


class CorpusSim:
    """Many short labelled pools, each on its own mock chain, scanned the
    way `trapscan scan --mode sim` scans them."""

    name = "corpus-sim"
    why = (
        "400 labelled corpus pools (about 14 blocks, 1-4 buyers) at interval 1: "
        "per-pool fixed cost and mock bundle simulation dominate"
    )
    scenarios = 400
    settings = ScanSettings(interval=1)
    params = {"scenarios": scenarios, "interval": 1, "from_block": 1,
              "families": "6 trap families cycled, 1 honest control in 4"}
    chain_cls = MockChain
    live = False

    def build(self, seed: int, workdir: Path):
        t0 = clock()
        paths = gen_corpus(self.scenarios, seed, workdir / "corpus")
        t1 = clock()
        items = []
        for path in paths:
            scenario = load_scenario(path)
            trace = run_attack_script(scenario.script, scenario.seed)
            expected = sorted(t.value for t in scenario.expected_traps)
            items.append((path.name, expected, trace))
        t2 = clock()
        return items, {"corpus.generate_s": t1 - t0, "mockchain.replay_s": t2 - t1}

    def prepare(self, items) -> None:
        """Nothing to compute ahead: each pass is checked against labels."""

    def scan(self, items, workdir: Path) -> PassResult:
        units: list[float] = []
        pool_ms: list[float] = []
        lines: list[str | None] = []
        failures: list[str] = []
        start = mark = clock()
        for name, _expected, trace in items:
            state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
            t0 = clock()
            try:
                verdict = pipeline.scan_pool(
                    trace.chain, trace.pool, trace.trap_token, 1, trace.final_block,
                    self.settings, state,
                )
                pool_ms.append((clock() - t0) * 1000)
                lines.append(analyzer.verdict_to_json_line(verdict))
            except Exception as exc:  # a failed pool is counted, never fatal
                failures.append(f"{name}: scan raised {exc!r}")
                lines.append(None)
            now = clock()
            units.append(now - mark)
            mark = now
        wall = clock() - start
        for (name, expected, _trace), line in zip(items, lines):
            if line is not None and _traps(line) != expected:
                failures.append(f"{name}: traps {_traps(line)} != label {expected}")
        return PassResult(
            wall_s=wall,
            pools=len(items),
            pool_blocks=sum(trace.final_block for _n, _e, trace in items),
            units=units,
            failures=failures,
            pool_ms=pool_ms,
        )


# ----------------------------------------------------------------------
# long-horizon


class LongHorizon:
    """Three long pools where per-block cost can grow with history."""

    name = "long-horizon"
    why = (
        "3 pools x 8 buyers x 500 blocks at interval 1 (honest, 49% tax, 9/10 sell tax "
        "from block 460): cost that grows with scan length"
    )
    horizon = 500
    segment = 5  # blocks per scan_pool call; the scan resumes from its state
    buyers = 8
    trap_lead = 40  # the delayed trap switches on this many blocks before the end
    settings = ScanSettings(interval=1)
    params = {"pools": 3, "buyers": buyers, "horizon": horizon, "interval": 1,
              "from_block": 1, "delayed_activation": horizon - trap_lead,
              "quarter": horizon // 4, "segment": segment}
    chain_cls = MockChain
    live = False

    def _script(self, behavior, rng: random.Random) -> AttackScript:
        liquidity = rng.choice([10**10, 10**11])
        steps = [
            DeployToken(behavior),
            CreatePool(),
            AddLiquidity(liquidity, liquidity * rng.choice([1, 2, 4])),
            WashBuy(amount=liquidity * rng.randint(2, 10) // 10_000, times=2),
            *[
                VictimBuy(victim=v, amount=liquidity * rng.randint(5, 20) // 10_000)
                for v in range(self.buyers)
            ],
        ]
        # Two set-up blocks precede the script; a wash buy takes `times`
        # blocks and every other step one.
        used = 2 + sum(s.times if isinstance(s, WashBuy) else 1 for s in steps)
        steps.append(Wait(blocks=self.horizon - used))
        return AttackScript(steps=tuple(steps))

    def build(self, seed: int, workdir: Path):
        t0 = clock()
        rng = random.Random(seed)
        activation = self.horizon - self.trap_lead
        pools = [
            ("honest", Honest(Fraction(0))),
            ("honest_taxed", Honest(Fraction(49, 100))),
            ("delayed", DelayedSellTax(Fraction(9, 10), SwitchTrigger.at_block(activation))),
        ]
        items = []
        for label, behavior in pools:
            trace = run_attack_script(self._script(behavior, rng), rng.randrange(2**31))
            if trace.final_block != self.horizon:
                raise RuntimeError(f"{label} pool ends at {trace.final_block}, not {self.horizon}")
            items.append((label, trace))
        return items, {"mockchain.replay_s": clock() - t0}

    def prepare(self, items) -> None:
        """Nothing to compute ahead: each pass is checked against labels."""

    def scan(self, items, workdir: Path) -> PassResult:
        quarter = self.horizon // 4
        stops = range(self.segment, self.horizon + 1, self.segment)
        units: list[float] = []
        quarter_units: list[int] = []
        pool_ms: list[float] = []
        results = []
        failures: list[str] = []
        start = mark = clock()
        for label, trace in items:
            state = PoolScanState(watch=PoolWatch.create(trace.pool, trace.trap_token))
            t0 = mark
            try:
                # At interval 1 a scan stopped at any block and resumed from
                # the same state equals one full scan.
                for stop in stops:
                    verdict = pipeline.scan_pool(
                        trace.chain, trace.pool, trace.trap_token, 1, stop, self.settings, state
                    )
                    now = clock()
                    if stop <= quarter:
                        quarter_units.append(len(units))
                    units.append(now - mark)
                    mark = now
                pool_ms.append((mark - t0) * 1000)
                results.append((label, trace, verdict, analyzer.verdict_to_json_line(verdict)))
            except Exception as exc:  # a failed pool is counted, never fatal
                failures.append(f"{label}: scan raised {exc!r}")
            now = clock()
            units.append(now - mark)
            mark = now
        wall = clock() - start
        for label, trace, verdict, line in results:
            problem = self._check(label, trace, verdict, line)
            if problem:
                failures.append(f"{label}: {problem}")
        return PassResult(
            wall_s=wall,
            pools=len(items),
            pool_blocks=len(items) * self.horizon,
            units=units,
            failures=failures,
            pool_ms=pool_ms,
            quarter_units=quarter_units,
            quarter_blocks=len(items) * quarter,
        )

    @staticmethod
    def _check(label, trace, verdict, line) -> str | None:
        if label != "delayed":
            if verdict.findings or _traps(line):
                return f"honest pool has {len(verdict.findings)} findings"
            return None
        if _traps(line) != [TrapType.INVALID_SELL.value]:
            return f"delayed pool traps {_traps(line)}, expected InvalidSell only"
        if verdict.first_flagged_block is None or (
            verdict.first_flagged_block < trace.activation_block
        ):
            return (f"flagged at {verdict.first_flagged_block}, "
                    f"before activation {trace.activation_block}")
        return None


# ----------------------------------------------------------------------
# live-replay

LIVE_FAMILIES = (
    "honest",
    "honest_taxed",
    "hidden_tax",
    "limited_sell",
    "list_gate",
    "owner_drain",
)
LIVE_LABELS = {
    "honest": [],
    "honest_taxed": [],
    "hidden_tax": sorted([TrapType.INVALID_BUY.value, TrapType.INVALID_SELL.value]),
    "limited_sell": [TrapType.INVALID_SELL.value],
    "list_gate": [TrapType.CANNOT_SELL.value],
    "owner_drain": [TrapType.UNAUTHORIZED_TRANSFER.value],
}


@dataclass
class LivePool:
    family: str
    creator: Address
    wash: Address
    victims: list[Address]
    liquidity: int
    wash_amount: int
    buys: list[int]
    behavior: object
    start: int
    token: Address | None = None
    pool: Address | None = None


@dataclass
class LiveChain:
    """A multi-pool mock chain plus what the scan of it must conclude."""

    chain: MockChain
    base: Address
    pools: list[LivePool]
    node: object | None = None
    reference: tuple | None = None  # (one-pass lines, mock traps by pool hex)

    @property
    def head(self) -> int:
        return self.chain.head()

    def labels(self) -> dict[str, list[str]]:
        return {p.pool.hex: LIVE_LABELS[p.family] for p in self.pools}


LIVE_POOLS = 12
LIVE_BUYERS = 3
LIVE_STAGGER = 6  # blocks between consecutive pool creations
LIVE_DRAIN_DELAY = 20  # owner drain this many blocks after pool creation
LIVE_TAIL = 200  # empty blocks after the last pool event


def _live_behavior(family: str, plan_index: int, creator: Address, wash: Address,
                   rng: random.Random):
    if family == "honest":
        return Honest(Fraction(0))
    if family == "honest_taxed":
        return Honest(Fraction(rng.randint(10, 45), 100))
    if family == "hidden_tax":
        return HiddenTax(Fraction(rng.randint(5, 45), 100), frozenset({creator}))
    if family == "limited_sell":
        return LimitedSell(Fraction(rng.randint(50, 450), 1000), frozenset({creator, wash}))
    if family == "list_gate":
        return ListGate(GateMode.ALLOW)
    # Alternate logged and silent drains across the family's pools.
    return OwnerDrain(creator, emits_event=(plan_index // len(LIVE_FAMILIES)) % 2 == 0)


def build_live_chain(seed: int, pools: int = LIVE_POOLS, buyers: int = LIVE_BUYERS,
                     tail: int = LIVE_TAIL) -> LiveChain:
    """One mock chain hosting `pools` staggered pools, built through the
    chain's public transaction API; deterministic for a fixed seed."""
    rng = random.Random(seed)
    chain = MockChain()
    treasury = Address.derive(f"live:{seed}:treasury")
    base = chain.deploy_token(Honest(Fraction(0)), BASE_SUPPLY, treasury)
    chain.advance_block()

    plans: list[LivePool] = []
    for i in range(pools):
        family = LIVE_FAMILIES[i % len(LIVE_FAMILIES)]
        creator = Address.derive(f"live:{seed}:{i}:creator")
        wash = Address.derive(f"live:{seed}:{i}:wash")
        liquidity = rng.choice([10**9, 10**10, 10**11])
        plans.append(LivePool(
            family=family,
            creator=creator,
            wash=wash,
            victims=[Address.derive(f"live:{seed}:{i}:victim:{v}") for v in range(buyers)],
            liquidity=liquidity,
            wash_amount=liquidity * rng.randint(2, 10) // 10_000,
            buys=[liquidity * rng.randint(5, 20) // 10_000 for _ in range(buyers)],
            behavior=_live_behavior(family, i, creator, wash, rng),
            start=3 + i * LIVE_STAGGER,
        ))
    for p in plans:
        funding = [(p.creator, p.liquidity), (p.wash, 2 * p.wash_amount + 10**6)]
        funding += [(v, 2 * b + 10**6) for v, b in zip(p.victims, p.buys)]
        for holder, amount in funding:
            _ok(chain.token_transfer(base, treasury, holder, amount), "funding")
    chain.advance_block()

    last = max(
        p.start + (LIVE_DRAIN_DELAY if p.family == "owner_drain" else 2 + buyers)
        for p in plans
    )
    while chain.pending_block <= last:
        block = chain.pending_block
        for p in plans:
            offset = block - p.start
            if offset == 0:
                p.token = chain.deploy_token(p.behavior, TRAP_SUPPLY, p.creator)
                p.pool = chain.create_pool(base, p.token)
            elif offset == 1:
                _ok(chain.add_liquidity(p.pool, p.creator, p.liquidity, p.liquidity), "liquidity")
            elif offset == 2:
                _ok(chain.swap(p.pool, p.wash, base, p.wash_amount, p.wash), "wash buy")
            elif 3 <= offset < 3 + buyers:
                victim = p.victims[offset - 3]
                _ok(chain.swap(p.pool, victim, base, p.buys[offset - 3], victim), "victim buy")
            elif offset == LIVE_DRAIN_DELAY and p.family == "owner_drain":
                _ok(chain.owner_drain(p.token, p.victims[0], p.creator), "drain")
        chain.advance_block()
    chain.advance_block(tail)
    return LiveChain(chain=chain, base=base, pools=plans)


def _ok(outcome, what: str) -> None:
    if outcome.reverted:
        raise RuntimeError(f"{what} reverted: {outcome.revert_reason}")


class LiveReplay:
    """Many pools on one chain, scanned through the JSON-RPC backend."""

    name = "live-replay"
    why = (
        "12 staggered pools (3 buyers, 6 families) on one chain, 289 blocks at interval 10, "
        "over JSON-RPC to an in-process node with a checkpoint resume"
    )
    settings = ScanSettings(interval=10)
    params = {"pools": LIVE_POOLS, "buyers": LIVE_BUYERS, "tail_blocks": LIVE_TAIL,
              "stagger_blocks": LIVE_STAGGER, "interval": 10, "from_block": 1,
              "families": ",".join(LIVE_FAMILIES), "resume": "first half, then all"}
    live = True

    @property
    def chain_cls(self):
        from trapscan.rpcbackend import RpcChainView

        return RpcChainView

    def build(self, seed: int, workdir: Path):
        from transport import CachedFakeNode

        t0 = clock()
        live = build_live_chain(seed)
        t1 = clock()
        live.node = CachedFakeNode(chain=live.chain)
        live.node._all_logs()  # noqa: SLF001 - fill the log cache during set-up
        return live, {"mockchain.replay_s": t1 - t0}

    def _view(self, transport):
        from trapscan.rpcbackend import EndpointConfig, RpcChainView

        return RpcChainView(EndpointConfig(url="fake://trapscan-bench"), transport=transport)

    def _targets(self, view, live: LiveChain):
        pools = view.get_pool_created((1, live.head))
        return [
            (info, trap)
            for info in pools
            for trap, _base in pick_orientations(info, {live.base})
        ]

    def scan(self, live: LiveChain, workdir: Path) -> PassResult:
        from transport import CountingTransport

        transport = CountingTransport(live.node)
        view = self._view(transport)
        checkpoint = workdir / "scan.ckpt"
        checkpoint.unlink(missing_ok=True)
        start = clock()
        targets = self._targets(view, live)
        half = len(targets) // 2
        pipeline.scan_pools_resumable(view, targets[:half], 1, live.head, self.settings, checkpoint)
        lines, summary = pipeline.scan_pools_resumable(
            view, targets, 1, live.head, self.settings, checkpoint
        )
        end = clock()
        client, node = transport.split_timings(start, end)
        return PassResult(
            wall_s=end - start,
            pools=len(targets),
            pool_blocks=len(targets) * live.head,
            units=client,
            node_units=node,
            failures=self._check(live, targets, lines, summary.failures),
            transport=transport,
        )

    def prepare(self, live: LiveChain) -> None:
        """Scan once without resuming, and once on the mock backend, so
        every pass can be checked against both."""
        view = self._view(live.node)
        targets = self._targets(view, live)
        one_pass, _ = pipeline.scan_pools_resumable(
            view, targets, 1, live.head, self.settings
        )
        mock_targets = [(live.chain.pool_info(info.pool), trap) for info, trap in targets]
        verdicts, _ = pipeline.scan_pools(live.chain, mock_targets, 1, live.head, self.settings)
        mock = {v.pool.pool.hex: sorted(t.value for t in v.traps) for v in verdicts}
        live.reference = (one_pass, mock)

    def _check(self, live: LiveChain, targets, lines, raised: int) -> list[str]:
        one_pass, mock = live.reference
        labels = live.labels()
        by_pool = {json.loads(line)["pool"]: line for line in lines}
        failures = [f"scan raised in {raised} pools"] if raised else []
        for info, _trap in targets:
            key = info.pool.hex
            line = by_pool.get(key)
            if line is None:
                failures.append(f"{key}: no verdict")
            elif _traps(line) != labels.get(key):
                failures.append(f"{key}: traps {_traps(line)} != label {labels.get(key)}")
            elif _traps(line) != mock.get(key):
                failures.append(f"{key}: traps {_traps(line)} != mock backend {mock.get(key)}")
            elif line not in one_pass:
                failures.append(f"{key}: resumed verdict differs from a one-pass scan")
        if not failures and lines != one_pass:
            failures.append("resumed verdict order differs from a one-pass scan")
        return failures


WORKLOADS = {w.name: w for w in (CorpusSim(), LongHorizon(), LiveReplay())}
