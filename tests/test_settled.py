"""Settled results: a standing result whose answer repeats is returned by
`run_many` again and is not judged again.

The differential tests scan with the reuse on and with it patched out
(`pipeline._settled` finds nothing, and the RPC backend forgets each
template's last answer before decoding), on the mock chain and through
the RPC backend over the fake node, and require byte-identical verdict
lines: over the pinned corpus at intervals 1, 3 and 7, and over 300-block
quiet scans in which a trap switches on late, with no event.

The edge tests drive `run_detection_round` over `ScriptedChain`, whose
answers are set per block, with a hand-built watch, and check the
evidence and skips that reuse must not change.
"""

import json
from fractions import Fraction

import pytest

from conftest import run_simple
from fake_node import FakeNode
from test_sim_verdicts import INTERVALS
from trapscan import pipeline
from trapscan.analyzer import verdict_to_json_line
from trapscan.chainview import CallOutcome, CallStatus
from trapscan.core import Address, DexVersion, PoolInfo, TrapType
from trapscan.corpus import gen_corpus
from trapscan.mockchain import (
    DelayedSellTax,
    GateMode,
    Honest,
    LimitedSell,
    ListGate,
    SwitchTrigger,
    Wait,
    load_scenario,
    run_attack_script,
)
from trapscan.monitor import BuyerLedger, PoolWatch
from trapscan.pipeline import PoolScanState, ScanSettings, scan_pool
from trapscan.rpcbackend import EndpointConfig, RpcChainView
from trapscan.rpcbackend import backend as rpc_backend
from trapscan.simulator import estimate_output


def _rpc(chain):
    return RpcChainView(EndpointConfig(url="fake://", retries=0),
                        transport=FakeNode(chain=chain))


@pytest.fixture
def no_reuse(monkeypatch):
    """Patch the reuse out: no subject has a settled result, and every
    answer is decoded."""
    decode = rpc_backend._bundle_outcomes

    def decode_afresh(response, template):
        template.last = None
        return decode(response, template)

    def patch():
        monkeypatch.setattr(pipeline, "_settled", lambda state, bundle, parts: None)
        monkeypatch.setattr(rpc_backend, "_bundle_outcomes", decode_afresh)

    return patch


def _lines(trace, backend, intervals):
    chain = trace.chain if backend == "mock" else _rpc(trace.chain)
    return [
        verdict_to_json_line(scan_pool(chain, trace.pool, trace.trap_token, 1,
                                       trace.final_block, ScanSettings(interval=interval)))
        for interval in intervals
    ]


@pytest.fixture(scope="module")
def pinned_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("settled")
    traces = []
    for path in gen_corpus(24, 7, root):
        scenario = load_scenario(path)
        traces.append(run_attack_script(scenario.script, scenario.seed))
    return traces


LATE_TRAPS = {
    "delayed_sell_tax": (DelayedSellTax(Fraction(9, 10), trigger=SwitchTrigger.at_block(250)),
                         frozenset({TrapType.INVALID_SELL})),
    "list_gate": (ListGate(mode=GateMode.ALLOW, active_from=250),
                  frozenset({TrapType.CANNOT_SELL})),
    "limited_sell": (LimitedSell(Fraction(1, 100)), frozenset({TrapType.INVALID_SELL})),
}


class TestDifferential:
    @pytest.mark.parametrize("backend", ["mock", "rpc"])
    def test_pinned_corpus(self, pinned_traces, no_reuse, backend):
        reused = [_lines(trace, backend, INTERVALS) for trace in pinned_traces]
        no_reuse()
        assert [_lines(trace, backend, INTERVALS) for trace in pinned_traces] == reused

    @pytest.mark.parametrize("backend", ["mock", "rpc"])
    @pytest.mark.parametrize("name", LATE_TRAPS)
    def test_trap_switching_on_late_in_a_quiet_scan(self, no_reuse, backend, name):
        behavior, traps = LATE_TRAPS[name]
        trace = run_simple(behavior, victims=2, extra=(Wait(300),))
        assert trace.final_block > 300 and trace.ground_truth == traps
        reused = _lines(trace, backend, INTERVALS)
        assert all(set(json.loads(line)["traps"]) == {t.value for t in traps}
                   for line in reused)
        no_reuse()
        assert _lines(trace, backend, INTERVALS) == reused


def _count_reuse(monkeypatch):
    """Counts of (results returned again, results) over every `run_many`
    of the pipeline."""
    counts = [0, 0]
    run_many = pipeline.run_many

    def counting(chain, items, settled=None):
        results = run_many(chain, items, settled)
        counts[0] += sum(r is s for r, s in zip(results, settled or ()))
        counts[1] += len(results)
        return results

    monkeypatch.setattr(pipeline, "run_many", counting)
    return counts


@pytest.mark.parametrize("backend", ["mock", "rpc"])
def test_a_quiet_scan_reuses_its_results(monkeypatch, backend):
    """A quiet 300-block scan gets at least 95% of its results back from
    `run_many`, so a change that breaks call-tuple identity shows here."""
    trace = run_simple(Honest(Fraction(0)), victims=2, extra=(Wait(300),))
    counts = _count_reuse(monkeypatch)
    chain = trace.chain if backend == "mock" else _rpc(trace.chain)
    verdict = scan_pool(chain, trace.pool, trace.trap_token, 1, trace.final_block)
    assert not verdict.traps
    reused, results = counts
    assert results > 3 * 300 and reused >= 0.95 * results


# ----------------------------------------------------------------------
# scripted answers

BASE, TRAP = Address.derive("settled:base"), Address.derive("settled:trap")
POOL = PoolInfo(pool=Address.derive("settled:pool"), token_x=BASE, token_y=TRAP)
POOL_V3 = PoolInfo(pool=Address.derive("settled:pool:v3"), token_x=BASE, token_y=TRAP,
                   dex_version=DexVersion.V3)
BUYER, OTHER = Address.derive("settled:buyer"), Address.derive("settled:other")
RESERVES = (10**9, 10**9)
HELD = 10**6
# A sell of HELD at RESERVES is estimated at E; the probe and the round
# trip always receive D, more than half their estimates.
E = estimate_output(RESERVES[1], RESERVES[0], HELD)
D = 10**6
_OK, _REVERT = CallStatus.SUCCESS, CallStatus.REVERT
PROBES = {pipeline.probe_account_for(POOL), pipeline.probe_account_for(POOL_V3)}


class ScriptedChain:
    """A chain whose answers are set per block. `sells[block][buyer]` is
    how that buyer's sell goes: "ok" delivers E, "short" 60% of E,
    "revert" reverts, and "unread" delivers but its last read reverts.
    Every other bundle delivers D. `quotes[block]` is the quote of every
    swap of the trap token at that block (none where absent). Each answer
    is built afresh, so a repeat is equal to, not the same as, the last."""

    def __init__(self, sells, quotes=None):
        self.sells, self.quotes = sells, quotes or {}

    def simulate_bundles(self, block, items):
        return [self._outcomes(block, calls) for calls, _ in items]

    def quotes_exact_in(self, items, block):
        quote = self.quotes.get(block)
        return [quote if token_in == TRAP else None for _, token_in, _ in items]

    def _outcomes(self, block, calls):
        swap = calls[-2]
        how = "probe" if swap.caller in PROBES else self.sells[block].get(swap.caller, "ok")
        delivered = {"ok": E, "short": E * 6 // 10, "probe": D}.get(how, E)
        lead = [CallOutcome(_OK, None, 1) for _ in calls[:-3]]
        if how == "revert":
            return [*lead, CallOutcome(_OK, None, 0), CallOutcome(_REVERT, "gate"),
                    CallOutcome(_OK, None, 0)]
        last = CallOutcome(_REVERT, "read") if how == "unread" else CallOutcome(
            _OK, None, delivered)
        return [*lead, CallOutcome(_OK, None, 0), CallOutcome(_OK, None, delivered), last]


def _scan_script(chain, thresholds, buyers=(BUYER,), pool=POOL):
    """Run one round at each block of `thresholds` (block -> threshold) on
    one state of `pool`, and return it."""
    watch = PoolWatch.create(pool, TRAP)
    watch.reserves = RESERVES
    watch.buyers = {b: BuyerLedger(buyer=b, pool=pool.pool, trap_token=TRAP) for b in buyers}
    state = PoolScanState(watch=watch)
    for block, threshold in thresholds.items():
        for ledger in watch.buyers.values():
            ledger.snapshots = [(block, HELD)]
        pipeline.run_detection_round(chain, [state], block, ScanSettings(threshold=threshold))
        assert state.error is None
    return state


def _both_ways(chain, thresholds, monkeypatch, buyers=(BUYER,), pool=POOL):
    """The state of the script's scan with the reuse on, after checking
    that the reuse patched out leaves the same findings and skips."""
    state = _scan_script(chain, thresholds, buyers, pool)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_settled", lambda state, bundle, parts: None)
        plain = _scan_script(chain, thresholds, buyers, pool)
    assert state.findings == plain.findings
    assert state.skipped_rounds == plain.skipped_rounds
    return state


def _judged(monkeypatch, name):
    """The blocks of the buyer's results that reach predicate `name`."""
    blocks = []
    predicate = getattr(pipeline, name)

    def recording(result, *args):
        if result.bundle.actor == BUYER:
            blocks.append(result.bundle.block)
        return predicate(result, *args)

    monkeypatch.setattr(pipeline, name, recording)
    return blocks


HALF = Fraction(1, 2)


class TestScriptedAnswers:
    def test_a_revert_clears_the_settled_mark(self, monkeypatch):
        """Success, revert, the first success again, then two reverts: the
        CannotSell evidence lists only the last two blocks, so the success
        at block 3 was judged and cleared the streak."""
        judged = _judged(monkeypatch, "check_invalid_sell")
        script = {1: "ok", 2: "revert", 3: "ok", 4: "revert", 5: "revert", 6: "revert"}
        chain = ScriptedChain({b: {BUYER: how} for b, how in script.items()})
        state = _both_ways(chain, dict.fromkeys(script, HALF), monkeypatch)
        finding = state.findings[(TrapType.CANNOT_SELL, BUYER)]
        assert finding.evidence["revert_blocks"] == [4, 5]
        # Block 6 repeats block 5 under a complete streak: not judged.
        assert judged == [1, 2, 3, 4, 5, *script]

    def test_repeats_are_judged_once(self, monkeypatch):
        judged = _judged(monkeypatch, "check_invalid_sell")
        chain = ScriptedChain({b: {BUYER: "ok"} for b in range(1, 7)})
        state = _both_ways(chain, dict.fromkeys(range(1, 7), HALF), monkeypatch)
        assert not state.findings and not state.skipped_rounds
        assert judged == [1, *range(1, 7)]  # with the reuse on, then off

    def test_a_state_resumed_under_another_threshold_is_judged_afresh(self, monkeypatch):
        """A sell that delivers 60% of its estimate is settled with no
        finding under 1/2; under 9/10 the same answer is judged again and
        flagged at the first block of the new threshold."""
        judged = _judged(monkeypatch, "check_invalid_sell")
        chain = ScriptedChain({b: {BUYER: "short"} for b in range(1, 7)})
        thresholds = {1: HALF, 2: HALF, 3: HALF, 4: Fraction(9, 10), 5: Fraction(9, 10)}
        state = _both_ways(chain, thresholds, monkeypatch)
        assert state.findings[(TrapType.INVALID_SELL, BUYER)].block == 4
        assert judged == [1, 4, *thresholds]

    @pytest.mark.parametrize("how, quote, reason", [
        ("ok", 0, "estimate=0"), ("unread", None, "balance unread"),
    ])
    def test_skips_are_recorded_every_round(self, monkeypatch, how, quote, reason):
        blocks = range(1, 6)
        chain = ScriptedChain({b: {BUYER: how} for b in blocks}, dict.fromkeys(blocks, quote))
        state = _both_ways(chain, dict.fromkeys(blocks, HALF), monkeypatch)
        skipped = [skip["block"] for skip in state.skipped_rounds
                   if skip["subject"] == BUYER.hex and skip["reason"] == reason]
        assert skipped == list(blocks)

    def test_a_changed_quote_is_judged_again(self, monkeypatch):
        judged = _judged(monkeypatch, "check_invalid_sell")
        blocks = range(1, 6)
        chain = ScriptedChain({b: {BUYER: "ok"} for b in blocks},
                              {1: E, 2: E, 3: 3 * E, 4: 3 * E, 5: E})
        state = _both_ways(chain, dict.fromkeys(blocks, HALF), monkeypatch)
        assert state.findings[(TrapType.INVALID_SELL, BUYER)].block == 3
        # 2 and 4 repeat a settled quote; 3 and 5 quote anew.
        assert judged == [1, 3, 5, *blocks]

    def test_a_quote_lost_after_a_settled_one_is_judged_again(self, monkeypatch):
        """On a V3 pool, a sell settled under a quote and answered alike
        when the quoter gives nothing is judged against the formula's
        estimate, which flags it."""
        judged = _judged(monkeypatch, "check_invalid_sell")
        blocks = range(1, 5)
        chain = ScriptedChain({b: {BUYER: "short"} for b in blocks}, {1: E // 2, 2: E // 2})
        state = _both_ways(chain, dict.fromkeys(blocks, Fraction(9, 10)), monkeypatch,
                           pool=POOL_V3)
        assert state.findings[(TrapType.INVALID_SELL, BUYER)].block == 3
        assert judged == [1, 3, *blocks]

    def test_subjects_settle_apart(self, monkeypatch):
        """One buyer's revert does not unsettle another buyer's sell."""
        judged = _judged(monkeypatch, "check_invalid_sell")
        script = {1: "ok", 2: "revert", 3: "ok", 4: "ok"}
        chain = ScriptedChain({b: {OTHER: how} for b, how in script.items()})
        _both_ways(chain, dict.fromkeys(script, HALF), monkeypatch, buyers=(BUYER, OTHER))
        assert judged == [1, *script]
