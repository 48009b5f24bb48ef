"""The per-bundle records are never assigned to once built.

`BalanceOfCall`, `SwapExactInCall`, `CallOutcome`, `Bundle` and
`SimulationResult` are plain slots dataclasses, not frozen ones, because
building them is the per-bundle cost (see the `chainview` module
docstring). Their immutability is checked here instead: a write-once
`__setattr__` lets each slot be set only while it is still empty, so the
generated `__init__` passes and any later assignment raises. With the
guard on, the corpus that `test_sim_verdicts.py` pins is scanned on the
mock chain and through the RPC backend over the fake node, and every
verdict must have its pinned digest. A 300-block quiet scan, most of
whose results `run_many` returns again, is scanned the same way, and the
two backends must agree on its verdict. The mock chain's bundle memo hands
one outcome object to every bundle it answers, and both backends' memos
key on calls, so a record changed after construction would show up in a
later bundle's verdict.
"""

from dataclasses import fields, replace
from fractions import Fraction

import pytest

from conftest import run_simple
from fake_node import FakeNode
from test_sim_verdicts import INTERVALS, PINNED, digest
from trapscan.analyzer import verdict_to_json_line
from trapscan.chainview import BalanceOfCall, CallOutcome, CallStatus, SwapExactInCall
from trapscan.core import Address, PoolInfo
from trapscan.corpus import gen_corpus
from trapscan.mockchain import (
    DelayedSellTax,
    Honest,
    SwitchTrigger,
    Wait,
    load_scenario,
    run_attack_script,
)
from trapscan.pipeline import ScanSettings, scan_pool
from trapscan.rpcbackend import EndpointConfig, RpcChainView
from trapscan.simulator import Bundle, BundleKind, SimulationResult

RECORDS = (BalanceOfCall, SwapExactInCall, CallOutcome, Bundle, SimulationResult)


def _set_once(self, name, value):
    if hasattr(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} assigned after construction")
    object.__setattr__(self, name, value)


def _no_delete(self, name):
    raise AttributeError(f"{type(self).__name__}.{name} deleted after construction")


@pytest.fixture
def write_once(monkeypatch):
    for cls in RECORDS:
        monkeypatch.setattr(cls, "__setattr__", _set_once, raising=False)
        monkeypatch.setattr(cls, "__delattr__", _no_delete, raising=False)


def _samples():
    a, b, pool = (Address.derive(name) for name in ("a", "b", "pool"))
    read = BalanceOfCall(caller=a, token=b, holder=a)
    swap = SwapExactInCall(caller=a, pool=pool, token_in=b, token_out=a, amount_in=5,
                           recipient=a)
    outcome = CallOutcome(CallStatus.SUCCESS, return_value=7)
    bundle = Bundle(BundleKind.SELL, a, PoolInfo(pool=pool, token_x=a, token_y=b),
                    (read, swap, read), 3, (10, 20))
    result = SimulationResult(bundle, (outcome, outcome, outcome), 7, 7, 1)
    return read, swap, outcome, bundle, result


def test_guard_allows_construction_and_rejects_later_writes(write_once):
    samples = _samples()
    assert [type(record) for record in samples] == list(RECORDS)
    for record in samples:
        for field in fields(record):
            with pytest.raises(AttributeError, match="after construction"):
                setattr(record, field.name, getattr(record, field.name))
            with pytest.raises(AttributeError, match="after construction"):
                delattr(record, field.name)
        assert replace(record) == record  # a copy is a new construction


def test_calls_hash_by_value():
    read, swap, *_ = _samples()
    again_read, again_swap, *_ = _samples()
    assert read is not again_read and swap is not again_swap
    assert {read: 1, swap: 2}[again_read] == 1 and {read: 1, swap: 2}[again_swap] == 2
    assert replace(swap, amount_in=6) != swap


def test_a_call_hashes_like_a_fresh_equal_call(write_once):
    """The hash each call computes once, at construction, is the hash of
    a fresh equal call, also for a copy made with `replace`; and the
    field that holds it is written only then."""
    read, swap, *_ = _samples()
    again_read, again_swap, *_ = _samples()
    assert hash(read) == hash(again_read) and hash(swap) == hash(again_swap)
    six = replace(swap, amount_in=6)
    fresh = SwapExactInCall(caller=swap.caller, pool=swap.pool, token_in=swap.token_in,
                            token_out=swap.token_out, amount_in=6, recipient=swap.recipient)
    assert six == fresh and hash(six) == hash(fresh)
    for call in (read, swap, six):
        assert "_hash" in {field.name for field in fields(call)}
        with pytest.raises(AttributeError, match="after construction"):
            call._hash = 0


def _rpc(trace):
    return RpcChainView(EndpointConfig(url="fake://node", retries=1),
                        transport=FakeNode(chain=trace.chain))


def _line(verdict):
    # The node words a revert as "execution reverted: <reason>".
    return verdict_to_json_line(verdict).replace(
        '"revert_reason":"execution reverted: ', '"revert_reason":"'
    )


@pytest.mark.parametrize("backend", ["mock", "rpc"])
def test_pinned_verdicts_with_the_guard_on(tmp_path, write_once, backend):
    moved = []
    for path in gen_corpus(24, 7, tmp_path):
        scenario = load_scenario(path)
        trace = run_attack_script(scenario.script, scenario.seed)
        chain = trace.chain if backend == "mock" else _rpc(trace)
        for interval, pinned in zip(INTERVALS, PINNED[path.name]):
            verdict = scan_pool(chain, trace.pool, trace.trap_token, 1, trace.final_block,
                                ScanSettings(interval=interval))
            if digest(_line(verdict)) != pinned:
                moved.append((path.name, interval))
    assert moved == []


@pytest.mark.parametrize("behavior", [
    Honest(Fraction(0)), DelayedSellTax(Fraction(9, 10), trigger=SwitchTrigger.at_block(250)),
], ids=["honest", "delayed_sell_tax"])
def test_a_long_quiet_scan_with_the_guard_on(write_once, behavior):
    """A 300-block scan whose rounds mostly repeat the last, so `run_many`
    returns nearly every result again, runs under the guard on both
    backends, and they agree on its verdict at intervals 1 and 7."""
    trace = run_simple(behavior, victims=2, extra=(Wait(300),))
    assert trace.final_block > 300
    for interval in (1, 7):
        lines = []
        for chain in (trace.chain, _rpc(trace)):
            verdict = scan_pool(chain, trace.pool, trace.trap_token, 1, trace.final_block,
                                ScanSettings(interval=interval))
            assert verdict.traps == trace.ground_truth
            lines.append(_line(verdict))
        assert lines[0] == lines[1]
