import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_simple
from trapscan.analyzer import (
    MIN_REVERT_BLOCKS,
    AnalyzerError,
    Finding,
    WrongBundleKind,
    _amounts_agree,
    check_cannot_sell,
    check_invalid_buy,
    check_invalid_sell,
    check_unauthorized_transfer,
    classify_pool,
    recompute_finding,
    validate_verdict_obj,
    verdict_to_json_line,
)
from trapscan.chainview import (
    CallOutcome,
    CallStatus,
    SwapRecord,
    TransferRecord,
)
from trapscan.core import Address, PoolInfo, TrapType, ZERO_ADDRESS
from trapscan.mockchain import (
    DelayedSellTax,
    FlipSwitch,
    HiddenTax,
    Honest,
    Wait,
)
from trapscan.monitor import BuyerLedger, PoolWatch
from trapscan.pipeline import PoolScanState, ScanSettings, scan_pool
from trapscan.simulator import Bundle, BundleKind, SimulationResult

BUYER = Address.derive("buyer")
POOL = Address.derive("pool")
TOKEN_X = Address.derive("token-x")
TOKEN_Y = Address.derive("token-y")
SPENDER = Address.derive("spender")

POOL_INFO = PoolInfo(pool=POOL, token_x=TOKEN_X, token_y=TOKEN_Y)


def fake_result(kind, pre, post, estimate, block=10, sell_reverted=False, reason="no"):
    """Hand-built SimulationResult carrying only what the predicates read:
    outcomes ending in read, swap, read, as every bundle's do, after a
    round trip's lead buy."""
    done = CallOutcome(status=CallStatus.SUCCESS, return_value=pre)
    swap = CallOutcome(status=CallStatus.REVERT, revert_reason=reason) if sell_reverted else done
    lead = (done,) if kind is BundleKind.BUY_SELL else ()
    bundle = Bundle(
        kind=kind, actor=BUYER, pool=POOL_INFO, calls=(), block=block, reserves=(10**9, 10**9)
    )
    return SimulationResult(
        bundle=bundle, outcomes=(*lead, done, swap, done), pre_balance=pre,
        post_balance=post, estimate=estimate,
    )


class TestInvalidBuy:
    def test_honest_delivery_passes(self):
        assert check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 90, 90)) is None

    def test_boundary_is_inclusive(self):
        finding = check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 45, 90))
        assert finding is not None and finding.trap is TrapType.INVALID_BUY

    def test_just_above_boundary_passes(self):
        assert check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 46, 90)) is None

    def test_hidden_tax_flagged(self):
        finding = check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 9, 90))
        assert finding is not None

    def test_wrong_kind_rejected(self):
        with pytest.raises(WrongBundleKind):
            check_invalid_buy(fake_result(BundleKind.SELL, 0, 90, 90))

    def test_zero_estimate_skipped(self):
        assert check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 0, 0)) is None

    def test_reverted_buy_not_this_predicate(self):
        res = fake_result(BundleKind.BUY_PROBE, 0, 0, 90)
        outcomes = list(res.outcomes)
        outcomes[-2] = CallOutcome(status=CallStatus.REVERT, revert_reason="paused")
        assert check_invalid_buy(replace(res, outcomes=tuple(outcomes))) is None


@pytest.mark.parametrize("check, kind, evidence_kind", [
    (check_invalid_buy, BundleKind.BUY_PROBE, "invalid_buy"),
    (check_invalid_sell, BundleKind.SELL, "invalid_sell"),
    (check_invalid_sell, BundleKind.BUY_SELL, "invalid_sell"),
])
def test_delivery_evidence(check, kind, evidence_kind):
    finding = check(fake_result(kind, 7, 40, 90), Fraction(1, 2))
    assert finding.block == 10 and finding.subject == BUYER and finding.pool == POOL
    assert finding.evidence == {
        "kind": evidence_kind,
        "pre_balance": "7",
        "post_balance": "40",
        "estimate": "90",
        "threshold_num": 1,
        "threshold_den": 2,
    }
    assert recompute_finding(finding)


class TestInvalidSell:
    def test_switched_tax_flagged(self):
        finding = check_invalid_sell(fake_result(BundleKind.SELL, 1000, 1000, 88))
        assert finding is not None and finding.trap is TrapType.INVALID_SELL

    def test_capped_sell_flagged(self):
        finding = check_invalid_sell(fake_result(BundleKind.BUY_SELL, 0, 10, 1000))
        assert finding is not None

    def test_honest_sell_passes(self):
        assert check_invalid_sell(fake_result(BundleKind.SELL, 0, 90, 90)) is None

    def test_reverted_sell_not_this_predicate(self):
        res = fake_result(BundleKind.SELL, 0, 0, 90, sell_reverted=True)
        assert check_invalid_sell(res) is None

    def test_wrong_kind_rejected(self):
        with pytest.raises(WrongBundleKind):
            check_invalid_sell(fake_result(BundleKind.BUY_PROBE, 0, 90, 90))


def fold_cannot_sell(results, min_distinct_blocks=MIN_REVERT_BLOCKS):
    """Fold results in order into one streak; the first finding, or None."""
    streak = []
    for r in results:
        finding = check_cannot_sell(r, streak, min_distinct_blocks)
        if finding is not None:
            return finding
    return None


def whole_history_cannot_sell(results, min_distinct_blocks=MIN_REVERT_BLOCKS):
    """The whole-history CannotSell predicate the fold replaced, kept as
    the reference the fold must agree with."""
    if not results:
        raise AnalyzerError("need at least one sell simulation")
    sellish = [r for r in results if r.bundle.kind in (BundleKind.SELL, BundleKind.BUY_SELL)]
    if any(r.bundle.kind is BundleKind.BUY_PROBE for r in results):
        raise WrongBundleKind("buy probes carry no sell attempt")
    ordered = sorted(sellish, key=lambda r: r.bundle.block)
    streak = []
    for r in ordered:
        if r.sell_reverted:
            if not streak or streak[-1] != r.bundle.block:
                streak.append(r.bundle.block)
            if len(streak) >= min_distinct_blocks:
                return Finding(
                    trap=TrapType.CANNOT_SELL,
                    pool=r.bundle.pool.pool,
                    subject=r.bundle.actor,
                    block=streak[-1],
                    evidence={
                        "kind": "cannot_sell",
                        "revert_blocks": list(streak),
                        "min_distinct_blocks": min_distinct_blocks,
                        "revert_reason": r.outcomes[-2].revert_reason,
                    },
                )
        else:
            streak = []
    return None


def reverted_sell(block, kind=BundleKind.SELL):
    return fake_result(kind, 0, 0, 90, block=block, sell_reverted=True)


class TestCannotSell:
    def test_two_distinct_revert_blocks(self):
        streak = []
        assert check_cannot_sell(reverted_sell(10), streak) is None
        finding = check_cannot_sell(reverted_sell(13), streak)
        assert finding is not None and finding.trap is TrapType.CANNOT_SELL
        assert finding.evidence["revert_blocks"] == [10, 13]
        assert finding.block == 13 and finding.evidence["revert_reason"] == "no"

    def test_intervening_success_clears(self):
        streak = []
        results = [
            reverted_sell(10),
            fake_result(BundleKind.SELL, 0, 90, 90, block=11),
            reverted_sell(12),
        ]
        assert [check_cannot_sell(r, streak) for r in results] == [None, None, None]
        assert streak == [12]

    def test_all_success(self):
        results = [fake_result(BundleKind.SELL, 0, 90, 90, block=b) for b in (5, 6)]
        assert fold_cannot_sell(results) is None

    def test_same_block_repeats_do_not_count_twice(self):
        streak = []
        for _ in range(2):
            assert check_cannot_sell(reverted_sell(10), streak) is None
        assert streak == [10]

    def test_roundtrip_bundles_count(self):
        results = [reverted_sell(7, BundleKind.BUY_SELL), reverted_sell(9, BundleKind.BUY_SELL)]
        assert fold_cannot_sell(results) is not None

    def test_buy_probe_rejected(self):
        streak = [10]
        with pytest.raises(WrongBundleKind):
            check_cannot_sell(fake_result(BundleKind.BUY_PROBE, 0, 90, 90), streak)
        assert streak == [10]


@st.composite
def sell_sequences(draw):
    """Block-ordered SELL/BUY_SELL results: non-decreasing blocks with
    same-block repeats, random reverts and revert reasons."""
    block = draw(st.integers(min_value=1, max_value=5))
    results = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        block += draw(st.integers(min_value=0, max_value=2))
        kind = draw(st.sampled_from([BundleKind.SELL, BundleKind.BUY_SELL]))
        reverted = draw(st.booleans())
        reason = draw(st.sampled_from(["no", "paused", None]))
        results.append(fake_result(kind, 0, 0 if reverted else 90, 90, block=block,
                                   sell_reverted=reverted, reason=reason))
    return results


class TestCannotSellFoldEquivalence:
    @given(results=sell_sequences(), min_distinct_blocks=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_fold_gives_the_whole_history_first_finding(self, results, min_distinct_blocks):
        # Findings compare by trap, pool, subject, block and the whole
        # evidence: revert_blocks and revert_reason included.
        assert fold_cannot_sell(results, min_distinct_blocks) == whole_history_cannot_sell(
            results, min_distinct_blocks
        )


def make_ledger(snapshots, transfers=(), approved=(), buys=()):
    """A window ledger: `snapshots` are (block, balance) at its edges."""
    ledger = BuyerLedger(buyer=BUYER, pool=POOL, trap_token=TOKEN_Y, approved=dict(approved))
    ledger.snapshots.extend(snapshots)
    ledger.transfers.extend(transfers)
    ledger.buys.extend(buys)
    return ledger


def xfer(block, sender, recipient, value, tx_sender):
    return TransferRecord(token=TOKEN_Y, block=block, sender=sender,
                          recipient=recipient, value=value, tx_sender=tx_sender)


class TestUnauthorizedTransfer:
    def test_logged_drain_without_approval(self):
        drainer = Address.derive("drainer")
        ledger = make_ledger(
            [(10, 500), (11, 0)],
            transfers=[xfer(11, BUYER, ZERO_ADDRESS, 500, drainer)],
        )
        finding = check_unauthorized_transfer(ledger)
        assert finding is not None
        assert finding.evidence["kind"] == "unauthorized_transfer_logged"

    def test_approved_spender_passes(self):
        ledger = make_ledger(
            [(10, 500), (11, 0)],
            transfers=[xfer(11, BUYER, SPENDER, 500, SPENDER)],
            approved={SPENDER: 500},
        )
        assert check_unauthorized_transfer(ledger) is None

    def test_silent_drain_mismatch(self):
        ledger = make_ledger([(10, 500), (11, 0)])
        finding = check_unauthorized_transfer(ledger)
        assert finding is not None
        assert finding.evidence["kind"] == "unauthorized_transfer_mismatch"
        assert finding.evidence["direction"] == "silent_movement"

    def test_overstated_logs_mismatch(self):
        ledger = make_ledger(
            [(10, 1000), (11, 990)],
            transfers=[xfer(11, BUYER, SPENDER, 800, BUYER)],
        )
        finding = check_unauthorized_transfer(ledger)
        assert finding is not None
        assert finding.evidence["direction"] == "overstated_logs"

    def test_self_transfer_with_matching_log_passes(self):
        ledger = make_ledger(
            [(10, 500), (11, 200)],
            transfers=[xfer(11, BUYER, SPENDER, 300, BUYER)],
        )
        assert check_unauthorized_transfer(ledger) is None

    def test_buy_window_excluded_from_mismatch(self):
        swap = SwapRecord(
            block=11, sender=BUYER,
            token_in=TOKEN_X, amount_in=100, token_out=TOKEN_Y, amount_out=90,
            recipient=BUYER,
        )
        # balance moved +9 on a logged claim of +90: swap windows belong to
        # the buy predicates, not this one
        ledger = make_ledger([(10, 0), (11, 9)], buys=[swap])
        assert check_unauthorized_transfer(ledger) is None

    @pytest.mark.parametrize("edges", [[(10, None), (11, 0)], [(10, 500), (11, None)]])
    def test_unread_edge_skips_mismatch(self, edges):
        # a reverted read is not a balance of 0: nothing to reconcile
        assert check_unauthorized_transfer(make_ledger(edges)) is None

    def test_unread_edge_keeps_logged_case(self):
        drainer = Address.derive("drainer")
        ledger = make_ledger(
            [(10, None), (11, None)],
            transfers=[xfer(11, BUYER, ZERO_ADDRESS, 500, drainer)],
        )
        finding = check_unauthorized_transfer(ledger)
        assert finding is not None
        assert finding.evidence["kind"] == "unauthorized_transfer_logged"


class TestAmountsAgree:
    @pytest.mark.parametrize(
        "delta,expected,agree",
        [
            (0, 0, True),
            (-500, 0, False),
            (0, -1000, False),
            (-300, -300, True),
            (-1000, -600, True),
            (-1000, -400, False),
            (-1000, -500, False),  # exactly the threshold ratio fires
            (100, -100, False),
            (1000, 900, True),
        ],
    )
    def test_cases(self, delta, expected, agree):
        assert _amounts_agree(delta, expected, 1, 2) is agree


class TestClassifyAndExport:
    def _watch(self):
        return PoolWatch.create(POOL_INFO, TOKEN_Y)

    def test_union_and_dedupe(self):
        f1 = check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 9, 90, block=5))
        f2 = check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 9, 90, block=8))
        f3 = check_invalid_sell(fake_result(BundleKind.SELL, 0, 0, 90, block=9))
        state = PoolScanState(watch=self._watch())
        for finding in (f1, None, f2, f3):
            state.add_finding(finding)
        assert list(state.findings.values()) == [f1, f3]  # per (trap, subject), first kept
        verdict = classify_pool(state.watch, state.findings.values(), (1, 10))
        assert verdict.traps == {TrapType.INVALID_BUY, TrapType.INVALID_SELL}
        assert verdict.findings == [f1, f3]
        assert verdict.first_flagged_block == 5

    def test_clean_verdict(self):
        verdict = classify_pool(self._watch(), [], (1, 10))
        assert verdict.traps == set() and not verdict.is_flagged
        assert verdict.first_flagged_block is None

    def test_json_line_validates(self):
        f = check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 9, 90))
        verdict = classify_pool(self._watch(), [f], (1, 10))
        obj = json.loads(verdict_to_json_line(verdict))
        assert validate_verdict_obj(obj) == []

    def test_schema_validator_catches_problems(self):
        assert validate_verdict_obj({"schema": "nope"}) != []
        assert any("unknown trap" in p for p in validate_verdict_obj(
            {"schema": "trapscan-verdict/1", "pool": "0x", "tokens": {},
             "traps": ["Bogus"], "findings": [], "scanned_range": [1, 2]}
        ))


class TestRecompute:
    def test_all_predicate_kinds_roundtrip(self):
        drainer = Address.derive("drainer")
        findings = [
            check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 9, 90)),
            check_invalid_sell(fake_result(BundleKind.SELL, 0, 0, 90)),
            fold_cannot_sell([reverted_sell(5), reverted_sell(6)]),
            check_unauthorized_transfer(
                make_ledger([(10, 500), (11, 0)],
                            transfers=[xfer(11, BUYER, ZERO_ADDRESS, 500, drainer)]),
            ),
            check_unauthorized_transfer(make_ledger([(10, 500), (11, 0)])),
        ]
        assert all(f is not None for f in findings)
        for f in findings:
            assert recompute_finding(f) is True

    def test_tampered_evidence_recomputes_false(self):
        f = check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 9, 90))
        tampered = Finding(
            trap=f.trap, pool=f.pool, subject=f.subject, block=f.block,
            evidence={**f.evidence, "post_balance": "89"},
        )
        assert recompute_finding(tampered) is False


class TestThresholdParameter:
    @pytest.mark.parametrize("threshold", [Fraction(0), Fraction(1), Fraction(-1, 2),
                                           Fraction(3, 2), 1],
                             ids=["0", "1", "-1/2", "3/2", "int-1"])
    def test_out_of_range_threshold_rejected(self, threshold):
        ledger = make_ledger([(10, 500), (11, 500)])
        for call in (
            lambda: check_invalid_buy(fake_result(BundleKind.BUY_PROBE, 0, 90, 90), threshold),
            lambda: check_invalid_sell(fake_result(BundleKind.SELL, 0, 90, 90), threshold),
            lambda: check_unauthorized_transfer(ledger, threshold),
        ):
            with pytest.raises(ValueError, match="threshold"):
                call()

    def test_custom_threshold_changes_boundary(self):
        res = fake_result(BundleKind.BUY_PROBE, 0, 20, 90)
        assert check_invalid_buy(res, Fraction(1, 2)) is not None
        assert check_invalid_buy(res, Fraction(1, 5)) is None

    def test_threshold_parts_judge_like_the_threshold(self):
        """A predicate given a threshold's parts finds what it finds given
        the threshold; a scan splits its threshold once, when its settings
        are made, and re-derives no pool orientation."""
        for threshold in (Fraction(1, 2), Fraction(1, 5), Fraction(3, 4)):
            parts = (threshold.numerator, threshold.denominator)
            assert ScanSettings(threshold=threshold).threshold_parts == parts
            for got in (20, 45, 80):
                for kind, check in ((BundleKind.BUY_PROBE, check_invalid_buy),
                                    (BundleKind.SELL, check_invalid_sell)):
                    res = fake_result(kind, 0, got, 90)
                    assert check(res, parts) == check(res, threshold)

    def test_a_scan_splits_its_threshold_once(self, monkeypatch):
        from trapscan import analyzer, simulator

        trace = run_simple(Honest(Fraction(30, 100)), victims=2)
        settings = ScanSettings(threshold=Fraction(3, 4))
        expected = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                             trace.final_block, settings)
        split, sided = [], []
        monkeypatch.setattr(analyzer, "threshold_parts", lambda t: split.append(t))
        monkeypatch.setattr(simulator, "pool_sides", lambda *a: sided.append(a))
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block, settings)
        assert split == [] and sided == []
        assert verdict == expected and verdict.findings

    def test_end_to_end_with_custom_threshold(self):
        trace = run_simple(Honest(Fraction(30, 100)))
        settings = ScanSettings(threshold=Fraction(3, 4))
        verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                            trace.final_block, settings)
        # 30% buy tax delivers 70% < 3/4 threshold: flagged at the loose setting
        assert TrapType.INVALID_BUY in verdict.traps
