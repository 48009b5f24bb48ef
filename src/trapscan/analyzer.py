"""The four trap predicates and per-pool verdict aggregation.

Every finding stores the exact integers that were compared and the
threshold ratio in force, so `recompute_finding` can re-derive the
boolean offline from the evidence alone. Threshold comparisons are
integer-exact: x <= floor(estimate * num / den), inclusive.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .core import Address, PoolInfo, TrapType, amount_mul_div
from .monitor import BuyerLedger, PoolWatch
from .simulator import BundleKind, SimulationResult

# Enum members that per-bundle code compares or passes, as module names:
# on CPython 3.11 reading a member through its class takes about 15
# times as long as reading a global.
_BUY_PROBE = BundleKind.BUY_PROBE
_SELL_KINDS = (BundleKind.SELL, BundleKind.BUY_SELL)
_INVALID_BUY, _INVALID_SELL = TrapType.INVALID_BUY, TrapType.INVALID_SELL

DEFAULT_THRESHOLD = Fraction(1, 2)
VERDICT_SCHEMA = "trapscan-verdict/1"
# CannotSell needs sell reverts in this many distinct blocks.
MIN_REVERT_BLOCKS = 2


class AnalyzerError(Exception):
    pass


class WrongBundleKind(AnalyzerError):
    pass


@dataclass(frozen=True, slots=True)
class Finding:
    """One triggered trap predicate with enough numbers to replay it."""

    trap: TrapType
    pool: Address
    subject: Address
    block: int
    evidence: dict

    def to_json_obj(self) -> dict:
        return {
            "trap": self.trap.value,
            "subject": self.subject.hex,
            "block": self.block,
            "evidence": self.evidence,
        }


@dataclass
class PoolVerdict:
    pool: PoolInfo
    traps: set[TrapType]
    findings: list[Finding]
    first_flagged_block: int | None
    scanned_range: tuple[int, int]

    @property
    def is_flagged(self) -> bool:
        return bool(self.traps)


def threshold_parts(threshold: Fraction) -> tuple[int, int]:
    """The threshold's (numerator, denominator); ValueError unless it lies
    in (0, 1). Each predicate that compares against a threshold takes it
    as a Fraction or as these parts: a scan splits its threshold once
    (`ScanSettings.threshold_parts`), not on every check."""
    # A Fraction keeps its denominator positive, so 0 < threshold < 1 is
    # 0 < num < den: two int comparisons instead of two Fraction ones.
    num, den = threshold.numerator, threshold.denominator
    if not 0 < num < den:
        raise ValueError("threshold must be in (0, 1)")
    return num, den


# A threshold as a predicate takes it: a Fraction, or its `threshold_parts`.
Threshold = Fraction | tuple[int, int]


def check_invalid_buy(
    result: SimulationResult, threshold: Threshold = DEFAULT_THRESHOLD
) -> Finding | None:
    """Buy delivered at most `threshold` of the estimated output.

    A reverting buy alone is not a trap signal; the pool may be paused.
    """
    if result.bundle.kind is not _BUY_PROBE:
        raise WrongBundleKind(f"need a buy probe, got {result.bundle.kind}")
    return _check_delivery(result, threshold, _INVALID_BUY, "invalid_buy")


def _check_delivery(
    result: SimulationResult, threshold: Threshold, trap: TrapType, kind: str
) -> Finding | None:
    """Flag a swap of interest that went through but moved the actor's
    balance by at most `threshold` of the estimate. A balance read that
    reverted leaves nothing to compare, so it gives no finding."""
    if result.swap_outcome.reverted:
        return None
    num, den = threshold if type(threshold) is tuple else threshold_parts(threshold)
    if result.estimate == 0:
        return None  # skipped: estimate has no integer resolution
    delta = result.balance_delta
    # The estimate comes from the estimator or a chain quote and num < den,
    # so the bound is in range without `amount_mul_div`'s re-checks.
    if delta is None or delta > result.estimate * num // den:
        return None
    return Finding(
        trap=trap,
        pool=result.bundle.pool.pool,
        subject=result.bundle.actor,
        block=result.bundle.block,
        evidence={
            "kind": kind,
            "pre_balance": str(result.pre_balance),
            "post_balance": str(result.post_balance),
            "estimate": str(result.estimate),
            "threshold_num": num,
            "threshold_den": den,
        },
    )


def check_unauthorized_transfer(
    ledger: BuyerLedger, threshold: Threshold = DEFAULT_THRESHOLD
) -> Finding | None:
    """Token left the buyer without the buyer's doing, over the ledger's
    window: from its first balance's block (exclusive) to its last one's.

    Case 1 (logged): an outgoing transfer initiated by someone else whose
    cumulative approval from the buyer does not cover the amount.

    Case 2 (accounting mismatch): over a window with no swap by the
    buyer, the balance change and the logged-transfer sum disagree by
    more than a factor of 1/threshold in either direction. This covers
    silent drains (movement with no log) and overstated logs (log with no
    movement); the slack absorbs benign rebasing drift. A balance read
    that reverted at either edge of the window leaves nothing to compare,
    so this case is skipped.
    """
    num, den = threshold if type(threshold) is tuple else threshold_parts(threshold)
    (from_block, start), (to_block, end) = ledger.snapshots[0], ledger.snapshots[-1]

    for t in ledger.transfers:
        if t.sender != ledger.buyer:
            continue
        if t.tx_sender is None or t.tx_sender == ledger.buyer:
            continue
        approved = ledger.approved.get(t.tx_sender, 0)
        if approved < t.value:
            return Finding(
                trap=TrapType.UNAUTHORIZED_TRANSFER,
                pool=ledger.pool,
                subject=ledger.buyer,
                block=t.block,
                evidence={
                    "kind": "unauthorized_transfer_logged",
                    "transfer_value": str(t.value),
                    "approved_to_spender": str(approved),
                    "tx_sender": t.tx_sender.hex,
                    "buyer": ledger.buyer.hex,
                },
            )

    if ledger.buys:
        # Swap windows are owned by the buy/sell predicates; reconciling
        # them against logs would re-flag taxed-but-honest deliveries.
        return None
    if start is None or end is None:
        return None
    delta = end - start
    expected = 0
    for t in ledger.transfers:
        if t.recipient == ledger.buyer:
            expected += t.value
        if t.sender == ledger.buyer:
            expected -= t.value
    if _amounts_agree(delta, expected, num, den):
        return None
    return Finding(
        trap=TrapType.UNAUTHORIZED_TRANSFER,
        pool=ledger.pool,
        subject=ledger.buyer,
        block=to_block,
        evidence={
            "kind": "unauthorized_transfer_mismatch",
            "balance_delta": str(delta),
            "logged_sum": str(expected),
            "direction": "silent_movement" if abs(delta) > abs(expected) else "overstated_logs",
            "threshold_num": num,
            "threshold_den": den,
            "from_block": from_block,
            "to_block": to_block,
        },
    )


def _amounts_agree(delta: int, expected: int, num: int, den: int) -> bool:
    """True when a signed observed change matches a signed logged sum.

    Disagreement (inclusive, mirroring the <= threshold convention): the
    smaller magnitude is at most num/den of the larger, or the signs
    conflict. Exact integer comparison, no rounding.
    """
    if delta == 0 and expected == 0:
        return True
    if delta == 0 or expected == 0:
        return False
    if (delta > 0) != (expected > 0):
        return False
    mag_d, mag_e = abs(delta), abs(expected)
    lo, hi = min(mag_d, mag_e), max(mag_d, mag_e)
    return lo * den > hi * num


def check_cannot_sell(
    result: SimulationResult,
    streak: list[int],
    min_distinct_blocks: int = MIN_REVERT_BLOCKS,
) -> Finding | None:
    """Fold one sell attempt into a subject's running revert streak.

    `streak` holds the distinct blocks of the subject's consecutive
    reverted sells and is updated in place: a sell that goes through
    clears it, a revert in a block already on it does not count twice.
    Results are folded in block order. The finding is returned once the
    streak spans `min_distinct_blocks` blocks with no successful sell
    between them; callers stop folding a subject once it has its finding.
    """
    if result.bundle.kind not in _SELL_KINDS:
        raise WrongBundleKind(f"need a sell-carrying bundle, got {result.bundle.kind}")
    if not result.sell_reverted:
        streak.clear()
        return None
    block = result.bundle.block
    if streak and streak[-1] == block:
        return None
    streak.append(block)
    if len(streak) < min_distinct_blocks:
        return None
    return Finding(
        trap=TrapType.CANNOT_SELL,
        pool=result.bundle.pool.pool,
        subject=result.bundle.actor,
        block=block,
        evidence={
            "kind": "cannot_sell",
            "revert_blocks": list(streak),
            "min_distinct_blocks": min_distinct_blocks,
            "revert_reason": result.swap_outcome.revert_reason,
        },
    )


def check_invalid_sell(
    result: SimulationResult, threshold: Threshold = DEFAULT_THRESHOLD
) -> Finding | None:
    """Sell executed but returned at most `threshold` of the estimate.

    A reverted sell is CannotSell evidence, not this predicate's.
    """
    if result.bundle.kind not in _SELL_KINDS:
        raise WrongBundleKind(f"need a sell-carrying bundle, got {result.bundle.kind}")
    return _check_delivery(result, threshold, _INVALID_SELL, "invalid_sell")


def recompute_finding(finding: Finding) -> bool:
    """Re-derive the predicate boolean from stored evidence alone."""
    ev = finding.evidence
    kind = ev["kind"]
    if kind in ("invalid_buy", "invalid_sell"):
        delta = int(ev["post_balance"]) - int(ev["pre_balance"])
        bound = amount_mul_div(int(ev["estimate"]), ev["threshold_num"], ev["threshold_den"])
        return delta <= bound
    if kind == "unauthorized_transfer_logged":
        return (
            ev["tx_sender"] != ev["buyer"]
            and int(ev["approved_to_spender"]) < int(ev["transfer_value"])
        )
    if kind == "unauthorized_transfer_mismatch":
        return not _amounts_agree(
            int(ev["balance_delta"]),
            int(ev["logged_sum"]),
            ev["threshold_num"],
            ev["threshold_den"],
        )
    if kind == "cannot_sell":
        return len(set(ev["revert_blocks"])) >= ev["min_distinct_blocks"]
    raise AnalyzerError(f"unknown evidence kind: {kind}")


def classify_pool(
    watch: PoolWatch,
    findings: Iterable[Finding],
    scanned_range: tuple[int, int],
) -> PoolVerdict:
    """Aggregate the findings over buyers, probes and rounds, at most one
    per (trap, subject), into one verdict ordered by block; several trap
    types may coexist."""
    ordered = sorted(findings, key=lambda f: f.block)
    traps = {f.trap for f in ordered}
    first = ordered[0].block if ordered else None
    return PoolVerdict(
        pool=watch.pool,
        traps=traps,
        findings=ordered,
        first_flagged_block=first,
        scanned_range=scanned_range,
    )


# ----------------------------------------------------------------------
# verdict export

def verdict_to_json_obj(verdict: PoolVerdict) -> dict:
    return {
        "schema": VERDICT_SCHEMA,
        "pool": verdict.pool.pool.hex,
        "tokens": {
            "token_x": verdict.pool.token_x.hex,
            "token_y": verdict.pool.token_y.hex,
        },
        "traps": sorted(t.value for t in verdict.traps),
        "findings": [f.to_json_obj() for f in verdict.findings],
        "first_flagged_block": verdict.first_flagged_block,
        "scanned_range": list(verdict.scanned_range),
        # Constant keys of schema trapscan-verdict/1, kept until its next version.
        "requires_manual_review": False,
        "notes": [],
    }


def verdict_to_json_line(verdict: PoolVerdict) -> str:
    return json.dumps(verdict_to_json_obj(verdict), separators=(",", ":"))


_TRAP_VALUES = {t.value for t in TrapType}


def validate_verdict_obj(obj: dict) -> list[str]:
    """Schema check for one exported verdict; returns problem strings."""
    problems = []
    if obj.get("schema") != VERDICT_SCHEMA:
        problems.append(f"schema: expected {VERDICT_SCHEMA!r}")
    for key in ("pool", "tokens", "traps", "findings", "scanned_range"):
        if key not in obj:
            problems.append(f"missing key: {key}")
    for t in obj.get("traps", []):
        if t not in _TRAP_VALUES:
            problems.append(f"unknown trap: {t}")
    for f in obj.get("findings", []):
        for key in ("trap", "subject", "block", "evidence"):
            if key not in f:
                problems.append(f"finding missing key: {key}")
    rng = obj.get("scanned_range", [])
    if not (isinstance(rng, list) and len(rng) == 2):
        problems.append("scanned_range must be [from, to]")
    return problems
