"""Parameterized ERC20 behavior models.

Each variant captures one family of transfer semantics seen in scam
tokens in the wild, plus the honest baseline. A behavior decides three
things per transfer: how much actually moves, what the emitted event
claims moved, and whether the transfer is allowed at all. The mock chain
dispatches every balance movement through these rules, so the divergence
between events and reality is reproduced faithfully for detectors to
find.

Rates are exact rationals (`fractions.Fraction`); all amount math floors,
matching on-chain integer semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from ..core import Address, TokenAmount


def apply_rate(amount: TokenAmount, rate: Fraction) -> TokenAmount:
    """floor(amount * rate) for a non-negative rational rate."""
    return (amount * rate.numerator) // rate.denominator


class TransferContext(Enum):
    """Where a transfer sits relative to a pool: delivery out of the pool
    (a buy), payment into the pool (a sell), or neither."""

    POOL_OUT = "pool_out"
    POOL_IN = "pool_in"
    PLAIN = "plain"


@dataclass(frozen=True, slots=True)
class Honest:
    """Standard token, optionally with a flat transfer tax.

    The tax is skipped when either party is the contract owner, mirroring
    the usual owner-exemption guard. The emitted event reports the net
    delivered amount, so events and balances always agree. A tax of 1/2 or
    more turns buys into a trap; below that it is just an aggressively
    taxed but honest token.
    """

    tax: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not (0 <= self.tax <= 1):
            raise ValueError("tax must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class HiddenTax:
    """Delivers only `keep_fraction` of the amount while logging the full
    amount, for every sender outside `exempt`. The sender is always
    debited in full; the shortfall silently accrues to the contract."""

    keep_fraction: Fraction
    exempt: frozenset[Address] = frozenset()

    def __post_init__(self) -> None:
        if not (0 < self.keep_fraction <= 1):
            raise ValueError("keep_fraction must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class OwnerDrain:
    """Transfers are honest, but the owner holds a backdoor that zeroes any
    holder's balance, optionally without emitting an event."""

    owner: Address
    emits_event: bool = True


class GateMode(Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass(frozen=True, slots=True)
class ListGate:
    """Sender-gated transfers: an allow-list (only members may send, unless
    `global_open`) or a deny-list (members may not send).

    The gate enforces from `active_from` onward; a lower activation block
    can be set later through the switch operation. Rejections revert with
    a misleading standard-looking reason string, as deployed gates do.
    """

    mode: GateMode
    members: frozenset[Address] = frozenset()
    global_open: bool = False
    active_from: int = 0


@dataclass(frozen=True, slots=True)
class LimitedSell:
    """Caps any single payment into a pool at balance * max_sell_rate for
    senders outside `fee_exempt`; the excess simply does not move."""

    max_sell_rate: Fraction
    fee_exempt: frozenset[Address] = frozenset()

    def __post_init__(self) -> None:
        if not (0 < self.max_sell_rate <= 1):
            raise ValueError("max_sell_rate must be in (0, 1]")


class TriggerKind(Enum):
    AT_BLOCK = "at_block"
    AFTER_BUYERS = "after_buyers"
    MANUAL = "manual"


@dataclass(frozen=True, slots=True)
class SwitchTrigger:
    kind: TriggerKind
    value: int = 0

    @classmethod
    def at_block(cls, block: int) -> "SwitchTrigger":
        return cls(TriggerKind.AT_BLOCK, block)

    @classmethod
    def after_buyers(cls, count: int) -> "SwitchTrigger":
        return cls(TriggerKind.AFTER_BUYERS, count)

    @classmethod
    def manual(cls) -> "SwitchTrigger":
        return cls(TriggerKind.MANUAL)


@dataclass(frozen=True, slots=True)
class DelayedSellTax:
    """Behaves like an untaxed honest token until its switch turns on, then
    applies `final_sell_tax` to payments into pools. The switch flips by
    owner transaction, at a block height, or once enough distinct buyers
    exist, and never flips back."""

    final_sell_tax: Fraction
    trigger: SwitchTrigger = field(default_factory=SwitchTrigger.manual)

    def __post_init__(self) -> None:
        if not (0 <= self.final_sell_tax <= 1):
            raise ValueError("final_sell_tax must be in [0, 1]")


TokenBehavior = Honest | HiddenTax | OwnerDrain | ListGate | LimitedSell | DelayedSellTax
