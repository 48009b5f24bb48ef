"""Shared domain types and wide-integer arithmetic.

All token quantities are plain Python ints in the token's smallest unit,
constrained to the unsigned 256-bit range. Helpers here never wrap
silently: out-of-range results raise instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

MAX_UINT256 = 2**256 - 1

# Amounts are plain ints in [0, 2**256); the alias marks intent in signatures.
TokenAmount = int


class AmountRangeError(ValueError):
    """Raised when an amount leaves the unsigned 256-bit range."""


def check_amount(value: int, what: str = "amount") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int")
    if value < 0 or value > MAX_UINT256:
        raise AmountRangeError(f"{what} out of uint256 range: {value}")
    return value


def amount_mul_div(a: TokenAmount, b: TokenAmount, d: TokenAmount) -> TokenAmount:
    """floor(a*b / d) with a full-width intermediate product.

    Python ints are unbounded, so the intermediate never truncates; only
    the final quotient is range-checked.
    """
    check_amount(a, "a")
    check_amount(b, "b")
    check_amount(d, "d")
    if d == 0:
        raise ZeroDivisionError("amount_mul_div by zero")
    result = (a * b) // d
    if result > MAX_UINT256:
        raise AmountRangeError(f"mul_div quotient overflows uint256: {a}*{b}//{d}")
    return result


class Address(bytes):
    """A 20-byte account identifier, rendered as 0x-prefixed lowercase hex.

    An immutable `bytes` subclass, so hashing, equality and ordering run
    in C and each object caches its hash. An address therefore equals,
    and hashes like, its raw bytes: `Address(raw) == raw`.
    """

    __slots__ = ()

    def __new__(cls, raw: bytes) -> "Address":
        if not isinstance(raw, bytes) or len(raw) != 20:
            raise ValueError(f"address must be exactly 20 bytes, got {raw!r}")
        return super().__new__(cls, raw)

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        s = text.lower()
        if s.startswith("0x"):
            s = s[2:]
        if len(s) != 40:
            raise ValueError(f"address hex must be 40 digits: {text!r}")
        return cls(bytes.fromhex(s))

    @classmethod
    def derive(cls, tag: str) -> "Address":
        """Deterministic address from a label; used for synthetic accounts."""
        return cls(hashlib.sha256(tag.encode()).digest()[:20])

    @property
    def raw(self) -> bytes:
        return bytes(self)

    @property
    def hex(self) -> str:
        return "0x" + bytes.hex(self)

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:
        return f"Address({self.hex})"


ZERO_ADDRESS = Address(b"\x00" * 20)


class TrapType(Enum):
    """The four trap effects a pool can be flagged for."""

    INVALID_BUY = "InvalidBuy"
    UNAUTHORIZED_TRANSFER = "UnauthorizedTransfer"
    CANNOT_SELL = "CannotSell"
    INVALID_SELL = "InvalidSell"


class DexVersion(Enum):
    V2 = "v2"
    V3 = "v3"


@dataclass(frozen=True, slots=True)
class PoolInfo:
    """A two-token pool and its swap-fee ratio (fee_num / fee_den < 1)."""

    pool: Address
    token_x: Address
    token_y: Address
    dex_version: DexVersion = DexVersion.V2
    fee_num: int = 3
    fee_den: int = 1000

    def __post_init__(self) -> None:
        if self.token_x == self.token_y:
            raise ValueError("pool tokens must differ")
        if not (0 <= self.fee_num < self.fee_den):
            raise ValueError("fee must be a rational in [0, 1)")

    def other_token(self, token: Address) -> Address:
        if token == self.token_x:
            return self.token_y
        if token == self.token_y:
            return self.token_x
        raise ValueError(f"{token} is not a pool token")

    def has_token(self, token: Address) -> bool:
        return token == self.token_x or token == self.token_y
