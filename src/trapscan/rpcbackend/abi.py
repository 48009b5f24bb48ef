"""Minimal ABI encode/decode for the handful of calls and events used.

Every topic and selector is derived from its canonical text signature at
import time; nothing here trusts a hard-coded hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..core import Address
from .keccak import keccak256, keccak256_text

UINT256_MAX = 2**256 - 1


class DecodeError(ValueError):
    """Log or return payload does not match the expected layout."""


def hex_to_int(text: str) -> int:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise DecodeError(f"expected 0x hex quantity, got {text!r}")
    return int(text, 16)


def hex_to_bytes(text: str) -> bytes:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise DecodeError(f"expected 0x hex data, got {text!r}")
    body = text[2:]
    if len(body) % 2:
        body = "0" + body
    try:
        return bytes.fromhex(body)
    except ValueError as exc:
        raise DecodeError(f"bad hex data: {text[:40]!r}") from exc


def bytes_to_hex(data: bytes) -> str:
    return "0x" + data.hex()


def pad32(data: bytes) -> bytes:
    if len(data) > 32:
        raise ValueError("word too long")
    return data.rjust(32, b"\x00")


def enc_uint(value: int) -> bytes:
    if not (0 <= value <= UINT256_MAX):
        raise ValueError(f"uint256 out of range: {value}")
    return value.to_bytes(32, "big")


def enc_address(addr: Address) -> bytes:
    return pad32(addr.raw)


def word(data: bytes, index: int) -> bytes:
    chunk = data[32 * index:32 * (index + 1)]
    if len(chunk) != 32:
        raise DecodeError(f"payload too short for word {index}")
    return chunk


def dec_uint(data: bytes, index: int = 0) -> int:
    return int.from_bytes(word(data, index), "big")


def dec_address(data: bytes, index: int = 0) -> Address:
    return Address(word(data, index)[12:])


def topic_address(topic: str) -> Address:
    raw = hex_to_bytes(topic)
    if len(raw) != 32:
        raise DecodeError(f"topic is not 32 bytes: {topic!r}")
    return Address(raw[12:])


@dataclass(frozen=True, slots=True)
class EventSignature:
    """Canonical event signature and its derived topic0."""

    text: str
    topic0: bytes

    @classmethod
    def derive(cls, text: str) -> "EventSignature":
        return cls(text=text, topic0=keccak256_text(text))

    @property
    def topic0_hex(self) -> str:
        return bytes_to_hex(self.topic0)


# ERC20
SIG_TRANSFER = EventSignature.derive("Transfer(address,address,uint256)")
SIG_APPROVAL = EventSignature.derive("Approval(address,address,uint256)")

# Pair-style factory and pool events
SIG_PAIR_CREATED = EventSignature.derive("PairCreated(address,address,address,uint256)")
SIG_V2_SWAP = EventSignature.derive(
    "Swap(address,uint256,uint256,uint256,uint256,address)"
)
SIG_V2_MINT = EventSignature.derive("Mint(address,uint256,uint256)")
SIG_V2_BURN = EventSignature.derive("Burn(address,uint256,uint256,address)")

# Concentrated-liquidity factory and pool events
SIG_POOL_CREATED = EventSignature.derive("PoolCreated(address,address,uint24,int24,address)")
SIG_V3_SWAP = EventSignature.derive(
    "Swap(address,address,int256,int256,uint160,uint128,int24)"
)
SIG_V3_MINT = EventSignature.derive(
    "Mint(address,address,int24,int24,uint128,uint256,uint256)"
)
SIG_V3_BURN = EventSignature.derive("Burn(address,int24,int24,uint128,uint256,uint256)")

ALL_SIGNATURES = (
    SIG_TRANSFER,
    SIG_APPROVAL,
    SIG_PAIR_CREATED,
    SIG_V2_SWAP,
    SIG_V2_MINT,
    SIG_V2_BURN,
    SIG_POOL_CREATED,
    SIG_V3_SWAP,
    SIG_V3_MINT,
    SIG_V3_BURN,
)


def selector(signature: str) -> bytes:
    return keccak256_text(signature)[:4]


# function selectors
SEL_BALANCE_OF = selector("balanceOf(address)")
SEL_APPROVE = selector("approve(address,uint256)")
SEL_GET_RESERVES = selector("getReserves()")
SEL_TOKEN0 = selector("token0()")
SEL_TOKEN1 = selector("token1()")
SEL_FEE = selector("fee()")
SEL_SWAP_EXACT_TOKENS = selector(
    "swapExactTokensForTokens(uint256,uint256,address[],address,uint256)"
)
SEL_QUOTE_EXACT_INPUT_SINGLE = selector(
    "quoteExactInputSingle(address,address,uint24,uint256,uint160)"
)


def encode_balance_of(holder: Address) -> bytes:
    return SEL_BALANCE_OF + enc_address(holder)


def encode_approve(spender: Address, amount: int) -> bytes:
    return SEL_APPROVE + enc_address(spender) + enc_uint(amount)


def encode_get_reserves() -> bytes:
    return SEL_GET_RESERVES


def encode_token0() -> bytes:
    return SEL_TOKEN0


def encode_token1() -> bytes:
    return SEL_TOKEN1


def encode_fee() -> bytes:
    return SEL_FEE


def encode_swap_exact_tokens(
    amount_in: int,
    min_out: int,
    path: list[Address],
    recipient: Address,
    deadline: int,
) -> bytes:
    head = (
        enc_uint(amount_in)
        + enc_uint(min_out)
        + enc_uint(5 * 32)  # offset of the dynamic path array
        + enc_address(recipient)
        + enc_uint(deadline)
    )
    tail = enc_uint(len(path)) + b"".join(enc_address(a) for a in path)
    return SEL_SWAP_EXACT_TOKENS + head + tail


def encode_quote_exact_input_single(
    token_in: Address, token_out: Address, fee_ppm: int, amount_in: int
) -> bytes:
    return (
        SEL_QUOTE_EXACT_INPUT_SINGLE
        + enc_address(token_in)
        + enc_address(token_out)
        + enc_uint(fee_ppm)
        + enc_uint(amount_in)
        + enc_uint(0)  # no price limit
    )


# Probe accounts are few and reused every round, so the memo stays small;
# the bound keeps it flat however many pools a scan covers.
BALANCE_SLOT_CACHE_SIZE = 4096


@lru_cache(maxsize=BALANCE_SLOT_CACHE_SIZE)
def erc20_balance_slot(holder: Address, slot_index: int) -> bytes:
    """Storage slot of `balances[holder]` for a mapping at `slot_index`.

    Memoised: every funded simulation needs the slot of the same probe
    account, and the pure-Python Keccak is slow.
    """
    return keccak256(pad32(holder.raw) + enc_uint(slot_index))
