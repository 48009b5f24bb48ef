"""Keccak-256 (original padding), used for event topics and call selectors.

This is the pre-standardization Keccak with multi-rate padding 0x01, the
variant Ethereum uses; hashlib's sha3_256 (padding 0x06) produces
different digests and cannot be substituted. Pure Python keeps the
dependency surface flat but hashes slowly. Topics and selectors are
hashed once at import. The one hash on the scan path, the
storage slot that funds a probe account in each simulation, is memoised
in `abi.erc20_balance_slot`, because a scan re-funds the same few probe
accounts in every round.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offsets indexed [x][y].
_ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

_RATE_BYTES = 136  # 1600-bit state, 512-bit capacity


def _rotl(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (64 - shift))) & _MASK


def _keccak_f(state: list[int]) -> None:
    for rc in _ROUND_CONSTANTS:
        c = [state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(0, 25, 5):
                state[x + y] ^= d[x]
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl(state[x + 5 * y], _ROTATIONS[x][y])
        for x in range(5):
            for y in range(0, 25, 5):
                state[x + y] = b[x + y] ^ ((~b[(x + 1) % 5 + y]) & b[(x + 2) % 5 + y])
        state[0] ^= rc


def keccak256(data: bytes) -> bytes:
    if isinstance(data, str):
        raise TypeError("keccak256 takes bytes")
    padded = bytearray(data)
    pad_len = _RATE_BYTES - (len(padded) % _RATE_BYTES)
    padded += b"\x00" * pad_len
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80

    state = [0] * 25
    for offset in range(0, len(padded), _RATE_BYTES):
        block = padded[offset:offset + _RATE_BYTES]
        for i in range(_RATE_BYTES // 8):
            state[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        _keccak_f(state)

    out = bytearray()
    for i in range(4):  # 32 bytes from the first lanes
        out += state[i].to_bytes(8, "little")
    return bytes(out)


def keccak256_text(text: str) -> bytes:
    return keccak256(text.encode("ascii"))
