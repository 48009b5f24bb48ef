"""Backend-agnostic chain access contract.

Everything above this module (monitor, simulator, analyzer) talks to a
`ChainView`: read pool/token state, read event logs, and simulate call
bundles against a private fork of a sealed block. Two implementations
exist: the in-memory mock chain and the live JSON-RPC backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

from .core import Address, BlockIndex, PoolInfo, TokenAmount


class ChainViewError(Exception):
    """Base class for backend access failures."""


class BackendUnavailable(ChainViewError):
    pass


class UnknownPool(ChainViewError):
    pass


class UnknownToken(ChainViewError):
    pass


class BlockOutOfRange(ChainViewError):
    pass


class EmptyBundle(ChainViewError):
    pass


@dataclass(frozen=True, slots=True)
class SwapRecord:
    """One call of a pool's swap function, as logged by the pool itself."""

    tx_hash: bytes
    block: BlockIndex
    sender: Address
    token_in: Address
    amount_in: TokenAmount
    token_out: Address
    amount_out: TokenAmount
    recipient: Address

    def __post_init__(self) -> None:
        if self.token_in == self.token_out:
            raise ValueError("swap tokens must differ")


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """A token balance movement.

    `logged` is True iff the token emitted an event for the movement; a
    trap token that moves balances silently produces logged=False records
    that only the mock chain's private ledger can see. `tx_sender` is the
    account that sent the enclosing transaction, which for backdoor drains
    differs from the token-level `sender`.
    """

    token: Address
    block: BlockIndex
    sender: Address
    recipient: Address
    value: TokenAmount
    logged: bool = True
    tx_sender: Address | None = None


@dataclass(frozen=True, slots=True)
class ApproveRecord:
    token: Address
    block: BlockIndex
    approver: Address
    spender: Address
    value: TokenAmount


class LiquidityKind(Enum):
    ADD = "add"
    REMOVE = "remove"


@dataclass(frozen=True, slots=True)
class LiquidityEvent:
    pool: Address
    block: BlockIndex
    kind: LiquidityKind
    amount_x: TokenAmount
    amount_y: TokenAmount
    provider: Address

    def __post_init__(self) -> None:
        if self.amount_x == 0 and self.amount_y == 0:
            raise ValueError("liquidity event must move at least one token")


@dataclass(frozen=True, slots=True)
class BalanceSnapshot:
    """What the token's balance function reported for holder at a block.

    The token may lie relative to its internal accounting; the snapshot is
    whatever the contract returned. `failed` marks a reverted read, in
    which case `balance` is meaningless.
    """

    token: Address
    holder: Address
    block: BlockIndex
    balance: TokenAmount
    failed: bool = False


@dataclass(frozen=True, slots=True)
class BalanceOfCall:
    caller: Address
    token: Address
    holder: Address


@dataclass(frozen=True, slots=True)
class SwapExactInCall:
    """Exact-input swap routed for `caller`, output sent to `recipient`.

    Router-style approval is part of this call slot: backends that need a
    separate approve transaction fold it into the same outcome.
    """

    caller: Address
    pool: Address
    token_in: Address
    token_out: Address
    amount_in: TokenAmount
    recipient: Address
    min_out: TokenAmount = 0


@dataclass(frozen=True, slots=True)
class ApproveCall:
    caller: Address
    token: Address
    spender: Address
    amount: TokenAmount


Call = BalanceOfCall | SwapExactInCall | ApproveCall


class CallStatus(Enum):
    SUCCESS = "success"
    REVERT = "revert"


@dataclass(frozen=True, slots=True)
class CallOutcome:
    """Result of one bundle call.

    Revert outcomes carry no state change; success outcomes report every
    record the call emitted. Every outcome comes from a bundle whose calls
    ran in order on one fork; a backend that cannot do that raises instead.
    """

    status: CallStatus
    revert_reason: str | None = None
    return_value: TokenAmount | None = None
    emitted: tuple[TransferRecord | SwapRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is CallStatus.SUCCESS

    @property
    def reverted(self) -> bool:
        return self.status is CallStatus.REVERT


def check_range(block_range: tuple[int, int]) -> tuple[int, int]:
    lo, hi = block_range
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid block range: {block_range}")
    return block_range


class ChainView(ABC):
    """Read-only chain contract shared by the mock chain and the RPC backend.

    All operations are queries or fork-local simulations; none mutate
    observable chain state. Implementations must tolerate concurrent
    callers.
    """

    @abstractmethod
    def head(self) -> int:
        """Highest sealed block number."""

    @abstractmethod
    def get_pool_created(self, block_range: tuple[int, int]) -> list[PoolInfo]:
        """Pools whose creation event falls in the inclusive range, in block order."""

    @abstractmethod
    def get_swaps(self, pool: Address, block_range: tuple[int, int]) -> list[SwapRecord]:
        """Complete, block-ordered swap records for the pool in range."""

    @abstractmethod
    def get_liquidity_events(
        self, pool: Address, block_range: tuple[int, int]
    ) -> list[LiquidityEvent]:
        """Liquidity adds/removes for the pool in range, in block order."""

    @abstractmethod
    def get_transfers(self, token: Address, block_range: tuple[int, int]) -> list[TransferRecord]:
        """Exactly the LOGGED movements of the token in range.

        Balance changes without an event log are invisible here by design;
        reconstructing them from snapshots is the analyzer's job.
        """

    @abstractmethod
    def get_approvals(self, token: Address, block_range: tuple[int, int]) -> list[ApproveRecord]:
        """Logged approvals of the token in range."""

    @abstractmethod
    def balance_of(self, token: Address, holder: Address, block: int) -> BalanceSnapshot:
        """The token's reported balance at the sealed block state.

        A reverting balance read surfaces as a snapshot with failed=True,
        never as an exception.
        """

    @abstractmethod
    def get_reserves(self, pool: Address, block: int) -> tuple[TokenAmount, TokenAmount]:
        """(reserve of token_x, reserve of token_y) at the sealed block state."""

    @abstractmethod
    def simulate_bundle(
        self,
        block: int,
        calls: list[Call],
        balance_overrides: dict[tuple[Address, Address], TokenAmount] | None = None,
    ) -> list[CallOutcome]:
        """Execute calls sequentially against a private fork of `block`.

        Each call sees the effects of prior calls in the bundle; a revert
        rolls back only its own call. Public chain state is never touched.
        `balance_overrides` maps (token, holder) to a balance the fork is
        seeded with before the first call; it is the funding mechanism for
        synthetic probe accounts (the mock applies it as a fork-local
        mint, the live backend as a state override).
        """

    def pool_info(self, pool: Address) -> PoolInfo:
        """Metadata for a known pool. Default: scan creation events."""
        for info in self.get_pool_created((0, self.head())):
            if info.pool == pool:
                return info
        raise UnknownPool(f"pool not found: {pool}")

    def quote_exact_in(
        self, pool: PoolInfo, token_in: Address, amount_in: TokenAmount, block: int
    ) -> TokenAmount | None:
        """Backend-provided swap output estimate, or None to use the local formula.

        Live backends answer this for pool styles whose pricing the local
        constant-product formula does not model.
        """
        return None
