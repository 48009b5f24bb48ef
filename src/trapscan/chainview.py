"""Backend-agnostic chain access contract.

Everything above this module (monitor, simulator, analyzer) talks to a
`ChainView`: read pool/token state, read event logs, and simulate call
bundles against a private fork of a sealed block. Two implementations
exist: the in-memory mock chain and the live JSON-RPC backend.

A scan asks for many pools at once. `get_window` gives the logs of a
block range for many pools and tokens, and the pools' reserves at its
last block; `balances_at` reads many balances, and `simulate_bundles`
runs many bundles. A backend may answer each in one round trip (the
logs and reserves of a window in one, plus one for the senders of its
transfers). A backend implements only the batched reads and
simulations: `balance_of` and `simulate_bundle` are defined here, once,
as a batch of one, so each backend has one path for each.

The seam carries only what a detector can observe. A balance read is a
plain `TokenAmount`, or None when the read reverted, so every caller has
to decide what a missing read means. An event record is one log the
chain emitted, with the number of the block that holds it; a balance
movement that emitted no event has no record.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .core import Address, PoolInfo, TokenAmount


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
    """One call of a pool's swap function, as logged by the pool itself.

    `sender` is the sender the pool logged (for a routed swap, the
    router), not the account that sent the transaction.
    """

    block: int
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
    """One Transfer event the token emitted.

    `value` is what the event claims, which a trap token may overstate; a
    movement with no event has no record at all. `tx_sender` is the
    account that sent the enclosing transaction, which for backdoor drains
    differs from the token-level `sender`.
    """

    token: Address
    block: int
    sender: Address
    recipient: Address
    value: TokenAmount
    tx_sender: Address | None = None


@dataclass(frozen=True, slots=True)
class ApproveRecord:
    token: Address
    block: int
    approver: Address
    spender: Address
    value: TokenAmount


class LiquidityKind(Enum):
    ADD = "add"
    REMOVE = "remove"


@dataclass(frozen=True, slots=True)
class LiquidityEvent:
    pool: Address
    block: int
    kind: LiquidityKind
    amount_x: TokenAmount
    amount_y: TokenAmount
    provider: Address

    def __post_init__(self) -> None:
        if self.amount_x == 0 and self.amount_y == 0:
            raise ValueError("liquidity event must move at least one token")


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


Call = BalanceOfCall | SwapExactInCall
# (token, holder) -> the balance a simulation fork is seeded with
BalanceOverrides = dict[tuple[Address, Address], TokenAmount]


class CallStatus(Enum):
    SUCCESS = "success"
    REVERT = "revert"


# Enum members that per-bundle code compares or passes, as module names:
# on CPython 3.11 reading a member through its class takes about 15
# times as long as reading a global.
_SUCCESS, _REVERT = CallStatus.SUCCESS, CallStatus.REVERT


@dataclass(frozen=True, slots=True)
class CallOutcome:
    """Result of one bundle call: its status, and the revert reason or the
    value it returned.

    A reverted call leaves no state change behind for the calls after it.
    Every outcome comes from a bundle whose calls ran in order on one fork;
    a backend that cannot do that raises instead. Event records are never
    reported here: what a bundle did shows in its calls' return values.
    """

    status: CallStatus
    revert_reason: str | None = None
    return_value: TokenAmount | None = None

    @property
    def ok(self) -> bool:
        return self.status is _SUCCESS

    @property
    def reverted(self) -> bool:
        return self.status is _REVERT


def check_range(block_range: tuple[int, int]) -> tuple[int, int]:
    lo, hi = block_range
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid block range: {block_range}")
    return block_range


class Window(Protocol):
    """What a scan reads of one inclusive block range for some pools and
    tokens: `get_swaps` of each pool and `get_transfers` and
    `get_approvals` of each token over the range, and `get_reserves` of
    each pool at its last block. Each answers, or raises, as the chain's
    own method of that name would. A `ChainView` is the window of any
    range."""

    def get_swaps(self, pool: Address, block_range: tuple[int, int]) -> list[SwapRecord]: ...

    def get_transfers(
        self, token: Address, block_range: tuple[int, int]
    ) -> list[TransferRecord]: ...

    def get_approvals(
        self, token: Address, block_range: tuple[int, int]
    ) -> list[ApproveRecord]: ...

    def get_reserves(self, pool: Address, block: int) -> tuple[TokenAmount, TokenAmount]: ...


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
        """The token's Transfer events in range, in block order.

        Balance changes without an event are invisible here by design;
        finding them from balance reads is the analyzer's job.
        """

    @abstractmethod
    def get_approvals(self, token: Address, block_range: tuple[int, int]) -> list[ApproveRecord]:
        """Logged approvals of the token in range."""

    @abstractmethod
    def get_reserves(self, pool: Address, block: int) -> tuple[TokenAmount, TokenAmount]:
        """(reserve of token_x, reserve of token_y) at the sealed block state."""

    def get_window(
        self,
        pools: Sequence[Address],
        tokens: Sequence[Address],
        block_range: tuple[int, int],
    ) -> Window:
        """The `Window` of `block_range` for `pools` and `tokens`. A backend
        may fetch every answer up front; by default the chain is its own
        window, answering each query as it is asked."""
        return self

    @abstractmethod
    def balances_at(
        self, reads: Sequence[tuple[Address, Address, int]]
    ) -> list[TokenAmount | None]:
        """What each `(token, holder, block)` read returned at the sealed
        block state, in order: whatever the token's balance function said,
        which may lie about its accounting, or None, never an exception
        and never 0, for a read that reverted."""

    def balance_of(self, token: Address, holder: Address, block: int) -> TokenAmount | None:
        """`balances_at` of one read."""
        return self.balances_at([(token, holder, block)])[0]

    @abstractmethod
    def simulate_bundles(
        self,
        block: int,
        items: Sequence[tuple[Sequence[Call], BalanceOverrides | None]],
    ) -> list[list[CallOutcome] | Exception]:
        """Run each `(calls, balance_overrides)` on its own private fork of
        `block`, in order. Each call sees the effects of the bundle's prior
        calls, a revert rolls back only its own call, and public state is
        never touched. `balance_overrides` seeds the fork with (token,
        holder) balances, which funds synthetic probe accounts (a
        fork-local mint on the mock, a state override on the node). A
        bundle whose simulation raised, an empty one included, gets the
        exception in place of its outcomes; a failure of the whole batch,
        such as an unsealed block or a lost transport, is raised."""

    def simulate_bundle(
        self,
        block: int,
        calls: Sequence[Call],
        balance_overrides: BalanceOverrides | None = None,
    ) -> list[CallOutcome]:
        """`simulate_bundles` of one bundle; its failure is raised."""
        [outcomes] = self.simulate_bundles(block, [(calls, balance_overrides)])
        if isinstance(outcomes, Exception):
            raise outcomes
        return outcomes

    @abstractmethod
    def pool_info(self, pool: Address) -> PoolInfo:
        """Metadata for a known pool; UnknownPool if there is none."""

    def quote_exact_in(
        self, pool: PoolInfo, token_in: Address, amount_in: TokenAmount, block: int
    ) -> TokenAmount | None:
        """Backend-provided swap output estimate, or None to use the local formula.

        Live backends answer this for pool styles whose pricing the local
        constant-product formula does not model.
        """
        return None
