"""Backend-agnostic chain access contract.

Everything above this module (monitor, simulator, analyzer) talks to a
`ChainView`: read pool/token state, read event logs, and simulate call
bundles against a private fork of a sealed block. Two implementations
exist: the in-memory mock chain and the live JSON-RPC backend.

A scan asks for many pools at once. `get_window` gives the logs of a
block range for many pools and tokens, and the pools' reserves at its
last block; `pool_infos` reads many pools' metadata, `balances_at` many
balances, and `simulate_bundles` runs many bundles. A backend may answer
each in one round trip (the logs and reserves of a window in one, plus
one for the senders of its transfers). A scan resolves each pool's
metadata once, when it finds the pool, and hands the `PoolInfo` to every
window, so a window reads no metadata. A backend implements only what a
scan calls: `head`, `get_pool_created` and those four batched reads and
simulations. Every single-query form (`pool_info`, `get_swaps`,
`get_transfers`, `get_approvals`, `get_reserves`, `balance_of` and
`simulate_bundle`) is defined here, once, as a window or batch of one,
so each backend has one path for each. A window is always a `Window`,
every answer fetched when it is built.

The per-bundle records, `BalanceOfCall`, `SwapExactInCall` and
`CallOutcome` here and `Bundle` and `SimulationResult` in the simulator,
are built once and never mutated. They are plain slots dataclasses, not
frozen ones, because building them is the per-bundle cost: on CPython
3.11 a frozen dataclass sets each field through `object.__setattr__`,
0.9-1.4 us per record against 0.3-0.6 us without `frozen`, and a scan
builds several per simulated bundle. The two call types compare by
value, since the mock chain's bundle memo and the RPC backend's template
memo key on tuples of them, and the mock's memo shares outcome objects
between bundles.
Each hashes its fields once, in `__post_init__`, into a field that
`__hash__` returns: the RPC backend's memo hashes every call of each
bundle it looks up, and the mock's memo those of each bundle it does not
find by identity, and the pipeline hands a subject's calls to every
round whose amounts match the last (see the `simulator` module
docstring), so one call is hashed many times. A dataclass's generated
`__hash__` would rebuild and hash the field tuple in Python on each
lookup. `dataclasses.replace` builds a new call, which hashes its own
fields. `tests/test_records.py` patches a write-once `__setattr__` onto
all five and scans the pinned corpus on both backends, so an assignment
after construction fails there.

The seam carries only what a detector can observe. A balance read is a
plain `TokenAmount`, or None when the read reverted, so every caller has
to decide what a missing read means. A simulated swap reports only
whether it went through: no predicate reads its return, and the
fee-on-transfer router functions return nothing. An event record is one
log the chain emitted, with the number of the block that holds it; a
balance movement that emitted no event has no record.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(slots=True)
class BalanceOfCall:
    """A read of `holder`'s balance of `token`, sent by `caller`.

    Built once per bundle and never mutated (see the module docstring);
    it compares by value, and hashes by the value hashed once at
    construction, because bundle memos key on it.
    """

    caller: Address
    token: Address
    holder: Address
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.caller, self.token, self.holder))

    def __hash__(self) -> int:
        return self._hash


@dataclass(slots=True)
class SwapExactInCall:
    """Exact-input swap routed for `caller`, output sent to `recipient`.

    Router-style approval is part of this call slot: backends that need a
    separate approve transaction fold it into the same outcome. Built once
    per bundle and never mutated (see the module docstring); it compares
    by value, and hashes by the value hashed once at construction,
    because bundle memos key on it.
    """

    caller: Address
    pool: Address
    token_in: Address
    token_out: Address
    amount_in: TokenAmount
    recipient: Address
    min_out: TokenAmount = 0
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._hash = hash((
            self.caller, self.pool, self.token_in, self.token_out, self.amount_in,
            self.recipient, self.min_out,
        ))

    def __hash__(self) -> int:
        return self._hash


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


@dataclass(slots=True)
class CallOutcome:
    """Result of one bundle call: its status, and the revert reason or, for
    a balance read, the balance it read. A swap carries no value.

    A reverted call leaves no state change behind for the calls after it.
    Every outcome comes from a bundle whose calls ran in order on one fork;
    a backend that cannot do that raises instead. Event records are never
    reported here: what a bundle did shows in its balance reads.
    Never mutated once built: the mock chain hands one outcome to every
    bundle it answers from its memo (see the module docstring).
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


class Window:
    """What a scan reads of one inclusive block range for some pools and
    tokens: the swaps of each pool and the transfers and approvals of each
    token over the range, and each pool's reserves at its last block.

    `answers` holds, by (kind, address), what each query got, fetched when
    the window is built: records, reserves, or an exception, raised when
    asked for as a `fresh_error`, since the frames of its traceback hold
    the window."""

    __slots__ = ("answers",)

    def __init__(self, answers: dict[tuple[str, Address], object]):
        self.answers = answers

    def _answer(self, kind: str, address: Address):
        answer = self.answers[kind, address]
        if isinstance(answer, Exception):
            raise fresh_error(answer)
        return answer

    def swaps(self, pool: Address) -> list[SwapRecord]:
        return self._answer("swaps", pool)

    def transfers(self, token: Address) -> list[TransferRecord]:
        return self._answer("transfers", token)

    def approvals(self, token: Address) -> list[ApproveRecord]:
        return self._answer("approvals", token)

    def reserves(self, pool: Address) -> tuple[TokenAmount, TokenAmount]:
        return self._answer("reserves", pool)


def fresh_error(exc: Exception) -> Exception:
    """A new exception of `exc`'s type with its args and attributes, to
    raise in place of a stored one, which would keep a traceback whose
    frames hold what stores it: a cycle that only the cyclic garbage
    collector frees. It is built without calling the constructor, whose
    signature may differ from the args (an RPC error's does)."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(vars(exc))
    return copy


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
    def pool_infos(self, pools: Sequence[Address]) -> list[PoolInfo | UnknownPool]:
        """The metadata of each pool, in order, or an UnknownPool for one
        that has none."""

    def pool_info(self, pool: Address) -> PoolInfo:
        """`pool_infos` of one pool; its UnknownPool is raised."""
        [info] = self.pool_infos([pool])
        if isinstance(info, UnknownPool):
            raise fresh_error(info)
        return info

    @abstractmethod
    def get_liquidity_events(
        self, pool: Address, block_range: tuple[int, int]
    ) -> list[LiquidityEvent]:
        """Liquidity adds/removes for the pool in range, in block order."""

    @abstractmethod
    def get_window(
        self,
        pools: Sequence[PoolInfo],
        tokens: Sequence[Address],
        block_range: tuple[int, int],
    ) -> Window:
        """The `Window` of the inclusive `block_range` for `pools`, given
        by their metadata, and `tokens`; it answers by address. Its
        records are complete, in block order, and of sealed blocks only; a
        balance change without an event has none, by design (finding it
        from balance reads is the analyzer's job). Its reserves are
        (token_x's, token_y's) at the range's last block, where a pool
        that does not exist yet is unknown (UnknownPool)."""

    # The single-query forms, each a window of one pool or token.
    def get_swaps(self, pool: Address, block_range: tuple[int, int]) -> list[SwapRecord]:
        return self.get_window([self.pool_info(pool)], [], block_range).swaps(pool)

    def get_transfers(self, token: Address, block_range: tuple[int, int]) -> list[TransferRecord]:
        return self.get_window([], [token], block_range).transfers(token)

    def get_approvals(self, token: Address, block_range: tuple[int, int]) -> list[ApproveRecord]:
        return self.get_window([], [token], block_range).approvals(token)

    def get_reserves(self, pool: Address, block: int) -> tuple[TokenAmount, TokenAmount]:
        return self.get_window([self.pool_info(pool)], [], (block, block)).reserves(pool)

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
            raise fresh_error(outcomes)
        return outcomes

    def quotes_exact_in(
        self, items: Sequence[tuple[PoolInfo, Address, TokenAmount]], block: int
    ) -> list[TokenAmount | None]:
        """For each `(pool, token_in, amount_in)`, in order, the backend's
        estimate of the swap's output at `block`, or None to use the local
        formula.

        Live backends answer this for pool styles whose pricing the local
        constant-product formula does not model, all in one round trip; by
        default every answer is None.
        """
        return [None] * len(items)
