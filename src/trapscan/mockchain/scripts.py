"""Scripted attack scenarios: deploy, lure, trap, exit.

A script is an ordered list of steps executed one per block (a WashBuy
with `times` repeats spans that many blocks), so the sealed chain carries
per-block texture for the monitor to replay. Running a script yields a
`ScenarioTrace` with the chain itself, every record it produced, and the
ground-truth trap label derived from the token's parameters.

Ground-truth labels are analytic in the behavior parameters. Parameters
sitting exactly on a decision boundary (for example a transfer tax of
exactly one half) have rounding-dependent detectability and are rejected
as ambiguous; the corpus generator samples outside those bands, and
assumes trade sizes large enough for the estimator to resolve at least a
few hundred units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..core import Address, PoolInfo, TokenAmount, TrapType
from .behaviors import (
    DelayedSellTax,
    GateMode,
    HiddenTax,
    Honest,
    LimitedSell,
    ListGate,
    OwnerDrain,
    SwitchTrigger,
    TokenBehavior,
    TriggerKind,
)
from .chain import MockChain

HALF = Fraction(1, 2)
BASE_SUPPLY = 10**30
TRAP_SUPPLY = 10**27


class ScriptError(ValueError):
    """Script failed validation before any execution."""


class AmbiguousParameters(ScriptError):
    """Behavior parameters sit on a detectability boundary."""


# ----------------------------------------------------------------------
# steps

@dataclass(frozen=True, slots=True)
class DeployToken:
    behavior: TokenBehavior
    supply: TokenAmount = TRAP_SUPPLY


@dataclass(frozen=True, slots=True)
class CreatePool:
    fee_num: int = 3
    fee_den: int = 1000


@dataclass(frozen=True, slots=True)
class AddLiquidity:
    x: TokenAmount
    y: TokenAmount


@dataclass(frozen=True, slots=True)
class WashBuy:
    amount: TokenAmount
    times: int = 1


@dataclass(frozen=True, slots=True)
class VictimBuy:
    victim: int
    amount: TokenAmount


@dataclass(frozen=True, slots=True)
class FlipSwitch:
    pass


@dataclass(frozen=True, slots=True)
class Drain:
    victim: int


@dataclass(frozen=True, slots=True)
class RemoveLiquidity:
    pass


@dataclass(frozen=True, slots=True)
class Wait:
    """Seal empty blocks; gives detection rounds room after the last event."""

    blocks: int = 1


Step = (
    DeployToken
    | CreatePool
    | AddLiquidity
    | WashBuy
    | VictimBuy
    | FlipSwitch
    | Drain
    | RemoveLiquidity
    | Wait
)


@dataclass(frozen=True, slots=True)
class AttackScript:
    steps: tuple[Step, ...]

    def victim_count(self) -> int:
        return 1 + max(
            (s.victim for s in self.steps if isinstance(s, (VictimBuy, Drain))),
            default=-1,
        )


@dataclass(frozen=True, slots=True)
class ScenarioActors:
    creator: Address
    wash_trader: Address
    victims: tuple[Address, ...]


@dataclass
class ScenarioTrace:
    """Everything a scripted run produced, including the live chain."""

    chain: MockChain
    seed: int
    script: AttackScript
    actors: ScenarioActors
    pool: PoolInfo
    trap_token: Address
    base_token: Address
    ground_truth: frozenset[TrapType]
    activation_block: int | None
    final_block: int
    events: list[dict] = field(default_factory=list)


def derive_actors(seed: int, victim_count: int) -> ScenarioActors:
    return ScenarioActors(
        creator=Address.derive(f"scenario:{seed}:creator"),
        wash_trader=Address.derive(f"scenario:{seed}:wash"),
        victims=tuple(
            Address.derive(f"scenario:{seed}:victim:{i}") for i in range(victim_count)
        ),
    )


def validate_script(script: AttackScript) -> None:
    deployed: TokenBehavior | None = None
    pool_created = False
    for i, step in enumerate(script.steps):
        if isinstance(step, DeployToken):
            if deployed is not None:
                raise ScriptError(f"step {i}: token already deployed")
            deployed = step.behavior
        elif isinstance(step, CreatePool):
            if deployed is None:
                raise ScriptError(f"step {i}: create_pool before deploy_token")
            pool_created = True
        elif isinstance(step, (AddLiquidity, WashBuy, VictimBuy, RemoveLiquidity)):
            if not pool_created:
                raise ScriptError(f"step {i}: {type(step).__name__} before create_pool")
        elif isinstance(step, FlipSwitch):
            if not isinstance(deployed, (DelayedSellTax, ListGate)):
                raise ScriptError(f"step {i}: flip_switch needs a switchable behavior")
        elif isinstance(step, Drain):
            if not isinstance(deployed, OwnerDrain):
                raise ScriptError(f"step {i}: drain needs an owner-drain token")
    if deployed is None:
        raise ScriptError("script never deploys a token")
    if not pool_created:
        raise ScriptError("script never creates a pool")
    _check_unambiguous(deployed)


def _check_unambiguous(behavior: TokenBehavior) -> None:
    if isinstance(behavior, Honest) and behavior.tax == HALF:
        raise AmbiguousParameters("transfer tax of exactly 1/2 is boundary-ambiguous")
    if isinstance(behavior, HiddenTax) and behavior.keep_fraction == HALF:
        raise AmbiguousParameters("keep fraction of exactly 1/2 is boundary-ambiguous")
    if isinstance(behavior, LimitedSell) and behavior.max_sell_rate == HALF:
        raise AmbiguousParameters("sell rate of exactly 1/2 is boundary-ambiguous")
    if isinstance(behavior, DelayedSellTax) and behavior.final_sell_tax == HALF:
        raise AmbiguousParameters("final sell tax of exactly 1/2 is boundary-ambiguous")


def _base_funding(script: AttackScript) -> dict[str, int]:
    """Base-token budget per actor, with generous headroom."""
    wash_total = sum(
        s.amount * s.times for s in script.steps if isinstance(s, WashBuy)
    )
    victims: dict[int, int] = {}
    for s in script.steps:
        if isinstance(s, VictimBuy):
            victims[s.victim] = victims.get(s.victim, 0) + s.amount
    budget = {"wash": wash_total * 2 + 10**6}
    for idx, total in victims.items():
        budget[f"victim:{idx}"] = total * 2 + 10**6
    return budget


def run_attack_script(script: AttackScript, seed: int) -> ScenarioTrace:
    """Execute the script block by block and label the result.

    Deterministic: identical (script, seed) pairs produce byte-identical
    traces.
    """
    validate_script(script)
    actors = derive_actors(seed, script.victim_count())
    chain = MockChain()
    events: list[dict] = []

    def log(kind: str, **fields) -> None:
        events.append({"block": chain.pending_block, "event": kind, **fields})

    base = chain.deploy_token(Honest(Fraction(0)), BASE_SUPPLY, actors.creator)
    log("deploy_base", token=base.hex)
    chain.advance_block()

    funding = _base_funding(script)
    for tag, amount in funding.items():
        target = (
            actors.wash_trader
            if tag == "wash"
            else actors.victims[int(tag.split(":")[1])]
        )
        chain.token_transfer(base, actors.creator, target, amount)
        log("fund", target=target.hex, amount=str(amount))
    chain.advance_block()

    trap: Address | None = None
    pool: Address | None = None
    pool_info: PoolInfo | None = None
    flip_block: int | None = None

    for step in script.steps:
        if isinstance(step, DeployToken):
            trap = chain.deploy_token(step.behavior, step.supply, actors.creator)
            log("deploy_token", token=trap.hex, behavior=type(step.behavior).__name__)
            chain.advance_block()
        elif isinstance(step, CreatePool):
            pool = chain.create_pool(base, trap, step.fee_num, step.fee_den)
            pool_info = chain.pool_info(pool)
            log("create_pool", pool=pool.hex, token_x=base.hex, token_y=trap.hex)
            chain.advance_block()
        elif isinstance(step, AddLiquidity):
            out = chain.add_liquidity(pool, actors.creator, step.x, step.y)
            _require_success(out, "add_liquidity")
            log("add_liquidity", x=str(step.x), y=str(step.y))
            chain.advance_block()
        elif isinstance(step, WashBuy):
            for _ in range(step.times):
                out = chain.swap(pool, actors.wash_trader, base, step.amount, actors.wash_trader)
                _require_success(out, "wash buy")
                log("wash_buy", amount=str(step.amount), received=str(out.return_value))
                chain.advance_block()
        elif isinstance(step, VictimBuy):
            victim = actors.victims[step.victim]
            out = chain.swap(pool, victim, base, step.amount, victim)
            _require_success(out, "victim buy")
            log("victim_buy", victim=victim.hex, amount=str(step.amount),
                received=str(out.return_value))
            chain.advance_block()
        elif isinstance(step, FlipSwitch):
            out = chain.flip_switch(trap, actors.creator)
            _require_success(out, "flip_switch")
            flip_block = chain.pending_block
            log("flip_switch")
            chain.advance_block()
        elif isinstance(step, Drain):
            victim = actors.victims[step.victim]
            out = chain.owner_drain(trap, victim, actors.creator)
            _require_success(out, "drain")
            log("drain", victim=victim.hex, amount=str(out.return_value))
            chain.advance_block()
        elif isinstance(step, RemoveLiquidity):
            out = chain.remove_liquidity(pool, actors.creator)
            _require_success(out, "remove_liquidity")
            log("remove_liquidity")
            chain.advance_block()
        elif isinstance(step, Wait):
            log("wait", blocks=step.blocks)
            chain.advance_block(step.blocks)

    behavior = chain.token_behavior(trap)
    activation = _activation_block(chain, trap, behavior, flip_block)
    truth = derive_ground_truth(behavior, script, actors, activation)
    return ScenarioTrace(
        chain=chain,
        seed=seed,
        script=script,
        actors=actors,
        pool=pool_info,
        trap_token=trap,
        base_token=base,
        ground_truth=truth,
        activation_block=activation,
        final_block=chain.head(),
        events=events,
    )


def _require_success(outcome, what: str) -> None:
    if outcome.reverted:
        raise ScriptError(f"{what} reverted: {outcome.revert_reason}")


def _activation_block(
    chain: MockChain, trap: Address, behavior: TokenBehavior, flip_block: int | None
) -> int | None:
    if isinstance(behavior, DelayedSellTax):
        return chain.switched_at(trap)
    if isinstance(behavior, ListGate):
        switched = chain.switched_at(trap)
        if switched is not None:
            return switched
        return behavior.active_from if behavior.active_from <= chain.head() else None
    return flip_block


def derive_ground_truth(
    behavior: TokenBehavior,
    script: AttackScript,
    actors: ScenarioActors,
    activation_block: int | None,
) -> frozenset[TrapType]:
    """Trap label implied by the behavior parameters and the script."""
    _check_unambiguous(behavior)
    traps: set[TrapType] = set()

    if isinstance(behavior, Honest):
        if behavior.tax > HALF:
            traps.add(TrapType.INVALID_BUY)
            if behavior.tax < 1:
                traps.add(TrapType.INVALID_SELL)
    elif isinstance(behavior, HiddenTax):
        if behavior.keep_fraction < HALF:
            traps.add(TrapType.INVALID_BUY)
            traps.add(TrapType.INVALID_SELL)
    elif isinstance(behavior, OwnerDrain):
        if _drain_after_buy(script):
            traps.add(TrapType.UNAUTHORIZED_TRANSFER)
    elif isinstance(behavior, ListGate):
        if _gate_traps(behavior, script, actors, activation_block):
            traps.add(TrapType.CANNOT_SELL)
    elif isinstance(behavior, LimitedSell):
        if behavior.max_sell_rate < HALF:
            traps.add(TrapType.INVALID_SELL)
    elif isinstance(behavior, DelayedSellTax):
        if behavior.final_sell_tax > HALF and activation_block is not None:
            traps.add(TrapType.INVALID_SELL)
    return frozenset(traps)


def _drain_after_buy(script: AttackScript) -> bool:
    bought: set[int] = set()
    for step in script.steps:
        if isinstance(step, VictimBuy):
            bought.add(step.victim)
        elif isinstance(step, Drain) and step.victim in bought:
            return True
    return False


def _gate_traps(
    behavior: ListGate,
    script: AttackScript,
    actors: ScenarioActors,
    activation_block: int | None,
) -> bool:
    if activation_block is None:
        return False
    if behavior.mode is GateMode.ALLOW:
        # The buy-and-sell probe account is never on the allow list, so an
        # active allow gate is detectable even with zero victims.
        return not behavior.global_open
    bought = {
        actors.victims[s.victim] for s in script.steps if isinstance(s, VictimBuy)
    }
    return bool(bought & set(behavior.members))


# ----------------------------------------------------------------------
# canonical scenario: wash-traded pool whose creator drains buyers

def wash_and_drain_script(
    emits_event: bool = True,
    wash_times: int = 5,
    liquidity: tuple[int, int] = (10**9, 10**9),
    wash_amount: int = 10**6,
    victim_amount: int = 2 * 10**6,
    seed: int = 1,
) -> tuple[AttackScript, int]:
    """Create token, add liquidity, wash-buy to fake volume, let one victim
    buy, zero their balance the next block, then pull the liquidity."""
    creator = Address.derive(f"scenario:{seed}:creator")
    script = AttackScript(
        steps=(
            DeployToken(OwnerDrain(owner=creator, emits_event=emits_event)),
            CreatePool(),
            AddLiquidity(*liquidity),
            WashBuy(amount=wash_amount, times=wash_times),
            VictimBuy(victim=0, amount=victim_amount),
            Drain(victim=0),
            Wait(blocks=2),
            RemoveLiquidity(),
            Wait(blocks=1),
        )
    )
    return script, seed
