"""Scenario files: JSON documents describing one scripted pool.

Schema (trapscan-scenario/1):

    {
      "schema": "trapscan-scenario/1",
      "seed": 7,
      "name": "optional label",
      "tokens": [{"behavior": "...", "params": {...}, "supply": "<decimal>"}],
      "pools":  [{"token": 0, "fee_num": 3, "fee_den": 1000}],
      "steps":  [{"op": "...", ...}, ...],
      "expected_traps": ["InvalidBuy", ...]        # optional, generator-written
    }

Amounts are decimal strings; rates are "num/den" rational strings. Actor
references inside behavior params ("creator", "wash", "victim:N") are
resolved against the seed-derived addresses at load time. Exactly one
token and one pool per file; fleets of pools are directories of files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ..core import MAX_UINT256, Address, TrapType
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
from .scripts import (
    AddLiquidity,
    AttackScript,
    CreatePool,
    DeployToken,
    Drain,
    FlipSwitch,
    RemoveLiquidity,
    ScenarioActors,
    Step,
    VictimBuy,
    Wait,
    WashBuy,
    derive_actors,
    validate_script,
)

SCENARIO_SCHEMA = "trapscan-scenario/1"


class ScenarioFormatError(ValueError):
    """Scenario document failed validation; `where` names the bad field."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


@dataclass(frozen=True)
class Scenario:
    seed: int
    script: AttackScript
    expected_traps: frozenset[TrapType] | None


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ScenarioFormatError(where, "must be an object")
    if key not in doc:
        raise ScenarioFormatError(where, f"missing required field {key!r}")
    return doc[key]


def _amount(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        n = value
    elif isinstance(value, str):
        try:
            n = int(value, 10)
        except ValueError:
            raise ScenarioFormatError(where, f"not a decimal amount: {value!r}") from None
    else:
        raise ScenarioFormatError(where, f"amount must be a decimal string, got {value!r}")
    if n < 0:
        raise ScenarioFormatError(where, "amount must be non-negative")
    if n > MAX_UINT256:
        raise ScenarioFormatError(where, "amount exceeds the uint256 range")
    return n


def _integer(value, where: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioFormatError(where, f"must be an integer >= {minimum}, got {value!r}")
    return value


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioFormatError(where, f"must be true or false, got {value!r}")
    return value


def _rate(value, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            frac = Fraction(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            frac = Fraction(value)
        else:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ScenarioFormatError(where, f"not a rational: {value!r}") from None
    if not (0 <= frac <= 1):
        raise ScenarioFormatError(where, f"rate must be in [0, 1]: {value!r}")
    return frac


def _actor(tag, actors: ScenarioActors, where: str) -> Address:
    if not isinstance(tag, str):
        raise ScenarioFormatError(where, f"actor reference must be a string: {tag!r}")
    if tag == "creator":
        return actors.creator
    if tag == "wash":
        return actors.wash_trader
    if tag.startswith("victim:"):
        digits = tag.split(":", 1)[1]
        if not (digits.isascii() and digits.isdigit()):
            raise ScenarioFormatError(where, f"victim index must be a decimal number: {tag}")
        idx = int(digits)
        if idx >= len(actors.victims):
            raise ScenarioFormatError(where, f"victim index out of range: {tag}")
        return actors.victims[idx]
    raise ScenarioFormatError(where, f"unknown actor tag: {tag!r}")


def _actor_set(tags, actors: ScenarioActors, where: str) -> frozenset[Address]:
    if not isinstance(tags, list):
        raise ScenarioFormatError(where, "expected a list of actor tags")
    return frozenset(_actor(t, actors, where) for t in tags)


def _behavior(doc: dict, actors: ScenarioActors, where: str) -> TokenBehavior:
    kind = _need(doc, "behavior", where)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioFormatError(f"{where}.params", "must be an object")
    p = f"{where}.params"
    if kind == "honest":
        return Honest(tax=_rate(params.get("tax", 0), f"{p}.tax"))
    if kind == "hidden_tax":
        return HiddenTax(
            keep_fraction=_rate(_need(params, "keep_fraction", p), f"{p}.keep_fraction"),
            exempt=_actor_set(params.get("exempt", []), actors, f"{p}.exempt"),
        )
    if kind == "owner_drain":
        return OwnerDrain(
            owner=actors.creator,
            emits_event=_flag(params.get("emits_event", True), f"{p}.emits_event"),
        )
    if kind == "list_gate":
        mode = params.get("mode", "allow")
        if mode not in ("allow", "deny"):
            raise ScenarioFormatError(f"{p}.mode", f"must be allow|deny, got {mode!r}")
        return ListGate(
            mode=GateMode(mode),
            members=_actor_set(params.get("members", []), actors, f"{p}.members"),
            global_open=_flag(params.get("global_open", False), f"{p}.global_open"),
            active_from=_integer(params.get("active_from", 0), f"{p}.active_from"),
        )
    if kind == "limited_sell":
        return LimitedSell(
            max_sell_rate=_rate(_need(params, "max_sell_rate", p), f"{p}.max_sell_rate"),
            fee_exempt=_actor_set(params.get("fee_exempt", []), actors, f"{p}.fee_exempt"),
        )
    if kind == "delayed_sell_tax":
        trig = params.get("trigger", {"kind": "manual"})
        if not isinstance(trig, dict) or trig.get("kind") not in (
            "manual", "at_block", "after_buyers",
        ):
            raise ScenarioFormatError(f"{p}.trigger", f"bad trigger: {trig!r}")
        value = _integer(trig.get("value", 0), f"{p}.trigger.value")
        trigger = SwitchTrigger(TriggerKind(trig["kind"]), value)
        return DelayedSellTax(
            final_sell_tax=_rate(_need(params, "final_sell_tax", p), f"{p}.final_sell_tax"),
            trigger=trigger,
        )
    raise ScenarioFormatError(where, f"unknown behavior: {kind!r}")


_STEP_OPS = {
    "deploy_token", "create_pool", "add_liquidity", "wash_buy",
    "victim_buy", "flip_switch", "drain", "remove_liquidity", "wait",
}


def _step(doc: dict, behavior: TokenBehavior, supply: int, fee: tuple[int, int], where: str) -> Step:
    op = _need(doc, "op", where)
    if op == "deploy_token":
        return DeployToken(behavior=behavior, supply=supply)
    if op == "create_pool":
        return CreatePool(fee_num=fee[0], fee_den=fee[1])
    if op == "add_liquidity":
        return AddLiquidity(
            x=_amount(_need(doc, "x", where), f"{where}.x"),
            y=_amount(_need(doc, "y", where), f"{where}.y"),
        )
    if op == "wash_buy":
        times = _integer(doc.get("times", 1), f"{where}.times", 1)
        return WashBuy(amount=_amount(_need(doc, "amount", where), f"{where}.amount"), times=times)
    if op == "victim_buy":
        return VictimBuy(
            victim=_integer(_need(doc, "victim", where), f"{where}.victim"),
            amount=_amount(_need(doc, "amount", where), f"{where}.amount"),
        )
    if op == "flip_switch":
        return FlipSwitch()
    if op == "drain":
        return Drain(victim=_integer(_need(doc, "victim", where), f"{where}.victim"))
    if op == "remove_liquidity":
        return RemoveLiquidity()
    if op == "wait":
        return Wait(blocks=_integer(doc.get("blocks", 1), f"{where}.blocks", 1))
    raise ScenarioFormatError(where, f"unknown op {op!r}, expected one of {sorted(_STEP_OPS)}")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("$", "document must be a JSON object")
    schema = doc.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ScenarioFormatError("$.schema", f"expected {SCENARIO_SCHEMA!r}, got {schema!r}")
    seed = _need(doc, "seed", "$")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioFormatError("$.seed", "must be an integer")

    tokens = _need(doc, "tokens", "$")
    if not isinstance(tokens, list) or len(tokens) != 1:
        raise ScenarioFormatError("$.tokens", "exactly one token per scenario file")
    pools = _need(doc, "pools", "$")
    if not isinstance(pools, list) or len(pools) != 1:
        raise ScenarioFormatError("$.pools", "exactly one pool per scenario file")
    steps_doc = _need(doc, "steps", "$")
    if not isinstance(steps_doc, list) or not steps_doc:
        raise ScenarioFormatError("$.steps", "must be a non-empty list")

    victim_count = 0
    for i, s in enumerate(steps_doc):
        if isinstance(s, dict) and s.get("op") in ("victim_buy", "drain"):
            victim = _integer(s.get("victim", 0), f"$.steps[{i}].victim")
            victim_count = max(victim_count, victim + 1)
    actors = derive_actors(seed, victim_count)

    behavior = _behavior(tokens[0], actors, "$.tokens[0]")
    supply = _amount(tokens[0].get("supply", 10**27), "$.tokens[0].supply")
    pool_doc = pools[0]
    if not isinstance(pool_doc, dict):
        raise ScenarioFormatError("$.pools[0]", "must be an object")
    fee = (
        _integer(pool_doc.get("fee_num", 3), "$.pools[0].fee_num"),
        _integer(pool_doc.get("fee_den", 1000), "$.pools[0].fee_den", 1),
    )
    if not (0 <= fee[0] < fee[1]):
        raise ScenarioFormatError("$.pools[0]", f"fee must be in [0,1): {fee}")

    steps = tuple(
        _step(s, behavior, supply, fee, f"$.steps[{i}]") for i, s in enumerate(steps_doc)
    )
    script = AttackScript(steps=steps)
    try:
        validate_script(script)
    except ValueError as exc:
        raise ScenarioFormatError("$.steps", str(exc)) from exc

    expected = None
    if "expected_traps" in doc:
        raw = doc["expected_traps"]
        if not isinstance(raw, list):
            raise ScenarioFormatError("$.expected_traps", "must be a list")
        try:
            expected = frozenset(TrapType(t) for t in raw)
        except ValueError as exc:
            raise ScenarioFormatError("$.expected_traps", str(exc)) from exc
    return Scenario(seed=seed, script=script, expected_traps=expected)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file; JSON syntax errors propagate
    as json.JSONDecodeError (with line/column), semantic problems as
    ScenarioFormatError."""
    text = Path(path).read_text()
    doc = json.loads(text)
    return parse_scenario(doc)


def scenario_to_doc(
    seed: int,
    name: str,
    behavior_kind: str,
    params: dict,
    supply: int,
    steps: list[dict],
    expected_traps: list[str] | None = None,
    fee_num: int = 3,
    fee_den: int = 1000,
) -> dict:
    """Assemble a schema-conform document with stable field order."""
    doc = {
        "schema": SCENARIO_SCHEMA,
        "seed": seed,
        "name": name,
        "tokens": [{"behavior": behavior_kind, "params": params, "supply": str(supply)}],
        "pools": [{"token": 0, "fee_num": fee_num, "fee_den": fee_den}],
        "steps": steps,
    }
    if expected_traps is not None:
        doc["expected_traps"] = sorted(expected_traps)
    return doc


def dump_scenario(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
