"""Bundle simulation up close: what the probes see on honest vs trapped pools.

Builds the three bundle shapes (sell, buy probe, buy-and-sell round trip)
against an honest pool and a delayed-sell-tax pool, runs them on private
forks, and prints the before/after balances next to the estimator's
prediction. Nothing here touches the public chain state: the same sell
can be replayed at every block without leaving a trace.

Run:  python demos/03_bundle_probes.py
"""

from fractions import Fraction

from trapscan.mockchain import (
    AddLiquidity,
    AttackScript,
    CreatePool,
    DelayedSellTax,
    DeployToken,
    FlipSwitch,
    Honest,
    VictimBuy,
    Wait,
    WashBuy,
    run_attack_script,
)
from trapscan.pipeline import PROBE_FUNDING, probe_account_for
from trapscan.simulator import build_buy_probe, build_buy_sell_bundle, build_sell_bundle, run


def scenario(behavior, extra=()):
    return run_attack_script(
        AttackScript(steps=(
            DeployToken(behavior),
            CreatePool(),
            AddLiquidity(10**9, 10**9),
            WashBuy(amount=10**6, times=2),
            VictimBuy(victim=0, amount=2 * 10**6),
            *extra,
            Wait(blocks=2),
        )),
        seed=9,
    )


def probe_pool(title, trace):
    print(f"\n=== {title} ===")
    chain, pool = trace.chain, trace.pool
    head = chain.head()
    victim = trace.actors.victims[0]
    # One reserves read, as a scan's ingestion makes it, prices all three bundles.
    reserves = chain.get_reserves(pool.pool, head)

    held = chain.balance_of(trace.trap_token, victim, head)
    bundle = build_sell_bundle(reserves, victim, pool, trace.trap_token, held, head)
    result = run(chain, bundle)
    print(f"victim sell of {held} units at block {head}:")
    print(f"  estimator predicts {result.estimate} base units")
    print(f"  fork delivered     {result.balance_delta}"
          f"  (reverted: {result.sell_reverted})")

    probe = probe_account_for(pool)
    funding = {(trace.base_token, probe): PROBE_FUNDING}
    probe_bundle = build_buy_probe(reserves, probe, pool, trace.trap_token, 10**6, head)
    probe_result = run(chain, probe_bundle, funding)
    print(f"buy probe of 10^6 base units:")
    print(f"  estimator predicts {probe_result.estimate} trap units")
    print(f"  fork delivered     {probe_result.balance_delta}")

    roundtrip = build_buy_sell_bundle(
        reserves, probe, pool, trace.trap_token, 10**6, probe_result, head
    )
    rt = run(chain, roundtrip, funding)
    sell_amount = roundtrip.calls[-2].amount_in  # the swap of interest is second to last
    print(f"buy-and-sell round trip (sell sized by the probe: {sell_amount}):")
    print(f"  estimator predicts {rt.estimate} base units back")
    print(f"  fork returned      {rt.balance_delta}  (reverted: {rt.sell_reverted})")


def main():
    probe_pool("honest pool, 0.3% fee", scenario(Honest(Fraction(0))))
    trapped = scenario(DelayedSellTax(Fraction(1)), extra=(FlipSwitch(), Wait(1)))
    probe_pool("delayed 100% sell tax, switch already on", trapped)
    print("\nthe second pool quotes a healthy price and even executes the sell,")
    print("but the fork shows the seller receiving nothing: the sell-side")
    print("threshold predicate fires while a naive price check stays silent.")


if __name__ == "__main__":
    main()
