"""A tour of the token behavior models: what each trap does to a transfer.

For every behavior we deploy a token, move some of it around, and print
what the emitted event CLAIMS happened next to what the recipient's
balance actually did. The divergence between those two columns is exactly
what the detection predicates key on.

Run:  python demos/01_trap_zoo.py
"""

from fractions import Fraction

from trapscan.core import Address
from trapscan.mockchain import (
    DelayedSellTax,
    GateMode,
    HiddenTax,
    Honest,
    LimitedSell,
    ListGate,
    MockChain,
    OwnerDrain,
    TransferContext,
)

OWNER = Address.derive("demo:owner")
ALICE = Address.derive("demo:alice")
BOB = Address.derive("demo:bob")


def observe(chain, token, action, title, subject=BOB):
    """Run one transfer-ish action and report event value vs balance move."""
    chain.advance_block()
    before = chain.balance_of(token, subject, chain.head())
    events_before = len(chain.get_transfers(token, (0, chain.head())))
    outcome = action()
    chain.advance_block()
    after = chain.balance_of(token, subject, chain.head())
    new_events = chain.get_transfers(token, (0, chain.head()))[events_before:]
    event = new_events[-1].value if new_events else "-"
    print(f"{title:<54} status={outcome.status.value:<8}"
          f" event_says={event!s:>6}  balance_moved={after - before:+d}")
    return outcome


def main():
    print("one transfer per behavior; the recipient starts from zero:\n")

    chain = MockChain()
    token = chain.deploy_token(Honest(Fraction(0)), 10**12, OWNER)
    chain.token_transfer(token, OWNER, ALICE, 10**6)
    observe(chain, token, lambda: chain.token_transfer(token, ALICE, BOB, 1000),
            "honest, no tax")

    chain = MockChain()
    token = chain.deploy_token(Honest(Fraction(60, 100)), 10**12, OWNER)
    chain.token_transfer(token, OWNER, ALICE, 10**6)
    observe(chain, token, lambda: chain.token_transfer(token, ALICE, BOB, 1000),
            "honest surface, 60% tax (event reports the net)")

    chain = MockChain()
    token = chain.deploy_token(HiddenTax(Fraction(1, 10)), 10**12, OWNER)
    chain.token_transfer(token, OWNER, ALICE, 10**6)
    observe(chain, token, lambda: chain.token_transfer(token, ALICE, BOB, 1000),
            "hidden tax, keeps 10% (event reports the FULL 1000)")

    chain = MockChain()
    token = chain.deploy_token(OwnerDrain(owner=OWNER, emits_event=False), 10**12, OWNER)
    chain.token_transfer(token, OWNER, BOB, 1000)
    observe(chain, token, lambda: chain.owner_drain(token, BOB, OWNER),
            "owner drain, silent (balance reset, no event at all)")

    chain = MockChain()
    token = chain.deploy_token(
        ListGate(mode=GateMode.ALLOW, members=frozenset()), 10**12, OWNER
    )
    chain.token_transfer(token, OWNER, ALICE, 10**6)  # owner is auto-whitelisted
    out = observe(chain, token, lambda: chain.token_transfer(token, ALICE, BOB, 1000),
                  "allow-list gate blocks non-members")
    print(f"{'':54} revert reason: {out.revert_reason!r} (deliberately misleading)")

    chain = MockChain()
    token = chain.deploy_token(LimitedSell(Fraction(1, 100)), 10**12, OWNER)
    chain.token_transfer(token, OWNER, ALICE, 10**6)
    observe(chain, token,
            lambda: chain.token_transfer(token, ALICE, BOB, 10**5,
                                         TransferContext.POOL_IN),
            "limited sell: pay 100000 into a pool, 1% cap")

    chain = MockChain()
    token = chain.deploy_token(DelayedSellTax(Fraction(1)), 10**12, OWNER)
    chain.token_transfer(token, OWNER, ALICE, 10**6)
    observe(chain, token,
            lambda: chain.token_transfer(token, ALICE, BOB, 1000,
                                         TransferContext.POOL_IN),
            "delayed 100% sell tax, before the switch")
    chain.flip_switch(token, OWNER)
    observe(chain, token,
            lambda: chain.token_transfer(token, ALICE, BOB, 1000,
                                         TransferContext.POOL_IN),
            "delayed 100% sell tax, after the switch")


if __name__ == "__main__":
    main()
