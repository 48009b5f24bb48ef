"""Replay of a complete pool scam, then catch it from the outside.

The script mirrors the classic pattern: the creator deploys a token with
an owner backdoor, pairs it against the base asset, fakes volume through
a second wallet, waits for a victim, zeroes the victim's balance in the
next block, and finally pulls the liquidity. We then run the detection
pipeline over the sealed chain exactly as an outside observer would, and
print the verdict with its evidence.

Run:  python demos/02_wash_and_drain.py
"""

from trapscan.analyzer import verdict_to_json_line
from trapscan.mockchain import run_attack_script, wash_and_drain_script
from trapscan.pipeline import scan_pool


def main():
    script, seed = wash_and_drain_script(emits_event=False)
    trace = run_attack_script(script, seed)

    print("on-chain timeline:")
    for event in trace.events:
        fields = {k: v for k, v in event.items() if k not in ("block", "event")}
        extras = ", ".join(f"{k}={_short(v)}" for k, v in fields.items())
        print(f"  block {event['block']:>3}  {event['event']:<16} {extras}")

    victim = trace.actors.victims[0]
    head = trace.chain.head()
    print(f"\nvictim {victim.hex[:10]}… ends the story with "
          f"{trace.chain.balance_of(trace.trap_token, victim, head)} tokens "
          f"and no Transfer log to explain it.")

    verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1, trace.final_block)
    print(f"\nverdict: traps={sorted(t.value for t in verdict.traps)}")
    for finding in verdict.findings:
        print(f"  {finding.trap.value} at block {finding.block}: {finding.evidence}")
    print(f"\nground truth from the script: "
          f"{sorted(t.value for t in trace.ground_truth)}")
    print(f"match: {verdict.traps == set(trace.ground_truth)}")
    print("\nexported verdict line:")
    print(verdict_to_json_line(verdict))


def _short(value):
    text = str(value)
    return text[:12] + "…" if len(text) > 13 else text


if __name__ == "__main__":
    main()
