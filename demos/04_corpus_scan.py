"""Corpus generation and the bulk scan report.

Generates a small labeled scenario corpus (stratified across all trap
families plus honest controls), scans every pool, checks each verdict
against its embedded label, and prints the per-trap summary table that
`trapscan scan` emits. Trap counts overlap: one pool can carry several
trap types, so the columns sum to more than the distinct total.

Run:  python demos/04_corpus_scan.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from trapscan.corpus import gen_corpus
from trapscan.mockchain import load_scenario, run_attack_script
from trapscan.pipeline import ScanSummary, scan_pool


def main():
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen_corpus(40, seed=12345, out_dir=Path(tmp) / "corpus")
        print(f"generated {len(paths)} scenarios:")
        families = Counter(p.stem.split("_", 1)[1] for p in paths)
        for family, count in sorted(families.items()):
            print(f"  {family:<18} {count}")

        summary = ScanSummary()
        matches = 0
        for path in paths:
            scenario = load_scenario(path)
            trace = run_attack_script(scenario.script, scenario.seed)
            verdict = scan_pool(trace.chain, trace.pool, trace.trap_token,
                                1, trace.final_block)
            summary.count(trap.value for trap in verdict.traps)
            if verdict.traps == set(trace.ground_truth):
                matches += 1

        print(f"\nground-truth match: {matches}/{len(paths)}")
        print("\nscan summary:")
        print(summary.table())


if __name__ == "__main__":
    main()
