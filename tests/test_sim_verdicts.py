"""Sim-mode verdicts pinned byte for byte.

`trapscan scan --mode sim` over `gen_corpus(24, 7)` must write exactly the
verdict lines it wrote when these digests were recorded, at intervals 1,
3 and 7; at interval 7 a window spans several blocks, and buyers are
first seen in its middle. Each scenario has its own digest (the first 16
hex digits of the line's sha256), so a failure names the scenario whose
verdict moved.
Each scenario is also scanned twice on one replayed chain, so that the
second scan runs with the mock chain's bundle reuse warm; it must write
the same line. Re-record the table only for a change that is meant to
alter verdicts.

The larger gate corpus, `gen-corpus --n 200 --seed 7`, is pinned by one
digest per interval: that of the whole file `--out` writes.
"""

import hashlib
from pathlib import Path

import pytest

from trapscan.analyzer import verdict_to_json_line
from trapscan.cli import main
from trapscan.corpus import gen_corpus
from trapscan.mockchain import load_scenario, run_attack_script
from trapscan.pipeline import ScanSettings, scan_pool

INTERVALS = (1, 3, 7)

# scenario file -> digests at intervals 1, 3 and 7
PINNED = {
    "000_honest.json": ("5dbbea9271419843", "5dbbea9271419843", "5dbbea9271419843"),
    "001_honest.json": ("8b60da05fb789a96", "8b60da05fb789a96", "8b60da05fb789a96"),
    "002_honest.json": ("8b60da05fb789a96", "8b60da05fb789a96", "8b60da05fb789a96"),
    "003_honest.json": ("0e359c4570261270", "0e359c4570261270", "0e359c4570261270"),
    "004_honest.json": ("7338abc8a4e0766e", "7338abc8a4e0766e", "7338abc8a4e0766e"),
    "005_honest.json": ("10e3d85bc80063b2", "10e3d85bc80063b2", "10e3d85bc80063b2"),
    "006_hidden_tax.json": ("b6961294075fdf3c", "f67ae117e2fb3e74", "ec93a6c39210afbf"),
    "007_high_tax.json": ("567ee2b3fed74ab8", "2a7bcf6d8ea9b6ef", "2a1618f8c1b7e500"),
    "008_owner_drain.json": ("110ca6fb159ba19c", "110ca6fb159ba19c", "110ca6fb159ba19c"),
    "009_list_gate.json": ("2f4cc122c176f9a7", "d9ecbe1d4e9ead14", "f1bbffde7463fdc5"),
    "010_limited_sell.json": ("8751198a6bcacab4", "6f3d80f54a23261f", "74946ec9118cb47e"),
    "011_delayed_sell_tax.json": ("972a272fa072c3fd", "972a272fa072c3fd", "d9da328e4ae645a2"),
    "012_hidden_tax.json": ("9cb2993b45ef169b", "cdc6ab230e74e46a", "e2c4bc6c69580130"),
    "013_high_tax.json": ("be064d95018c6562", "19089a5737c17292", "1867fae82dde51d1"),
    "014_owner_drain.json": ("c351979364c9d694", "c351979364c9d694", "c351979364c9d694"),
    "015_list_gate.json": ("adb505fc0aa53122", "9123ccd5eba6e1c7", "9123ccd5eba6e1c7"),
    "016_limited_sell.json": ("2d45103e9518ceea", "53ec86046797c67a", "eac2d0ad573d79bc"),
    "017_delayed_sell_tax.json": ("c1e6e4dee4e803f0", "b6c631fa1af5138c", "30339e4ffa8a1eb7"),
    "018_hidden_tax.json": ("368dadac0b3b1c77", "bd6a565f1678ebb3", "24c6acc3d756a86e"),
    "019_high_tax.json": ("a821620e508244ce", "e5622abf8272eaa3", "7230bc3cd234808d"),
    "020_owner_drain.json": ("012b56fa7d4f0466", "012b56fa7d4f0466", "012b56fa7d4f0466"),
    "021_list_gate.json": ("3580f1d5bb0d96dc", "6eaeecbb22d67f34", "d263d31a7f83c8ec"),
    "022_limited_sell.json": ("db85ca025550f3ca", "84ca5637883e178f", "b07b33094eb34439"),
    "023_delayed_sell_tax.json": ("a5ca16323bdc097e", "c72542b4d8100b74", "1b49994ccfcb5ab5"),
}

# interval -> digest of the verdict file of `gen-corpus --n 200 --seed 7`
GATE_PINNED = {1: "98706bf00b119f03", 3: "e0edc13b0107d37f", 7: "70400c771eef5e60"}


def digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding the pinned corpus in `corpus/`."""
    root = tmp_path_factory.mktemp("pinned")
    gen_corpus(24, 7, root / "corpus")
    return root


@pytest.fixture(scope="module")
def digests(root):
    """{(scenario, interval): digest} from one CLI sim scan per interval."""
    names = sorted(p.name for p in (root / "corpus").iterdir())
    found = {}
    for interval in INTERVALS:
        out = root / f"verdicts-{interval}.jsonl"
        argv = ["scan", "--mode", "sim", "--scenario", str(root / "corpus"),
                "--interval", str(interval), "--out", str(out)]
        assert main(argv) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == len(names)
        for name, line in zip(names, lines):
            found[name, interval] = digest(line)
    return found


@pytest.fixture(scope="module")
def warm_digests(root):
    """{(scenario, interval): digest} of the second of two scans of one chain."""
    found = {}
    for path in sorted((root / "corpus").iterdir()):
        scenario = load_scenario(path)
        trace = run_attack_script(scenario.script, scenario.seed)
        for interval in INTERVALS:
            settings = ScanSettings(interval=interval)
            for _ in range(2):
                verdict = scan_pool(trace.chain, trace.pool, trace.trap_token, 1,
                                    trace.final_block, settings)
            found[path.name, interval] = digest(verdict_to_json_line(verdict))
    return found


def test_corpus_is_the_pinned_one(digests):
    assert {name for name, _ in digests} == set(PINNED)


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_sim_verdict_unchanged(digests, scenario, interval):
    assert digests[scenario, interval] == PINNED[scenario][INTERVALS.index(interval)]


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_warm_rescan_unchanged(warm_digests, scenario, interval):
    assert warm_digests[scenario, interval] == PINNED[scenario][INTERVALS.index(interval)]


@pytest.fixture(scope="module")
def gate_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    assert main(["gen-corpus", "--n", "200", "--seed", "7",
                 "--out-dir", str(root / "corpus")]) == 0
    return root


@pytest.mark.parametrize("interval", INTERVALS)
def test_gate_corpus_unchanged(gate_corpus, interval):
    out = gate_corpus / f"verdicts-{interval}.jsonl"
    argv = ["scan", "--mode", "sim", "--scenario", str(gate_corpus / "corpus"),
            "--interval", str(interval), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == GATE_PINNED[interval]
