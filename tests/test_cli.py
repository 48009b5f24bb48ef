import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trapscan.analyzer import validate_verdict_obj
from trapscan.cli import main
from trapscan.corpus import gen_corpus, generate_scenario
from trapscan.mockchain.scenario_io import dump_scenario
from trapscan.pipeline import read_checkpoint


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    # The child needs src/ on its path just as this process has it.
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "trapscan.cli", *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    gen_corpus(8, seed=3, out_dir=out)
    return out


def _params(doc):
    return doc["tokens"][0]["params"]


# (family, corruption of its generated document, JSON path the error names)
BAD_SCENARIOS = [
    ("hidden_tax", lambda d: _params(d).update(exempt=["victim:-1"]),
     "$.tokens[0].params.exempt"),
    ("hidden_tax", lambda d: _params(d).update(exempt=["victim:x"]),
     "$.tokens[0].params.exempt"),
    ("owner_drain", lambda d: _params(d).update(emits_event="false"),
     "$.tokens[0].params.emits_event"),
    ("list_gate", lambda d: _params(d).update(global_open="false"),
     "$.tokens[0].params.global_open"),
    ("honest", lambda d: d["steps"][4].update(victim=-1), "$.steps[4].victim"),
    ("honest", lambda d: d["steps"][3].update(times="two"), "$.steps[3].times"),
    ("honest", lambda d: d["pools"][0].update(fee_num="x"), "$.pools[0].fee_num"),
    ("list_gate", lambda d: _params(d).update(active_from="x"),
     "$.tokens[0].params.active_from"),
    ("delayed_sell_tax", lambda d: _params(d).update(trigger={"kind": "at_block", "value": "x"}),
     "$.tokens[0].params.trigger.value"),
    ("honest", lambda d: d["steps"][3].update(amount=str(2**256)), "$.steps[3].amount"),
]


class TestSimulate:
    def test_drain_scenario_matches_and_exits_zero(self, tmp_path):
        doc = generate_scenario("owner_drain", seed=5, index=0)
        path = tmp_path / "drain.json"
        path.write_text(dump_scenario(doc))
        out_path = tmp_path / "report.jsonl"
        proc = run_cli("simulate", str(path), "--out", str(out_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out_path.read_text().splitlines()[0])
        assert report["match"] is True
        assert report["traps"] == ["UnauthorizedTransfer"]
        assert report["ground_truth"] == ["UnauthorizedTransfer"]

    def test_honest_scenario_empty_traps(self, tmp_path):
        doc = generate_scenario("honest", seed=5, index=1)
        path = tmp_path / "honest.json"
        path.write_text(dump_scenario(doc))
        proc = run_cli("simulate", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout.splitlines()[0])
        assert report["traps"] == [] and report["match"] is True

    def test_malformed_json_exits_2_with_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "trapscan-scenario/1",\n  "seed": }\n')
        proc = run_cli("simulate", str(path))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr and "column" in proc.stderr

    def test_schema_violation_exits_2_with_path(self, tmp_path, capsys):
        doc = generate_scenario("honest", seed=5, index=2)
        doc["tokens"][0]["behavior"] = "nonsense"
        path = tmp_path / "bad.json"
        path.write_text(dump_scenario(doc))
        proc = run_cli("simulate", str(path))
        assert proc.returncode == 2
        assert "$.tokens[0]" in proc.stderr
        for family, corrupt, where in BAD_SCENARIOS:
            doc = generate_scenario(family, seed=5, index=2)
            corrupt(doc)
            path.write_text(dump_scenario(doc))
            for argv in (["simulate", str(path)],
                         ["scan", "--mode", "sim", "--scenario", str(path)]):
                code = main(argv)
                err = capsys.readouterr().err
                assert (code, where in err) == (2, True), (argv[0], where, err)

    @pytest.mark.parametrize("argv", [["simulate"], ["scan", "--mode", "sim", "--scenario"]],
                             ids=["simulate", "scan"])
    def test_malformed_json_names_its_position_in_both_commands(self, tmp_path, capsys, argv):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "trapscan-scenario/1",\n  "seed": }\n')
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: invalid JSON at line 2, column 11: Expecting value\n"
        )

    @pytest.mark.parametrize("argv", [["simulate"], ["scan", "--mode", "sim", "--scenario"]],
                             ids=["simulate", "scan"])
    def test_an_unreadable_scenario_file_is_a_usage_error(self, tmp_path, capsys, argv):
        (tmp_path / "a.json").mkdir()  # matched by the directory's *.json, but no file
        assert main([*argv, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path / 'a.json'}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["simulate"], ["scan", "--mode", "sim", "--scenario"]],
                             ids=["simulate", "scan"])
    def test_a_failed_scan_is_counted_and_skipped(self, tmp_path, capsys, monkeypatch, argv):
        """Of six scenarios, the second one's scan raises: both commands warn
        about it, report the other five, print `failed: 1` and exit 1."""
        from trapscan import cli

        corpus = tmp_path / "corpus"
        gen_corpus(6, seed=3, out_dir=corpus)
        second = sorted(corpus.glob("*.json"))[1]
        scans = []
        real_scan_pool = cli.scan_pool

        def failing_second(*args):
            scans.append(args)
            if len(scans) == 2:
                raise RuntimeError("node fell over")
            return real_scan_pool(*args)

        monkeypatch.setattr(cli, "scan_pool", failing_second)
        assert main([*argv, str(corpus)]) == 1
        captured = capsys.readouterr()
        assert len(scans) == 6
        err = captured.err.splitlines()
        assert f"warning: {second}: scan failed: node fell over" in err
        assert err[-1] == "failed: 1"
        if argv[0] == "simulate":
            reports = [json.loads(line) for line in captured.out.splitlines()]
            assert len(reports) == 5 and second.name not in {r["scenario"] for r in reports}
            assert "ground-truth match: 5/5" in err
        else:
            assert len(captured.out.splitlines()) == 5 + 7  # verdicts, then the table
            assert "/5" in captured.out.splitlines()[-1]

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("simulate", str(tmp_path / "nope.json"))
        assert proc.returncode == 2
        assert "no such scenario file" in proc.stderr

    def test_directory_replay(self, small_corpus, tmp_path):
        out_path = tmp_path / "reports.jsonl"
        proc = run_cli("simulate", str(small_corpus), "--out", str(out_path))
        assert proc.returncode == 0, proc.stderr
        lines = out_path.read_text().splitlines()
        assert len(lines) == 8
        assert all(json.loads(line)["match"] for line in lines)


class TestGenCorpus:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        paths_a = gen_corpus(6, seed=9, out_dir=a)
        paths_b = gen_corpus(6, seed=9, out_dir=b)
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_single_scenario(self, tmp_path):
        proc = run_cli("gen-corpus", "--n", "1", "--seed", "4",
                       "--out-dir", str(tmp_path / "one"))
        assert proc.returncode == 0
        files = list((tmp_path / "one").glob("*.json"))
        assert len(files) == 1

    def test_labels_embedded(self, small_corpus):
        for path in small_corpus.glob("*.json"):
            doc = json.loads(path.read_text())
            assert "expected_traps" in doc


@pytest.fixture
def no_transport(monkeypatch):
    """Every `RpcChainView` the CLI builds gets a transport that fails the
    test if it is called at all, so a usage error must be found before any
    request goes out."""
    import trapscan.rpcbackend as rpcbackend

    real_cls = rpcbackend.RpcChainView

    def refuse(payload):
        pytest.fail(f"a usage error sent a request: {payload!r}")

    monkeypatch.setattr(rpcbackend, "RpcChainView",
                        lambda config: real_cls(config, transport=refuse))


class TestScan:
    def test_sim_scan_summary_and_schema(self, small_corpus, tmp_path):
        out_path = tmp_path / "verdicts.jsonl"
        proc = run_cli("scan", "--mode", "sim", "--scenario", str(small_corpus),
                       "--out", str(out_path))
        assert proc.returncode == 0, proc.stderr
        for line in out_path.read_text().splitlines():
            assert validate_verdict_obj(json.loads(line)) == []
        assert "Total" in proc.stdout
        assert "/8" in proc.stdout

    def test_smoke_seven_of_ten(self, tmp_path):
        corpus = tmp_path / "smoke"
        corpus.mkdir()
        families = ["honest", "honest", "honest", "hidden_tax", "high_tax",
                    "owner_drain", "list_gate", "limited_sell",
                    "delayed_sell_tax", "hidden_tax"]
        for i, family in enumerate(families):
            doc = generate_scenario(family, seed=11, index=i)
            (corpus / f"{i:02d}_{family}.json").write_text(dump_scenario(doc))
        proc = run_cli("scan", "--mode", "sim", "--scenario", str(corpus))
        assert proc.returncode == 0, proc.stderr
        assert "7/10" in proc.stdout
        for trap in ("InvalidBuy", "UnauthorizedTransfer", "CannotSell", "InvalidSell"):
            assert trap in proc.stdout

    def test_zero_pools_is_clean_exit(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = run_cli("scan", "--mode", "sim", "--scenario", str(empty))
        assert proc.returncode == 0
        assert "0/0" in proc.stdout
        proc2 = run_cli("scan", "--mode", "sim", "--scenario", str(empty / "missing"))
        assert proc2.returncode == 2  # a missing path is a usage error

    def test_csv_format(self, small_corpus, tmp_path):
        out_path = tmp_path / "verdicts.csv"
        proc = run_cli("scan", "--mode", "sim", "--scenario", str(small_corpus),
                       "--format", "csv", "--out", str(out_path))
        assert proc.returncode == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "pool,traps,first_flagged_block,scanned_from,scanned_to"
        assert len(lines) == 9

    def test_sample_is_seeded(self, small_corpus):
        a = run_cli("scan", "--mode", "sim", "--scenario", str(small_corpus),
                    "--sample", "3", "--seed", "1")
        b = run_cli("scan", "--mode", "sim", "--scenario", str(small_corpus),
                    "--sample", "3", "--seed", "1")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "8"), ("--workers", "1"), ("--checkpoint", "ck.jsonl"),
    ])
    def test_live_only_flag_rejected_in_sim_mode(self, small_corpus, tmp_path, capsys,
                                                 flag, value):
        if flag == "--checkpoint":
            value = str(tmp_path / value)
        out = tmp_path / "verdicts.jsonl"
        code = main(["scan", "--mode", "sim", "--scenario", str(small_corpus),
                     flag, value, "--out", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "ck.jsonl").exists()

    def test_live_only_flags_marked_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--checkpoint CHECKPOINT checkpoint path for resumable scans (live mode)" in help_text
        assert "--workers WORKERS pools scanned in parallel (live mode" in help_text

    @pytest.mark.parametrize("argv", [
        ["scan", "--mode", "sim", "--scenario", "CORPUS", "--interval", "0"],
        ["simulate", "CORPUS", "--interval", "-2"],
        ["scan", "--mode", "sim", "--scenario", "CORPUS", "--interval", "two"],
        ["scan", "--mode", "live", "--from-block", "0", "--to-block", "1", "--workers", "0"],
        ["scan", "--mode", "live", "--from-block", "0", "--to-block", "1", "--workers", "-3"],
        ["scan", "--mode", "live", "--to-block", "1", "--from-block", "-1"],
        ["scan", "--mode", "live", "--from-block", "0", "--to-block", "-1"],
        ["gen-corpus", "--out-dir", "CORPUS", "--n", "0"],
    ])
    def test_nonpositive_count_is_a_usage_error(self, small_corpus, capsys, monkeypatch,
                                                argv):
        monkeypatch.delenv("TRAPSCAN_RPC_URL", raising=False)
        argv = [str(small_corpus) if arg == "CORPUS" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: trapscan") and f"argument {argv[-2]}:" in err

    def test_live_requires_endpoint(self):
        proc = run_cli("scan", "--mode", "live", "--from-block", "0",
                       "--to-block", "1")
        assert proc.returncode == 2
        assert "endpoint" in proc.stderr

    @pytest.mark.parametrize("config, extra, message", [
        (None, [], "--config"),
        ("not json", [], "Expecting value"),
        ({"url": "http://node.invalid", "retries": 99}, [], "retries must be in [0, 20]"),
        ({"url": "http://node.invalid", "base_tokens": ["0xzz"]}, [], "0xzz"),
        ({"url": "http://node.invalid"}, ["--pools", "0x12,0x34"], "--pools"),
        # A misspelt override would otherwise scan with its default.
        ({"url": "fake://node", "v2router": "0x" + "22" * 20}, [],
         "unknown config key: 'v2router'"),
        ({"url": "fake://node", "balance_slot": 3}, [], "unknown config key: 'balance_slot'"),
        # A negative or NaN rate limit would turn rate limiting off.
        ({"url": "fake://node", "rate_limit": -5}, [], "rate_limit must be >= 0"),
        ('{"url": "fake://node", "rate_limit": NaN}', [], "rate_limit must be >= 0"),
        ('{"url": "fake://node", "request_timeout": NaN}', [],
         "request_timeout must be positive"),
    ], ids=["missing-config", "config-not-json", "bad-field", "bad-base-token", "bad-pool",
            "unknown-key", "unknown-slot-key", "negative-rate-limit", "nan-rate-limit",
            "nan-timeout"])
    def test_bad_live_input_is_a_usage_error(self, tmp_path, capsys, monkeypatch, no_transport,
                                             config, extra, message):
        monkeypatch.delenv("TRAPSCAN_RPC_URL", raising=False)
        path = tmp_path / "backend.json"
        if config is not None:
            path.write_text(config if isinstance(config, str) else json.dumps(config))
        code = main(["scan", "--mode", "live", "--config", str(path),
                     "--from-block", "0", "--to-block", "1", *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("argv", [["simulate"], ["scan", "--mode", "sim", "--scenario"]],
                             ids=["simulate", "scan"])
    def test_missing_scenario_is_a_usage_error(self, tmp_path, capsys, argv):
        missing = tmp_path / "nope.json"
        assert main([*argv, str(missing)]) == 2
        assert capsys.readouterr().err == f"error: no such scenario file: {missing}\n"

    def _live_scan(self, tmp_path, monkeypatch, wrap_node=lambda node: node, from_block=1,
                   past_head=0):
        """Run `trapscan scan --mode live` in-process against the replay
        node, seen through `wrap_node`, to `past_head` blocks after the
        node's head; returns the exit code and out path."""
        import trapscan.rpcbackend as rpcbackend
        from fake_node import FakeNode
        from trapscan.mockchain import run_attack_script, wash_and_drain_script

        script, seed = wash_and_drain_script()
        trace = run_attack_script(script, seed)
        node = wrap_node(FakeNode(chain=trace.chain))
        real_cls = rpcbackend.RpcChainView

        def patched(config, transport=None):
            return real_cls(config, transport=node)

        monkeypatch.setattr(rpcbackend, "RpcChainView", patched)
        config = tmp_path / "backend.json"
        config.write_text(json.dumps({
            "url": "http://replay.invalid:8545",
            "base_tokens": [trace.base_token.hex],
        }))
        out = tmp_path / "verdicts.jsonl"
        code = main([
            "scan", "--mode", "live", "--config", str(config),
            "--from-block", str(from_block), "--to-block", str(trace.final_block + past_head),
            "--checkpoint", str(tmp_path / "ck.jsonl"), "--out", str(out),
        ])
        return code, out

    def test_live_scan_over_replay_node(self, tmp_path, monkeypatch, capsys):
        """Full live-mode path (discovery, scan, checkpoint, summary) against
        the in-process replay node."""
        code, out = self._live_scan(tmp_path, monkeypatch)
        stdout = capsys.readouterr().out
        assert code == 0
        assert "1/1" in stdout
        obj = json.loads(out.read_text().splitlines()[0])
        assert obj["traps"] == ["UnauthorizedTransfer"]
        assert validate_verdict_obj(obj) == []

    def test_live_scan_past_the_head_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        """A `--to-block` past the node's head exits 2 naming the head, and
        scans nothing: its rounds would read no state and pass as skips."""
        code, out = self._live_scan(tmp_path, monkeypatch, past_head=5)
        captured = capsys.readouterr()
        assert code == 2 and not out.exists() and captured.out == ""
        head = int(captured.err.rsplit("block ", 1)[1])
        assert captured.err == f"error: --to-block {head + 5} is past the node's head, block {head}\n"

    @pytest.mark.parametrize("code, message", [
        (-32000, "internal error"),
        (-32601, "the method eth_callMany does not exist"),
    ], ids=["-32000", "-32601"])
    def test_live_scan_reports_failed_pools(self, tmp_path, monkeypatch, capsys,
                                            code, message):
        """A node that errors on every eth_callMany, or does not serve it,
        fails every pool: the scan still finishes, prints the count, writes
        no verdict and exits 1."""

        def failing_call_many(node):
            def transport(payload):
                return [
                    {"jsonrpc": "2.0", "id": item["id"],
                     "error": {"code": code, "message": message}}
                    if item["method"] == "eth_callMany" else node([item])[0]
                    for item in payload
                ]
            return transport

        exit_code, out = self._live_scan(tmp_path, monkeypatch, failing_call_many)
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "failed: 1" in captured.err
        assert "0/0" in captured.out
        assert out.read_text() == ""
        assert read_checkpoint(tmp_path / "ck.jsonl") == {}  # a rerun scans it

    @pytest.mark.parametrize("stray", [False, True], ids=["five-pools", "with-a-stray"])
    def test_pool_list_metadata_is_one_post(self, tmp_path, monkeypatch, capsys, stray):
        """`--pools` resolves every entry's metadata in one POST; an entry
        that is no pool ends the run before any pool is scanned."""
        import trapscan.rpcbackend as rpcbackend
        from fake_node import FakeNode
        from test_pipeline import cohort_chain
        from trapscan.core import Address

        chain, targets = cohort_chain(pools=5)
        node = FakeNode(chain=chain)
        payloads = []

        def transport(payload):
            payloads.append(payload)
            return node(payload)

        real_cls = rpcbackend.RpcChainView
        monkeypatch.setattr(rpcbackend, "RpcChainView",
                            lambda config: real_cls(config, transport=transport))
        entries = [info.pool.hex for info, _ in targets]
        if stray:
            entries.insert(2, Address.derive("not-a-pool").hex)
        pools = tmp_path / "pools.txt"
        pools.write_text("\n".join(entries) + "\n")
        out = tmp_path / "verdicts.jsonl"
        code = main(["scan", "--mode", "live", "--rpc-url", "http://replay.invalid",
                     "--from-block", "1", "--to-block", str(chain.head()),
                     "--pools", str(pools), "--out", str(out)])
        metadata = [payload for payload in payloads
                    if all(item["params"][-1:] == ["latest"] for item in payload)]
        assert len(metadata) == 1 and len(metadata[0]) == 3 * len(entries)
        if stray:
            assert code == 1 and len(payloads) == 1 and not out.exists()
            assert capsys.readouterr().err.startswith("error: pool discovery failed: ")
        else:
            assert code == 0 and len(out.read_text().splitlines()) == 2 * len(entries)

    def test_repeated_pool_entries_are_scanned_once(self, tmp_path, monkeypatch, capsys):
        """`--pools A,A',B`, with A' the same address as A in upper-case
        hex, prints the verdict lines and the total of `--pools A,B`."""
        import trapscan.rpcbackend as rpcbackend
        from fake_node import FakeNode
        from test_pipeline import cohort_chain

        chain, targets = cohort_chain(pools=2)
        node = FakeNode(chain=chain)
        real_cls = rpcbackend.RpcChainView
        monkeypatch.setattr(rpcbackend, "RpcChainView",
                            lambda config: real_cls(config, transport=node))
        a, b = (info.pool.hex for info, _ in targets)

        def scan(pools):
            out = tmp_path / "verdicts.jsonl"
            code = main(["scan", "--mode", "live", "--rpc-url", "http://replay.invalid",
                         "--from-block", "1", "--to-block", str(chain.head()),
                         "--pools", pools, "--out", str(out)])
            total = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("Total")]
            return code, out.read_text(), total

        twice = scan(f"{a},0x{a[2:].upper()},{b}")
        once = scan(f"{a},{b}")
        assert twice == once and once[0] == 0 and len(once[1].splitlines()) == 4

    @pytest.mark.parametrize("command", [["simulate", "x"], ["scan", "--mode", "sim"]],
                             ids=["simulate", "scan"])
    def test_zero_denominator_threshold_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threshold", "1/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: trapscan") and "argument --threshold:" in err

    def test_inverted_range_is_a_usage_error(self, capsys, no_transport):
        code = main(["scan", "--mode", "live", "--rpc-url", "http://node.invalid",
                     "--from-block", "16", "--to-block", "1"])
        assert code == 2
        assert "--from-block must not exceed --to-block" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--mode", "live", "--rpc-url", "http://node.invalid", "--to-block", "1"],
         "--from-block and --to-block are required"),
        (["--mode", "live", "--rpc-url", "http://node.invalid", "--from-block", "0"],
         "--from-block and --to-block are required"),
        (["--mode", "sim"], "--scenario is required"),
    ])
    def test_missing_mode_flag_is_a_usage_error(self, capsys, no_transport, argv, message):
        assert main(["scan", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_checkpoint_of_another_range_is_an_error(self, tmp_path, monkeypatch, capsys):
        assert self._live_scan(tmp_path, monkeypatch)[0] == 0
        kept = (tmp_path / "ck.jsonl").read_text()
        capsys.readouterr()
        code, _ = self._live_scan(tmp_path, monkeypatch, from_block=2)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: checkpoint: ") and "[1, " in err and "[2, " in err
        assert (tmp_path / "ck.jsonl").read_text() == kept

    def test_checkpoint_of_another_schema_is_an_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ck.jsonl").write_text('{"schema": "trapscan-scan-checkpoint/1"}\n')
        code, _ = self._live_scan(tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: checkpoint: unsupported checkpoint schema")


class TestInProcess:
    def test_main_returns_exit_code(self, tmp_path):
        doc = generate_scenario("honest", seed=5, index=3)
        path = tmp_path / "ok.json"
        path.write_text(dump_scenario(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "r.jsonl")]) == 0

    def test_threshold_flag_parsing(self):
        with pytest.raises(SystemExit):
            main(["simulate", "x", "--threshold", "2"])
