"""The ``python -m repro trace`` subcommand and the loadgen CLI's trace
flags, end to end."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.traces import Trace
from tests.test_service_cli import ServerThread


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "generate", "--out", str(path), "--n", "10",
                 "--groups", "2", "--epochs", "3", "--seed", "1"]) == 0
    return path


class TestGenerate:
    def test_writes_a_valid_deterministic_file(self, trace_file, tmp_path,
                                               capsys):
        trace = Trace.read(trace_file)
        assert trace.groups == ("g0", "g1") and trace.epochs == 3
        again = tmp_path / "again.jsonl"
        assert main(["trace", "generate", "--out", str(again), "--n", "10",
                     "--groups", "2", "--epochs", "3", "--seed", "1"]) == 0
        assert again.read_bytes() == trace_file.read_bytes()
        assert "2 groups x 3 epochs" in capsys.readouterr().out

    def test_stdout_mode_prints_the_jsonl(self, capsys):
        assert main(["trace", "generate", "--n", "8", "--groups", "1",
                     "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert Trace.from_jsonl(out).groups == ("g0",)

    def test_bad_rates_exit_2(self, capsys):
        assert main(["trace", "generate", "--n", "8",
                     "--member-rate", "2.0"]) == 2
        assert "member_rate" in capsys.readouterr().err


class TestValidate:
    def test_valid_file(self, trace_file, capsys):
        assert main(["trace", "validate", str(trace_file)]) == 0
        assert "valid trace: 2 groups" in capsys.readouterr().out

    def test_invalid_stream_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "repro-trace", "version": 99}\n')
        assert main(["trace", "validate", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "validate", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestReplay:
    def test_prints_per_group_trajectories(self, trace_file, capsys):
        assert main(["trace", "replay", str(trace_file),
                     "--mechanism", "tree-shapley"]) == 0
        out = capsys.readouterr().out
        assert "group" in out and "epoch" in out and "charged" in out
        assert "substrates built" in out

    def test_check_asserts_shared_equals_cold(self, trace_file, capsys):
        assert main(["trace", "replay", str(trace_file), "--check"]) == 0
        out = capsys.readouterr().out
        assert "shared-substrate replay == cold per-group replay" in out
        assert "6 (group, epoch) cells" in out

    def test_audit_reports_zero_violations(self, trace_file, capsys):
        assert main(["trace", "replay", str(trace_file), "--audit"]) == 0
        assert "0 axiom violations" in capsys.readouterr().out

    def test_json_payload_round_trips(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "replay.json"
        assert main(["trace", "replay", str(trace_file), "--check", "--json",
                     "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout stays machine-parseable
        assert json.loads(out_path.read_text()) == payload
        assert set(payload["rows"]) == {"g0", "g1"}
        assert payload["counters"]["substrate_sessions_built"] >= 1
        assert "cold per-group replay" in captured.err

    def test_unknown_mechanism_exits_2(self, trace_file, capsys):
        assert main(["trace", "replay", str(trace_file),
                     "--mechanism", "bogus"]) == 2
        assert "tree-shapley" in capsys.readouterr().err


class TestLoadgenTraceFlags:
    def test_trace_replay_against_a_live_server(self, trace_file, capsys):
        with ServerThread() as server:
            code = main(["loadgen", "--port", str(server.port),
                         "--trace", str(trace_file),
                         "--mechanisms", "tree-shapley",
                         "--trace-repeats", "2", "--expect-groups", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "loadgen: 12 requests" in out  # 2 groups x 3 epochs x 2
        assert "status: 200:12" in out
        assert "group g0: 3/3 epochs priced" in out
        assert "group g1: 3/3 epochs priced" in out

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        code = main(["loadgen", "--port", "1",
                     "--trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_trace_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "pcap"}\n')
        assert main(["loadgen", "--port", "1", "--trace", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err
