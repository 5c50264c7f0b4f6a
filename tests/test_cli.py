import io
import json

import pytest

from thinker.cli import main
from thinker.dataset import load_dataset


def run_cli(*argv):
    return main(list(argv))


class TestGenData:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "syn.jsonl"
        assert run_cli("gen-data", "--n", "20", "--seed", "5", "--out", str(out)) == 0
        ds = load_dataset(str(out))
        assert len(ds) == 20
        assert "wrote 20 items" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("gen-data", "--n", "10", "--seed", "3", "--out", str(a))
        run_cli("gen-data", "--n", "10", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestEpisode:
    def test_rejected_fast_answer_runs_three_stages(self, capsys):
        code = run_cli("episode", "--mode", "inference", "--backend", "scripted",
                       "--p-fast", "0", "--t-n", "1",
                       "--question", "Compute 2 + 2.", "--answer", "4", "--seed", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert "[fast_thinking]" in out
        assert "[verification]" in out
        assert "[slow_thinking]" in out
        assert "[summarization]" not in out  # inference stops after slow

    def test_json_record(self, capsys):
        code = run_cli("episode", "--json", "--p-fast", "1", "--t-p", "1",
                       "--question", "Compute 2 + 2.", "--answer", "4")
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema_version"] == 1
        assert [s["stage"] for s in record["stages"]] == ["fast_thinking", "verification"]
        assert record["correct"] is True
        assert record["config_hash"]
        assert record["stages"][0]["reward"] == 1.0

    def test_dataset_item_selection(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": "pick", "question": "Compute 1 + 1.", "answer": "2"}\n')
        code = run_cli("episode", "--dataset", str(data), "--item-id", "pick",
                       "--p-fast", "1", "--json")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["item_id"] == "pick"

    def test_needs_question_or_dataset(self, capsys):
        assert run_cli("episode") == 3

    def test_http_backend_failure_exit_code(self, capsys):
        code = run_cli("--set", "backend.base_url=http://127.0.0.1:9/v1",
                       "--set", "backend.backoff_s=0.01",
                       "episode", "--backend", "http",
                       "--question", "Compute 1 + 1.", "--answer", "2")
        assert code == 4


class TestGrade:
    def test_grades_stdin_pairs(self, capsys, monkeypatch):
        lines = [
            json.dumps({"response": "steps... \\boxed{1/2}", "answer": "0.5"}),
            json.dumps({"response": "no box", "answer": "0.5"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert run_cli("grade") == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        first, second = json.loads(out_lines[0]), json.loads(out_lines[1])
        assert first == {"canonical": "1/2", "correct": True, "extracted": "1/2"}
        assert second["correct"] is False and second["extracted"] is None

    def test_malformed_stdin_is_data_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json\n"))
        assert run_cli("grade") == 5


class TestRollout:
    def test_writes_transcripts_with_returns(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "6", "--seed", "2", "--out", str(data))
        out = tmp_path / "transcripts.jsonl"
        code = run_cli("rollout", "--dataset", str(data), "--mode", "training",
                       "--batch-size", "4", "--samples-per-prompt", "2",
                       "--seed", "7", "--out", str(out))
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 8
        for record in records:
            assert record["schema_version"] == 1
            assert record["config_hash"]
            assert record["boundaries"]
            assert len(record["stage_rewards"]) == len(record["stages"])
            for stage in record["stages"]:
                assert stage["reward"] is not None

    def test_rerun_is_byte_identical(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "5", "--seed", "2", "--out", str(data))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            run_cli("rollout", "--dataset", str(data), "--batch-size", "3",
                    "--samples-per-prompt", "2", "--seed", "9", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        assert run_cli("rollout", "--dataset", str(tmp_path / "nope.jsonl")) == 5


class TestEval:
    def test_report_file_with_pass_rate(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "8", "--seed", "4", "--out", str(data))
        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--dataset", str(data), "--mode", "thinker-fast",
                       "--k", "4", "--p-fast", "0.5", "--seed", "3",
                       "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mode"] == "thinker_fast"
        assert report["k"] == 4
        assert 0.0 <= report["overall_accuracy"] <= 1.0
        assert report["config_hash"]
        out = capsys.readouterr().out
        assert "pass@1 accuracy" in out

    def test_single_turn_mode(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "3", "--seed", "4", "--out", str(data))
        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--dataset", str(data), "--mode", "single-turn",
                       "--k", "2", "--p-fast", "1", "--out", str(report_path))
        assert code == 0
        assert json.loads(report_path.read_text())["overall_accuracy"] == 1.0

    def test_configured_modes_run_when_mode_omitted(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "3", "--seed", "4", "--out", str(data))
        report_path = tmp_path / "report.json"
        code = run_cli("--set", "eval.modes=[thinker, thinker-fast]",
                       "eval", "--dataset", str(data), "--k", "2", "--p-fast", "1",
                       "--out", str(report_path))
        assert code == 0
        thinker = json.loads((tmp_path / "report.thinker.json").read_text())
        fast = json.loads((tmp_path / "report.thinker_fast.json").read_text())
        assert thinker["mode"] == "thinker"
        assert fast["mode"] == "thinker_fast"


class TestSimulate:
    def test_single_point_prints_agreement(self, capsys):
        code = run_cli("simulate", "--episodes", "400", "--seed", "1",
                       "--p-fast", "0.5", "--t-p", "1", "--t-n", "1", "--p-slow", "0.5")
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic=0.750000" in out
        assert "monte-carlo=" in out

    def test_sweep_writes_columnar_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        code = run_cli("simulate", "--episodes", "200", "--seed", "1",
                       "--sweep", "p_fast=0:1:0.5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split("\t")
        assert header[0] == "p_fast"
        assert "analytic_accuracy" in header and "mc_tokens_se" in header
        assert len(lines) == 2 + 3  # comment + header + three sweep points

    def test_bad_sweep_spec_is_config_error(self, capsys):
        assert run_cli("simulate", "--sweep", "p_fast=0..1") == 3


class TestArgumentChecks:
    def test_out_of_range_policy_flag_is_config_error(self, capsys):
        assert run_cli("simulate", "--episodes", "10", "--p-fast", "1.5") == 3
        assert "config error" in capsys.readouterr().err

    def test_policy_flag_wins_over_set(self, capsys):
        code = run_cli("--set", "backend.policy.p_fast=0", "episode", "--json",
                       "--p-fast", "1", "--t-p", "1",
                       "--question", "Compute 2 + 2.", "--answer", "4")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["correct"] is True

    @pytest.mark.parametrize("argv", [
        ["eval", "--dataset", "{data}", "--k", "0"],
        ["eval", "--dataset", "{data}", "--k", "-1"],
        ["eval", "--dataset", "{data}", "--parallelism", "0"],
        ["rollout", "--dataset", "{data}", "--batch-size", "0"],
        ["rollout", "--dataset", "{data}", "--samples-per-prompt", "0"],
        ["rollout", "--dataset", "{data}", "--parallelism", "-3"],
        ["simulate", "--episodes", "0"],
        ["gen-data", "--n", "0", "--out", "{out}"],
    ])
    def test_non_positive_count_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "2", "--out", str(data))
        out = tmp_path / "out"
        argv = [arg.format(data=data, out=out) for arg in argv]
        assert run_cli(*argv) == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_print_config_shows_defaults(self, capsys):
        assert run_cli("--print-config") == 0
        out = capsys.readouterr().out
        assert "fast_tokens: 1000" in out
        assert "summary_temperature: 0.6" in out
        assert "# config_hash=" in out

    def test_print_config_reflects_overrides(self, capsys):
        assert run_cli("--set", "budgets.fast_tokens=123", "--print-config") == 0
        assert "fast_tokens: 123" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli() == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("--frobnicate") == 2

    def test_unknown_config_key_is_config_error(self, capsys):
        assert run_cli("--set", "nonsense.key=1", "--print-config") == 3
        assert "nonsense" in capsys.readouterr().err

    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "engine.yaml"
        cfg.write_text("eval:\n  k: 2\n")
        assert run_cli("--config", str(cfg), "--print-config") == 0
        assert "k: 2" in capsys.readouterr().out
