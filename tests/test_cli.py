import argparse
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thinker import cli
from thinker.cli import main
from thinker.backend import Backend
from thinker.config import EngineConfig, build_backend
from thinker.dataset import load_dataset
from thinker.errors import ThinkerError

from conftest import fixture_map
from mock_backend import MockBackend
from stub_server import StubServer


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


# Routes at p = 0.5 on "Compute 2 + 2.": seed 0 is rejected and answered wrong
# at slow thinking in both modes; seed 5 reaches summarization in training.
_EPISODE_ARGS = ("episode", "--backend", "scripted", "--p-fast", "0.5", "--t-p", "0.5",
                 "--t-n", "0.5", "--p-slow", "0.5", "--question", "Compute 2 + 2.", "--answer", "4")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

    def test_json_carries_returns(self, capsys):
        assert run_cli(*_EPISODE_ARGS, "--mode", "training", "--seed", "5", "--json") == 0
        record = json.loads(capsys.readouterr().out)
        counts = [max(s["token_count"], 1) for s in record["stages"]]
        assert record["boundaries"] == [sum(counts[:i + 1]) for i in range(len(counts))]
        assert record["stage_rewards"] == [s["reward"] for s in record["stages"]]
        assert len(record["stages"]) == 4  # verification filled at p = 0.5

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

    @pytest.mark.parametrize("url", ["localhost:8000/v1", "ftp://localhost/v1"])
    def test_unusable_base_url_is_config_error(self, url, capsys):
        code = run_cli("--set", f"backend.base_url={url}", "episode", "--backend", "http",
                       "--question", "Compute 1 + 1.", "--answer", "2")
        assert code == 3
        assert "backend.base_url must be an http:// or https:// URL" in capsys.readouterr().err

    # each reached the socket or time.sleep and ended the run with a traceback
    @pytest.mark.parametrize("override", ["backend.timeout_s=.nan", "backend.timeout_s=.inf",
                                          "backend.backoff_s=.nan", "backend.backoff_s=.inf"])
    def test_non_finite_http_timing_is_config_error(self, override, capsys):
        code = run_cli("--set", "backend.base_url=http://127.0.0.1:9/v1",
                       "--set", "backend.max_attempts=2", "--set", override,
                       "episode", "--backend", "http",
                       "--question", "Compute 1 + 1.", "--answer", "2")
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_bad_vocab_term_is_config_error(self, capsys):
        assert run_cli("--set", 'eval.vocab=[wait, ""]', "--print-config") == 3
        assert "must begin and end with a word character" in capsys.readouterr().err

    def test_dataset_with_byte_order_mark(self, tmp_path, capsys):
        data = tmp_path / "bom.jsonl"
        data.write_bytes(b'\xef\xbb\xbf{"question": "Compute 1 + 1.", "answer": "2"}\n')
        assert run_cli("episode", "--dataset", str(data)) == 0


class TestEpisodeViewFence:
    """Digests of the episode views, recorded before they were rendered from
    the transcript record; a change to either view by one byte fails here."""

    @pytest.mark.parametrize("mode,seed,digest", [
        ("training", 0, "057a9e6fe29ee0395a2984fa523b55b690277eb02d9529900c95b5a5de98396c"),
        ("training", 5, "16539e4ff65d696b7b8243a1ad214e6b1414e3ec17f723ca0c13a778672fb28c"),
        ("inference", 0, "baf9f6b98494d2eb4aca8c73d58ea12d0c37ce865ba7da14dbb3d3f69456c903"),
        ("inference", 5, "b5d010323d84b5b6f877b5880b7dfc77c3b749c2f263b6eec46b3dd0b8db2d56"),
    ])
    def test_text_bytes(self, capsys, mode, seed, digest):
        assert run_cli(*_EPISODE_ARGS, "--mode", mode, "--seed", str(seed)) == 0
        assert _sha(capsys.readouterr().out) == digest

    def test_empty_final_box_text_bytes(self, capsys, monkeypatch):
        backend = MockBackend(fixture_map("cli", "\\boxed{}", "\\boxed{Yes}"))
        monkeypatch.setattr(cli, "build_backend", lambda cfg: backend)
        assert run_cli("episode", "--question", "Compute 2 + 2.", "--answer", "4") == 0
        out = capsys.readouterr().out
        assert out.endswith("final: stage=fast_thinking answer='' correct=False\n")
        assert _sha(out) == "d3d0977fbe5febf4a7c4eb47f0ca6741459e9a4dfabd8974e82bc8d684d65dd9"

    @pytest.mark.parametrize("mode,seed,digest", [
        ("training", 5, "dc5f846433dcbb82100d37ff7ac7095ab2319dd566f3d4110ba464a57f441b20"),
        ("inference", 0, "7440cbfba8e2f74452b0d9ffd03e1da5e49cfd73e61aed9d78e4170186abaea6"),
    ])
    def test_json_bytes_without_returns(self, capsys, mode, seed, digest):
        assert run_cli(*_EPISODE_ARGS, "--mode", mode, "--seed", str(seed), "--json") == 0
        record = json.loads(capsys.readouterr().out)
        record.pop("boundaries", None)
        record.pop("stage_rewards", None)
        assert _sha(cli.dump_record(record)) == digest


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

    def test_byte_order_mark_skipped(self, capsys, monkeypatch):
        record = json.dumps({"response": "so \\boxed{2}", "answer": "2"})
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + record + "\n"))
        assert run_cli("grade") == 0
        assert json.loads(capsys.readouterr().out)["correct"] is True

    def test_malformed_stdin_is_data_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json\n"))
        assert run_cli("grade") == 5

    @pytest.mark.parametrize("record", [
        {"response": "x \\boxed{7}", "answer": 7},
        {"response": None, "answer": "7"},
    ])
    def test_non_string_field_is_data_error(self, record, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record) + "\n"))
        assert run_cli("grade") == 5
        assert "stdin line 1: response/answer must be strings" in capsys.readouterr().err


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

    def test_non_utf8_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_bytes(b'\xff\xfe{"question": "q", "answer": "1"}\n')
        assert run_cli("rollout", "--dataset", str(data), "--out", str(tmp_path / "t.jsonl")) == 5
        assert f"data error: cannot read dataset {str(data)!r}" in capsys.readouterr().err


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

    def test_per_mode_reports_in_dotted_directory(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "3", "--seed", "4", "--out", str(data))
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        code = run_cli("--set", "eval.modes=[thinker, single-turn]",
                       "eval", "--dataset", str(data), "--k", "1", "--out", str(out_dir / "report"))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.single_turn", "report.thinker"]

    @pytest.mark.parametrize("modes", ["[thinker, thinker]", "[thinker-fast, thinker_fast]"])
    def test_repeated_mode_is_config_error(self, modes, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "2", "--seed", "4", "--out", str(data))
        code = run_cli("--set", f"eval.modes={modes}", "eval", "--dataset", str(data),
                       "--k", "1", "--out", str(tmp_path / "report"))
        assert code == 3
        assert "eval.modes entries must be distinct" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_empty_dataset_is_data_error(self, command, tmp_path, capsys, monkeypatch):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        report_path = tmp_path / "report.json"
        monkeypatch.setattr(cli, "build_backend", lambda cfg: pytest.fail("backend built"))
        assert run_cli(command, "--dataset", str(data), "--out", str(report_path)) == 5
        assert f"data error: dataset {str(data)!r} is empty" in capsys.readouterr().err
        assert not report_path.exists()


class TestBackendClosed:
    """A command closes the backend it builds, on success and on a backend
    error, so no keep-alive connection outlives the run."""

    @pytest.mark.parametrize("argv, reply, status", [
        (["eval", "--dataset", "{data}", "--k", "2", "--parallelism", "2", "--out", "{out}"],
         "\\boxed{Yes}", 0),
        (["rollout", "--dataset", "{data}", "--batch-size", "2", "--samples-per-prompt", "1",
          "--out", "{out}"], 500, 4),
        (["episode", "--question", "Compute 1 + 1.", "--answer", "2"], "\\boxed{2}", 0),
    ])
    def test_no_idle_connection_left(self, argv, reply, status, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "2", "--seed", "4", "--out", str(data))
        built = []

        def build(cfg):
            built.append(build_backend(cfg))
            return built[-1]

        monkeypatch.setattr(cli, "build_backend", build)
        with StubServer(lambda payload, index: reply, keep_alive=True) as stub:
            code = run_cli("--set", "backend.kind=http", "--set", f"backend.base_url={stub.base_url}",
                           "--set", "backend.max_attempts=1",
                           *[arg.format(data=data, out=tmp_path / "out") for arg in argv])
            assert code == status
            assert stub.requests
            assert [list(backend._idle) for backend in built] == [[]]


_EVAL = ("eval", "--dataset", "{data}", "--seed", "3")
_ROLLOUT = ("rollout", "--dataset", "{data}", "--seed", "9")
_ROLLOUT_FLAGS = ("--batch-size", "3", "--samples-per-prompt", "2", "--parallelism", "2")


class TestFlagsSetConfigKeys:
    """A shorthand flag sets the config key it stands for: its run writes the
    bytes of the matching --set, config_hash included, and --print-config
    shows it."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "5", "--seed", "4", "--out", str(path))
        return str(path)

    @staticmethod
    def written(tmp_path, data, *argv) -> bytes:
        out = tmp_path / "out"
        assert run_cli(*[arg.format(data=data) for arg in argv], "--out", str(out)) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("flagged, set_forms", [
        ((*_EVAL, "--k", "2"), [("--set", "eval.k=2", *_EVAL)]),
        ((*_ROLLOUT, *_ROLLOUT_FLAGS),
         [("--set", "rollout.batch_size=3", "--set", "rollout.samples_per_prompt=2",
           "--set", "rollout.parallelism=2", *_ROLLOUT)]),
        ((*_EVAL, "--k", "2", "--mode", "thinker-fast"),
         [("--set", "eval.modes=[thinker_fast]", *_EVAL, "--k", "2"),
          ("--set", "eval.modes=[thinker-fast]", *_EVAL, "--k", "2")]),
    ], ids=["eval-k", "rollout-counts", "eval-mode"])
    def test_flag_writes_the_bytes_of_its_set(self, flagged, set_forms, data, tmp_path, capsys):
        expected = self.written(tmp_path, data, *flagged)
        for argv in set_forms:
            assert self.written(tmp_path, data, *argv) == expected, argv

    @pytest.mark.parametrize("command, flags, shown", [
        (_EVAL, ("--k", "3", "--mode", "single-turn", "--parallelism", "2", "--p-fast", "0.25"),
         "\n  k: 3\n"),
        (_ROLLOUT, (*_ROLLOUT_FLAGS, "--t-p", "0.9"), "\n  batch_size: 3\n"),
    ], ids=["eval", "rollout"])
    def test_printed_config_reproduces_the_run(self, command, flags, shown, data, tmp_path,
                                               capsys):
        assert run_cli("--print-config", *[arg.format(data=data) for arg in command], *flags) == 0
        printed = capsys.readouterr().out
        assert shown in printed
        config = tmp_path / "printed.yaml"
        config.write_text(printed)
        expected = self.written(tmp_path, data, *command, *flags)
        assert self.written(tmp_path, data, "--config", str(config), *command) == expected
        cfg_hash = re.search(rb'"config_hash": "([0-9a-f]{16})"', expected).group(1).decode()
        assert printed.endswith(f"# config_hash={cfg_hash}\n")


def _config_leaves(tree: dict, prefix: str = "") -> set[str]:
    leaves = set()
    for key, value in tree.items():
        if isinstance(value, dict):
            leaves |= _config_leaves(value, f"{prefix}{key}.")
        else:
            leaves.add(prefix + key)
    return leaves


_POLICY_FLAGS = {"--p-fast": "backend.policy.p_fast", "--t-p": "backend.policy.t_p",
                 "--t-n": "backend.policy.t_n", "--p-slow": "backend.policy.p_slow"}
# (subcommand, shorthand flag) -> the config key it stands for
_SHORTHANDS = {
    **{(command, flag): key for command in ("episode", "rollout", "eval", "simulate")
       for flag, key in _POLICY_FLAGS.items()},
    ("episode", "--backend"): "backend.kind",
    ("rollout", "--batch-size"): "rollout.batch_size",
    ("rollout", "--samples-per-prompt"): "rollout.samples_per_prompt",
    ("rollout", "--parallelism"): "rollout.parallelism",
    ("eval", "--parallelism"): "rollout.parallelism",
    ("eval", "--k"): "eval.k",
    ("eval", "--mode"): "eval.modes",
}


def test_shorthand_flags_store_to_config_keys():
    """Each shorthand flag's dest is its dotted config key, and only theirs
    are dotted, so the parser is the one place that pairs a flag with a key."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dotted = {(command, action.option_strings[0]): action.dest
              for command, sub in commands.choices.items() for action in sub._actions
              if "." in action.dest}
    assert dotted == _SHORTHANDS
    assert set(dotted.values()) <= _config_leaves(dataclasses.asdict(EngineConfig()))


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

    @pytest.mark.parametrize("spec", ["p_fast=0..1", "p_fast=1:0:0.1", "p_fast=0:1:nan",
                                      "p_fast=0:inf:1", "p_fast=0:1:0"])
    def test_bad_sweep_spec_is_config_error(self, spec, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
        assert run_cli("simulate", "--episodes", "10", "--sweep", spec) == 3

    def test_sweep_value_limit(self):
        assert len(cli._parse_sweep(f"fast_tokens=1:{cli.MAX_SWEEP_VALUES}:1")[1]) \
            == cli.MAX_SWEEP_VALUES
        for spec in (f"fast_tokens=0:{cli.MAX_SWEEP_VALUES}:1", "p_fast=0:1:1e-6",
                     "p_fast=-1e308:1e308:1"):  # the last one's range overflows to inf
            with pytest.raises(cli.ConfigError, match="more than 10000 values"):
                cli._parse_sweep(spec)


class TestArgumentChecks:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--episodes", "10", "--p-fast", "1.5"],
        ["gen-data", "--n", "3", "--magnitude", "0", "--out", "{out}"],
        ["gen-data", "--n", "3", "--min-operands", "1", "--out", "{out}"],
        ["simulate", "--episodes", "10", "--sweep", "p_fast=0:2:1", "--out", "{out}"],
        ["simulate", "--episodes", "10", "--sweep", "nope=0:1:0.5", "--out", "{out}"],
        ["simulate", "--episodes", "10", "--sweep", "fast_tokens=8:9:0.5", "--out", "{out}"],
    ])
    def test_out_of_range_policy_flag_is_config_error(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert run_cli(*[arg.format(out=out) for arg in argv]) == 3
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_sweep_values_pass_as_int(self, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        code = run_cli("simulate", "--episodes", "10", "--sweep", "fast_tokens=8:10:1",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 3
        assert [line.split("\t")[0] for line in lines[2:]] == ["8", "9", "10"]

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


class _UnclassifiedFailure(Backend):
    def generate(self, request):
        raise ThinkerError("no closer category")


_ONE_EPISODE = ("rollout", "--dataset", "{data}", "--batch-size", "1", "--samples-per-prompt", "1")


class TestErrorExits:
    """main maps each failure to its exit status and the prefix of its message."""

    @pytest.mark.parametrize("argv, backend, status, prefix", [
        (["--set", "backend.kind=http", "--set", "backend.base_url=http://127.0.0.1:9/v1",
          "--set", "backend.max_attempts=1", *_ONE_EPISODE, "--out", "{out}"], None, 4, "backend error: "),
        ([*_ONE_EPISODE, "--out", "{missing}"], None, 5, "i/o error: "),
        (["episode", "--question", "Compute 1 + 1.", "--answer", "2"], _UnclassifiedFailure(), 1,
         "error: no closer category"),
        (["grade", "--fields", "a,b,c"], None, 3, "config error: "),
        (["episode", "--question", "Compute 1 + 1."], None, 3, "config error: "),
        (["episode", "--dataset", "{data}", "--index", "99"], None, 3, "config error: "),
        (["rollout", "--dataset", "{data}", "--batch-size", "abc"], None, 2, "usage: "),
    ])
    def test_exit_status_and_message(self, argv, backend, status, prefix, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        run_cli("gen-data", "--n", "2", "--seed", "4", "--out", str(data))
        capsys.readouterr()
        if backend is not None:
            monkeypatch.setattr(cli, "build_backend", lambda cfg: backend)
        paths = dict(data=data, out=tmp_path / "t.jsonl", missing=tmp_path / "missing" / "t.jsonl")
        assert run_cli(*[arg.format(**paths) for arg in argv]) == status
        assert capsys.readouterr().err.startswith(prefix)


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

    @pytest.mark.parametrize("key, named", [("nonsense.key", "nonsense"),
                                            ("backend.max_in_flight", "backend.max_in_flight")])
    def test_unknown_config_key_is_config_error(self, key, named, capsys):
        assert run_cli("--set", f"{key}=8", "--print-config") == 3
        assert f"unknown config key {named!r}" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(b"a: \xff\n")
        assert run_cli("--config", str(cfg), "simulate", "--episodes", "10") == 3
        assert f"config error: cannot read config {str(cfg)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["backend.policy.logprob_per_token=.nan",
                                          "rewards.logprob_coef=.nan", "rewards.logprob_coef=.inf",
                                          "budgets.temperature=.nan", "budgets.temperature=-1"])
    def test_non_finite_setting_is_config_error(self, override, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
        assert run_cli("--set", override, "simulate", "--episodes", "10") == 3
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--print-config"], ["simulate", "--episodes", "10"]])
    @pytest.mark.parametrize("unbuffered", ["", "1"])  # "": block-buffered, as a console script
    def test_closed_stdout_exits_quietly(self, argv, unbuffered, tmp_path):
        # as under `thinker ... | head -1`, but the read end is closed before
        # the first write, so every run meets the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from thinker.cli import main; sys.exit(main())", *argv],
                stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "engine.yaml"
        cfg.write_text("eval:\n  k: 2\n")
        assert run_cli("--config", str(cfg), "--print-config") == 0
        assert "k: 2" in capsys.readouterr().out
