import json
import random
import re
import threading

import pytest

from thinker.backend import (
    Backend,
    GenerationResult,
    PolicyParams,
    ScriptedPolicyBackend,
)
from thinker import task
from thinker.cli import _render_transcript, transcript_record, write_transcripts
from thinker.dataset import Dataset, QAItem
from thinker.errors import BackendError
from thinker.evaluation import (
    SINGLE_TURN,
    _sample,
    THINKER,
    THINKER_FAST,
    ReflectionVocab,
    count_reflections,
    evaluate,
    standard_error,
)
from thinker.rewards import RewardConfig
from thinker.rollout import Trajectory
from thinker.task import Stage, StageBudgets, Transcript

from conftest import fixture_map
from mock_backend import MockBackend, PooledScriptedBackend


class TestReflections:
    def test_one_hit_each(self):
        text = "Wait, reconsider. However, alternatively we could integrate."
        assert count_reflections(text) == 3

    def test_whole_word_only(self):
        assert count_reflections("the waiter waited", ReflectionVocab(terms=("wait",))) == 0

    def test_empty_text(self):
        assert count_reflections("") == 0

    def test_case_insensitive(self):
        assert count_reflections("WAIT wait Wait") == 3

    def test_custom_phrase_terms(self):
        vocab = ReflectionVocab(terms=("hold on",))
        assert count_reflections("Hold on. hold on!", vocab) == 2

    def test_punctuation_boundaries(self):
        assert count_reflections("wait...wait,wait") == 3

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            ReflectionVocab(terms=())

    # "" counted every word boundary, "  " double spaces, "wait," only before a
    # word character, and "<think>" nothing
    @pytest.mark.parametrize("term", ["", "  ", "wait,", "<think>", "-hmm"])
    def test_term_without_word_ends_rejected(self, term):
        with pytest.raises(ValueError, match="must begin and end with a word character"):
            ReflectionVocab(terms=("wait", term))

    def test_single_character_term_allowed(self):
        assert count_reflections("so x is x", ReflectionVocab(terms=("x",))) == 2

    def test_pattern_compiled_once_per_vocabulary(self, monkeypatch):
        vocab = ReflectionVocab(terms=("hmm",))
        compile_, compiled = re.compile, []
        with monkeypatch.context() as patch:  # restored before asserting: pytest compiles patterns too
            patch.setattr(re, "compile", lambda *args: compiled.append(args) or compile_(*args))
            counts = [count_reflections("Hmm, wait.", vocab), count_reflections("Hmm, wait.")]
        assert compiled == []
        assert counts == [1, 1]


class TestStandardError:
    def test_zero_variance(self):
        assert standard_error([0.5, 0.5, 0.5]) == 0.0

    def test_two_extremes(self):
        assert standard_error([0.0, 1.0]) == pytest.approx(0.5)

    def test_binomial_closed_form(self):
        # 100 single-sample questions, iid Bernoulli(0.5): SE should sit near
        # sqrt(0.25/100) = 0.05
        rng = random.Random(123)
        means = [float(rng.random() < 0.5) for _ in range(100)]
        assert standard_error(means) == pytest.approx(0.05, rel=0.15)

    def test_requires_two_questions(self):
        with pytest.raises(ValueError):
            standard_error([1.0])


def make_dataset(n):
    return Dataset(items=tuple(
        QAItem(id=f"e{k}", question=f"Compute {k} + 1.", answer=str(k + 1))
        for k in range(n)))


class CountingBackend(Backend):
    """Returns a correct box for the first n_correct calls, then wrong ones."""

    name = "counting"

    def __init__(self, n_correct):
        self.n_correct = n_correct
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        answer = request.reference_answer if self.calls <= self.n_correct else "wrong"
        return GenerationResult(text=f"\\boxed{{{answer}}}", token_count=1)


class TestEvaluate:
    def test_thinker_fast_perfect_policy(self):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=1.0))
        report = evaluate(backend, make_dataset(5), THINKER_FAST, k=4, seed=0)
        assert report.overall_accuracy == 1.0
        assert report.mode == THINKER_FAST

    def test_per_question_mean_twelve_of_sixteen(self):
        backend = CountingBackend(n_correct=12)
        report = evaluate(backend, make_dataset(1), THINKER_FAST, k=16, seed=0)
        assert report.per_question[0]["accuracy"] == pytest.approx(0.75)
        assert report.overall_accuracy == pytest.approx(0.75)
        assert report.stderr is None  # single question: no clustered SE

    def test_thinker_matches_analytic_three_quarters(self):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.5, t_p=1.0, t_n=1.0, p_slow=0.5))
        report = evaluate(backend, make_dataset(40), THINKER, k=25, seed=11)
        assert report.stderr is not None
        assert abs(report.overall_accuracy - 0.75) <= 3 * report.stderr

    def test_thinker_fast_never_calls_later_stages(self):
        items = make_dataset(3)
        fixtures = {}
        for item in items:
            fixtures.update(fixture_map(item.id, f"\\boxed{{{item.answer}}}", "\\boxed{Yes}"))
        backend = MockBackend(fixtures)
        evaluate(backend, items, THINKER_FAST, k=2, seed=0)
        stages = {call.stage for call in backend.calls}
        assert stages == {Stage.FAST_THINKING}

    def test_thinker_fast_uses_fast_budget(self):
        items = make_dataset(1)
        backend = MockBackend(fixture_map("e0", "\\boxed{1}", "\\boxed{Yes}"))
        budgets = StageBudgets(fast_tokens=321)
        evaluate(backend, items, THINKER_FAST, k=1, budgets=budgets, seed=0)
        assert backend.calls[0].max_tokens == 321

    def test_single_turn_budget_and_prompt(self):
        items = make_dataset(1)
        backend = MockBackend({(None, "e0"): "direct \\boxed{1}"})
        report = evaluate(backend, items, SINGLE_TURN, k=1, seed=0, single_turn_tokens=8000)
        call = backend.calls[0]
        assert call.max_tokens == 8000
        assert call.stage is None
        assert "Limit your response" not in call.messages[0]["content"]
        assert report.overall_accuracy == 1.0

    def test_question_order_invariance(self):
        params = PolicyParams(p_fast=0.5, t_p=0.8, t_n=0.8, p_slow=0.5)
        items = make_dataset(8)
        shuffled = Dataset(items=tuple(reversed(items.items)))
        a = evaluate(ScriptedPolicyBackend(params), items, THINKER, k=6, seed=5)
        b = evaluate(ScriptedPolicyBackend(params), shuffled, THINKER, k=6, seed=5)
        assert a.overall_accuracy == b.overall_accuracy
        assert {q["id"]: q["accuracy"] for q in a.per_question} == \
               {q["id"]: q["accuracy"] for q in b.per_question}

    def test_parallelism_invariance(self):
        params = PolicyParams(p_fast=0.5, t_p=0.8, t_n=0.8, p_slow=0.5)
        items = make_dataset(6)
        pooled = PooledScriptedBackend(params)
        a = evaluate(ScriptedPolicyBackend(params), items, THINKER, k=4, seed=2, parallelism=1)
        b = evaluate(pooled, items, THINKER, k=4, seed=2, parallelism=8)
        assert pooled.threads and threading.get_ident() not in pooled.threads
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_failed_question_excluded_with_warning(self, caplog, mode):
        items = make_dataset(2)
        fixtures = fixture_map("e0", "\\boxed{1}", "\\boxed{Yes}")  # e1 missing
        fixtures[(None, "e0")] = "\\boxed{1}"
        backend = MockBackend(fixtures)
        with caplog.at_level("WARNING", logger="thinker.eval"):
            report = evaluate(backend, items, mode, k=2, seed=0)
        assert report.num_questions == 1
        assert report.excluded_questions == ["e1"]
        assert report.failures == 2
        assert any("e1" in message for message in caplog.messages)

    def test_all_failed_raises(self):
        backend = MockBackend({})
        with pytest.raises(BackendError):
            evaluate(backend, make_dataset(2), THINKER, k=1, seed=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            evaluate(MockBackend({}), make_dataset(1), "zen", k=1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(MockBackend({}), Dataset(items=()), THINKER, k=1)

    def test_report_serializes(self):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=1.0))
        report = evaluate(backend, make_dataset(3), THINKER, k=2, seed=0)
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert 0.0 <= payload["overall_accuracy"] <= 1.0
        assert "fast_thinking" in payload["mean_stage_tokens"]
        assert report.render_table()


class TestSampleRecord:
    """Every mode yields one graded Transcript, so one reducer serves all."""

    FIXTURES = {**fixture_map("e0", "\\boxed{1}", "\\boxed{Yes}"), (None, "e0"): "wait \\boxed{1}"}

    @pytest.mark.parametrize("mode,keys", [
        (THINKER, ["fast_thinking", "verification"]),
        (THINKER_FAST, ["fast_thinking"]),
        (SINGLE_TURN, ["single_turn"]),
    ])
    def test_each_mode_yields_a_transcript(self, mode, keys):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, mode, StageBudgets(),
                    RewardConfig(), 8000)
        assert isinstance(t, Transcript)
        assert [turn.key for turn in t.turns] == keys
        assert t.correct is True and not t.failed

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_each_mode_serializes(self, mode):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, mode, StageBudgets(),
                    RewardConfig(), 8000)
        record = transcript_record(t, "cfg")
        assert [s["stage"] for s in record["stages"]] == [turn.key for turn in t.turns]
        assert record["stages"][0]["extracted"] == "1"
        text = _render_transcript(record)
        assert all(f"[{turn.key}]" in text for turn in t.turns)

    def test_single_turn_record_has_no_stage_reward(self):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, SINGLE_TURN,
                    StageBudgets(), RewardConfig(), 8000)
        record = transcript_record(t, "cfg")
        assert record["stages"][0]["reward"] is None
        assert "reward=-" in _render_transcript(record)

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_each_mode_records_sample_metadata(self, mode):
        backend = ScriptedPolicyBackend(PolicyParams())
        item = make_dataset(1).items[0]
        record = transcript_record(
            _sample(backend, item, 12345, mode, StageBudgets(), RewardConfig(), 8000), "cfg")
        assert (record["episode_id"], record["seed"], record["backend"]) == (
            f"{item.id}@12345", 12345, backend.name)

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_backend_failure_marks_failed(self, mode):
        t = _sample(MockBackend({}), make_dataset(1).items[0], 5, mode, StageBudgets(), RewardConfig(), 8000)
        assert t.failed and "no fixture" in t.error
        assert t.turns == []

    def test_write_transcripts_one_line_per_mode(self, tmp_path):
        item = make_dataset(1).items[0]
        samples = [_sample(MockBackend(self.FIXTURES), item, 5, mode, StageBudgets(), RewardConfig(), 8000)
                   for mode in (THINKER, THINKER_FAST, SINGLE_TURN)]
        path = tmp_path / "samples.jsonl"
        write_transcripts(str(path), samples, "cfg")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["final_stage"], r["final_answer"], r["correct"]) for r in records] == [
            ("fast_thinking", "1", True), ("fast_thinking", "1", True), (None, "1", True)]

    @pytest.mark.parametrize("mode", [THINKER_FAST, SINGLE_TURN])
    def test_one_turn_sample_is_terminal(self, mode):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, mode, StageBudgets(),
                    RewardConfig(), 8000)
        assert t.terminal and t.pending_prompt is None
        assert t.final_stage is t.turns[0].stage
        assert t.final_answer.raw == "1"
        with pytest.raises(ValueError):  # no stage rewards on an eval sample
            Trajectory.from_transcript(t)

    def test_thinker_fast_renders_one_prompt_per_sample(self, monkeypatch):
        rendered = []
        real = task.render_prompt

        def counting(stage, item):
            rendered.append(stage)
            return real(stage, item)

        monkeypatch.setattr(task, "render_prompt", counting)
        evaluate(ScriptedPolicyBackend(PolicyParams(p_fast=0.5)), make_dataset(4), THINKER_FAST, k=2, seed=0)
        assert rendered == [Stage.FAST_THINKING] * 8

    def test_reflections_counted_from_turn_responses(self):
        report = evaluate(MockBackend(self.FIXTURES), make_dataset(1), SINGLE_TURN, k=2, seed=0)
        assert report.mean_reflections == 1.0
        assert report.mean_stage_tokens == {"single_turn": 2.0}


class TestThinkerBeatsFastWhenVerifierAcceptsCorrect:
    @pytest.mark.parametrize("p_fast", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("t_n", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p_slow", [0.0, 0.5, 1.0])
    def test_accuracy_dominates(self, p_fast, t_n, p_slow):
        params = PolicyParams(p_fast=p_fast, t_p=1.0, t_n=t_n, p_slow=p_slow)
        items = make_dataset(5)
        full = evaluate(ScriptedPolicyBackend(params), items, THINKER, k=8, seed=31)
        fast = evaluate(ScriptedPolicyBackend(params), items, THINKER_FAST, k=8, seed=31)
        # same seeds drive the shared fast stage, so dominance is exact
        assert full.overall_accuracy >= fast.overall_accuracy
