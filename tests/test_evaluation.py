import json
import random
import re
import threading
from dataclasses import asdict

import pytest

from thinker.backend import (
    Backend,
    GenerationResult,
    PolicyParams,
    ScriptedPolicyBackend,
    derive_seed,
)
from thinker import task
from thinker.rollout import render_transcript as _render_transcript, transcript_record, write_transcripts
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
from thinker.sim import SyntheticTaskConfig, gen_synthetic
from thinker.task import Stage, StageBudgets, Transcript

from conftest import fixture_map
from mock_backend import MockBackend, PooledScriptedBackend, SlowStageFailingBackend


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
        report = evaluate(backend, items, SINGLE_TURN, k=1,
                          budgets=StageBudgets(single_turn_tokens=8000), seed=0)
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
    def test_failed_question_excluded_in_report(self, caplog, mode):
        """The report is the only account of an excluded question: the
        engine logs nothing."""
        items = make_dataset(2)
        fixtures = fixture_map("e0", "\\boxed{1}", "\\boxed{Yes}")  # e1 missing
        fixtures[(None, "e0")] = "\\boxed{1}"
        backend = MockBackend(fixtures)
        with caplog.at_level("DEBUG"):
            report = evaluate(backend, items, mode, k=2, seed=0)
        assert report.num_questions == 1
        assert report.excluded_questions == ["e1"]
        assert report.failures == 2
        assert (report.overall_accuracy, report.accuracy_failures_as_wrong) == (1.0, 0.5)
        assert caplog.records == []

    def test_table_names_excluded_questions(self):
        fixtures = fixture_map("e0", "\\boxed{1}", "\\boxed{Yes}")  # e1 missing
        report = evaluate(MockBackend(fixtures), make_dataset(2), THINKER_FAST, k=1, seed=0)
        assert report.render_table().splitlines()[-1] == "excluded questions: e1"

    def test_failures_counted_wrong_beside_pass_at_1(self):
        """Slow thinking runs only after a rejected fast answer, so leaving its
        failures out raises pass@1; the second figure counts them wrong."""
        dataset = gen_synthetic(SyntheticTaskConfig(n_items=64, seed=1))
        params = PolicyParams(p_fast=0.5)
        clean = evaluate(ScriptedPolicyBackend(params), dataset, THINKER, 8, seed=1)
        faulty = evaluate(SlowStageFailingBackend(params), dataset, THINKER, 8, seed=1)
        assert (faulty.failures, round(faulty.overall_accuracy, 4)) == (129, 0.6963)
        assert faulty.accuracy_failures_as_wrong == 268 / 512
        assert (clean.failures, round(clean.overall_accuracy, 4)) == (0, 0.6523)
        assert faulty.accuracy_failures_as_wrong < clean.overall_accuracy < faulty.overall_accuracy
        assert faulty.to_dict()["accuracy_failures_as_wrong"] == 268 / 512
        assert "pass@1 counting them wrong: 52.34%" in faulty.render_table()
        assert clean.accuracy_failures_as_wrong is None
        assert "accuracy_failures_as_wrong" not in clean.to_dict()

    def test_all_failed_raises(self):
        backend = MockBackend({})
        with pytest.raises(BackendError):
            evaluate(backend, make_dataset(2), THINKER, k=1, seed=0)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(MockBackend({}), make_dataset(1), THINKER, k=0)

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
                    RewardConfig())
        assert isinstance(t, Transcript)
        assert [turn.key for turn in t.turns] == keys
        assert t.correct is True and not t.failed

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_each_mode_serializes(self, mode):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, mode, StageBudgets(),
                    RewardConfig())
        record = transcript_record(t, "cfg")
        assert [s["stage"] for s in record["stages"]] == [turn.key for turn in t.turns]
        assert record["stages"][0]["extracted"] == "1"
        text = _render_transcript(record)
        assert all(f"[{turn.key}]" in text for turn in t.turns)

    def test_single_turn_record_has_no_stage_reward(self):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, SINGLE_TURN,
                    StageBudgets(), RewardConfig())
        record = transcript_record(t, "cfg")
        assert record["stages"][0]["reward"] is None
        assert "reward=-" in _render_transcript(record)

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_each_mode_records_sample_metadata(self, mode):
        backend = ScriptedPolicyBackend(PolicyParams())
        item = make_dataset(1).items[0]
        record = transcript_record(
            _sample(backend, item, 12345, mode, StageBudgets(), RewardConfig()), "cfg")
        assert (record["episode_id"], record["seed"], record["backend"]) == (
            f"{item.id}@12345", 12345, backend.name)

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST, SINGLE_TURN])
    def test_backend_failure_marks_failed(self, mode):
        t = _sample(MockBackend({}), make_dataset(1).items[0], 5, mode, StageBudgets(), RewardConfig())
        assert t.failed and "no fixture" in t.error
        assert t.turns == []

    def test_write_transcripts_one_line_per_mode(self, tmp_path):
        item = make_dataset(1).items[0]
        samples = [_sample(MockBackend(self.FIXTURES), item, 5, mode, StageBudgets(), RewardConfig())
                   for mode in (THINKER, THINKER_FAST, SINGLE_TURN)]
        path = tmp_path / "samples.jsonl"
        write_transcripts(str(path), samples, "cfg")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["final_stage"], r["final_answer"], r["correct"]) for r in records] == [
            ("fast_thinking", "1", True), ("fast_thinking", "1", True), (None, "1", True)]

    @pytest.mark.parametrize("mode", [THINKER_FAST, SINGLE_TURN])
    def test_one_turn_sample_is_terminal(self, mode):
        t = _sample(MockBackend(self.FIXTURES), make_dataset(1).items[0], 5, mode, StageBudgets(),
                    RewardConfig())
        assert t.terminal and [m["role"] for m in t.messages()] == ["user", "assistant"]
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

    def test_reflections_skip_the_slow_prefill(self):
        """Reflections are counted in the generated text, the text token_count
        counts; the slow stage's <think> prefill was never sampled."""
        fixtures = fixture_map("e0", "\\boxed{0}", "\\boxed{No}", slow="Reworked: \\boxed{1}")
        report = evaluate(MockBackend(fixtures), make_dataset(1), THINKER, k=1, seed=0,
                          vocab=ReflectionVocab(terms=("think",)))
        assert report.mean_reflections == 0.0


class RefusingBackend(Backend):
    """Raises BackendError on every request."""

    name = "refusing"

    def generate(self, request):
        raise BackendError("refused")


class TestOneTurnRecordPinned:
    """Every field of a thinker-fast or single-turn sample's record, written
    out in full, so the code that records these samples can move freely."""

    ITEM = QAItem(id="e0", question="Compute 0 + 1.", answer="1")
    PROMPT = {
        THINKER_FAST: "Answer the below question with concise steps and output the final answer"
                      " within \\boxed{}. Limit your response below 1000 words.\n"
                      "This is the problem: Compute 0 + 1.",
        SINGLE_TURN: "Answer the below question with concise steps and output the final answer"
                     " within \\boxed{}.\nThis is the problem: Compute 0 + 1.",
    }
    STAGE_KEY = {THINKER_FAST: "fast_thinking", SINGLE_TURN: "single_turn"}
    FINAL_STAGE = {THINKER_FAST: "fast_thinking", SINGLE_TURN: None}  # the one-shot turn has no stage
    FILLER = "Working through the given quantities"

    def expected(self, mode, seed, backend, **fields):
        return {
            "schema_version": 1,
            "episode_id": f"e0@{seed}",
            "mode": "inference",
            "item_id": "e0",
            "seed": seed,
            "backend": backend,
            "config_hash": "cfg",
            "failed": False,
            "error": None,
            "stages": [],
            "final_stage": self.FINAL_STAGE[mode],
            "final_answer": None,
            "correct": False,
            "summary_logprob": None,
            "logprob_available": True,
            **fields,
        }

    def turn(self, mode, response, token_count, finish_reason, extracted):
        return {"stage": self.STAGE_KEY[mode], "prompt": self.PROMPT[mode], "response": response,
                "token_count": token_count, "finish_reason": finish_reason,
                "extracted": extracted, "reward": None}

    def record(self, backend, mode, seed, budgets=StageBudgets()):
        return transcript_record(_sample(backend, self.ITEM, seed, mode, budgets, RewardConfig()), "cfg")

    # seeds 8 and 5 draw a correct answer in thinker-fast and single-turn, 5 and 7 a wrong one
    @pytest.mark.parametrize("mode,seed,answer", [
        (THINKER_FAST, 8, "1"), (THINKER_FAST, 5, "2"), (SINGLE_TURN, 5, "1"), (SINGLE_TURN, 7, "2"),
    ])
    def test_finished_sample(self, mode, seed, answer):
        backend = ScriptedPolicyBackend(PolicyParams(fast_tokens=12))
        response = f"{self.FILLER} step by The final answer is \\boxed{{{answer}}}."
        assert self.record(backend, mode, seed) == self.expected(
            mode, seed, "scripted", stages=[self.turn(mode, response, 12, "stop", answer)],
            final_answer=answer, correct=answer == "1")

    @pytest.mark.parametrize("mode", [THINKER_FAST, SINGLE_TURN])
    def test_truncated_sample(self, mode):
        backend = ScriptedPolicyBackend(PolicyParams(fast_tokens=12))
        record = self.record(backend, mode, 5, budgets=StageBudgets(fast_tokens=5, single_turn_tokens=5))
        assert record == self.expected(mode, 5, "scripted",
                                       stages=[self.turn(mode, self.FILLER, 5, "length", None)])

    @pytest.mark.parametrize("mode", [THINKER_FAST, SINGLE_TURN])
    def test_failed_sample(self, mode):
        assert self.record(RefusingBackend(), mode, 5) == self.expected(
            mode, 5, "refusing", failed=True, error="refused", final_stage=None, correct=None)


class RequestKeepingBackend(ScriptedPolicyBackend):
    """The scripted policy, keeping every request it is sent."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return super().generate(request)


class TestOneTurnRequestPinned:
    """Every field of the request a thinker-fast or single-turn sample sends,
    written out in full, so the code that builds it can move freely."""

    BUDGETS = StageBudgets(fast_tokens=50, single_turn_tokens=77, temperature=0.7, summary_temperature=0.3)

    @pytest.mark.parametrize("mode,max_tokens,seed_key,stage", [
        (THINKER_FAST, 50, "fast_thinking", Stage.FAST_THINKING),
        (SINGLE_TURN, 77, "single_turn", None),
    ])
    def test_request(self, mode, max_tokens, seed_key, stage):
        backend = RequestKeepingBackend()
        _sample(backend, TestOneTurnRecordPinned.ITEM, 5, mode, self.BUDGETS, RewardConfig())
        assert [asdict(r) for r in backend.requests] == [{
            "messages": ({"role": "user", "content": TestOneTurnRecordPinned.PROMPT[mode]},),
            "max_tokens": max_tokens,
            "temperature": 0.7,
            "seed": derive_seed(5, seed_key),
            "stage": stage,
            "item_id": "e0",
            "reference_answer": "1",
        }]


class TestSingleTurnBudget:
    """The one-shot turn's limit is budgets.single_turn_tokens: a single-turn
    sample sends it, and no staged request reads it."""

    @staticmethod
    def requests(mode, budgets):
        backend = RequestKeepingBackend()
        evaluate(backend, make_dataset(3), mode, k=2, budgets=budgets, seed=4)
        return [asdict(r) for r in backend.requests]

    def test_single_turn_sends_its_budget(self):
        requests = self.requests(SINGLE_TURN, StageBudgets(single_turn_tokens=37))
        assert {r["max_tokens"] for r in requests} == {37}

    @pytest.mark.parametrize("mode", [THINKER, THINKER_FAST])
    def test_staged_requests_ignore_it(self, mode):
        assert self.requests(mode, StageBudgets(single_turn_tokens=37)) == \
            self.requests(mode, StageBudgets())


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
