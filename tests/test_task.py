import itertools

import pytest

from thinker.backend import GenerationResult
from thinker.dataset import QAItem
from thinker.errors import EpisodeError
from thinker.grading import Verdict
from thinker.task import (
    Mode,
    Stage,
    StageBudgets,
    Turn,
    advance,
    begin_episode,
    render_prompt,
    render_single_turn_prompt,
    stage_template,
)


@pytest.fixture
def item():
    return QAItem(id="q1", question="Compute 3 + 4.", answer="7")


def reply(text):
    return GenerationResult(text=text, token_count=max(len(text.split()), 1))


class TestTemplates:
    def test_fast_template_verbatim(self, item):
        prompt = render_prompt(Stage.FAST_THINKING, item)
        assert prompt == (
            "Answer the below question with concise steps and output the final answer "
            "within \\boxed{}. Limit your response below 1000 words.\n"
            "This is the problem: Compute 3 + 4."
        )

    def test_verification_template_verbatim(self, item):
        prompt = render_prompt(Stage.VERIFICATION, item)
        assert prompt == (
            "Is your answer above correct? Please verify each step and the answer "
            "carefully. Output \\boxed{Yes} if your answer is correct, or \\boxed{No} "
            "if your answer is incorrect."
        )

    def test_slow_template_verbatim(self, item):
        prompt = render_prompt(Stage.SLOW_THINKING, item)
        assert prompt == (
            "Your initial answer is incorrect. Now, think about the possible errors and "
            "consider alternative solutions. The reasoning process should be enclosed "
            "within <think>...</think>.\n"
            "This is the problem: Compute 3 + 4.\n"
            "Let's think step by step and output the final answer within \\boxed{}."
        )

    def test_summary_template_embeds_question_again(self, item):
        prompt = render_prompt(Stage.SUMMARIZATION, item)
        assert prompt.startswith("Your final answer is correct.")
        assert "This is the problem: Compute 3 + 4." in prompt
        assert "between 300 and 1000 words" in prompt

    def test_braces_in_question_survive(self):
        item = QAItem(id="b", question="Simplify {x} + {y}.", answer="z")
        prompt = render_prompt(Stage.FAST_THINKING, item)
        assert "Simplify {x} + {y}." in prompt

    def test_single_turn_prompt_drops_length_limit(self, item):
        prompt = render_single_turn_prompt(item)
        assert "Limit your response" not in prompt
        assert "This is the problem: Compute 3 + 4." in prompt
        assert prompt.startswith("Answer the below question with concise steps")

    def test_templates_are_resources(self):
        for stage in Stage:
            assert stage_template(stage)


class TestBudgets:
    def test_defaults(self):
        b = StageBudgets()
        assert (b.fast_tokens, b.verify_tokens, b.slow_tokens, b.summary_tokens) == (1000, 2000, 6000, 1000)
        assert b.temperature == 1.0
        assert b.summary_temperature == 0.6

    def test_lookup_by_stage(self):
        b = StageBudgets()
        assert b.budget_for(Stage.VERIFICATION) == 2000
        assert b.temperature_for(Stage.SUMMARIZATION) == 0.6
        assert b.temperature_for(Stage.SLOW_THINKING) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StageBudgets(fast_tokens=0)
        with pytest.raises(ValueError):
            StageBudgets(summary_temperature=0.0)
        with pytest.raises(ValueError):
            StageBudgets(summary_temperature=1.5)


class TestEpisodeFlow:
    def test_begin_renders_fast_prompt(self, item):
        state = begin_episode(item, Mode.TRAINING)
        assert state.stage is Stage.FAST_THINKING
        assert "Compute 3 + 4." in state.pending_prompt
        assert state.turns == []

    def test_first_prompt_mode_independent(self, item):
        training = begin_episode(item, Mode.TRAINING)
        inference = begin_episode(item, Mode.INFERENCE)
        assert training.pending_prompt == inference.pending_prompt

    def test_slow_response_gets_think_seed(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply("\\boxed{No}"))
        assert state.stage is Stage.SLOW_THINKING
        advance(state, reply("rethought \\boxed{7}"))
        slow_turn = state.turns[-1]
        assert slow_turn.response.startswith("<think>\n")
        assert slow_turn.response.endswith("rethought \\boxed{7}")

    def test_messages_alternate(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{9}"))
        msgs = state.messages()
        assert [m["role"] for m in msgs] == ["user", "assistant", "user"]

    def test_advance_terminal_raises(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{7}"))
        advance(state, reply("\\boxed{Yes}"))
        assert state.terminal
        with pytest.raises(EpisodeError):
            advance(state, reply("more"))

    def test_final_answer_requires_terminal(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{7}"))
        assert state.final_answer is None

    def test_truncated_response_still_extracted(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, GenerationResult(text="\\boxed{7}", token_count=1, finish_reason="length"))
        assert state.turns[0].truncated
        assert state.answers[Stage.FAST_THINKING].raw == "7"

    def test_inference_accepts_wrong_answer_on_yes(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply("\\boxed{Yes}"))
        assert state.terminal
        assert state.final_answer.raw == "9"

    def test_training_ignores_yes_when_fast_wrong(self, item):
        state = begin_episode(item, Mode.TRAINING)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply("\\boxed{Yes}"))
        assert state.stage is Stage.SLOW_THINKING

    def test_training_enters_summary_when_slow_correct(self, item):
        state = begin_episode(item, Mode.TRAINING)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply("\\boxed{No}"))
        advance(state, reply("\\boxed{7}"))
        assert state.stage is Stage.SUMMARIZATION
        advance(state, reply("summary \\boxed{7}"))
        assert state.terminal
        assert state.final_answer.raw == "7"
        assert state.final_stage is Stage.SLOW_THINKING

    def test_no_box_final_answer_absent(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply("\\boxed{No}"))
        advance(state, reply("I give up"))
        assert state.terminal
        assert state.final_answer is None


def expected_flow(mode, fast_correct, verdict, slow_correct):
    """Independent statement of the routing rules, used as the oracle."""
    if mode is Mode.TRAINING:
        if fast_correct:
            return ["fast_thinking", "verification"], "fast"
        if slow_correct:
            return ["fast_thinking", "verification", "slow_thinking", "summarization"], "slow"
        return ["fast_thinking", "verification", "slow_thinking"], "slow"
    if verdict == "yes":
        return ["fast_thinking", "verification"], "fast"
    return ["fast_thinking", "verification", "slow_thinking"], "slow"


VERDICT_TEXT = {
    "yes": "checked carefully: \\boxed{Yes}",
    "no": "found an error: \\boxed{No}",
    "malformed": "unsure, maybe correct?",
}


@pytest.mark.parametrize("mode", [Mode.TRAINING, Mode.INFERENCE])
@pytest.mark.parametrize("fast_correct", [True, False])
@pytest.mark.parametrize("verdict", ["yes", "no", "malformed"])
@pytest.mark.parametrize("slow_correct", [True, False])
def test_transition_truth_table(mode, fast_correct, verdict, slow_correct, item):
    fast_answer = "7" if fast_correct else "9"
    slow_answer = "7" if slow_correct else "8"
    state = begin_episode(item, mode)
    advance(state, reply(f"\\boxed{{{fast_answer}}}"))
    advance(state, reply(VERDICT_TEXT[verdict]))
    if not state.terminal and state.stage is Stage.SLOW_THINKING:
        advance(state, reply(f"\\boxed{{{slow_answer}}}"))
    if not state.terminal and state.stage is Stage.SUMMARIZATION:
        advance(state, reply(f"recap \\boxed{{{slow_answer}}}"))
    assert state.terminal

    stages, which = expected_flow(mode, fast_correct, verdict, slow_correct)
    assert [t.stage.key for t in state.turns] == stages
    expected_answer = fast_answer if which == "fast" else slow_answer
    assert state.final_answer.raw == expected_answer


def test_training_episode_with_correct_fast_has_two_turns(item):
    state = begin_episode(item, Mode.TRAINING)
    advance(state, reply("\\boxed{7}"))
    advance(state, reply(VERDICT_TEXT["malformed"]))
    assert state.terminal
    assert len(state.turns) == 2


def test_stage_sequence_strictly_increasing_and_bounded(item):
    for mode, verdict in itertools.product([Mode.TRAINING, Mode.INFERENCE], VERDICT_TEXT):
        state = begin_episode(item, mode)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply(VERDICT_TEXT[verdict]))
        while not state.terminal:
            advance(state, reply("\\boxed{7}"))
        order = [t.stage for t in state.turns]
        assert order == sorted(order)
        assert len(order) == len(set(order)) <= 4


def test_verdict_recorded(item):
    state = begin_episode(item, Mode.INFERENCE)
    advance(state, reply("\\boxed{7}"))
    advance(state, reply("\\boxed{No}"))
    assert state.verdict is Verdict.NO


class TestTurnKey:
    def test_stage_key_or_single_turn(self):
        assert Turn(Stage.SLOW_THINKING, "p", "r", 1, "stop").key == "slow_thinking"
        assert Turn(None, "p", "r", 1, "stop").key == "single_turn"
