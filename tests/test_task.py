import ast
import itertools
import tokenize
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import thinker
from thinker.backend import GenerationRequest, GenerationResult, ScriptedPolicyBackend
from thinker.dataset import QAItem
from thinker.errors import EpisodeError
from thinker.grading import Verdict, extract_boxed
from thinker.task import (
    RESPONSE_SEED,
    SLOW,
    Mode,
    Stage,
    StageBudgets,
    StageRewards,
    Turn,
    advance,
    begin_episode,
    load_template,
    render_prompt,
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
        prompt = render_prompt(None, item)
        assert "Limit your response" not in prompt
        assert "This is the problem: Compute 3 + 4." in prompt
        assert prompt.startswith("Answer the below question with concise steps")

    def test_templates_are_resources(self):
        for stage in Stage:
            assert load_template(f"{stage.key}.txt")


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

    def test_one_shot_turn_has_its_own_limit(self):
        assert StageBudgets().single_turn_tokens == 8000
        b = StageBudgets(single_turn_tokens=77, temperature=0.9)
        assert (b.budget_for(None), b.temperature_for(None)) == (77, 0.9)
        with pytest.raises(ValueError, match="single_turn_tokens must be positive"):
            StageBudgets(single_turn_tokens=0)

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
        assert "Compute 3 + 4." in state.messages()[-1]["content"]
        assert state.turns == []

    def test_first_prompt_mode_independent(self, item):
        training = begin_episode(item, Mode.TRAINING)
        inference = begin_episode(item, Mode.INFERENCE)
        assert training.messages() == inference.messages()

    def test_slow_response_gets_think_seed(self, item):
        state = begin_episode(item, Mode.INFERENCE)
        advance(state, reply("\\boxed{9}"))
        advance(state, reply("\\boxed{No}"))
        assert state.stage is Stage.SLOW_THINKING
        advance(state, reply("rethought \\boxed{7}"))
        slow_turn = state.turns[-1]
        assert slow_turn.text == "rethought \\boxed{7}"
        assert slow_turn.response == "<think>\n" + slow_turn.text

    @given(st.one_of(
        st.text(alphabet="\\boxed{}<>/think\n 7", max_size=80),
        st.builds(lambda seed, truth: ScriptedPolicyBackend().generate(GenerationRequest(
            messages=({"role": "user", "content": "question"},), max_tokens=6000, temperature=1.0,
            seed=seed, stage=SLOW, reference_answer=truth)).text,
                  st.integers(0, 2**32), st.sampled_from(["7", "1/2", "{x}"])),
    ))
    def test_seed_never_changes_the_boxed_answer(self, text):
        # record_turn reads the answer from the text without the seed
        for seed in RESPONSE_SEED.values():
            assert extract_boxed(text) == extract_boxed(seed + text)

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

    def test_advance_refuses_one_shot_sample(self, item):
        state = begin_episode(item, Mode.INFERENCE, stage=None)
        assert not state.terminal
        with pytest.raises(EpisodeError):
            advance(state, reply("\\boxed{7}"))
        assert state.turns == []

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
        assert Turn(Stage.SLOW_THINKING, "r", 1, "stop").key == "slow_thinking"
        assert Turn(None, "r", 1, "stop").key == "single_turn"


@pytest.mark.parametrize("make", [
    lambda item: begin_episode(item, Mode.INFERENCE),
    lambda item: Turn(Stage.FAST_THINKING, "r", 1, "stop"),
    lambda item: StageRewards(),
], ids=["Transcript", "Turn", "StageRewards"])
def test_episode_records_reject_unknown_fields(item, make):
    # slotted records: a misspelled field raises instead of adding a new one
    record = make(item)
    with pytest.raises(AttributeError):
        record.reward = 1.0


# each member's key and its field on StageBudgets and on StageRewards
_STAGE_FIELDS = {
    Stage.FAST_THINKING: ("fast_thinking", "fast_tokens", "fast"),
    Stage.VERIFICATION: ("verification", "verify_tokens", "verify"),
    Stage.SLOW_THINKING: ("slow_thinking", "slow_tokens", "slow"),
    Stage.SUMMARIZATION: ("summarization", "summary_tokens", "summary"),
}


class TestStageTables:
    """Per-stage data is looked up in tables keyed by member; every member
    must reach its own named field."""

    def test_every_member_reads_its_named_fields(self):
        assert set(_STAGE_FIELDS) == set(Stage)
        budgets = StageBudgets(fast_tokens=11, verify_tokens=22, slow_tokens=33, summary_tokens=44,
                               temperature=0.9, summary_temperature=0.3)
        rewards = StageRewards(fast=0.1, verify=0.2, slow=0.3, summary=0.4)
        for stage in Stage:
            key, budget_field, reward_field = _STAGE_FIELDS[stage]
            assert stage.key == key == stage.name.lower()
            assert Turn(stage, "r", 1, "stop").key == key
            assert budgets.budget_for(stage) == getattr(budgets, budget_field)
            assert rewards.for_stage(stage) == getattr(rewards, reward_field)
            assert budgets.temperature_for(stage) == (0.3 if stage is Stage.SUMMARIZATION else 0.9)
        assert rewards.for_stage(None) is None


_ENUM_MEMBERS = {enum.__name__: set(enum.__members__) for enum in (Stage, Mode, Verdict)}
_SOURCES = sorted(Path(thinker.__file__).parent.glob("*.py"))


def _member_lookups(node):
    """Line and text of each ``Enum.MEMBER`` attribute under *node*."""
    return {(n.lineno, f"{n.value.id}.{n.attr}") for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.attr in _ENUM_MEMBERS.get(n.value.id, ())}


class TestMemberBindings:
    """Stage and Mode members are bound once as globals in task.py, Verdict's
    in grading.py, and every other module imports those names: on CPython
    3.10 and 3.11 a Stage.X lookup runs the enum's __getattr__ hook."""

    def test_no_function_body_names_a_member(self):
        found = set()
        for path in _SOURCES:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    body = node.body
                elif isinstance(node, ast.Lambda):
                    body = [node.body]
                else:
                    continue
                for part in body:
                    found |= {(path.name, *lookup) for lookup in _member_lookups(part)}
        assert sorted(found) == []

    def test_only_the_defining_modules_bind_members(self):
        found = []
        for path in _SOURCES:
            if path.name in ("task.py", "grading.py"):
                continue
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                unpacks_enum = (isinstance(stmt.value, ast.Name) and stmt.value.id in _ENUM_MEMBERS
                                and isinstance(targets[0], (ast.Tuple, ast.List)))
                if unpacks_enum or _member_lookups(stmt.value):
                    found.append(f"{path.name}:{stmt.lineno}")
        assert found == []

    def test_the_reason_is_given_once(self):
        comments = []
        for path in _SOURCES:
            with path.open("rb") as fh:
                comments += [(path.name, tok.start[0]) for tok in tokenize.tokenize(fh.readline)
                             if tok.type == tokenize.COMMENT and "__getattr__" in tok.string]
        assert [name for name, _ in comments] == ["task.py"]
