"""The four-stage task state machine.

An episode walks a question through Fast Thinking, Verification, Slow
Thinking, and Summarization inside a single dialogue. Prompts are rendered
from versioned resource files (templates/); routing after Verification
differs between training mode (uses the ground truth) and inference mode
(uses the model's own boxed verdict). Verification itself always runs.

Routing table applied by :func:`advance`:

    fast thinking  -> verification, always
    verification   inference: verdict Yes -> terminal (final = fast answer)
                              No or malformed -> slow thinking
                   training:  fast answer correct -> terminal (final = fast)
                              otherwise -> slow thinking (verdict ignored)
    slow thinking  inference: terminal (final = slow answer)
                   training:  slow correct -> summarization, else terminal
    summarization  terminal (final stays the slow answer)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from importlib import resources

from .dataset import QAItem
from .errors import EpisodeError
from .grading import YES, ExtractedAnswer, Verdict, answers_equal, extract_boxed, extract_verdict


class Stage(IntEnum):
    """Episode stages in visiting order; never revisited."""

    FAST_THINKING = 1
    VERIFICATION = 2
    SLOW_THINKING = 3
    SUMMARIZATION = 4

    @property
    def key(self) -> str:
        return _STAGE_KEY[self]


class Mode(Enum):
    TRAINING = "training"
    INFERENCE = "inference"


# Members bound once as globals, for every module to import (Verdict's are in
# grading.py). On CPython 3.10 and 3.11 each Stage.X, Mode.X or Verdict.X
# lookup runs EnumType.__getattr__: 144 ns against 27 ns for a plain class
# attribute and next to nothing for a global (3.11.7 on a Xeon, net of loop
# cost); 3.12 dropped the hook. Per-stage data is keyed by member likewise.
FAST, VERIFY, SLOW, SUMMARY = Stage  # in visiting order
TRAINING, INFERENCE = Mode


# Key of the one-shot baseline's only turn, which belongs to no stage.
SINGLE_TURN = "single_turn"
# Turn.key of a stage's turn, and of the one-shot turn (stage None).
_STAGE_KEY = {stage: stage.name.lower() for stage in Stage} | {None: SINGLE_TURN}
# StageRewards field of each stage; its StageBudgets field adds "_tokens".
_FIELD = {FAST: "fast", VERIFY: "verify", SLOW: "slow", SUMMARY: "summary"}


# The assistant turn for slow thinking opens with the think marker already in
# place; generation continues after it. Chat backends cannot prefill
# assistant text, so the marker is prepended when the turn is recorded.
RESPONSE_SEED: dict[Stage, str] = {SLOW: "<think>\n"}


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Read a prompt template resource verbatim (cached)."""
    return resources.files("thinker.templates").joinpath(name).read_text(encoding="utf-8")


def render_prompt(stage: Stage | None, item: QAItem) -> str:
    """Instantiate the stage template for one question; stage None gives the
    one-shot baseline's (fast thinking's without its length limit).

    Substitution is a literal replace so questions containing braces
    survive intact. Verification has no placeholder and renders verbatim.
    """
    return load_template(f"{_STAGE_KEY[stage]}.txt").replace("{question}", item.question)


@dataclass(frozen=True)
class StageBudgets:
    """Per-stage generation limits and sampling temperatures."""

    fast_tokens: int = 1000
    verify_tokens: int = 2000
    slow_tokens: int = 6000
    summary_tokens: int = 1000
    temperature: float = 1.0
    summary_temperature: float = 0.6

    def __post_init__(self) -> None:
        for name in _FIELD.values():
            if getattr(self, f"{name}_tokens") <= 0:
                raise ValueError(f"{name}_tokens must be positive")
        if not 0.0 <= self.temperature < math.inf:  # NaN included
            raise ValueError("temperature must be finite and >= 0")
        if not 0.0 < self.summary_temperature <= 1.0:
            raise ValueError("summary_temperature must be in (0, 1]")

    def budget_for(self, stage: Stage) -> int:
        return getattr(self, _FIELD[stage] + "_tokens")

    def temperature_for(self, stage: Stage) -> float:
        return self.summary_temperature if stage is SUMMARY else self.temperature



@dataclass
class Turn:
    """One prompt/response exchange; stage is None for a one-shot baseline."""

    stage: Stage | None
    prompt: str
    response: str
    token_count: int
    finish_reason: str

    @property
    def key(self) -> str:
        return _STAGE_KEY[self.stage]

    @property
    def truncated(self) -> bool:
        return self.finish_reason == "length"


@dataclass
class StageRewards:
    """Per-stage scalar rewards; a field is present iff its stage executed."""

    fast: float | None = None
    verify: float | None = None
    slow: float | None = None
    summary: float | None = None

    def for_stage(self, stage: Stage | None) -> float | None:
        name = _FIELD.get(stage)  # None for a one-shot turn, which has no stage
        return getattr(self, name) if name is not None else None


@dataclass
class Transcript:
    """One episode: its dialogue and routing state, then its rewards.

    begin_episode creates it and advance moves it stage by stage to
    terminal; single-writer while running. Once terminal the only later
    mutations are scoring and the batch barrier filling in the
    verification reward. Eval's fast-only and one-shot samples are
    recorded here too and end after their one turn; the one-shot answer is
    keyed by its turn's stage, None.
    """

    mode: Mode
    item: QAItem
    budgets: StageBudgets = field(default_factory=StageBudgets)
    episode_id: str = ""
    seed: int = 0
    backend_id: str = ""
    stage: Stage | None = FAST
    pending_prompt: str | None = None
    turns: list[Turn] = field(default_factory=list)
    answers: dict[Stage | None, ExtractedAnswer | None] = field(default_factory=dict)
    verdict: Verdict | None = None
    final_stage: Stage | None = None
    correct: bool | None = None
    rewards: StageRewards = field(default_factory=StageRewards)
    summary_logprob: float | None = None
    logprob_available: bool = True
    failed: bool = False
    error: str | None = None

    @property
    def terminal(self) -> bool:
        return self.stage is None

    @property
    def final_answer(self) -> ExtractedAnswer | None:
        """The deciding stage's answer; None until terminal, or when that
        stage had no box."""
        return self.answers.get(self.final_stage)

    @property
    def total_tokens(self) -> int:
        return sum(t.token_count for t in self.turns)

    def messages(self) -> list[dict[str, str]]:
        """Dialogue so far plus the pending prompt, as chat messages."""
        msgs: list[dict[str, str]] = []
        for turn in self.turns:
            msgs.append({"role": "user", "content": turn.prompt})
            msgs.append({"role": "assistant", "content": turn.response})
        if self.pending_prompt is not None:
            msgs.append({"role": "user", "content": self.pending_prompt})
        return msgs


# The running episode is the same record. The benchmark's tracer
# (benchmarks/tracing.py) reads this name when it is imported, so every
# workload fails to load without it.
EpisodeState = Transcript


def begin_episode(item: QAItem, mode: Mode, budgets: StageBudgets | None = None,
                  **metadata) -> Transcript:
    """Start an episode at fast thinking with its prompt rendered.

    The first prompt is mode-independent; mode only affects routing later.
    *metadata* (episode_id, seed, backend_id) is recorded as given.
    """
    return Transcript(mode=mode, item=item, budgets=budgets or StageBudgets(),
                      pending_prompt=render_prompt(FAST, item), **metadata)


def _enter(state: Transcript, stage: Stage) -> None:
    state.stage = stage
    state.pending_prompt = render_prompt(stage, state.item)


def _terminate(state: Transcript, final_stage: Stage) -> None:
    state.stage = None
    state.pending_prompt = None
    state.final_stage = final_stage


def advance(state: Transcript, result) -> Transcript:
    """Record the current stage's response and apply the routing table.

    *result* is any object with ``text``, ``token_count``, and
    ``finish_reason`` attributes (a backend GenerationResult). The response
    is stored with any stage seed prepended, its answer or verdict extracted
    (truncated responses included), and the episode either moves to the next
    stage (pending prompt rendered) or terminates.
    """
    if state.terminal:
        raise EpisodeError("cannot advance a terminal episode")
    stage = state.stage
    assert state.pending_prompt is not None

    full_text = RESPONSE_SEED.get(stage, "") + result.text
    state.turns.append(Turn(
        stage=stage,
        prompt=state.pending_prompt,
        response=full_text,
        token_count=result.token_count,
        finish_reason=result.finish_reason,
    ))

    if stage is VERIFY:
        state.verdict = extract_verdict(full_text)
    else:
        state.answers[stage] = extract_boxed(full_text)

    training = state.mode is TRAINING
    if stage is FAST:
        _enter(state, VERIFY)
    elif stage is VERIFY:
        # inference trusts the verdict; training grades the fast answer instead
        accepted = (answers_equal(state.answers.get(FAST), state.item.answer)
                    if training else state.verdict is YES)
        if accepted:
            _terminate(state, FAST)
        else:
            _enter(state, SLOW)
    elif (stage is SLOW and training
          and answers_equal(state.answers.get(SLOW), state.item.answer)):
        _enter(state, SUMMARY)
    else:  # slow thinking otherwise, or summarization: the slow answer is final
        _terminate(state, SLOW)
    return state
