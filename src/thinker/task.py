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
# assistant text, so a turn keeps the generated text and Turn.response
# prepends the marker when the dialogue or the record reads it.
RESPONSE_SEED: dict[Stage, str] = {SLOW: "<think>\n"}


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Read a prompt template resource verbatim (cached)."""
    return resources.files("thinker.templates").joinpath(name).read_text(encoding="utf-8")


# Entries kept by the prompt memo; see _render for the sizing.
PROMPT_CACHE_SIZE = 1024


def render_prompt(stage: Stage | None, item: QAItem) -> str:
    """Instantiate the stage template for one question; stage None gives the
    one-shot baseline's (fast thinking's without its length limit).

    Substitution is a literal replace so questions containing braces
    survive intact. Verification has no placeholder and renders verbatim.
    """
    return _render(stage, item.question)


@lru_cache(maxsize=PROMPT_CACHE_SIZE)
def _render(stage: Stage | None, question: str) -> str:
    """render_prompt's text, memoized so the turns of one question at one
    stage share one string. An item has at most four prompts and
    monte_carlo cycles through 128 items by default, so PROMPT_CACHE_SIZE
    (1024) entries hold a batch of 64 items or a simulation cycle. An entry
    takes about 0.35 kB for a short question (the template is under
    0.3 kB): under 0.4 MB for a full memo.
    """
    return load_template(f"{_STAGE_KEY[stage]}.txt").replace("{question}", question)


@dataclass(frozen=True)
class StageBudgets:
    """Per-stage generation limits and sampling temperatures; the one-shot
    baseline's turn (stage None) has a limit of its own."""

    fast_tokens: int = 1000
    verify_tokens: int = 2000
    slow_tokens: int = 6000
    summary_tokens: int = 1000
    single_turn_tokens: int = 8000
    temperature: float = 1.0
    summary_temperature: float = 0.6

    def __post_init__(self) -> None:
        for name in (*_FIELD.values(), SINGLE_TURN):
            if getattr(self, f"{name}_tokens") <= 0:
                raise ValueError(f"{name}_tokens must be positive")
        if not 0.0 <= self.temperature < math.inf:  # NaN included
            raise ValueError("temperature must be finite and >= 0")
        if not 0.0 < self.summary_temperature <= 1.0:
            raise ValueError("summary_temperature must be in (0, 1]")

    def budget_for(self, stage: Stage | None) -> int:
        return getattr(self, _FIELD.get(stage, SINGLE_TURN) + "_tokens")

    def temperature_for(self, stage: Stage | None) -> float:
        return self.summary_temperature if stage is SUMMARY else self.temperature



@dataclass(slots=True)
class Turn:
    """One prompt/response exchange; stage is None for a one-shot baseline.
    text is what the backend generated, and token_count counts it."""

    stage: Stage | None
    text: str
    token_count: int
    finish_reason: str

    @property
    def response(self) -> str:
        """The stage's seed (RESPONSE_SEED), then text: text itself, not a
        copy, for a stage with no seed."""
        return RESPONSE_SEED.get(self.stage, "") + self.text

    @property
    def key(self) -> str:
        return _STAGE_KEY[self.stage]

    @property
    def truncated(self) -> bool:
        return self.finish_reason == "length"


@dataclass(slots=True)
class StageRewards:
    """Per-stage scalar rewards; a field is present iff its stage executed."""

    fast: float | None = None
    verify: float | None = None
    slow: float | None = None
    summary: float | None = None

    def for_stage(self, stage: Stage | None) -> float | None:
        name = _FIELD.get(stage)  # None for a one-shot turn, which has no stage
        return getattr(self, name) if name is not None else None


@dataclass(slots=True)
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
        return self.stage is None and bool(self.turns)  # a one-shot sample starts at stage None

    @property
    def final_answer(self) -> ExtractedAnswer | None:
        """The deciding stage's answer; None until terminal, or when that
        stage had no box."""
        return self.answers.get(self.final_stage)

    @property
    def total_tokens(self) -> int:
        return sum(t.token_count for t in self.turns)

    def messages(self) -> list[dict[str, str]]:
        """Each turn's prompt and response, then, until terminal, the current
        stage's prompt (a failed episode's failed stage), as chat messages."""
        msgs: list[dict[str, str]] = []
        for turn in self.turns:
            msgs.append({"role": "user", "content": render_prompt(turn.stage, self.item)})
            msgs.append({"role": "assistant", "content": turn.response})
        if not self.terminal:
            msgs.append({"role": "user", "content": render_prompt(self.stage, self.item)})
        return msgs


# The running episode is the same record. The benchmark's tracer
# (benchmarks/tracing.py) reads this name when it is imported, so every
# workload fails to load without it.
EpisodeState = Transcript


def begin_episode(item: QAItem, mode: Mode, budgets: StageBudgets | None = None,
                  stage: Stage | None = FAST, *, seed: int = 0, backend_id: str = "",
                  episode_id: str | None = None) -> Transcript:
    """Start an episode at *stage*; stage None begins the one-shot
    baseline, which is recorded but never advanced. Mode only affects
    routing. The episode is named *episode_id*, by default ``<item id>@<seed>``.
    """
    return Transcript(mode=mode, item=item, budgets=budgets or StageBudgets(), stage=stage,
                      episode_id=episode_id or f"{item.id}@{seed}", seed=seed, backend_id=backend_id)


def end_episode(state: Transcript, final_stage: Stage | None) -> None:
    """Make the episode terminal and grade *final_stage*'s answer."""
    state.stage = None
    state.final_stage = final_stage
    state.correct = answers_equal(state.answers.get(final_stage), state.item.answer)


def record_turn(state: Transcript, result) -> None:
    """Record the current stage's turn from *result* (any object with
    ``text``, ``token_count`` and ``finish_reason``, such as a backend
    GenerationResult): its text as generated, and its answer or verdict,
    truncated responses included. Nothing is routed.

    A stage seed holds no box and no brace, so the answer is read from the
    text alone."""
    stage = state.stage
    text = result.text
    state.turns.append(Turn(stage, text, result.token_count, result.finish_reason))
    if stage is VERIFY:
        state.verdict = extract_verdict(text)
    else:
        state.answers[stage] = extract_boxed(text)


def advance(state: Transcript, result) -> Transcript:
    """Record the current stage's turn and apply the routing table: the
    episode moves to the next stage or ends. Stage None (ended or one-shot) is refused."""
    if state.stage is None:
        raise EpisodeError("cannot advance an episode with no stage")
    record_turn(state, result)

    stage = state.stage
    training = state.mode is TRAINING
    if stage is FAST:
        state.stage = VERIFY
    elif stage is VERIFY:
        # inference trusts the verdict; training grades the fast answer instead
        accepted = (answers_equal(state.answers.get(FAST), state.item.answer)
                    if training else state.verdict is YES)
        if accepted:
            end_episode(state, FAST)
        else:
            state.stage = SLOW
    elif (stage is SLOW and training
          and answers_equal(state.answers.get(SLOW), state.item.answer)):
        state.stage = SUMMARY
    else:  # slow thinking otherwise, or summarization: the slow answer is final
        end_episode(state, SLOW)
    return state
