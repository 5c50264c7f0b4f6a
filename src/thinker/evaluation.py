"""Benchmark evaluation: pass@1 over k samples, clustered errors, lengths.

Three inference variants are measured: the full staged episode ("thinker"),
the fast stage alone ("thinker_fast"), and a one-shot baseline prompt with a
large budget ("single_turn"). Accuracy is the mean over questions of each
question's mean correctness across k independent samples. Sample seeds
derive from (seed, question id, sample index), so reports do not depend on
question order or on the parallelism bound.
"""

from __future__ import annotations

import logging
import re
from dataclasses import asdict, dataclass, field
from statistics import fmean, variance

from .backend import Backend, GenerationRequest, derive_seed
from .dataset import Dataset
from .errors import BackendError
from .grading import answers_equal, extract_boxed
from .rewards import RewardConfig
from .rollout import run_all, run_episode, stage_request, token_means
from .task import (SINGLE_TURN, Mode, Stage, StageBudgets, Transcript, Turn, advance, begin_episode,
                   render_single_turn_prompt)

logger = logging.getLogger("thinker.eval")

THINKER = "thinker"
THINKER_FAST = "thinker_fast"
EVAL_MODES = (THINKER, THINKER_FAST, SINGLE_TURN)


@dataclass(frozen=True)
class ReflectionVocab:
    """Self-reflection marker words counted in responses (whole word,
    case-insensitive)."""

    terms: tuple[str, ...] = ("wait", "however", "alternatively")

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("reflection vocabulary must be nonempty")

    def pattern(self) -> re.Pattern:
        alternation = "|".join(re.escape(t) for t in self.terms)
        return re.compile(rf"\b(?:{alternation})\b", re.IGNORECASE)


def count_reflections(text: str, vocab: ReflectionVocab | None = None) -> int:
    """Whole-word, case-insensitive occurrences of any reflection term."""
    vocab = vocab or ReflectionVocab()
    if not text:
        return 0
    return len(vocab.pattern().findall(text))


def standard_error(per_question_means: list[float]) -> float:
    """Clustered standard error: sample variance of per-question means over
    the question count (each question is one cluster of equal size)."""
    if len(per_question_means) < 2:
        raise ValueError("standard error needs at least 2 questions")
    return (variance(per_question_means) / len(per_question_means)) ** 0.5


@dataclass
class BenchmarkReport:
    """Aggregate measurements over one dataset in one mode."""

    mode: str
    k: int
    num_questions: int
    per_question: list[dict]
    overall_accuracy: float
    stderr: float | None
    mean_stage_tokens: dict[str, float]
    mean_total_tokens: float
    mean_reflections: float
    reflections_per_1000_tokens: float
    failures: int = 0
    excluded_questions: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}

    def render_table(self) -> str:
        lines = [
            f"mode: {self.mode}   k: {self.k}   questions: {self.num_questions}",
            f"pass@1 accuracy: {100 * self.overall_accuracy:.2f}%"
            + (f"  (se {100 * self.stderr:.2f})" if self.stderr is not None else ""),
            f"mean total tokens: {self.mean_total_tokens:.1f}",
        ]
        for stage_key in sorted(self.mean_stage_tokens):
            lines.append(f"  {stage_key}: {self.mean_stage_tokens[stage_key]:.1f} tokens")
        lines.append(
            f"reflections/episode: {self.mean_reflections:.2f}"
            f"   per 1000 tokens: {self.reflections_per_1000_tokens:.2f}"
        )
        if self.failures:
            lines.append(f"failed samples: {self.failures}")
        if self.excluded_questions:
            lines.append(f"excluded questions: {', '.join(self.excluded_questions)}")
        return "\n".join(lines)


def _sample(backend, item, episode_seed, mode, budgets, reward_cfg, single_turn_tokens) -> Transcript:
    """One graded sample. A backend failure marks it failed, as in run_episode."""
    if mode == THINKER:
        return run_episode(backend, item, Mode.INFERENCE, budgets,
                           seed=episode_seed, reward_cfg=reward_cfg)
    if mode == THINKER_FAST:
        transcript = begin_episode(item, Mode.INFERENCE, budgets)
        # the full episode's first request, so both modes share the fast seed
        request = stage_request(transcript, episode_seed)
    else:  # one turn outside the stages: nothing to route
        transcript = Transcript(Mode.INFERENCE, item, budgets, stage=None)
        request = GenerationRequest(
            messages=({"role": "user", "content": render_single_turn_prompt(item)},),
            max_tokens=single_turn_tokens,
            temperature=budgets.temperature,
            seed=derive_seed(episode_seed, SINGLE_TURN),
            stage=None,
            item_id=item.id,
            reference_answer=item.answer,
        )
    try:
        result = backend.generate(request)
    except BackendError as exc:
        transcript.failed = True
        transcript.error = str(exc)
        return transcript
    if mode == THINKER_FAST:
        answer = advance(transcript, result).answers[Stage.FAST_THINKING]
    else:
        transcript.turns.append(Turn(None, request.messages[0]["content"], result.text,
                                     result.token_count, result.finish_reason))
        answer = extract_boxed(result.text)
    transcript.correct = answers_equal(answer, item.answer)
    return transcript


def evaluate(backend: Backend, dataset: Dataset, mode: str, k: int,
             budgets: StageBudgets | None = None, seed: int = 0, *,
             reward_cfg: RewardConfig | None = None,
             vocab: ReflectionVocab | None = None,
             parallelism: int = 1,
             single_turn_tokens: int = 8000) -> BenchmarkReport:
    """Measure pass@1 accuracy over k samples per question.

    Questions whose samples all fail are excluded from accuracy (with a
    warning); individual failures are counted and skipped.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown eval mode {mode!r}; expected one of {EVAL_MODES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    budgets = budgets or StageBudgets()
    reward_cfg = reward_cfg or RewardConfig()
    vocab = vocab or ReflectionVocab()

    specs = [(item, derive_seed(seed, item.id, j)) for item in dataset for j in range(k)]
    samples = run_all(backend, lambda spec: _sample(
        backend, *spec, mode, budgets, reward_cfg, single_turn_tokens), specs, parallelism)

    per_question, p_hats, excluded, usable = [], [], [], []
    for i, item in enumerate(dataset):  # specs are item-major: k samples per question
        good = [t for t in samples[i * k:(i + 1) * k] if not t.failed]
        if not good:
            logger.warning("question %s: all %d samples failed; excluding", item.id, k)
            excluded.append(item.id)
            continue
        usable.extend(good)
        p_hat = fmean(1.0 if t.correct else 0.0 for t in good)
        p_hats.append(p_hat)
        per_question.append({"id": item.id, "accuracy": p_hat, "samples": len(good)})

    if not p_hats:
        raise BackendError("every question failed on all samples")
    mean_stage_tokens, mean_total_tokens = token_means(usable)
    reflections = [sum(count_reflections(turn.response, vocab) for turn in t.turns) for t in usable]
    total_tokens = sum(t.total_tokens for t in usable)
    return BenchmarkReport(
        mode=mode,
        k=k,
        num_questions=len(p_hats),
        per_question=per_question,
        overall_accuracy=fmean(p_hats),
        stderr=standard_error(p_hats) if len(p_hats) >= 2 else None,
        mean_stage_tokens=mean_stage_tokens,
        mean_total_tokens=mean_total_tokens,
        mean_reflections=fmean(reflections),
        reflections_per_1000_tokens=(1000.0 * sum(reflections) / total_tokens) if total_tokens else 0.0,
        failures=len(samples) - len(usable),
        excluded_questions=excluded,
    )
