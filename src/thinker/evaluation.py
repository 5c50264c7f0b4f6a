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
from dataclasses import dataclass, field
from statistics import fmean, variance

from .backend import Backend, GenerationRequest, derive_seed
from .dataset import Dataset
from .errors import BackendError
from .grading import answers_equal, extract_boxed
from .rewards import RewardConfig
from .rollout import run_all, run_episode, stage_request
from .task import Mode, Stage, StageBudgets, advance, begin_episode, render_single_turn_prompt

logger = logging.getLogger("thinker.eval")

THINKER = "thinker"
THINKER_FAST = "thinker_fast"
SINGLE_TURN = "single_turn"
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
        return {
            "schema_version": 1,
            "mode": self.mode,
            "k": self.k,
            "num_questions": self.num_questions,
            "overall_accuracy": self.overall_accuracy,
            "stderr": self.stderr,
            "mean_stage_tokens": self.mean_stage_tokens,
            "mean_total_tokens": self.mean_total_tokens,
            "mean_reflections": self.mean_reflections,
            "reflections_per_1000_tokens": self.reflections_per_1000_tokens,
            "failures": self.failures,
            "excluded_questions": list(self.excluded_questions),
            "per_question": self.per_question,
        }

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


def _sample(backend, item, mode, budgets, reward_cfg, single_turn_tokens, episode_seed):
    """One sample: its correctness and (stage key, tokens, response) per
    turn. A failed sample raises BackendError."""
    if mode == THINKER:
        transcript = run_episode(backend, item, Mode.INFERENCE, budgets,
                                 seed=episode_seed, reward_cfg=reward_cfg)
        if transcript.failed:
            raise BackendError(transcript.error)
        return transcript.correct, [(t.stage.key, t.token_count, t.response) for t in transcript.turns]
    if mode == THINKER_FAST:
        # the full episode's first request, so both modes share the fast seed
        state = begin_episode(item, Mode.INFERENCE, budgets)
        advance(state, backend.generate(stage_request(state, episode_seed)))
        turn = state.turns[0]
        correct = answers_equal(state.answers[Stage.FAST_THINKING], item.answer)
        return correct, [(Stage.FAST_THINKING.key, turn.token_count, turn.response)]
    request = GenerationRequest(
        messages=({"role": "user", "content": render_single_turn_prompt(item)},),
        max_tokens=single_turn_tokens,
        temperature=budgets.temperature,
        seed=derive_seed(episode_seed, SINGLE_TURN),
        stage=None,
        item_id=item.id,
        reference_answer=item.answer,
    )
    result = backend.generate(request)
    correct = answers_equal(extract_boxed(result.text), item.answer)
    return correct, [(SINGLE_TURN, result.token_count, result.text)]


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

    def _one(spec):
        """(correct, [(stage key, tokens)], reflections), or None on failure."""
        item, j = spec
        try:
            correct, turns = _sample(backend, item, mode, budgets, reward_cfg,
                                     single_turn_tokens, derive_seed(seed, item.id, j))
        except BackendError:
            return None
        reflections = sum(count_reflections(text, vocab) for _, _, text in turns)
        return correct, [(key, tokens) for key, tokens, _ in turns], reflections

    specs = [(item, j) for item in dataset for j in range(k)]
    outcomes = run_all(backend, _one, specs, parallelism)
    by_question: dict[str, list] = {}
    for (item, _), outcome in zip(specs, outcomes):
        by_question.setdefault(item.id, []).append(outcome)

    per_question, p_hats, excluded = [], [], []
    failures = 0
    usable = []
    for item in dataset:
        samples = by_question[item.id]
        good = [s for s in samples if s is not None]
        failures += len(samples) - len(good)
        if not good:
            logger.warning("question %s: all %d samples failed; excluding", item.id, len(samples))
            excluded.append(item.id)
            continue
        usable.extend(good)
        p_hat = fmean(1.0 if correct else 0.0 for correct, _, _ in good)
        p_hats.append(p_hat)
        per_question.append({"id": item.id, "accuracy": p_hat, "samples": len(good)})

    if not p_hats:
        raise BackendError("every question failed on all samples")
    stage_tokens: dict[str, list[int]] = {}
    sample_tokens = []
    for _, turns, _ in usable:
        for key, tokens in turns:
            stage_tokens.setdefault(key, []).append(tokens)
        sample_tokens.append(sum(tokens for _, tokens in turns))
    total_tokens = sum(sample_tokens)
    total_reflections = sum(reflections for _, _, reflections in usable)
    return BenchmarkReport(
        mode=mode,
        k=k,
        num_questions=len(p_hats),
        per_question=per_question,
        overall_accuracy=fmean(p_hats),
        stderr=standard_error(p_hats) if len(p_hats) >= 2 else None,
        mean_stage_tokens={key: fmean(v) for key, v in stage_tokens.items()},
        mean_total_tokens=fmean(sample_tokens),
        mean_reflections=fmean(reflections for _, _, reflections in usable),
        reflections_per_1000_tokens=(1000.0 * total_reflections / total_tokens) if total_tokens else 0.0,
        failures=failures,
        excluded_questions=excluded,
    )
