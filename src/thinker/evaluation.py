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
# GenerationRequest, answers_equal, extract_boxed and advance are unused here, but
# the benchmark's tracer (benchmarks/tracing.py) patches evaluation's binding of each
from .grading import answers_equal, extract_boxed
from .rewards import RewardConfig
from .rollout import record_failure, run_all, run_episode, stage_request, token_means
from .task import (FAST, INFERENCE, SINGLE_TURN, StageBudgets, Transcript, advance, begin_episode,
                   end_episode, record_turn)

logger = logging.getLogger("thinker.eval")

THINKER = "thinker"
THINKER_FAST = "thinker_fast"
EVAL_MODES = (THINKER, THINKER_FAST, SINGLE_TURN)
SINGLE_TURN_TOKENS = 8000  # the one-shot baseline's token budget


@dataclass(frozen=True)
class ReflectionVocab:
    """Self-reflection marker words counted in responses (whole word,
    case-insensitive), each beginning and ending with a word character."""

    terms: tuple[str, ...] = ("wait", "however", "alternatively")
    pattern: re.Pattern = field(init=False, repr=False, compare=False)  # compiled from terms

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("reflection vocabulary must be nonempty")
        for term in self.terms:
            if not re.fullmatch(r"\w(?:.*\w)?", term, re.DOTALL):
                raise ValueError(f"reflection term {term!r} must begin and end with a word character")
        alternation = "|".join(re.escape(t) for t in self.terms)
        object.__setattr__(self, "pattern", re.compile(rf"\b(?:{alternation})\b", re.IGNORECASE))


_DEFAULT_VOCAB = ReflectionVocab()  # frozen, so every call without a vocabulary shares it


def count_reflections(text: str, vocab: ReflectionVocab = _DEFAULT_VOCAB) -> int:
    """Whole-word, case-insensitive occurrences of any reflection term."""
    return len(vocab.pattern.findall(text))


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
    # pass@1 over every question with failed samples counted wrong; set only
    # when a sample failed, so a failure-free report keeps its bytes
    accuracy_failures_as_wrong: float | None = None

    def to_dict(self) -> dict:
        record = {"schema_version": 1, **asdict(self)}
        if self.accuracy_failures_as_wrong is None:
            del record["accuracy_failures_as_wrong"]
        return record

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
            lines.append(f"failed samples: {self.failures}"
                         f"   pass@1 counting them wrong: {100 * self.accuracy_failures_as_wrong:.2f}%")
        if self.excluded_questions:
            lines.append(f"excluded questions: {', '.join(self.excluded_questions)}")
        return "\n".join(lines)


def _sample(backend, item, episode_seed, mode, budgets, reward_cfg, single_turn_tokens) -> Transcript:
    """One graded sample. A backend failure marks it failed, as in run_episode."""
    if mode == THINKER:
        return run_episode(backend, item, INFERENCE, budgets,
                           seed=episode_seed, reward_cfg=reward_cfg)
    # thinker-fast sends the full episode's first request, so both modes share
    # the fast seed; single-turn sends one turn outside the stages
    stage = FAST if mode == THINKER_FAST else None
    transcript = begin_episode(item, INFERENCE, budgets, stage, seed=episode_seed, backend_id=backend.name)
    try:
        result = backend.generate(stage_request(transcript, single_turn_tokens))
    except BackendError as exc:
        record_failure(transcript, exc)
        return transcript
    # one turn, then terminal, without rendering the verification prompt
    record_turn(transcript, result)
    end_episode(transcript, stage)
    return transcript


def evaluate(backend: Backend, dataset: Dataset, mode: str, k: int,
             budgets: StageBudgets | None = None, seed: int = 0, *,
             reward_cfg: RewardConfig | None = None,
             vocab: ReflectionVocab = _DEFAULT_VOCAB,
             parallelism: int = 1,
             single_turn_tokens: int = SINGLE_TURN_TOKENS) -> BenchmarkReport:
    """Measure pass@1 accuracy over k samples per question.

    Questions whose samples all fail are excluded from accuracy (with a
    warning); individual failures are counted and skipped, and token means
    cover finished samples only. A report with failures also gives the
    accuracy with each failure counted wrong.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown eval mode {mode!r}; expected one of {EVAL_MODES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")

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
    failures = len(samples) - len(usable)
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
        failures=failures,
        excluded_questions=excluded,
        # every question has k samples, so this is the mean of per-question shares
        accuracy_failures_as_wrong=(sum(1 for t in usable if t.correct) / len(samples)
                                    if failures else None),
    )
