"""Stage reward functions and the trailing fast-accuracy statistic.

Fast and slow thinking earn binary correctness indicators. Verification is
class-balanced: confirming a correct answer pays (1 - p) and rejecting a
wrong one pays p, where p is the trailing accuracy of the fast stage, so
neither always-Yes nor always-No dominates. Summarization pays a match
indicator against the slow answer plus a scaled log-probability consistency
term, gated to zero below a minimum length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import fmean

from .grading import NO, YES, ExtractedAnswer, Verdict, answers_equal

BATCH_MEAN = "batch_mean"
EMA = "ema"


@dataclass(frozen=True)
class TrailingConfig:
    """How the trailing fast accuracy is estimated.

    batch_mean uses the current rollout batch's mean fast reward, falling
    back to an EMA when the batch is too small for a stable mean; ema always
    blends into the running estimate.
    """

    estimator: str = BATCH_MEAN
    ema_decay: float = 0.9
    min_batch_for_mean: int = 8

    def __post_init__(self) -> None:
        if self.estimator not in (BATCH_MEAN, EMA):
            raise ValueError(f"unknown trailing estimator {self.estimator!r}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1)")
        if self.min_batch_for_mean < 1:
            raise ValueError("min_batch_for_mean must be >= 1")


@dataclass(frozen=True)
class RewardConfig:
    """Reward hyperparameters; defaults match the experiment settings."""

    logprob_coef: float = 1e-3
    min_summary_tokens: int = 300
    logprob_per_token_mean: bool = False
    trailing: TrailingConfig = field(default_factory=TrailingConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.logprob_coef < math.inf:  # NaN included
            raise ValueError("logprob_coef must be finite and >= 0")
        if self.min_summary_tokens < 0:
            raise ValueError("min_summary_tokens must be >= 0")


@dataclass(frozen=True)
class TrailingAccuracy:
    """Running estimate of the fast stage's accuracy, in [0, 1].

    Starts at 0.5 (uninformative) before any observations.
    """

    p: float = 0.5
    count: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("trailing accuracy must be in [0, 1]")


def reward_fast(answer: ExtractedAnswer | str | None, truth: str) -> float:
    """1 when the answer matches the ground truth, else 0 (absent -> 0).
    Scores both answer stages: reward_slow is this function."""
    return 1.0 if answers_equal(answer, truth) else 0.0


reward_slow = reward_fast


def reward_verify(fast_correct: bool, verdict: Verdict, tracker: TrailingAccuracy | float) -> float:
    """Class-balanced verification reward.

    (1 - p) for a correct Yes on a correct fast answer, p for a correct No
    on a wrong one; everything else, including malformed verdicts, earns 0.
    """
    p = tracker.p if isinstance(tracker, TrailingAccuracy) else float(tracker)
    if not 0.0 <= p <= 1.0:
        raise ValueError("trailing accuracy must be in [0, 1]")
    if fast_correct:
        return (1.0 - p) if verdict is YES else 0.0
    return p if verdict is NO else 0.0


def reward_summary(summary_answer: ExtractedAnswer | str | None,
                   slow_answer: ExtractedAnswer | str | None,
                   logprob_sum: float,
                   response_tokens: int,
                   cfg: RewardConfig) -> float:
    """Match indicator against the slow answer plus the scaled log-probability
    of the summary under the fast-thinking prompt; 0 when shorter than the
    minimum length.

    logprob_sum is the sum of token log-probabilities, finite and <= 0; with
    cfg.logprob_per_token_mean it is averaged over tokens before scaling.
    """
    if not -math.inf < logprob_sum <= 0:  # NaN fails too
        raise ValueError("logprob_sum must be finite and <= 0 (sum of log-probabilities)")
    if response_tokens < cfg.min_summary_tokens:
        return 0.0
    match = 1.0 if answers_equal(summary_answer, slow_answer) else 0.0
    term = logprob_sum
    if cfg.logprob_per_token_mean and response_tokens > 0:
        term = logprob_sum / response_tokens
    return match + cfg.logprob_coef * term


def update_trailing(tracker: TrailingAccuracy,
                    batch_fast_rewards: list[float],
                    cfg: TrailingConfig | RewardConfig) -> TrailingAccuracy:
    """Fold one batch of fast rewards into the trailing-accuracy estimate.

    Returns a new tracker; the caller owns when the update happens (one
    barrier per batch).
    """
    if isinstance(cfg, RewardConfig):
        cfg = cfg.trailing
    if not batch_fast_rewards:
        raise ValueError("cannot update trailing accuracy from an empty batch")
    batch_mean = fmean(batch_fast_rewards)
    if cfg.estimator == BATCH_MEAN and len(batch_fast_rewards) >= cfg.min_batch_for_mean:
        p = batch_mean
    else:
        p = cfg.ema_decay * tracker.p + (1.0 - cfg.ema_decay) * batch_mean
    return TrailingAccuracy(p=p, count=tracker.count + len(batch_fast_rewards))
