"""Desk-scale oracle: synthetic arithmetic QA plus closed-form task dynamics.

The analytic formulas predict inference accuracy and expected token usage of
a scripted policy directly from its parameters. Monte Carlo estimates run
real engine episodes (state machine, prompts, extraction, grading) rather
than sampling the formulas, so any transition or grading bug shows up as a
disagreement between the two.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from statistics import fmean, stdev

from .backend import PolicyParams, ScriptedPolicyBackend, derive_seed
from .dataset import Dataset, QAItem
from .rollout import run_episode
from .task import INFERENCE, StageBudgets

_OPS = ("+", "-", "*")


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Integer arithmetic-chain generation settings."""

    n_items: int = 100
    min_operands: int = 3
    max_operands: int = 6
    magnitude: int = 9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be >= 1")
        if not 2 <= self.min_operands <= self.max_operands:
            raise ValueError("operand count range must satisfy 2 <= min <= max")
        if self.magnitude < 1:
            raise ValueError("magnitude must be >= 1")


def _evaluate_chain(operands: list[int], ops: list[str]) -> int:
    # multiplication binds first, then additions/subtractions left to right
    terms = [operands[0]]
    pending: list[str] = []
    for op, operand in zip(ops, operands[1:]):
        if op == "*":
            terms[-1] *= operand
        else:
            terms.append(operand)
            pending.append(op)
    result = terms[0]
    for op, term in zip(pending, terms[1:]):
        result = result + term if op == "+" else result - term
    return result


@dataclass(frozen=True)
class SimEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    n: int

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")


def gen_synthetic(cfg: SyntheticTaskConfig) -> Dataset:
    """Deterministic integer arithmetic questions with exact answers."""
    rng = random.Random(cfg.seed)
    items = []
    for i in range(cfg.n_items):
        count = rng.randint(cfg.min_operands, cfg.max_operands)
        operands = [rng.randint(1, cfg.magnitude) for _ in range(count)]
        ops = [rng.choice(_OPS) for _ in range(count - 1)]
        pieces = [str(operands[0])]
        for op, operand in zip(ops, operands[1:]):
            pieces.extend([op, str(operand)])
        expression = " ".join(pieces)
        answer = _evaluate_chain(operands, ops)
        items.append(QAItem(
            id=f"syn-{i:04d}",
            question=f"Compute {expression}.",
            answer=str(answer),
        ))
    return Dataset(items=tuple(items))


def analytic_accuracy(params: PolicyParams) -> float:
    """Closed-form inference accuracy of the scripted policy.

    Correct answers survive when accepted at verification; every rejection
    (of a right or wrong answer) routes to slow thinking, whose success rate
    then decides.
    """
    accepted_correct = params.p_fast * params.t_p
    rejected_correct = params.p_fast * (1.0 - params.t_p) * params.p_slow
    rejected_wrong = (1.0 - params.p_fast) * params.t_n * params.p_slow
    return accepted_correct + rejected_correct + rejected_wrong


def rejection_rate(params: PolicyParams) -> float:
    """Probability verification answers No, i.e. the slow stage runs."""
    return params.p_fast * (1.0 - params.t_p) + (1.0 - params.p_fast) * params.t_n


def analytic_expected_tokens(params: PolicyParams, budgets: StageBudgets | None = None) -> float:
    """Expected inference tokens: fast + verify always, slow when rejected.

    Stage lengths are the policy's own response lengths, clamped to the
    stage budgets, matching truncation in the engine.
    """
    budgets = budgets or StageBudgets()
    fast = min(params.fast_tokens, budgets.fast_tokens)
    verify = min(params.verify_tokens, budgets.verify_tokens)
    slow = min(params.slow_tokens, budgets.slow_tokens)
    return fast + verify + rejection_rate(params) * slow


def _estimate(values: list[float]) -> SimEstimate:
    n = len(values)
    spread = stdev(values) if n > 1 else 0.0
    return SimEstimate(value=fmean(values), stderr=spread / n ** 0.5, n=n)


def monte_carlo(params: PolicyParams, n_episodes: int, seed: int,
                budgets: StageBudgets | None = None,
                dataset: Dataset | None = None) -> tuple[SimEstimate, SimEstimate]:
    """Estimate (accuracy, total tokens) from n full engine episodes.

    Episode seeds depend only on (seed, episode index): runs with the same
    seed share randomness across parameter settings, which keeps parameter
    sweeps exactly monotone where the dynamics are.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if dataset is None:
        dataset = gen_synthetic(SyntheticTaskConfig(
            n_items=min(n_episodes, 128), seed=derive_seed(seed, "synthetic-items")))
    items = dataset.items
    if not items:
        raise ValueError("monte_carlo needs a nonempty dataset")
    backend = ScriptedPolicyBackend(params)
    correct, tokens = [], []
    for i in range(n_episodes):
        transcript = run_episode(
            backend, items[i % len(items)], INFERENCE,
            budgets=budgets, seed=derive_seed(seed, "mc-episode", i))
        if transcript.failed:
            continue
        correct.append(1.0 if transcript.correct else 0.0)
        tokens.append(float(transcript.total_tokens))
    return _estimate(correct), _estimate(tokens)


def sweep(param_name: str, values: list[float], base: PolicyParams,
          n_episodes: int, seed: int,
          budgets: StageBudgets | None = None) -> list[dict]:
    """Analytic and Monte Carlo estimates along one parameter axis.

    Returns one row per value with both predictions and both estimates,
    ready for columnar output. Every value is checked before the first
    estimate runs; integer parameters take whole numbers only.
    """
    if param_name not in {f.name for f in fields(PolicyParams)}:
        raise ValueError(f"unknown policy parameter {param_name!r}")
    if isinstance(getattr(base, param_name), int):
        if any(value != int(value) for value in values):
            raise ValueError(f"{param_name} takes whole numbers only")
        values = [int(value) for value in values]
    settings = [PolicyParams(**{**asdict(base), param_name: value}) for value in values]
    rows = []
    for value, params in zip(values, settings):
        acc, tok = monte_carlo(params, n_episodes, seed, budgets=budgets)
        rows.append({
            param_name: value,
            "analytic_accuracy": analytic_accuracy(params),
            "mc_accuracy": acc.value,
            "mc_accuracy_se": acc.stderr,
            "analytic_tokens": analytic_expected_tokens(params, budgets),
            "mc_tokens": tok.value,
            "mc_tokens_se": tok.stderr,
            "episodes": acc.n,
        })
    return rows
