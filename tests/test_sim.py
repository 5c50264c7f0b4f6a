import itertools
from statistics import fmean, stdev

import pytest

from thinker import Mode, RewardConfig, ScriptedPolicyBackend, Stage, run_batch
from thinker.backend import PolicyParams
from thinker.dataset import Dataset
from thinker.grading import extract_boxed
from thinker.rewards import reward_fast
from thinker.sim import (
    SimEstimate,
    SyntheticTaskConfig,
    analytic_accuracy,
    analytic_expected_tokens,
    gen_synthetic,
    monte_carlo,
    rejection_rate,
    sweep,
)
from thinker.task import StageBudgets


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticTaskConfig(n_items=3, seed=1)
        a, b = gen_synthetic(cfg), gen_synthetic(cfg)
        assert a.items == b.items
        assert len(a) == 3

    def test_operand_constraints(self):
        cfg = SyntheticTaskConfig(n_items=50, min_operands=3, max_operands=3, magnitude=9, seed=4)
        for item in gen_synthetic(cfg):
            numbers = [tok for tok in item.question.removeprefix("Compute ").rstrip(".").split()
                       if tok not in "+-*"]
            assert len(numbers) == 3
            assert all(1 <= int(n) <= 9 for n in numbers)

    def test_answers_are_exact_integers(self):
        for item in gen_synthetic(SyntheticTaskConfig(n_items=30, seed=7)):
            int(item.answer)  # raises if not an integer string

    def test_grading_own_answer_scores_one(self):
        for item in gen_synthetic(SyntheticTaskConfig(n_items=10, seed=2)):
            boxed = extract_boxed(f"so \\boxed{{{item.answer}}}")
            assert reward_fast(boxed, item.answer) == 1.0

    def test_precedence_is_standard(self):
        # spot-check a couple of hand-evaluated questions
        ds = gen_synthetic(SyntheticTaskConfig(n_items=100, seed=5))
        for item in ds:
            expr = item.question.removeprefix("Compute ").rstrip(".")
            assert int(item.answer) == eval(expr)  # trusted arithmetic oracle

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTaskConfig(n_items=0)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(min_operands=5, max_operands=3)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(magnitude=0)


class TestAnalyticAccuracy:
    def test_balanced_example(self):
        params = PolicyParams(p_fast=0.5, t_p=1.0, t_n=1.0, p_slow=0.5)
        assert analytic_accuracy(params) == pytest.approx(0.75)

    def test_accept_everything_collapses_to_p_fast(self):
        for p_slow in (0.0, 0.5, 1.0):
            params = PolicyParams(p_fast=0.3, t_p=1.0, t_n=0.0, p_slow=p_slow)
            assert analytic_accuracy(params) == pytest.approx(0.3)

    def test_perfect_recovery(self):
        params = PolicyParams(p_fast=0.0, t_n=1.0, p_slow=1.0)
        assert analytic_accuracy(params) == pytest.approx(1.0)

    def test_monotone_in_each_parameter(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for name in ("p_fast", "t_p", "t_n", "p_slow"):
            for base in itertools.product([0.2, 0.8], repeat=3):
                others = dict(zip(
                    [n for n in ("p_fast", "t_p", "t_n", "p_slow") if n != name], base))
                values = [analytic_accuracy(PolicyParams(**{name: v}, **others)) for v in grid]
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestAnalyticTokens:
    def test_never_rejects_skips_slow(self):
        params = PolicyParams(t_p=1.0, t_n=0.0)
        expected = params.fast_tokens + params.verify_tokens
        assert analytic_expected_tokens(params) == pytest.approx(expected)

    def test_always_rejects_includes_slow(self):
        params = PolicyParams(t_p=0.0, t_n=1.0)
        expected = params.fast_tokens + params.verify_tokens + params.slow_tokens
        assert analytic_expected_tokens(params) == pytest.approx(expected)

    def test_worked_example(self):
        params = PolicyParams(p_fast=0.5, t_p=1.0, t_n=1.0,
                              fast_tokens=600, verify_tokens=400, slow_tokens=3000)
        value = analytic_expected_tokens(params, StageBudgets())
        assert value == pytest.approx(600 + 400 + 0.5 * 3000)

    def test_budget_clamps_lengths(self):
        params = PolicyParams(t_p=0.0, t_n=1.0,
                              fast_tokens=600, verify_tokens=400, slow_tokens=3000)
        budgets = StageBudgets(fast_tokens=100, verify_tokens=100, slow_tokens=100)
        value = analytic_expected_tokens(params, budgets)
        assert value == pytest.approx(300)

    def test_nonincreasing_in_t_p(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for p_fast in (0.2, 0.5, 0.9):
            values = [analytic_expected_tokens(PolicyParams(p_fast=p_fast, t_p=t_p, t_n=0.7))
                      for t_p in grid]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_rejection_rate(self):
        params = PolicyParams(p_fast=0.5, t_p=1.0, t_n=1.0)
        assert rejection_rate(params) == pytest.approx(0.5)


class TestMonteCarlo:
    def test_fixed_seed_reproducible(self):
        params = PolicyParams(p_fast=0.4, t_p=0.7, t_n=0.7, p_slow=0.6)
        first = monte_carlo(params, 500, seed=13)
        second = monte_carlo(params, 500, seed=13)
        assert first == second

    def test_degenerate_params_exact(self):
        accept_all = PolicyParams(p_fast=1.0, t_p=1.0)
        acc, tokens = monte_carlo(accept_all, 200, seed=1)
        assert acc == SimEstimate(value=1.0, stderr=0.0, n=200)
        assert tokens.value == accept_all.fast_tokens + accept_all.verify_tokens
        assert tokens.stderr == 0.0

        recover_all = PolicyParams(p_fast=0.0, t_n=1.0, p_slow=1.0)
        acc, tokens = monte_carlo(recover_all, 200, seed=1)
        assert acc.value == 1.0
        assert tokens.value == (recover_all.fast_tokens + recover_all.verify_tokens
                                + recover_all.slow_tokens)

    def test_agrees_with_analytic(self):
        for draw_seed in (101, 202):
            import random as _random
            rng = _random.Random(draw_seed)
            params = PolicyParams(
                p_fast=rng.uniform(0.1, 0.9), t_p=rng.uniform(0.1, 0.9),
                t_n=rng.uniform(0.1, 0.9), p_slow=rng.uniform(0.1, 0.9))
            acc, tokens = monte_carlo(params, 3000, seed=draw_seed)
            assert abs(acc.value - analytic_accuracy(params)) <= 3 * acc.stderr
            assert abs(tokens.value - analytic_expected_tokens(params)) <= 3 * tokens.stderr

    def test_validates_n(self):
        with pytest.raises(ValueError):
            monte_carlo(PolicyParams(), 0, seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            monte_carlo(PolicyParams(), 10, seed=0, dataset=Dataset(items=()))

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            SimEstimate(value=1.0, stderr=-0.1, n=5)


class TestSweep:
    def test_rows_cover_values_and_match_analytic(self):
        base = PolicyParams(t_p=1.0, t_n=1.0, p_slow=0.5)
        rows = sweep("p_fast", [0.0, 0.5, 1.0], base, n_episodes=300, seed=3)
        assert [row["p_fast"] for row in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            params = PolicyParams(p_fast=row["p_fast"], t_p=1.0, t_n=1.0, p_slow=0.5)
            assert row["analytic_accuracy"] == pytest.approx(analytic_accuracy(params))
            assert row["episodes"] == 300

    def test_shared_seed_makes_token_sweep_exactly_monotone(self):
        base = PolicyParams(t_p=1.0, t_n=1.0, p_slow=0.5)
        rows = sweep("p_fast", [0.0, 0.25, 0.5, 0.75, 1.0], base, n_episodes=400, seed=8)
        tokens = [row["mc_tokens"] for row in rows]
        assert all(a >= b for a, b in zip(tokens, tokens[1:]))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep("p_magic", [0.1], PolicyParams(), 10, seed=0)


class TestTrainingOracle:
    """Training mode's per-stage visit rates and mean rewards against their
    closed form, through run_batch on the scripted policy.

    With n episodes in a batch and p the batch's fast accuracy, an episode's
    verification reward has mean
    p_fast*t_p*(1 - E[p | fast correct]) + (1 - p_fast)*t_n*E[p | fast wrong],
    where E[p | fast correct] = (1 + (n-1)*p_fast)/n and
    E[p | fast wrong] = (n-1)*p_fast/n. Each statistic is a mean of
    per-batch values, so its standard error covers the correlation that the
    shared p brings within a batch.
    """

    BATCHES, PROMPTS, SAMPLES = 100, 16, 4

    @pytest.mark.parametrize("p_fast,t_p,t_n,p_slow", [(0.4, 0.8, 0.6, 0.7), (0.7, 0.9, 0.5, 0.4)])
    def test_stage_rates_and_rewards_match_closed_form(self, p_fast, t_p, t_n, p_slow):
        params = PolicyParams(p_fast=p_fast, t_p=t_p, t_n=t_n, p_slow=p_slow)
        cfg = RewardConfig()
        backend = ScriptedPolicyBackend(params)
        items = gen_synthetic(SyntheticTaskConfig(n_items=self.PROMPTS, seed=5)).items
        n = self.PROMPTS * self.SAMPLES
        p_if_correct, p_if_wrong = (1 + (n - 1) * p_fast) / n, (n - 1) * p_fast / n
        expected = {
            "fast reward": p_fast,
            "verify reward": p_fast * t_p * (1 - p_if_correct) + (1 - p_fast) * t_n * p_if_wrong,
            "slow visits": 1 - p_fast,
            "slow reward": p_slow,
            "summary visits": (1 - p_fast) * p_slow,
        }
        per_batch = {name: [] for name in expected}
        summary_rewards = set()
        for b in range(self.BATCHES):
            batch = run_batch(backend, items, Mode.TRAINING, seed=b, samples_per_prompt=self.SAMPLES,
                              reward_cfg=cfg)
            assert batch.failures == 0 and len(batch.transcripts) == n
            rewards = [t.rewards for t in batch.transcripts]
            slow = [r.slow for r in rewards if r.slow is not None]
            summaries = [r.summary for r in rewards if r.summary is not None]
            # every training episode verifies, and the summary is visited only after slow thinking
            assert all(r.fast is not None and r.verify is not None for r in rewards)
            assert len(slow) == sum(Stage.SLOW_THINKING in t.answers for t in batch.transcripts)
            assert len(summaries) == sum(Stage.SUMMARIZATION in t.answers for t in batch.transcripts)
            per_batch["fast reward"].append(fmean(r.fast for r in rewards))
            per_batch["verify reward"].append(fmean(r.verify for r in rewards))
            per_batch["slow visits"].append(len(slow) / n)
            per_batch["slow reward"].append(fmean(slow))
            per_batch["summary visits"].append(len(summaries) / n)
            summary_rewards.update(summaries)
        z = {name: (fmean(values) - expected[name]) / (stdev(values) / len(values) ** 0.5)
             for name, values in per_batch.items()}
        assert all(abs(score) < 4 for score in z.values()), z
        # every scripted summary matches the slow answer and has the same length
        assert summary_rewards == {1 + cfg.logprob_coef * (params.logprob_per_token * params.summary_tokens)}
