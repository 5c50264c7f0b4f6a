import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinker.grading import ExtractedAnswer, Verdict
from thinker.rewards import (
    RewardConfig,
    TrailingAccuracy,
    TrailingConfig,
    reward_fast,
    reward_slow,
    reward_summary,
    reward_verify,
    update_trailing,
)


class TestBinaryRewards:
    def test_fast_correct(self):
        assert reward_fast(ExtractedAnswer.from_raw("7"), "7") == 1.0

    def test_fast_wrong(self):
        assert reward_fast(ExtractedAnswer.from_raw("8"), "7") == 0.0

    def test_fast_absent(self):
        assert reward_fast(None, "7") == 0.0

    def test_fast_numeric_equivalence(self):
        assert reward_fast("0.5", "1/2") == 1.0

    def test_slow_mirror(self):
        assert reward_slow("7", "7") == 1.0
        assert reward_slow("8", "7") == 0.0
        assert reward_slow(None, "7") == 0.0

    def test_one_rule_for_both_answer_stages(self):
        assert reward_slow is reward_fast


class TestVerifyReward:
    def test_correct_yes(self):
        assert reward_verify(True, Verdict.YES, 0.7) == pytest.approx(0.3)

    def test_incorrect_no(self):
        assert reward_verify(False, Verdict.NO, 0.7) == pytest.approx(0.7)

    def test_correct_no_is_zero(self):
        for p in (0.0, 0.3, 1.0):
            assert reward_verify(True, Verdict.NO, p) == 0.0

    def test_incorrect_yes_is_zero(self):
        assert reward_verify(False, Verdict.YES, 0.2) == 0.0

    def test_malformed_never_positive(self):
        assert reward_verify(True, Verdict.MALFORMED, 0.5) == 0.0
        assert reward_verify(False, Verdict.MALFORMED, 0.5) == 0.0

    def test_accepts_tracker(self):
        assert reward_verify(True, Verdict.YES, TrailingAccuracy(p=0.25)) == pytest.approx(0.75)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            reward_verify(True, Verdict.YES, 1.5)

    @given(st.booleans(), st.sampled_from(list(Verdict)), st.floats(0, 1))
    @settings(max_examples=300)
    def test_bounded_by_class_weight(self, fast_correct, verdict, p):
        r = reward_verify(fast_correct, verdict, p)
        assert 0.0 <= r <= max(p, 1.0 - p) <= 1.0


class TestSummaryReward:
    CFG = RewardConfig()

    def test_match_with_penalty(self):
        assert reward_summary("7", "7", -200.0, 350, self.CFG) == pytest.approx(0.8)

    def test_gated_below_min_tokens(self):
        assert reward_summary("7", "7", -200.0, 120, self.CFG) == 0.0

    def test_mismatch_goes_negative(self):
        assert reward_summary("8", "7", -100.0, 400, self.CFG) == pytest.approx(-0.1)

    def test_gate_boundary_exact(self):
        cfg = RewardConfig()
        assert reward_summary("7", "7", 0.0, 299, cfg) == 0.0
        assert reward_summary("7", "7", 0.0, 300, cfg) == 1.0

    def test_absent_summary_answer(self):
        assert reward_summary(None, "7", -100.0, 400, self.CFG) == pytest.approx(-0.1)

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            reward_summary("7", "7", 1.0, 400, self.CFG)

    @pytest.mark.parametrize("logprob", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_logprob_rejected(self, logprob):
        with pytest.raises(ValueError):
            reward_summary("7", "7", logprob, 400, self.CFG)

    def test_per_token_mean_variant(self):
        cfg = RewardConfig(logprob_per_token_mean=True)
        assert reward_summary("7", "7", -200.0, 400, cfg) == pytest.approx(1.0 - 1e-3 * 0.5)

    @given(st.integers(0, 600), st.floats(-500, 0))
    @settings(max_examples=300)
    def test_step_function_at_threshold(self, tokens, logprob):
        cfg = RewardConfig()
        r = reward_summary("7", "7", logprob, tokens, cfg)
        if tokens < cfg.min_summary_tokens:
            assert r == 0.0
        else:
            assert r == pytest.approx(1.0 + cfg.logprob_coef * logprob)


class TestTrailing:
    def test_fresh_tracker_starts_at_half(self):
        assert TrailingAccuracy() == TrailingAccuracy(p=0.5, count=0)

    def test_batch_mean(self):
        tracker = update_trailing(TrailingAccuracy(), [1, 0, 1, 1] * 2, TrailingConfig())
        assert tracker.p == pytest.approx(0.75)
        assert tracker.count == 8

    def test_small_batch_falls_back_to_ema(self):
        tracker = update_trailing(TrailingAccuracy(p=0.5), [1.0, 1.0], TrailingConfig())
        assert tracker.p == pytest.approx(0.9 * 0.5 + 0.1 * 1.0)

    def test_pure_ema_estimator(self):
        cfg = TrailingConfig(estimator="ema", ema_decay=0.8)
        tracker = update_trailing(TrailingAccuracy(p=0.4), [1.0] * 100, cfg)
        assert tracker.p == pytest.approx(0.8 * 0.4 + 0.2 * 1.0)

    def test_accepts_reward_config(self):
        tracker = update_trailing(TrailingAccuracy(), [1.0] * 8, RewardConfig())
        assert tracker.p == 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            update_trailing(TrailingAccuracy(), [], TrailingConfig())

    def test_chained_counts(self):
        t = TrailingAccuracy()
        t = update_trailing(t, [1.0] * 8, TrailingConfig())
        t = update_trailing(t, [0.0] * 8, TrailingConfig())
        assert t.count == 16
        assert t.p == 0.0

    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=40),
           st.floats(0, 1))
    @settings(max_examples=200)
    def test_p_stays_in_unit_interval(self, batch, p0):
        tracker = update_trailing(TrailingAccuracy(p=p0), batch, TrailingConfig())
        assert 0.0 <= tracker.p <= 1.0


def test_defaults_match_experiment_values():
    cfg = RewardConfig()
    assert cfg.logprob_coef == pytest.approx(1e-3)
    assert cfg.min_summary_tokens == 300
    assert cfg.trailing.ema_decay == pytest.approx(0.9)
    assert cfg.trailing.min_batch_for_mean == 8


def test_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(logprob_coef=-0.1)
    with pytest.raises(ValueError):
        RewardConfig(min_summary_tokens=-1)
    with pytest.raises(ValueError):
        TrailingConfig(estimator="median")
    with pytest.raises(ValueError):
        TrailingConfig(ema_decay=1.0)
