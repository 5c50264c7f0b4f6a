import random
import threading
import tracemalloc
from array import array
from functools import partial
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinker import evaluation
from thinker.backend import PolicyParams, ScriptedPolicyBackend, count_tokens, wrong_answer
from thinker.cli import write_transcripts
from thinker.dataset import Dataset, QAItem
from thinker.errors import BackendError
from thinker.grading import ExtractedAnswer
from thinker.rewards import RewardConfig, TrailingAccuracy, TrailingConfig, update_trailing
from thinker.rollout import (
    Trajectory,
    compute_gae,
    compute_stage_returns,
    per_token_rewards,
    run_batch,
    run_episode,
    stage_request,
)
from thinker.sim import SyntheticTaskConfig, gen_synthetic
from thinker.task import FAST, RESPONSE_SEED, SLOW, Mode, Stage, StageBudgets, Transcript, Turn, render_prompt

from conftest import fixture_map
from mock_backend import (MockBackend, PooledScriptedBackend, RecordingScriptedBackend,
                          SlowStageFailingBackend)


def brute_force_gae(rewards, values, boundaries, gamma=1.0, lam=1.0):
    """O(T^2) oracle: evaluates the advantage series definition directly,
    recomputing every delta for every position."""
    advantages = [0.0] * len(rewards)
    start = 0
    for end in boundaries:
        for t in range(start, end):
            acc = 0.0
            for u in range(end - 1, t - 1, -1):
                next_value = values[u + 1] if u + 1 < end else 0.0
                delta = rewards[u] + gamma * next_value - values[u]
                acc = delta + gamma * lam * acc
            advantages[t] = acc
        start = end
    return advantages


# signed zeros, infinities and magnitudes up to 1e12, where rounding differs
# by operand order
_GAE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf")]),
                        st.floats(-1e12, 1e12, allow_nan=False))


@st.composite
def gae_case(draw):
    """A dense reward stream (any token may carry reward), values and boundaries."""
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    total = sum(counts)
    rewards = draw(st.lists(_GAE_FLOATS, min_size=total, max_size=total))
    values = draw(st.lists(_GAE_FLOATS, min_size=total, max_size=total))
    return rewards, values, tuple(accumulate(counts))


@pytest.fixture
def item():
    return QAItem(id="q1", question="Compute 3 + 4.", answer="7")


class TestRunEpisode:
    def test_training_correct_fast_two_turns(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=1.0))
        t = run_episode(backend, item, Mode.TRAINING, seed=1)
        assert [x.stage.key for x in t.turns] == ["fast_thinking", "verification"]
        assert t.final_answer.raw == "7"
        assert t.correct
        assert t.rewards.fast == 1.0
        assert t.rewards.slow is None and t.rewards.summary is None

    def test_training_full_four_stages(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.0, t_n=1.0, p_slow=1.0))
        t = run_episode(backend, item, Mode.TRAINING, seed=1)
        assert [x.stage.key for x in t.turns] == [
            "fast_thinking", "verification", "slow_thinking", "summarization"]
        assert t.correct
        assert t.rewards.fast == 0.0
        assert t.rewards.slow == 1.0
        assert t.rewards.summary is not None

    def test_inference_accepts_wrong_fast(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.0, t_n=0.0))
        t = run_episode(backend, item, Mode.INFERENCE, seed=1)
        assert len(t.turns) == 2
        assert t.final_answer.raw == "8"
        assert not t.correct

    def test_summary_logprob_scored_against_fast_prompt(self, item):
        class PromptRecordingBackend(ScriptedPolicyBackend):
            def score_logprob(self, prompt_messages, completion_text):
                prompts.append(prompt_messages)
                return super().score_logprob(prompt_messages, completion_text)

        prompts = []
        params = PolicyParams(p_fast=0.0, t_n=1.0, p_slow=1.0, logprob_per_token=-0.5)
        backend = PromptRecordingBackend(params)
        t = run_episode(backend, item, Mode.TRAINING, seed=1)
        summary_turn = t.turns[-1]
        assert prompts == [({"role": "user", "content": render_prompt(FAST, item)},)]
        assert t.summary_logprob == pytest.approx(-0.5 * summary_turn.token_count)
        assert t.rewards.summary == pytest.approx(
            1.0 + 1e-3 * t.summary_logprob)

    def test_verify_reward_only_with_trailing(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=1.0, t_p=1.0))
        without = run_episode(backend, item, Mode.TRAINING, seed=1)
        assert without.rewards.verify is None
        with_p = run_episode(backend, item, Mode.TRAINING, seed=1, trailing=0.7)
        assert with_p.rewards.verify == pytest.approx(0.3)

    def test_backend_failure_marks_failed(self, item):
        backend = MockBackend({})  # no fixtures at all
        t = run_episode(backend, item, Mode.TRAINING, seed=1)
        assert t.failed
        assert "fast_thinking" in t.error
        assert t.final_answer is None

    def test_failed_summary_keeps_only_fast_reward(self, item):
        backend = MockBackend({(Stage.FAST_THINKING, item.id): "\\boxed{5}",
                               (Stage.VERIFICATION, item.id): "\\boxed{No}",
                               (Stage.SLOW_THINKING, item.id): "\\boxed{7}"})
        t = run_episode(backend, item, Mode.TRAINING, seed=1, trailing=0.7)  # no summarization fixture
        assert t.failed and t.stage is Stage.SUMMARIZATION
        assert t.rewards.fast == 0.0
        assert (t.rewards.verify, t.rewards.slow, t.rewards.summary) == (None, None, None)

    def test_failed_episode_dialogue_ends_with_failed_stage_prompt(self, item):
        backend = MockBackend({(Stage.FAST_THINKING, item.id): "\\boxed{8}",
                               (Stage.VERIFICATION, item.id): "\\boxed{No}"})
        t = run_episode(backend, item, Mode.TRAINING, seed=1)  # no slow-thinking fixture
        assert t.failed and t.stage is SLOW and len(t.turns) == 2
        assert t.messages()[-1] == {"role": "user", "content": render_prompt(SLOW, item)}

    def test_transcript_without_begin_episode_sends_fast_prompt(self, item):
        request = stage_request(Transcript(mode=Mode.INFERENCE, item=item))
        assert request.messages == ({"role": "user", "content": render_prompt(Stage.FAST_THINKING, item)},)

    def test_deterministic_transcripts(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.4, t_p=0.6, t_n=0.7, p_slow=0.5))
        a = run_episode(backend, item, Mode.TRAINING, seed=42)
        b = run_episode(backend, item, Mode.TRAINING, seed=42)
        assert [x.response for x in a.turns] == [x.response for x in b.turns]
        assert a.rewards == b.rewards


def make_items(n):
    return [QAItem(id=f"i{k}", question=f"Compute {k} + 1.", answer=str(k + 1))
            for k in range(n)]


class TestRunBatch:
    def test_counts_and_trailing_mean(self):
        # 2 items always fast-correct, 2 always wrong: batch of 8 -> p = 0.5
        items = make_items(4)
        fixtures = {}
        for k, item in enumerate(items):
            answer = item.answer if k < 2 else "999"
            fixtures.update(fixture_map(item.id, f"\\boxed{{{answer}}}", "\\boxed{No}",
                                        f"\\boxed{{{item.answer}}}", f"\\boxed{{{item.answer}}}"))
        backend = MockBackend(fixtures)
        batch = run_batch(backend, items, Mode.TRAINING, seed=0, samples_per_prompt=2)
        assert len(batch.transcripts) == 8
        assert batch.trailing.p == pytest.approx(0.5)
        assert batch.fast_accuracy == pytest.approx(0.5)
        for t in batch.ok:
            assert t.rewards.verify in (0.0, 0.5)

    def test_samples_of_one_item_share_text_and_prompt(self):
        batch = run_batch(ScriptedPolicyBackend(PolicyParams()), make_items(2), Mode.TRAINING,
                          seed=4, samples_per_prompt=8)
        for idx in range(2):
            episodes = batch.transcripts[idx * 8:(idx + 1) * 8]
            # a fast answer is right or wrong, so two of eight samples drew the same
            same = [(a, b) for a, b in combinations([t.turns[0] for t in episodes], 2) if a.text == b.text]
            assert same and all(a.text is b.text for a, b in same)
            # one prompt string per stage, shared by every sample's dialogue
            prompts = {}
            for t in episodes:
                for turn, message in zip(t.turns, t.messages()[::2]):
                    assert message["content"] is prompts.setdefault(turn.stage, message["content"])

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_per_prompt_below_one_rejected(self, samples):
        backend = MockBackend({})
        with pytest.raises(ValueError, match="samples_per_prompt"):
            run_batch(backend, make_items(2), Mode.TRAINING, samples_per_prompt=samples)
        assert backend.calls == []

    def test_same_seed_same_stats(self):
        items = make_items(3)
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.5, t_p=0.7, t_n=0.7, p_slow=0.5))
        a = run_batch(backend, items, Mode.TRAINING, seed=9, samples_per_prompt=4)
        b = run_batch(backend, items, Mode.TRAINING, seed=9, samples_per_prompt=4)
        assert a.fast_accuracy == b.fast_accuracy
        assert a.final_accuracy == b.final_accuracy
        assert a.mean_total_tokens == b.mean_total_tokens
        assert a.trailing == b.trailing

    def test_parallelism_does_not_change_results(self):
        items = make_items(5)
        params = PolicyParams(p_fast=0.5, t_p=0.8, t_n=0.8, p_slow=0.5)
        serial = run_batch(ScriptedPolicyBackend(params), items, Mode.TRAINING, seed=3,
                           samples_per_prompt=4, parallelism=1)
        pooled = PooledScriptedBackend(params)
        parallel = run_batch(pooled, items, Mode.TRAINING, seed=3, samples_per_prompt=4,
                             parallelism=8)
        assert pooled.threads and threading.get_ident() not in pooled.threads
        assert [t.episode_id for t in serial.transcripts] == [t.episode_id for t in parallel.transcripts]
        for a, b in zip(serial.transcripts, parallel.transcripts):
            assert [x.response for x in a.turns] == [x.response for x in b.turns]
            assert a.rewards == b.rewards
        assert serial.trailing == parallel.trailing

    def test_cold_and_warm_parse_memos_agree(self, tmp_path):
        def batch_bytes(name):
            backend = PooledScriptedBackend(PolicyParams(p_fast=0.5, p_slow=0.5))
            batch = run_batch(backend, make_items(6), Mode.TRAINING, seed=7,
                              samples_per_prompt=4, parallelism=4)
            path = tmp_path / name
            write_transcripts(str(path), batch.transcripts, "hash")
            return path.read_bytes(), batch.trailing

        ExtractedAnswer.from_raw.cache_clear()
        wrong_answer.cache_clear()
        cold = batch_bytes("cold.jsonl")
        assert ExtractedAnswer.from_raw.cache_info().hits > 0
        assert batch_bytes("warm.jsonl") == cold

    def test_over_long_boxed_number_is_graded(self):
        # more digits than int() converts: compared as a string, not a crash
        long = "7" * 5000
        items = [QAItem(id="wrong", question="q", answer="7"),
                 QAItem(id="right", question="q", answer=long)]
        fixtures = {}
        for item in items:
            fixtures.update(fixture_map(item.id, fast=f"\\boxed{{{long}}}", verify="\\boxed{No}",
                                        slow="\\boxed{7}", summary="\\boxed{7}"))
        batch = run_batch(MockBackend(fixtures), items, Mode.TRAINING, seed=0)
        assert batch.failures == 0
        wrong, right = batch.transcripts
        assert wrong.rewards.fast == 0.0 and wrong.rewards.slow == 1.0 and wrong.correct
        assert right.rewards.fast == 1.0 and right.correct

    def test_unbumpable_truth_does_not_abort_batch(self):
        # every fast and slow answer is wrong; truth+1 has more digits than str() converts
        item = QAItem(id="nines", question="q", answer="9" * 4300)
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.0, p_slow=0.0))
        batch = run_batch(backend, [item], Mode.TRAINING, seed=0, samples_per_prompt=2)
        assert batch.failures == 0
        for t in batch.transcripts:
            assert t.rewards.fast == 0.0 and not t.correct

    def test_in_process_backend_runs_inline(self):
        # threads would only add hand-offs to a backend that never waits
        backend = RecordingScriptedBackend()
        run_batch(backend, make_items(4), Mode.TRAINING, seed=1, samples_per_prompt=4,
                  parallelism=8)
        assert backend.threads == {threading.get_ident()}

    def test_verify_rewards_use_batch_trailing(self):
        items = make_items(8)
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.5, t_p=1.0, t_n=1.0))
        batch = run_batch(backend, items, Mode.INFERENCE, seed=5, samples_per_prompt=2)
        p = batch.trailing.p
        for t in batch.ok:
            expected = (1 - p) if t.rewards.fast == 1.0 else p
            assert t.rewards.verify == pytest.approx(expected)

    @pytest.mark.parametrize("trailing_cfg, n_items", [
        (TrailingConfig(estimator="ema"), 4),
        (TrailingConfig(estimator="batch_mean", min_batch_for_mean=8), 3),  # 6 episodes: the EMA fallback
    ])
    def test_tracker_carries_across_batches(self, trailing_cfg, n_items):
        """A trainer passes each batch's trailing back in: p and count follow
        a chain of update_trailing calls, and each batch's verification
        rewards use that batch's post-barrier p."""
        cfg = RewardConfig(trailing=trailing_cfg)
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.5, t_p=1.0, t_n=1.0))
        tracker = expected = TrailingAccuracy()
        series = []
        for seed in range(3):
            batch = run_batch(backend, make_items(n_items), Mode.TRAINING, seed=seed,
                              samples_per_prompt=2, reward_cfg=cfg, tracker=tracker)
            expected = update_trailing(expected, [t.rewards.fast for t in batch.ok], cfg.trailing)
            assert batch.trailing == expected
            p = batch.trailing.p
            for t in batch.ok:
                assert t.rewards.verify == ((1.0 - p) if t.rewards.fast == 1.0 else p)
            tracker = batch.trailing
            series.append(p)
        assert expected.count == 3 * n_items * 2
        assert len(set(series)) == 3  # p moves, so a reward that used a stale p would show

    def test_failed_episodes_excluded(self):
        items = make_items(3)
        fixtures = {}
        for item in items[:2]:
            fixtures.update(fixture_map(item.id, f"\\boxed{{{item.answer}}}", "\\boxed{Yes}"))
        backend = MockBackend(fixtures)  # third item has no fixtures -> fails
        cfg = RewardConfig(trailing=TrailingConfig(min_batch_for_mean=2))
        batch = run_batch(backend, items, Mode.TRAINING, seed=0, reward_cfg=cfg)
        assert batch.failures == 1
        assert batch.trailing.p == pytest.approx(1.0)
        assert len(batch.ok) == 2

    def test_all_failed_raises(self):
        backend = MockBackend({})
        with pytest.raises(BackendError, match="failed"):
            run_batch(backend, make_items(2), Mode.TRAINING, seed=0)

    def test_slow_stage_failures_do_not_move_p(self):
        """Slow thinking runs only after a wrong fast answer, so dropping its
        failures from p would drop wrong-fast episodes and inflate p."""
        items = list(gen_synthetic(SyntheticTaskConfig(n_items=64, seed=1)).items)
        params = PolicyParams(p_fast=0.5)
        clean = run_batch(ScriptedPolicyBackend(params), items, Mode.TRAINING,
                          seed=1, samples_per_prompt=8)
        faulty = run_batch(SlowStageFailingBackend(params), items, Mode.TRAINING,
                           seed=1, samples_per_prompt=8)
        assert clean.failures == 0 and faulty.failures > 100
        assert faulty.trailing.p == clean.trailing.p
        assert faulty.fast_accuracy == clean.fast_accuracy
        for good, bad in zip(clean.transcripts, faulty.transcripts):
            assert bad.rewards.fast == good.rewards.fast
            if bad.failed:  # no verification reward and no returns
                assert bad.rewards.verify is None
                with pytest.raises(ValueError, match="failed"):
                    Trajectory.from_transcript(bad)
            else:
                assert bad.rewards == good.rewards

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            run_batch(MockBackend({}), [], Mode.TRAINING, seed=0)


@pytest.mark.parametrize("kind", ["training", "inference", *evaluation.EVAL_MODES])
def test_token_count_counts_text_and_response_adds_seed(kind, monkeypatch):
    backend = ScriptedPolicyBackend(PolicyParams())
    budgets = StageBudgets(slow_tokens=300)  # below the policy's 400 words, so slow turns are clipped
    items = make_items(6)
    if kind in ("training", "inference"):
        transcripts = run_batch(backend, items, Mode(kind), seed=1, samples_per_prompt=4,
                                budgets=budgets).transcripts
    else:
        transcripts = []
        sample = evaluation._sample
        monkeypatch.setattr(evaluation, "_sample",
                            lambda *args: transcripts.append(sample(*args)) or transcripts[-1])
        evaluation.evaluate(backend, Dataset(items=tuple(items)), kind, 4, budgets, seed=1)
    turns = [turn for t in transcripts for turn in t.turns]
    assert len(transcripts) == 24 and turns
    for turn in turns:
        assert count_tokens(turn.text) == turn.token_count
        assert turn.response == RESPONSE_SEED.get(turn.stage, "") + turn.text
    if kind in ("training", "inference", evaluation.THINKER):
        assert any(turn.stage is SLOW and turn.truncated for turn in turns)


class TestStageReturns:
    def test_two_stage_returns(self):
        traj = Trajectory(stage_token_counts=(5, 7), stage_rewards=(1.0, 0.3))
        assert list(compute_stage_returns(traj)) == [1.0] * 5 + [0.3] * 7

    def test_single_stage_zero(self):
        traj = Trajectory(stage_token_counts=(4,), stage_rewards=(0.0,))
        assert list(compute_stage_returns(traj)) == [0.0] * 4

    def test_four_constant_segments(self):
        traj = Trajectory(stage_token_counts=(2, 3, 4, 5), stage_rewards=(1.0, 0.25, 0.0, 0.8))
        returns = compute_stage_returns(traj)
        assert len(returns) == 14
        segments = {tuple(returns[a:b]) for a, b in ((0, 2), (2, 5), (5, 9), (9, 14))}
        assert segments == {(1.0,) * 2, (0.25,) * 3, (0.0,) * 4, (0.8,) * 5}

    def test_sparse_rewards_at_stage_ends(self):
        traj = Trajectory(stage_token_counts=(3, 2), stage_rewards=(1.0, 0.5))
        assert list(per_token_rewards(traj)) == [0.0, 0.0, 1.0, 0.0, 0.5]

    def test_boundaries_cumulative(self):
        traj = Trajectory(stage_token_counts=(5, 7), stage_rewards=(1.0, 0.3))
        assert traj.boundaries == (5, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(stage_token_counts=(), stage_rewards=())
        with pytest.raises(ValueError):
            Trajectory(stage_token_counts=(0, 2), stage_rewards=(1.0, 1.0))
        with pytest.raises(ValueError):
            Trajectory(stage_token_counts=(3,), stage_rewards=(1.0, 2.0))
        with pytest.raises(TypeError):  # boundaries are derived from the counts, never passed
            Trajectory(stage_token_counts=(3, 2), stage_rewards=(1.0, 1.0), boundaries=(3, 5))

    def test_from_transcript(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=1.0, t_p=1.0))
        t = run_episode(backend, item, Mode.TRAINING, seed=1, trailing=0.5)
        traj = Trajectory.from_transcript(t)
        assert traj.stage_token_counts == (120, 80)
        assert traj.stage_rewards == (1.0, 0.5)

    def test_from_transcript_requires_rewards(self, item):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=1.0))
        t = run_episode(backend, item, Mode.TRAINING, seed=1)  # verify unfilled
        with pytest.raises(ValueError, match="verification"):
            Trajectory.from_transcript(t)

    def test_from_transcript_stage_less_turn(self, item):
        # a one-shot eval sample: its only turn has no stage and no reward
        t = Transcript(Mode.INFERENCE, item, stage=None)
        t.turns.append(Turn(None, "\\boxed{7}", 3, "stop"))
        with pytest.raises(ValueError, match="single_turn"):
            Trajectory.from_transcript(t)


class TestGae:
    def test_zero_values_reduce_to_returns(self):
        traj = Trajectory(stage_token_counts=(5, 7), stage_rewards=(1.0, 0.3))
        rewards = per_token_rewards(traj)
        advantages = compute_gae(rewards, [0.0] * 12, traj.boundaries)
        assert advantages == pytest.approx(compute_stage_returns(traj))

    def test_perfect_baseline_zero_advantage(self):
        traj = Trajectory(stage_token_counts=(4, 6, 3), stage_rewards=(0.5, -0.2, 1.0))
        rewards = per_token_rewards(traj)
        values = compute_stage_returns(traj)
        advantages = compute_gae(rewards, values, traj.boundaries)
        assert advantages == pytest.approx([0.0] * traj.total_tokens)

    def test_matches_brute_force_on_random_trajectories(self):
        rng = random.Random(77)
        for _ in range(300):
            n_stages = rng.randint(1, 4)
            counts = [rng.randint(1, 15) for _ in range(n_stages)]
            stage_rewards = [rng.uniform(-1, 1) for _ in range(n_stages)]
            traj = Trajectory(stage_token_counts=tuple(counts), stage_rewards=tuple(stage_rewards))
            rewards = per_token_rewards(traj)
            values = [rng.uniform(-1, 1) for _ in range(traj.total_tokens)]
            gamma = rng.choice([1.0, 0.99, 0.9])
            lam = rng.choice([1.0, 0.95])
            fast = compute_gae(rewards, values, traj.boundaries, gamma=gamma, lam=lam)
            slow = brute_force_gae(rewards, values, traj.boundaries, gamma=gamma, lam=lam)
            assert list(fast) == slow  # bitwise: same formula, same evaluation order

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae([0.0, 1.0], [0.0], (2,))

    def test_malformed_boundaries_rejected(self):
        with pytest.raises(ValueError):
            compute_gae([0.0, 1.0], [0.0, 0.0], (2, 2))
        with pytest.raises(ValueError):
            compute_gae([0.0, 1.0], [0.0, 0.0], (1,))
        with pytest.raises(ValueError):
            compute_gae([0.0, 1.0], [0.0, 0.0], ())

    @pytest.mark.parametrize("gamma,lam", [
        (float("nan"), 1.0), (1.0, float("nan")), (3.0, 2.0), (1.0 + 1e-9, 1.0),
        (1.0, -1e-9), (-0.5, 0.5), (float("inf"), 1.0),
    ])
    def test_discounts_outside_unit_interval_rejected(self, gamma, lam):
        with pytest.raises(ValueError, match="gamma and lam"):
            compute_gae([0.0, 1.0], [0.0, 0.0], (2,), gamma=gamma, lam=lam)

    def test_discounts_at_unit_interval_ends_accepted(self):
        assert list(compute_gae([0.0, 1.0], [0.0, 0.0], (2,), gamma=0.0, lam=0.0)) == [0.0, 1.0]
        assert list(compute_gae([0.0, 1.0], [0.0, 0.0], (2,), gamma=-0.0, lam=1.0)) == [0.0, 1.0]

    @given(gae_case(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_bits_match_brute_force_at_any_discount(self, case, gamma, lam):
        rewards, values, boundaries = case
        slow = brute_force_gae(rewards, values, boundaries, gamma=gamma, lam=lam)
        for as_sequence in (list, partial(array, "d")):
            fast = compute_gae(as_sequence(rewards), as_sequence(values), boundaries, gamma=gamma, lam=lam)
            # float.hex tells -0.0 from 0.0, which == does not
            assert [a.hex() for a in fast] == [a.hex() for a in slow]

    def test_per_token_outputs_are_float64_buffers(self):
        traj = Trajectory(stage_token_counts=(3, 2), stage_rewards=(1.0, 0.5))
        rewards = per_token_rewards(traj)
        for result in (rewards, compute_stage_returns(traj),
                       compute_gae(rewards, [0.0] * traj.total_tokens, traj.boundaries)):
            assert type(result) is array and result.typecode == "d"
            assert memoryview(result).format == "d"

    def test_advantages_hold_eight_bytes_a_token(self):
        # a list of floats would hold 32: a 24-byte float object and its slot
        rng = random.Random(8)
        boundaries = (1_000, 7_000, 8_000, 20_000)
        rewards = [rng.uniform(-1, 1) for _ in range(boundaries[-1])]
        values = [rng.uniform(-1, 1) for _ in range(boundaries[-1])]
        compute_gae(rewards, values, boundaries)  # fills struct's format cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            advantages = compute_gae(rewards, values, boundaries)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(advantages) == len(rewards)
        # the constant covers the array header and allocator bookkeeping
        assert held <= 8 * len(rewards) + 4096


@st.composite
def trajectory_and_values(draw):
    n_stages = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 10), min_size=n_stages, max_size=n_stages))
    rewards = draw(st.lists(
        st.floats(-2, 2, allow_nan=False), min_size=n_stages, max_size=n_stages))
    traj = Trajectory(stage_token_counts=tuple(counts), stage_rewards=tuple(rewards))
    values = draw(st.lists(st.floats(-2, 2, allow_nan=False),
                           min_size=traj.total_tokens, max_size=traj.total_tokens))
    return traj, values


class TestCrossStageIsolation:
    @given(trajectory_and_values(), st.integers(0, 3), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_perturbing_one_stage_is_local(self, tv, stage_index, new_reward):
        traj, values = tv
        stage_index %= len(traj.stage_rewards)
        perturbed_rewards = list(traj.stage_rewards)
        perturbed_rewards[stage_index] = new_reward
        other = Trajectory(stage_token_counts=traj.stage_token_counts,
                           stage_rewards=tuple(perturbed_rewards))

        base_adv = compute_gae(per_token_rewards(traj), values, traj.boundaries)
        new_adv = compute_gae(per_token_rewards(other), values, other.boundaries)
        base_ret = compute_stage_returns(traj)
        new_ret = compute_stage_returns(other)

        start = traj.boundaries[stage_index - 1] if stage_index else 0
        end = traj.boundaries[stage_index]
        for t in range(traj.total_tokens):
            inside = start <= t < end
            if not inside:
                assert new_adv[t] == base_adv[t]
                assert new_ret[t] == base_ret[t]

    @given(trajectory_and_values())
    @settings(max_examples=150, deadline=None)
    def test_within_stage_returns_constant(self, tv):
        traj, _ = tv
        returns = compute_stage_returns(traj)
        start = 0
        for end, reward in zip(traj.boundaries, traj.stage_rewards):
            assert all(r == reward for r in returns[start:end])
            start = end
