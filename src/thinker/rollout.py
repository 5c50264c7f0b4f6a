"""Batch episode execution and per-token credit assignment.

Episodes run side by side (at most *parallelism*, one request each) only on
a backend that waits on a server, each a pure function of its derived seed,
so batch outputs are identical at any parallelism. Verification rewards are
assigned at a single barrier after the whole batch finishes, using the
trailing fast accuracy computed from that same batch.

Credit assignment places each stage's scalar reward on the stage's final
token and treats stage boundaries as hard resets: no reward and no value
bootstrap crosses a boundary, while within a stage the discount is 1.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from statistics import fmean

from .backend import Backend, GenerationRequest, derive_seed
from .dataset import QAItem
from .errors import BackendError, LogprobUnsupportedError
from .rewards import (
    RewardConfig,
    TrailingAccuracy,
    reward_fast,
    reward_slow,
    reward_summary,
    reward_verify,
    update_trailing,
)
from .task import FAST, SINGLE_TURN, SLOW, SUMMARY, Mode, StageBudgets, Transcript, advance, begin_episode
# unused here, but the benchmark's tracer (benchmarks/tracing.py) patches it
from .grading import answers_equal

_DEFAULT_REWARDS = RewardConfig()  # frozen, so every call without a config shares it


def stage_request(state: Transcript, episode_seed: int,
                  single_turn_tokens: int | None = None) -> GenerationRequest:
    """The request for the episode's current turn: whole dialogue, the turn's
    budget and temperature, and a seed derived from the turn's key; the
    one-shot turn (stage None) has the budget *single_turn_tokens*."""
    stage, budgets = state.stage, state.budgets
    staged = stage is not None
    return GenerationRequest(
        messages=tuple(state.messages()),
        max_tokens=budgets.budget_for(stage) if staged else single_turn_tokens,
        temperature=budgets.temperature_for(stage),
        seed=derive_seed(episode_seed, stage.key if staged else SINGLE_TURN),
        stage=stage,
        item_id=state.item.id,
        reference_answer=state.item.answer,
    )


def record_failure(transcript: Transcript, exc: BackendError) -> None:
    """Mark the episode failed by *exc*; no text is ever fabricated."""
    transcript.failed = True
    transcript.error = str(exc)


def run_all(backend: Backend, fn, specs: list, parallelism: int) -> list:
    """fn over specs in order, on up to *parallelism* threads if the backend
    waits on a server; inline otherwise, as threads only add GIL hand-offs."""
    if parallelism <= 1 or not backend.waits_on_server:
        return [fn(spec) for spec in specs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, specs))


def run_episode(backend: Backend, item: QAItem, mode: Mode,
                budgets: StageBudgets | None = None, seed: int = 0,
                reward_cfg: RewardConfig | None = None,
                trailing: TrailingAccuracy | float | None = None,
                episode_id: str | None = None) -> Transcript:
    """Drive one episode to terminal and score it.

    Backend failures mark the transcript failed (record_failure) instead of
    raising; a failed episode keeps the reward of a fast turn that finished,
    and gets no other. The verification reward is filled only when a
    trailing accuracy is supplied; batches defer it to their barrier.
    """
    reward_cfg = reward_cfg or _DEFAULT_REWARDS
    transcript = begin_episode(item, mode, budgets, seed=seed, backend_id=backend.name,
                               episode_id=episode_id)
    try:
        while not transcript.terminal:
            advance(transcript, backend.generate(stage_request(transcript, seed)))
    except BackendError as exc:
        record_failure(transcript, exc)
    answers = transcript.answers  # one key per executed answer stage
    if FAST in answers:
        transcript.rewards.fast = reward_fast(answers[FAST], item.answer)
    if transcript.failed:
        return transcript
    if SLOW in answers:
        transcript.rewards.slow = reward_slow(answers.get(SLOW), item.answer)
    if SUMMARY in answers:
        summary_turn = transcript.turns[-1]
        # the summary is scored against the fast-thinking prompt alone
        fast_prompt = ({"role": "user", "content": transcript.turns[0].prompt},)
        try:
            logprob = backend.score_logprob(fast_prompt, summary_turn.response)
        except LogprobUnsupportedError:
            # proxy unavailable: consistency term contributes nothing
            logprob = 0.0
            transcript.logprob_available = False
        transcript.summary_logprob = logprob
        transcript.rewards.summary = reward_summary(
            answers.get(SUMMARY),
            answers.get(SLOW),
            logprob,
            summary_turn.token_count,
            reward_cfg,
        )
    if trailing is not None:
        transcript.rewards.verify = reward_verify(
            transcript.rewards.fast == 1.0, transcript.verdict, trailing)
    return transcript


def token_means(transcripts: list[Transcript]) -> tuple[dict[str, float], float]:
    """Mean tokens per turn key (a stage, or the one-shot baseline) over the
    turns that have the key, and mean tokens per episode."""
    stage_tokens: dict[str, list[int]] = {}
    for t in transcripts:
        for turn in t.turns:
            stage_tokens.setdefault(turn.key, []).append(turn.token_count)
    return ({key: fmean(v) for key, v in stage_tokens.items()},
            fmean(t.total_tokens for t in transcripts))


@dataclass
class RolloutBatch:
    """All transcripts of one batch plus the statistics frozen at its barrier."""

    transcripts: list[Transcript]
    trailing: TrailingAccuracy
    fast_accuracy: float
    final_accuracy: float
    mean_stage_tokens: dict[str, float]
    mean_total_tokens: float
    failures: int

    @property
    def ok(self) -> list[Transcript]:
        return [t for t in self.transcripts if not t.failed]


def run_batch(backend: Backend, items: list[QAItem], mode: Mode, *,
              seed: int = 0, samples_per_prompt: int = 1,
              budgets: StageBudgets | None = None,
              reward_cfg: RewardConfig | None = None,
              parallelism: int = 1,
              tracker: TrailingAccuracy | None = None) -> RolloutBatch:
    """Run items x samples_per_prompt episodes and finalize rewards.

    Episode seeds derive from (seed, position, item id, sample index), so
    results do not depend on the parallelism bound. All verification rewards
    in the batch use the post-barrier trailing accuracy.
    """
    if not items:
        raise ValueError("run_batch needs at least one item")
    if samples_per_prompt < 1:
        raise ValueError("samples_per_prompt must be >= 1")
    reward_cfg = reward_cfg or _DEFAULT_REWARDS
    specs = [
        (idx, item, j)
        for idx, item in enumerate(items)
        for j in range(samples_per_prompt)
    ]

    def _one(spec) -> Transcript:
        idx, item, j = spec
        return run_episode(
            backend, item, mode,
            budgets=budgets,
            seed=derive_seed(seed, idx, item.id, j),
            reward_cfg=reward_cfg,
            episode_id=f"ep-{idx:05d}-{j:03d}",
        )

    transcripts = run_all(backend, _one, specs, parallelism)

    ok = [t for t in transcripts if not t.failed]
    failures = len(transcripts) - len(ok)
    if not ok:
        raise BackendError(f"all {len(transcripts)} episodes in the batch failed")

    # every finished fast turn counts, failed episodes' too: slow thinking runs
    # only after a wrong fast answer, so dropping its failures would inflate p
    fast_rewards = [t.rewards.fast for t in transcripts if t.rewards.fast is not None]
    trailing = update_trailing(tracker or TrailingAccuracy(), fast_rewards, reward_cfg)
    for t in ok:
        if t.verdict is not None:
            t.rewards.verify = reward_verify(t.rewards.fast == 1.0, t.verdict, trailing)

    mean_stage_tokens, mean_total_tokens = token_means(ok)
    return RolloutBatch(
        transcripts=transcripts,
        trailing=trailing,
        fast_accuracy=fmean(fast_rewards),
        final_accuracy=fmean(1.0 if t.correct else 0.0 for t in ok),
        mean_stage_tokens=mean_stage_tokens,
        mean_total_tokens=mean_total_tokens,
        failures=failures,
    )


@dataclass(frozen=True)
class Trajectory:
    """Per-stage token counts and rewards over one episode's token stream."""

    stage_token_counts: tuple[int, ...]
    stage_rewards: tuple[float, ...]
    boundaries: tuple[int, ...] = field(init=False)  # cumulative token counts

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage_token_counts", tuple(self.stage_token_counts))
        object.__setattr__(self, "stage_rewards", tuple(float(r) for r in self.stage_rewards))
        if not self.stage_token_counts:
            raise ValueError("trajectory needs at least one stage")
        if any(c <= 0 for c in self.stage_token_counts):
            raise ValueError("stage token counts must be positive")
        if len(self.stage_rewards) != len(self.stage_token_counts):
            raise ValueError("one reward per stage required")
        object.__setattr__(self, "boundaries", tuple(accumulate(self.stage_token_counts)))

    @property
    def total_tokens(self) -> int:
        return self.boundaries[-1]

    @classmethod
    def from_transcript(cls, transcript: Transcript) -> "Trajectory":
        """Build the credit-assignment view of a finished episode.

        Empty generations still occupy one slot (the end-of-sequence token),
        keeping boundaries strictly increasing.
        """
        if transcript.failed:
            raise ValueError("cannot build a trajectory from a failed episode")
        counts, rewards = [], []
        for turn in transcript.turns:
            reward = transcript.rewards.for_stage(turn.stage)
            if reward is None:
                raise ValueError(f"reward for {turn.key} not filled yet")
            counts.append(max(turn.token_count, 1))
            rewards.append(reward)
        return cls(stage_token_counts=tuple(counts), stage_rewards=tuple(rewards))


def compute_stage_returns(traj: Trajectory) -> list[float]:
    """Per-token returns: every token of a stage gets that stage's reward.

    With reward on the final token, within-stage discount 1, and no flow
    across boundaries, the return is constant inside each stage.
    """
    returns: list[float] = []
    for count, reward in zip(traj.stage_token_counts, traj.stage_rewards):
        returns.extend([reward] * count)
    return returns


def per_token_rewards(traj: Trajectory) -> list[float]:
    """The sparse reward stream: zero everywhere except stage-final tokens."""
    rewards = [0.0] * traj.total_tokens
    for boundary, reward in zip(traj.boundaries, traj.stage_rewards):
        rewards[boundary - 1] = reward
    return rewards


def _check_stream(rewards, values, boundaries, gamma, lam) -> None:
    if len(rewards) != len(values):
        raise ValueError("rewards and values must have the same length")
    if not boundaries:
        raise ValueError("at least one stage boundary required")
    prev = 0
    for b in boundaries:
        if b <= prev:
            raise ValueError("boundaries must be strictly increasing")
        prev = b
    if boundaries[-1] != len(rewards):
        raise ValueError("last boundary must equal the stream length")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):  # NaN fails too
        raise ValueError(f"gamma and lam must lie in [0, 1], got {gamma!r} and {lam!r}")


def compute_gae(per_token_reward_stream: list[float], values: list[float],
                boundaries: tuple[int, ...] | list[int],
                gamma: float = 1.0, lam: float = 1.0) -> list[float]:
    """Generalized advantage estimates with hard resets at stage boundaries.

    Each stage is treated as its own episode: the value after a boundary is
    0 and the recursion restarts, so no signal crosses stages (a discount of
    zero between stages). gamma and lam must lie in [0, 1]; the defaults
    gamma=1, lam=1 make the advantage equal the remaining in-stage return
    minus the value.

    The recurrence is one backward pass per stage, evaluated as
    ``(r + gamma*v_next - v) + (gamma*lam)*running`` in that fixed order, so
    advantages are bitwise reproducible from one version to the next.
    """
    _check_stream(per_token_reward_stream, values, boundaries, gamma, lam)
    advantages = [0.0] * len(per_token_reward_stream)
    decay = gamma * lam
    start = 0
    for end in boundaries:
        running = next_value = 0.0
        for t in range(end - 1, start - 1, -1):
            value = values[t]
            running = per_token_reward_stream[t] + gamma * next_value - value + decay * running
            advantages[t] = running
            next_value = value
        start = end
    return advantages
