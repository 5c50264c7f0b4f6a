"""Batch episode execution, per-token credit assignment and transcript records.

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

import json
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from json.encoder import c_make_encoder, encode_basestring
from statistics import fmean

from . import task  # render_prompt is looked up on task, where the benchmark's tracer patches it
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
from .task import (FAST, SINGLE_TURN, SLOW, SUMMARY, VERIFY, Mode, StageBudgets, Transcript, advance,
                   begin_episode)
# unused here, but the benchmark's tracer (benchmarks/tracing.py) patches it
from .grading import answers_equal

_DEFAULT_REWARDS = RewardConfig()  # frozen, so every call without a config shares it
TRANSCRIPT_SCHEMA_VERSION = 1  # of the JSONL record transcript_record writes


def stage_request(state: Transcript) -> GenerationRequest:
    """The request for the episode's current turn, the one-shot turn (stage
    None) included: whole dialogue, the turn's budget and temperature, and a
    seed derived from the episode's seed and the turn's key."""
    stage, budgets = state.stage, state.budgets
    return GenerationRequest(
        messages=tuple(state.messages()),
        max_tokens=budgets.budget_for(stage),
        temperature=budgets.temperature_for(stage),
        seed=derive_seed(state.seed, stage.key if stage is not None else SINGLE_TURN),
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
    from concurrent.futures import ThreadPoolExecutor  # loaded on first use: inline runs never pay for it
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, specs))


def run_episode(backend: Backend, item: QAItem, mode: Mode,
                budgets: StageBudgets | None = None, seed: int = 0,
                reward_cfg: RewardConfig | None = None,
                trailing: float | None = None,
                episode_id: str | None = None) -> Transcript:
    """Drive one episode to terminal and score it.

    Backend failures mark the transcript failed (record_failure) instead of
    raising; a failed episode keeps the reward of a fast turn that finished,
    and gets no other. The verification reward is filled only when a
    trailing accuracy p is supplied; batches defer it to their barrier.
    """
    reward_cfg = reward_cfg or _DEFAULT_REWARDS
    transcript = begin_episode(item, mode, budgets, seed=seed, backend_id=backend.name,
                               episode_id=episode_id)
    try:
        while not transcript.terminal:
            advance(transcript, backend.generate(stage_request(transcript)))
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
        fast_prompt = ({"role": "user", "content": task.render_prompt(FAST, item)},)
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
        raise BackendError(f"all {len(transcripts)} episodes in the batch failed; "
                           f"first error: {transcripts[0].error}")

    # every finished fast turn counts, failed episodes' too: slow thinking runs
    # only after a wrong fast answer, so dropping its failures would inflate p
    fast_rewards = [t.rewards.fast for t in transcripts if t.rewards.fast is not None]
    trailing = update_trailing(tracker or TrailingAccuracy(), fast_rewards, reward_cfg.trailing)
    for t in ok:
        if t.verdict is not None:
            t.rewards.verify = reward_verify(t.rewards.fast == 1.0, t.verdict, trailing.p)

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


def compute_stage_returns(traj: Trajectory) -> array:
    """Per-token returns, one float64 per token in an ``array("d")``: every
    token of a stage gets that stage's reward.

    With reward on the final token, within-stage discount 1, and no flow
    across boundaries, the return is constant inside each stage.
    """
    returns = array("d", [0.0]) * traj.total_tokens
    start = 0
    for end, reward in zip(traj.boundaries, traj.stage_rewards):
        returns[start:end] = array("d", [reward]) * (end - start)
        start = end
    return returns


def per_token_rewards(traj: Trajectory) -> array:
    """The sparse reward stream as an ``array("d")``: zero everywhere except
    stage-final tokens."""
    rewards = array("d", [0.0]) * traj.total_tokens
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


def compute_gae(per_token_reward_stream: Sequence[float], values: Sequence[float],
                boundaries: tuple[int, ...] | list[int],
                gamma: float = 1.0, lam: float = 1.0) -> array:
    """Generalized advantage estimates with hard resets at stage boundaries,
    one float64 per token in an ``array("d")``.

    Each stage is treated as its own episode: the value after a boundary is
    0 and the recursion restarts, so no signal crosses stages (a discount of
    zero between stages). gamma and lam must lie in [0, 1]; the defaults
    gamma=1, lam=1 make the advantage equal the remaining in-stage return
    minus the value.

    The recurrence is one backward pass per stage, evaluated as
    ``(r + gamma*v_next - v) + (gamma*lam)*running`` in that fixed order, so
    advantages are bitwise reproducible from one version to the next. The
    reward stream and the values may be any float sequences, such as lists
    or arrays.
    """
    _check_stream(per_token_reward_stream, values, boundaries, gamma, lam)
    advantages = array("d", [0.0]) * len(per_token_reward_stream)
    decay = gamma * lam
    start = 0
    for end in boundaries:
        running = next_value = 0.0
        stage = []
        # zip over reversed slices, not subscripts: an array's subscript is
        # not specialized, and pack_into converts at half array("d", list)'s cost
        for reward, value in zip(reversed(per_token_reward_stream[start:end]), reversed(values[start:end])):
            running = reward + gamma * next_value - value + decay * running
            stage.append(running)
            next_value = value
        stage.reverse()
        struct.pack_into(f"{end - start}d", advantages, 8 * start, *stage)
        start = end
    return advantages


def transcript_record(transcript: Transcript, cfg_hash: str) -> dict:
    """Flatten one transcript into the versioned JSONL record schema.

    Adds the credit-assignment view (boundaries, stage_rewards) once every
    executed stage has its reward. Deliberately excludes wall-clock metadata
    so identical runs serialize byte-identically.
    """
    stages = []
    for turn in transcript.turns:
        if turn.stage is VERIFY:
            extracted = transcript.verdict.value if transcript.verdict else None
        else:
            answer = transcript.answers.get(turn.stage)
            extracted = answer.raw if answer is not None else None
        stages.append({
            "stage": turn.key,
            "prompt": task.render_prompt(turn.stage, transcript.item),
            "response": turn.response,
            "token_count": turn.token_count,
            "finish_reason": turn.finish_reason,
            "extracted": extracted,
            "reward": transcript.rewards.for_stage(turn.stage),
        })
    record = {
        "schema_version": TRANSCRIPT_SCHEMA_VERSION,
        "episode_id": transcript.episode_id,
        "mode": transcript.mode.value,
        "item_id": transcript.item.id,
        "seed": transcript.seed,
        "backend": transcript.backend_id,
        "config_hash": cfg_hash,
        "failed": transcript.failed,
        "error": transcript.error,
        "stages": stages,
        "final_stage": transcript.final_stage.key if transcript.final_stage else None,
        "final_answer": transcript.final_answer.raw if transcript.final_answer else None,
        "correct": transcript.correct,
        "summary_logprob": transcript.summary_logprob,
        "logprob_available": transcript.logprob_available,
    }
    try:
        traj = Trajectory.from_transcript(transcript)
    except ValueError:  # failed, or a reward not filled (eval samples, unbatched episodes)
        return record
    record["boundaries"] = list(traj.boundaries)
    record["stage_rewards"] = list(traj.stage_rewards)
    return record


# Entries kept by the escape memo; see _escape for the sizing.
ESCAPE_CACHE_SIZE = 128


@lru_cache(maxsize=ESCAPE_CACHE_SIZE)
def _escape(text: str) -> str:
    """encode_basestring, memoized: an item's samples share their prompt and
    response strings and are written in a row, so each is escaped once. The
    encoder escapes every string here, keys included, about 45 a record: 32
    entries thrash (31% hits), 64 hit 97.6% on a 64 x 32 training batch. An
    entry holds its key and the escaped copy, so the memo holds at most
    ESCAPE_CACHE_SIZE (128) x 2 x the longest prompt or response."""
    return encode_basestring(text)


# json.dumps(record, sort_keys=True, ensure_ascii=False)'s encoder; markers=None: records are acyclic
_encode = c_make_encoder and c_make_encoder(
    markers=None, default=json.JSONEncoder().default, encoder=_escape, indent=None,
    key_separator=": ", item_separator=", ", sort_keys=True, skipkeys=False, allow_nan=True)


def dump_record(record: dict) -> str:
    if _encode is None:  # an interpreter without the _json accelerator
        return json.dumps(record, sort_keys=True, ensure_ascii=False)
    return "".join(_encode(record, 0))


def write_transcripts(path: str, transcripts: list[Transcript], cfg_hash: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for transcript in transcripts:
            fh.write(dump_record(transcript_record(transcript, cfg_hash)))
            fh.write("\n")


def render_transcript(record: dict) -> str:
    """The text view of one transcript record."""
    lines = [
        f"episode {record['episode_id']}  mode={record['mode']}  "
        f"item={record['item_id']}  seed={record['seed']}  "
        f"backend={record['backend']}  config={record['config_hash']}"
    ]
    for turn in record["stages"]:
        reward = turn["reward"]
        reward_str = f"{reward:.4f}" if reward is not None else "-"
        lines.append(f"\n[{turn['stage']}] tokens={turn['token_count']} "
                     f"finish={turn['finish_reason']} reward={reward_str}")
        lines.append(f"  prompt   | {turn['prompt']}")
        lines.append(f"  response | {turn['response']}")
    if record["failed"]:
        lines.append(f"\nFAILED: {record['error']}")
    else:
        answer = record["final_answer"] if record["final_answer"] is not None else "<no box>"
        stage = record["final_stage"] or "-"  # a one-shot sample has no stage
        lines.append(f"\nfinal: stage={stage} answer={answer!r} correct={record['correct']}")
    return "\n".join(lines)
