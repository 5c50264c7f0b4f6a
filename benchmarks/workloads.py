"""The benchmark's three workloads.

Each workload is set up once (and timed while doing so), then runs *units*
of work. Unit ``i`` is a pure function of the benchmark seed and ``i``;
unit 0 is the warm-up. :meth:`Workload.run` does and times one unit's
engine work; :meth:`Workload.check` then compares its outputs with an
oracle, raising :class:`CheckFailed` on any mismatch. Checks run outside
the traced window, so their own engine calls leave no spans.

``calls`` passed to ``run`` holds the engine entry points the unit invokes
itself; in the traced phase they are tracer-wrapped, otherwise they are the
engine's own functions, so untraced units pay nothing for tracing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from thinker import (
    EngineConfig,
    GenerationRequest,
    Mode,
    PolicyParams,
    ScriptedPolicyBackend,
    Stage,
    SyntheticTaskConfig,
    Trajectory,
    Verdict,
    analytic_accuracy,
    analytic_expected_tokens,
    build_backend,
    compute_gae,
    compute_stage_returns,
    config_hash,
    evaluate,
    gen_synthetic,
    monte_carlo,
    render_prompt,
    run_batch,
)
from thinker.cli import write_transcripts
from thinker.config import BackendConfig, EvalConfig, RolloutConfig
from thinker.evaluation import THINKER
from thinker.rollout import per_token_rewards

from stub import StubProcess
from tracing import SpanSummary, Tracer, engine_layer_metrics, percentile


class CheckFailed(Exception):
    """A workload's output disagreed with its oracle."""


@dataclass
class Outcome:
    episodes: int
    failed: int
    elapsed: float
    digest: str
    extra: dict = field(default_factory=dict)
    ref_s: float | None = None  # mean reference-slice time around the unit, when measured

    @property
    def rate(self) -> float:
        return self.episodes / self.elapsed


def sub_seed(*parts) -> int:
    """Input seed for one purpose, derived from the benchmark seed."""
    blob = "/".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""
    root_span = ""
    cpu_bound = True  # runs on one CPU; each unit's rate is scaled to the nominal host speed

    def __init__(self, seed: int, tiny: bool, workdir: Path, env: dict) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.env = env
        self.parallelism = min(2, os.cpu_count() or 1)

    def settings(self) -> dict:
        """The workload's sizes and policy, for the run report."""
        raise NotImplementedError

    def config(self) -> EngineConfig:
        """The engine config equivalent to the settings, for its hash."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int, calls) -> tuple[float, object]:
        """Do unit *index*; return its timed seconds and its raw result."""
        raise NotImplementedError

    def check(self, index: int, elapsed: float, result) -> Outcome:
        raise NotImplementedError

    def entry_points(self) -> dict:
        """attribute -> (span name, function) for each engine call a unit makes itself."""
        raise NotImplementedError

    def calls(self, tracer: Tracer | None = None):
        if tracer is None:
            return SimpleNamespace(**{attr: fn for attr, (_, fn) in self.entry_points().items()})
        return SimpleNamespace(**{attr: tracer.wrap(name, fn, root=(name == self.root_span))
                                  for attr, (name, fn) in self.entry_points().items()})

    def finish(self, outcomes: list[Outcome]) -> None:
        """Checks over every distinct unit of the run."""

    def begin_trace(self) -> None:
        """Hook run just before the traced units."""

    def counts(self) -> dict:
        """Counts for the report of an untraced run, beyond episodes and units."""
        return {}

    def layer_metrics(self, summary: SpanSummary, traced: list[Outcome]) -> dict[str, tuple[float, int]]:
        """Layer metrics this workload exercises; the runner reports the rest as 0 with no samples."""
        return engine_layer_metrics(summary, sum(o.episodes for o in traced), self.parallelism, self.root_span)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# train-scripted: training rollouts on the scripted policy, consumed by a trainer

class TrainScripted(Workload):
    """Training-mode batches of 64 prompts x 32 samples, each followed by the
    trainer's step: write the transcripts, then build every episode's
    trajectory, reward stream and GAE advantages (values all zero)."""

    name = "train-scripted"
    root_span = "rollout.run_batch"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.prompts, self.samples = (4, 4) if self.tiny else (64, 32)
        self.traced_units = 1 if self.tiny else 2

    def config(self) -> EngineConfig:
        return EngineConfig(rollout=RolloutConfig(
            parallelism=self.parallelism, samples_per_prompt=self.samples, batch_size=self.prompts))

    def settings(self) -> dict:
        return {"pool_items": 8 * self.prompts, "prompts": self.prompts, "samples_per_prompt": self.samples,
                "parallelism": self.parallelism, "mode": "training", "policy": asdict(PolicyParams())}

    def setup(self) -> None:
        self.cfg = self.config()
        self.cfg_hash = config_hash(self.cfg)
        self.dataset = gen_synthetic(SyntheticTaskConfig(
            n_items=8 * self.prompts, seed=sub_seed(self.seed, "train-items")))
        self.backend = build_backend(self.cfg)
        self.path = self.workdir / "transcripts.jsonl"

    def entry_points(self) -> dict:
        return {
            "run_batch": ("rollout.run_batch", run_batch),
            "write_transcripts": ("cli.write_transcripts", write_transcripts),
            "from_transcript": ("rollout.trajectory", Trajectory.from_transcript),
            "per_token_rewards": ("rewards", per_token_rewards),
            "compute_gae": ("rollout.gae", compute_gae),
        }

    def run(self, index: int, calls):
        start = (index * self.prompts) % len(self.dataset)
        items = list(self.dataset.items[start:start + self.prompts])
        t0 = time.monotonic()
        batch = calls.run_batch(
            self.backend, items, Mode.TRAINING, seed=sub_seed(self.seed, "batch", index),
            samples_per_prompt=self.samples, budgets=self.cfg.budgets, reward_cfg=self.cfg.rewards,
            parallelism=self.parallelism)
        calls.write_transcripts(str(self.path), batch.transcripts, self.cfg_hash)
        trained = []
        for transcript in batch.transcripts:
            if transcript.failed:
                continue
            traj = calls.from_transcript(transcript)
            stream = calls.per_token_rewards(traj)
            trained.append((traj, calls.compute_gae(stream, [0.0] * traj.total_tokens, traj.boundaries)))
        return time.monotonic() - t0, (batch, trained)

    def check(self, index: int, elapsed: float, result) -> Outcome:
        batch, trained = result
        expected = self.prompts * self.samples
        _check(batch.failures == 0, f"{batch.failures} failed episodes")
        digest, records, size = hashlib.sha256(), 0, 0
        with open(self.path, "rb") as fh:
            # small reads: one large buffer would raise glibc's mmap threshold
            # and make the process's peak RSS depend on allocation history
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
                records += chunk.count(b"\n")
                size += len(chunk)
        _check(records == expected == len(batch.transcripts), f"{records} records written, expected {expected}")
        for transcript in batch.transcripts:
            _check_training_rewards(transcript, batch.trailing.p, self.cfg)
        for traj, advantages in trained:
            _check(advantages == compute_stage_returns(traj), "GAE with zero values differs from the stage returns")
        return Outcome(len(batch.transcripts), batch.failures, elapsed, digest.hexdigest(),
                       {"tokens": sum(traj.total_tokens for traj, _ in trained), "bytes": size})

    def layer_metrics(self, summary, traced):
        metrics = super().layer_metrics(summary, traced)
        episodes = sum(o.episodes for o in traced)
        us = 1e6 / episodes
        tails = summary.tails(self.root_span)
        metrics.update({
            "rollout.barrier_ms": (percentile(tails, 0.5) * 1e3, len(tails)),
            "rollout.trajectory.us_per_episode": (
                summary.total("rollout.trajectory") * us, summary.count("rollout.trajectory")),
            "rollout.gae.us_per_episode": (summary.total("rollout.gae") * us, summary.count("rollout.gae")),
            "rollout.gae.tokens_per_episode": (
                sum(o.extra["tokens"] for o in traced) / episodes, summary.count("rollout.gae")),
            "cli.write_transcripts.us_per_episode": (summary.total("cli.write_transcripts") * us, episodes),
            "cli.transcript_bytes_per_episode": (sum(o.extra["bytes"] for o in traced) / episodes, episodes),
        })
        return metrics


def _check_training_rewards(transcript, p: float, cfg: EngineConfig) -> None:
    """Routing and every stage reward of one training episode, as the paper specifies them."""
    r = transcript.rewards
    stages = [turn.stage for turn in transcript.turns]
    where = transcript.episode_id
    _check(r.fast in (0.0, 1.0), f"{where}: fast reward {r.fast}")
    fast_ok = r.fast == 1.0
    if fast_ok:
        expected_verify = (1.0 - p) if transcript.verdict is Verdict.YES else 0.0
    else:
        expected_verify = p if transcript.verdict is Verdict.NO else 0.0
    _check(r.verify == expected_verify, f"{where}: verify reward {r.verify}, expected {expected_verify}")
    want = [Stage.FAST_THINKING, Stage.VERIFICATION]
    if not fast_ok:
        _check(r.slow in (0.0, 1.0), f"{where}: slow reward {r.slow}")
        want.append(Stage.SLOW_THINKING)
        if r.slow == 1.0:
            want.append(Stage.SUMMARIZATION)
    else:
        _check(r.slow is None, f"{where}: slow reward without a slow stage")
    _check(stages == want, f"{where}: stages {[s.key for s in stages]}")
    if Stage.SUMMARIZATION not in stages:
        _check(r.summary is None, f"{where}: summary reward without a summary stage")
        return
    tokens = transcript.turns[-1].token_count
    logprob = transcript.summary_logprob
    _check(logprob == cfg.backend.policy.logprob_per_token * tokens, f"{where}: summary log-probability {logprob}")
    rc = cfg.rewards
    if tokens < rc.min_summary_tokens:
        allowed = (0.0,)
    else:
        term = logprob / tokens if rc.logprob_per_token_mean else logprob
        allowed = tuple(match + rc.logprob_coef * term for match in (0.0, 1.0))
    _check(r.summary in allowed, f"{where}: summary reward {r.summary} not in {allowed}")


# ---------------------------------------------------------------------------
# eval-http: inference episodes through the HTTP client against a latency stub

class EvalHttp(Workload):
    """evaluate(mode="thinker") through HttpBackend, 2 samples in flight,
    against the keep-alive stub with a fixed plus per-token latency."""

    name = "eval-http"
    root_span = "evaluation.evaluate"
    # waiting on the stub dominates, and the stub, a child process, would
    # share a pinned CPU: neither pinned nor scaled
    cpu_bound = False

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.questions, self.k = (4, 2) if self.tiny else (16, 2)
        self.base_ms, self.per_token_us = (1.0, 2.0) if self.tiny else (20.0, 40.0)
        self.traced_units = 1 if self.tiny else 16
        self.stub: StubProcess | None = None

    def settings(self) -> dict:
        return {"questions": self.questions, "k": self.k, "mode": THINKER, "parallelism": self.parallelism,
                "latency": {"base_ms": self.base_ms, "per_token_us": self.per_token_us},
                "policy": asdict(PolicyParams())}

    def setup(self) -> None:
        data_cfg = SyntheticTaskConfig(n_items=self.questions, seed=sub_seed(self.seed, "eval-items"))
        self.dataset = gen_synthetic(data_cfg)
        self.stub = StubProcess({
            "dataset": asdict(data_cfg), "policy": asdict(PolicyParams()),
            "base_ms": self.base_ms, "per_token_us": self.per_token_us,
        }, self.env)
        self.cfg = EngineConfig(
            backend=BackendConfig(kind="http", base_url=self.stub.base_url),
            rollout=RolloutConfig(parallelism=self.parallelism), eval=EvalConfig(k=self.k))
        self.backend = build_backend(self.cfg)
        self.reference = ScriptedPolicyBackend(self.cfg.backend.policy)
        item = self.dataset.items[0]
        self.backend.generate(GenerationRequest(
            messages=({"role": "user", "content": render_prompt(Stage.FAST_THINKING, item)},),
            max_tokens=self.cfg.budgets.fast_tokens, temperature=1.0, seed=0))

    def config(self) -> EngineConfig:
        # the stub's port changes from run to run; leave it out of the hash
        return replace(self.cfg, backend=replace(self.cfg.backend, base_url="http://127.0.0.1/v1"))

    def entry_points(self) -> dict:
        return {"evaluate": ("evaluation.evaluate", evaluate)}

    def _evaluate(self, fn, backend, seed: int, parallelism: int):
        return fn(backend, self.dataset, THINKER, self.k, budgets=self.cfg.budgets, seed=seed,
                  reward_cfg=self.cfg.rewards, vocab=self.cfg.eval.reflection_vocab(),
                  parallelism=parallelism)

    def run(self, index: int, calls):
        t0 = time.monotonic()
        report = self._evaluate(calls.evaluate, self.backend, sub_seed(self.seed, "round", index),
                                self.parallelism)
        return time.monotonic() - t0, report

    def check(self, index: int, elapsed: float, report) -> Outcome:
        got = report.to_dict()
        _check(report.failures == 0, f"{report.failures} failed samples")
        expected = self._evaluate(evaluate, self.reference, sub_seed(self.seed, "round", index), 1).to_dict()
        for key in expected.keys() | got.keys():
            _check(got.get(key) == expected.get(key),
                   f"report key {key!r}: HTTP {got.get(key)!r} != in-process {expected.get(key)!r}")
        data = json.dumps(got, sort_keys=True, ensure_ascii=False, indent=2).encode("utf-8")
        return Outcome(self.questions * self.k, report.failures, elapsed, hashlib.sha256(data).hexdigest())

    def begin_trace(self) -> None:
        self.stub.reset()

    def counts(self) -> dict:
        return {"http_requests_since_setup": self.stub.stats()["chat_requests"]}

    def layer_metrics(self, summary, traced):
        metrics = super().layer_metrics(summary, traced)
        metrics.update(_http_metrics(self.stub.stats(), summary))
        aggregate = summary.tails(self.root_span)
        metrics["evaluation.aggregate_ms"] = (percentile(aggregate, 0.5) * 1e3, len(aggregate))
        return metrics

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def _http_metrics(stub_stats: dict, summary: SpanSummary) -> dict[str, tuple[float, int]]:
    """Client spans joined with the stub's records on the wire seed."""
    calls = summary.by_name["backend.http"]
    served = stub_stats["requests"]
    send, back = [], []
    for span in calls:
        times = served.get(str(span.key))
        if times is not None:
            send.append(times[0] - span.start)
            back.append(span.end - times[1])
    service = [finish - arrival for arrival, finish in served.values()]
    requests = stub_stats["chat_requests"]
    wall = summary.total("evaluation.evaluate")
    latency = [span.duration for span in calls]
    return {
        "backend.http.request_p50_ms": (percentile(latency, 0.5) * 1e3, len(latency)),
        "backend.http.request_p99_ms": (percentile(latency, 0.99) * 1e3, len(latency)),
        "backend.http.service_p50_ms": (percentile(service, 0.5) * 1e3, len(service)),
        "backend.http.send_delay_p50_ms": (percentile(send, 0.5) * 1e3, len(send)),
        "backend.http.return_delay_p50_ms": (percentile(back, 0.5) * 1e3, len(back)),
        "backend.http.connections_per_request": (stub_stats["connections"] / max(requests, 1), requests),
        "backend.http.attempts_per_call": (requests / len(calls), len(calls)),
        "backend.http.in_flight_mean": (stub_stats["service_s"] / wall if wall else 0.0, requests),
    }


# ---------------------------------------------------------------------------
# simulate-long: serial Monte Carlo with responses near the stage budgets

class SimulateLong(Workload):
    """monte_carlo() over inference episodes whose responses are about ten
    times the default length, so per-byte work dominates."""

    name = "simulate-long"
    root_span = "sim.monte_carlo"
    params = PolicyParams(p_fast=0.2, fast_tokens=900, verify_tokens=300, slow_tokens=5500)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.episodes = 64 if self.tiny else 256
        self.traced_units = 1 if self.tiny else 16
        self.parallelism = 1

    def settings(self) -> dict:
        return {"episodes_per_unit": self.episodes, "items": 128, "mode": "inference",
                "policy": asdict(self.params)}

    def setup(self) -> None:
        self.cfg = EngineConfig(backend=BackendConfig(policy=self.params))
        self.dataset = gen_synthetic(SyntheticTaskConfig(n_items=128, seed=sub_seed(self.seed, "sim-items")))

    def config(self) -> EngineConfig:
        return self.cfg

    def entry_points(self) -> dict:
        return {"monte_carlo": ("sim.monte_carlo", monte_carlo)}

    def run(self, index: int, calls):
        t0 = time.monotonic()
        estimates = calls.monte_carlo(self.params, self.episodes, sub_seed(self.seed, "mc", index),
                                      budgets=self.cfg.budgets, dataset=self.dataset)
        return time.monotonic() - t0, estimates

    def check(self, index: int, elapsed: float, result) -> Outcome:
        accuracy, tokens = result
        _check(accuracy.n == self.episodes, f"{self.episodes - accuracy.n} failed episodes")
        data = json.dumps([asdict(accuracy), asdict(tokens)], sort_keys=True).encode("utf-8")
        return Outcome(self.episodes, self.episodes - accuracy.n, elapsed, hashlib.sha256(data).hexdigest(),
                       {"estimates": (accuracy, tokens)})

    def finish(self, outcomes: list[Outcome]) -> None:
        """Pooled Monte Carlo estimates lie within 4 standard errors of the closed forms."""
        estimates = [o.extra["estimates"] for o in outcomes]
        for which, analytic in ((0, analytic_accuracy(self.params)),
                                (1, analytic_expected_tokens(self.params, self.cfg.budgets))):
            n = sum(e[which].n for e in estimates)
            mean = sum(e[which].value * e[which].n for e in estimates) / n
            se = sum((e[which].stderr * e[which].n) ** 2 for e in estimates) ** 0.5 / n
            label = ("accuracy", "mean tokens")[which]
            _check(abs(mean - analytic) <= 4 * se if se else mean == analytic,
                   f"Monte Carlo {label} {mean:.6g} (se {se:.3g}) vs analytic {analytic:.6g}")


WORKLOADS = {w.name: w for w in (TrainScripted, EvalHttp, SimulateLong)}
