"""Span tracer for the benchmark's traced run.

While a traced phase runs, the engine's public functions are replaced, at
the module or class attribute where the engine looks each one up, by a
wrapper that records a span: name, start, end, parent span and thread.
Spans stay in memory and are summarised when the phase ends. Nothing in the
engine is edited; restoring the attributes removes every wrapper.

Times come from ``time.monotonic()`` so they can be joined with timestamps
taken by the HTTP stub, which runs in another process on the same clock.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

from thinker import backend, evaluation, grading, rewards, rollout, sim, task

# Every site where the engine looks up a function a layer metric covers,
# with the span name it is recorded under.
TARGETS = (
    (grading, "extract_boxed", "grading.extract_boxed"),
    (task, "extract_boxed", "grading.extract_boxed"),
    (backend, "extract_boxed", "grading.extract_boxed"),
    (evaluation, "extract_boxed", "grading.extract_boxed"),
    (task, "extract_verdict", "grading.extract_verdict"),
    (grading.ExtractedAnswer, "from_raw", "grading.from_raw"),
    (task, "answers_equal", "grading.answers_equal"),
    (backend, "answers_equal", "grading.answers_equal"),
    (rewards, "answers_equal", "grading.answers_equal"),
    (rollout, "answers_equal", "grading.answers_equal"),
    (evaluation, "answers_equal", "grading.answers_equal"),
    (task, "render_prompt", "task.render_prompt"),
    (rollout, "advance", "task.advance"),
    (evaluation, "advance", "task.advance"),
    (task.EpisodeState, "messages", "task.messages"),
    (rollout, "GenerationRequest", "backend.request_build"),
    (evaluation, "GenerationRequest", "backend.request_build"),
    (rollout, "derive_seed", "backend.request_build"),
    (evaluation, "derive_seed", "backend.request_build"),
    (sim, "derive_seed", "backend.request_build"),
    (backend, "truncate_to_budget", "backend.truncate"),
    (backend.ScriptedPolicyBackend, "generate", "backend.scripted"),
    (rollout, "run_episode", "rollout.run_episode"),
    (evaluation, "run_episode", "rollout.run_episode"),
    (sim, "run_episode", "rollout.run_episode"),
    (rollout, "reward_fast", "rewards"),
    (rollout, "reward_slow", "rewards"),
    (rollout, "reward_summary", "rewards"),
    (rollout, "reward_verify", "rewards"),
    (rollout, "update_trailing", "rewards"),
    (evaluation, "count_reflections", "evaluation.count_reflections"),
    (backend.HttpBackend, "generate", "backend.http"),
)


def _wire_seed(_backend, request):
    """Key of an HTTP generate span: the seed sent on the wire."""
    return request.seed


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    key: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables.

    A span's parent is the innermost open span of its own thread. Spans
    opened on a thread with nothing open (pool workers) take the innermost
    open *root* span as their parent instead, so episodes run by a thread
    pool still point at the batch that caused them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, name: str, fn, key=None, root: bool = False):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.monotonic
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else tracer._root
            stack.append(sid)
            if root:
                outer, tracer._root = tracer._root, sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if root:
                    tracer._root = outer
                spans.append(Span(sid, name, start, end, parent, threading.get_ident(),
                                  key(*args) if key else None))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__))
                else:
                    replacement = self.wrap(name, raw, key=_wire_seed if name == "backend.http" else None)
                saved.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Per-name counts, total time and self time of a finished trace.

    Self time is a span's duration minus the time its same-thread children
    cover; children on other threads overlap it rather than nest in it.
    """

    def __init__(self, spans: list[Span]) -> None:
        by_id = {s.sid: s for s in spans}
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                covered[s.parent] += s.duration
        self.by_id = by_id
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            self.self_time[s.name] += s.duration - covered[s.sid]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.by_name.get(name, ())]

    def grading_self(self) -> tuple[float, int]:
        names = [n for n in self.by_name if n.startswith("grading.")]
        return sum(self.self_time[n] for n in names), sum(self.count(n) for n in names)

    def tails(self, root_name: str) -> list[float]:
        """For each root span: time from its last direct child's end to its own end."""
        last_child: dict[int, float] = {}
        for s in self.by_id.values():
            parent = self.by_id.get(s.parent)
            if parent is not None and parent.name == root_name:
                last_child[s.parent] = max(last_child.get(s.parent, s.end), s.end)
        return [r.end - last_child.get(r.sid, r.start) for r in self.by_name.get(root_name, ())]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def engine_layer_metrics(summary: SpanSummary, episodes: int, parallelism: int,
                         root_name: str) -> dict[str, tuple[float, int]]:
    """Layer metrics every workload reports, as name -> (value, sample count).

    *root_name* is the span of the call that ran the episodes; busy share
    divides summed episode time by that call's wall time times parallelism.
    """
    e = max(episodes, 1)
    us = 1e6 / e
    episode_time = summary.total("rollout.run_episode")
    grading_self, grading_spans = summary.grading_self()
    generate_calls = summary.count("backend.scripted") + summary.count("backend.http")
    run_episode = summary.durations("rollout.run_episode")
    root_wall = summary.total(root_name) * parallelism
    return {
        "grading.extract_boxed.calls_per_episode": (summary.count("grading.extract_boxed") / e, episodes),
        "grading.extract_boxed.self_us_per_episode": (
            summary.self_time["grading.extract_boxed"] * us, summary.count("grading.extract_boxed")),
        "grading.from_raw.calls_per_episode": (summary.count("grading.from_raw") / e, episodes),
        "grading.answers_equal.calls_per_episode": (summary.count("grading.answers_equal") / e, episodes),
        "grading.answers_equal.self_us_per_episode": (
            summary.self_time["grading.answers_equal"] * us, summary.count("grading.answers_equal")),
        "grading.self_share": (grading_self / episode_time if episode_time else 0.0, grading_spans),
        "task.advance.self_us_per_episode": (
            summary.self_time["task.advance"] * us, summary.count("task.advance")),
        "task.render_prompt.us_per_episode": (
            summary.total("task.render_prompt") * us, summary.count("task.render_prompt")),
        "task.messages.us_per_episode": (summary.total("task.messages") * us, summary.count("task.messages")),
        "backend.generate.calls_per_episode": (generate_calls / e, episodes),
        "backend.request_build.us_per_episode": (
            summary.total("backend.request_build") * us, summary.count("backend.request_build")),
        "backend.scripted.self_us_per_episode": (
            summary.self_time["backend.scripted"] * us, summary.count("backend.scripted")),
        "backend.truncate.us_per_episode": (
            summary.total("backend.truncate") * us, summary.count("backend.truncate")),
        "rollout.run_episode.p50_us": (percentile(run_episode, 0.5) * 1e6, len(run_episode)),
        "rollout.run_episode.p99_us": (percentile(run_episode, 0.99) * 1e6, len(run_episode)),
        "rollout.episode_busy_share": (episode_time / root_wall if root_wall else 0.0, len(run_episode)),
        "rewards.us_per_episode": (summary.total("rewards") * us, summary.count("rewards")),
        "evaluation.count_reflections.us_per_episode": (
            summary.total("evaluation.count_reflections") * us, summary.count("evaluation.count_reflections")),
    }
