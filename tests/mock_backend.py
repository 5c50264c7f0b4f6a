"""Test doubles: a fixture-replay backend, thread-recording scripted policies
and a scripted policy whose slow stage fails."""

import threading

from thinker.backend import (
    Backend,
    GenerationRequest,
    GenerationResult,
    ScriptedPolicyBackend,
    derive_seed,
    truncate_to_budget,
)
from thinker.errors import BackendError
from thinker.task import Stage


class MockFixtureError(BackendError):
    """Mock backend was asked for a (stage, item) it has no fixture for."""


class MockBackend(Backend):
    """Fixture-driven backend for deterministic tests.

    fixtures maps (stage, item_id) to verbatim response text; scoring
    returns one configured value (0.0 for empty completions). Every generate
    call is appended to .calls for assertions.
    """

    name = "mock"

    def __init__(self, fixtures: dict[tuple[Stage, str], str],
                 logprob_value: float = -100.0):
        self.fixtures = dict(fixtures)
        self.logprob_value = logprob_value
        self.calls: list[GenerationRequest] = []
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        with self._lock:
            self.calls.append(request)
        key = (request.stage, request.item_id)
        try:
            text = self.fixtures[key]
        except KeyError:
            stage_key = request.stage.key if request.stage else None
            raise MockFixtureError(
                f"no fixture for stage={stage_key!r} item={request.item_id!r}"
            ) from None
        text, tokens, finish = truncate_to_budget(text, request.max_tokens)
        return GenerationResult(text=text, token_count=tokens, finish_reason=finish)

    def score_logprob(self, prompt_messages, completion_text: str) -> float:
        if not completion_text:
            return 0.0
        return self.logprob_value


class RecordingScriptedBackend(ScriptedPolicyBackend):
    """The scripted policy, recording the thread of every generate() call."""

    def __init__(self, params=None):
        super().__init__(params)
        self.threads: set[int] = set()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.threads.add(threading.get_ident())
        return super().generate(request)


class PooledScriptedBackend(RecordingScriptedBackend):
    """The scripted policy marked as waiting on a server, so batches run its
    episodes on the thread pool the HTTP backend uses."""

    waits_on_server = True


class SlowStageFailingBackend(ScriptedPolicyBackend):
    """Fails about half of all slow-thinking requests. The draw comes from a
    seed derived from the request's, never from the request seed itself,
    which also decides whether the policy answers correctly."""

    def generate(self, request):
        if request.stage is Stage.SLOW_THINKING and derive_seed(request.seed, "fail") % 2 == 0:
            raise BackendError("injected slow-stage failure")
        return super().generate(request)
