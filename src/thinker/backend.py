"""Text-generation backends behind one interface.

Two implementations share the generate/score contract:

* ScriptedPolicyBackend samples parametric responses (correct with tunable
  probabilities) so the task's dynamics can be simulated without a model.
* HttpBackend speaks chat-completions JSON to any inference server.

Requests carry the full dialogue plus non-wire metadata (stage, item id,
reference answer) that only the in-process backends read; the HTTP client
serializes exactly {model, messages, max_tokens, temperature, seed}.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from urllib.parse import quote, urlsplit

from .dataset import find_surrogate
from .errors import BackendError, LogprobUnsupportedError
from .grading import PARSE_CACHE_SIZE, answers_equal, extract_boxed, parse_numeric
from .task import FAST, SUMMARY, VERIFY, Stage

FINISH_STOP = "stop"
FINISH_LENGTH = "length"


def count_tokens(text: str) -> int:
    """Whitespace word count: the default, documented-approximate tokenizer
    used whenever a server does not report usage."""
    return len(text.split())


def truncate_to_budget(text: str, max_tokens: int) -> tuple[str, int, str]:
    """Clip text to a token budget; returns (text, token_count, finish_reason)."""
    words = text.split()
    if len(words) > max_tokens:
        return " ".join(words[:max_tokens]), max_tokens, FINISH_LENGTH
    return text, len(words), FINISH_STOP


_sha256 = hashlib.sha256
_first_u64 = struct.Struct(">Q").unpack_from  # the digest's first 8 bytes, big-endian


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary parts (never Python's salted hash):
    the top 63 bits of the sha256 of their str forms joined by "\\x1f"."""
    return _first_u64(_sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest())[0] >> 1


def splitmix64_draw(seed: int | None) -> float:
    """Uniform draw in [0, 1) keyed by a seed (None reads as 0).

    splitmix64's first output for state seed mod 2**64 (Steele, Lea and
    Flood, OOPSLA 2014), its top 53 bits scaled by 2**-53: one mix per
    draw, where seeding a Mersenne Twister would fill 624 words for it.
    """
    z = ((seed or 0) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


@dataclass(frozen=True, slots=True)
class GenerationRequest:
    """One generation call: full dialogue, budget, temperature, seed.

    stage/item_id/reference_answer are bookkeeping for the in-process
    backends (scripted simulation, test doubles); they never reach the wire.
    """

    messages: tuple[dict, ...]
    max_tokens: int
    temperature: float
    seed: int | None = None
    stage: Stage | None = None
    item_id: str | None = None
    reference_answer: str | None = None

    def __post_init__(self) -> None:
        messages = self.messages
        if type(messages) is not tuple:  # a list, say; stage_request already passes a tuple
            messages = tuple(messages)
            object.__setattr__(self, "messages", messages)
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if not messages:
            raise ValueError("messages must be nonempty")
        for i, msg in enumerate(messages):
            expected = "user" if i % 2 == 0 else "assistant"
            if msg.get("role") != expected:
                raise ValueError("messages must alternate user/assistant starting with user")
        if messages[-1]["role"] != "user":
            raise ValueError("the last message must be the pending user prompt")


@dataclass(frozen=True, slots=True)
class GenerationResult:
    text: str
    token_count: int
    finish_reason: str = FINISH_STOP


class Backend:
    """Interface: concurrent-safe generate(), optional completion scoring."""

    name = "backend"
    waits_on_server = False  # does generate() wait on another process? (see rollout.run_all)

    def generate(self, request: GenerationRequest) -> GenerationResult:
        raise NotImplementedError

    def score_logprob(self, prompt_messages, completion_text: str) -> float:
        """Sum of token log-probabilities of the completion under the given
        prompt; <= 0. Raises LogprobUnsupportedError when unavailable."""
        raise LogprobUnsupportedError(f"{self.name} backend cannot score completions")

    def close(self) -> None:
        """Release what the backend keeps open between requests; nothing here."""


@dataclass(frozen=True)
class PolicyParams:
    """Knobs of the scripted policy.

    p_fast / p_slow are the chances the fast / slow stage answers correctly;
    t_p is P(boxed Yes | fast answer was correct) and t_n is
    P(boxed No | fast answer was wrong). Token fields fix each stage's
    response length (whitespace tokens) so length accounting is exact, and
    logprob_per_token makes scored summaries linear in their length.
    """

    p_fast: float = 0.5
    t_p: float = 0.8
    t_n: float = 0.8
    p_slow: float = 0.5
    fast_tokens: int = 120
    verify_tokens: int = 80
    slow_tokens: int = 400
    summary_tokens: int = 350
    logprob_per_token: float = -0.5

    def __post_init__(self) -> None:
        for name in ("p_fast", "t_p", "t_n", "p_slow"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("fast_tokens", "verify_tokens", "slow_tokens", "summary_tokens"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be >= 8 (room for the closing sentence)")
        if not -math.inf < self.logprob_per_token <= 0:  # NaN included
            raise ValueError("logprob_per_token must be finite and <= 0")


_FILLER = ("Working", "through", "the", "given", "quantities", "step", "by", "step.")
_SLOW_FILLER = ("However,", "the", "earlier", "approach", "missed", "a", "case;", "reworking", "it", "now.")


# Entries kept by the filler memo; see _filler for the sizing.
FILLER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=FILLER_CACHE_SIZE)
def _filler(lead_words: tuple[str, ...], pad: int) -> str:
    """The first pad words of lead_words repeated (whole cycles, then the
    partial one), space-separated, memoized.

    A policy asks for a few fillers only: one per stage and tail length,
    and the tail's length changes only with whitespace in an answer. So
    FILLER_CACHE_SIZE (32) entries hold every live filler of a run. An
    entry takes under 7 bytes per filler word (35 kB for 5,500 words) and
    _padded asks for at most the stage budget's words, so the memo holds at
    most 32 x the largest stage budget.
    """
    cycles, rest = divmod(pad, len(lead_words))
    return " ".join([" ".join(lead_words)] * cycles + list(lead_words[:rest]))


@functools.lru_cache(maxsize=FILLER_CACHE_SIZE)
def _padded(lead_words: tuple[str, ...], total_tokens: int, tail: str,
            max_tokens: int) -> GenerationResult:
    """total_tokens whitespace tokens (or the tail's, if more) ending with
    the nonempty *tail*, clipped to max_tokens by truncate_to_budget. Lead
    words hold no whitespace, so the count is known without splitting the
    text, and the filler before the tail is built once per length.

    Memoized, so the samples of an item that draw the same response share
    its frozen result: run_batch and evaluate visit an item's samples in a
    row. An entry holds at most a stage budget's words plus the tail.
    monte_carlo cycles through more items than FILLER_CACHE_SIZE and misses
    here, so each miss must still find its filler in _filler's memo.
    """
    tail_len = len(tail.split())
    pad = min(max(total_tokens - tail_len, 0), max_tokens)
    text = _filler(lead_words, pad) + " " + tail if pad else tail
    if pad + tail_len > max_tokens:
        return GenerationResult(*truncate_to_budget(text, max_tokens))
    return GenerationResult(text, pad + tail_len, FINISH_STOP)


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def wrong_answer(truth: str) -> str:
    """A deterministic incorrect answer: truth+1 for numbers, suffix otherwise
    (also when truth+1 has more digits than str() converts).

    Memoized like ExtractedAnswer.from_raw (same size and reasoning), since
    every wrong scripted answer would otherwise re-parse the truth.
    """
    value = parse_numeric(truth.strip())
    if value is not None:
        try:
            return str(value + 1)  # a Fraction prints as "n", or "n/d"
        except ValueError:
            pass
    return truth + "_wrong"


class ScriptedPolicyBackend(Backend):
    """Parametric simulated agent; a pure function of the request.

    generate reads the stage, the reference answer, the seed (None reads as
    0), the budget and the dialogue from the request. A request without a
    reference answer raises BackendError; one without a stage is answered
    as fast thinking. Every stage but the summary draws once against the
    PolicyParams chances; the draw is splitmix64_draw(seed). Only
    verification grades the fast answer: the boxed answer of the first
    assistant message, wrong when the dialogue holds one message. The
    summary restates the boxed answer of messages[-2], the slow response,
    or the reference when that message has no box. A response is filler
    ending in a boxed answer, at its stage's length, clipped to max_tokens.
    """

    name = "scripted"

    def __init__(self, params: PolicyParams | None = None):
        self.params = params or PolicyParams()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        truth = request.reference_answer
        if truth is None:
            raise BackendError("scripted backend needs reference_answer metadata")
        params = self.params
        stage = request.stage
        messages = request.messages
        if stage is SUMMARY:
            boxed = extract_boxed(messages[-2]["content"]) if len(messages) > 1 else None
            answer = boxed.raw if boxed else truth
            tail = f"The final answer is \\boxed{{{answer}}}."
            return _padded(_FILLER, params.summary_tokens, tail, request.max_tokens)
        draw = splitmix64_draw(request.seed)
        if stage is None or stage is FAST:
            answer = truth if draw < params.p_fast else wrong_answer(truth)
            tail = f"The final answer is \\boxed{{{answer}}}."
            return _padded(_FILLER, params.fast_tokens, tail, request.max_tokens)
        if stage is VERIFY:
            if len(messages) > 1 and answers_equal(extract_boxed(messages[1]["content"]), truth):
                verdict = "Yes" if draw < params.t_p else "No"
            else:
                verdict = "No" if draw < params.t_n else "Yes"
            tail = f"\\boxed{{{verdict}}}"
            return _padded(_FILLER, params.verify_tokens, tail, request.max_tokens)
        answer = truth if draw < params.p_slow else wrong_answer(truth)
        tail = f"</think> The refined answer is \\boxed{{{answer}}}."
        return _padded(_SLOW_FILLER, params.slow_tokens, tail, request.max_tokens)

    def score_logprob(self, prompt_messages, completion_text: str) -> float:
        return self.params.logprob_per_token * count_tokens(completion_text)


BACKEND_KINDS = ("scripted", "http")


@dataclass(frozen=True)
class BackendConfig:
    """Which backend to build, the HTTP client's settings, and the scripted
    policy's parameters (the config file's flat ``backend`` section)."""

    kind: str = "scripted"
    base_url: str = "http://localhost:8000/v1"
    model: str = "default"
    timeout_s: float = 60.0
    api_key_env: str = "THINKER_API_KEY"
    max_attempts: int = 3
    backoff_s: float = 0.5
    policy: PolicyParams = field(default_factory=PolicyParams)

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend.kind must be one of {BACKEND_KINDS}")
        if not 0 < self.timeout_s < math.inf:  # NaN included
            raise ValueError("backend.timeout_s must be finite and positive")
        if self.max_attempts < 1:
            raise ValueError("backend.max_attempts must be >= 1")
        if not 0 <= self.backoff_s < math.inf:  # NaN included
            raise ValueError("backend.backoff_s must be finite and >= 0")
        try:
            url = urlsplit(self.base_url)
            url.port  # parsed on access: raises for a port that is not a number in range
        except ValueError:
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend.base_url must be an http:// or https:// URL with a host "
                             f"and a valid port, got {self.base_url!r}")


def _retry_after(value: str | None, cap: float) -> float | None:
    """Seconds a delta-seconds Retry-After header asks to wait, at most cap;
    None when the header is missing or an HTTP-date."""
    value = (value or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), cap)
    return None


class HttpBackend(Backend):
    """Chat-completions client with retries.

    The client speaks HTTP/1.1 through the standard library's http.client.
    It keeps one keep-alive connection per request in flight: a request
    takes an idle connection, or opens one when none is idle, and puts it
    back once the response is read unless the server closes it. A reused
    connection the server closed while it sat idle is reopened once, at
    once, without counting as an attempt. HTTPS checks the server against
    the system trust store; proxy environment variables are not read.

    Transport errors, 5xx and 429 responses are retried with exponential
    backoff; a 429 whose Retry-After gives seconds waits that long instead,
    at most timeout_s (RFC 6585; RFC 9110 section 10.2.3). timeout_s is the
    socket timeout of each connect, send and receive. A still-failing call
    raises BackendError (episodes record the failure, they never fabricate
    text). The API key, when required, is read once, by the constructor,
    from the environment variable named in the settings (never from config
    files); a key unfit for a header raises BackendError there. Completion
    scoring is not offered over this protocol: third-party logprobs are a
    proxy for the policy's own, so the capability is left to in-process backends.
    """

    name = "http"
    waits_on_server = True

    def __init__(self, settings: BackendConfig | None = None):
        import http.client  # loaded on first use: runs without a server never pay for it
        self.settings = settings or BackendConfig(kind="http")
        url = urlsplit(self.settings.base_url)
        target = url.path.rstrip("/") + "/chat/completions" + (f"?{url.query}" if url.query else "")
        # percent-encode what a request line cannot carry (spaces, controls, non-ASCII)
        self._target = quote(target, safe="!#$%&'()*+,/:;=?@[]~")
        if url.scheme == "https":
            import ssl
            self._connect = functools.partial(
                http.client.HTTPSConnection, url.hostname, url.port,
                timeout=self.settings.timeout_s, context=ssl.create_default_context())
        else:
            self._connect = functools.partial(
                http.client.HTTPConnection, url.hostname, url.port, timeout=self.settings.timeout_s)
        self._idle = deque()  # keep-alive connections between requests; append and pop are atomic
        self._headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.settings.api_key_env, "")
        if key:
            if not (key.isascii() and key.isprintable()):  # a stray "\r" from a file; never echo the key
                raise BackendError(f"the API key in ${self.settings.api_key_env} holds a character "
                                   "that cannot go in a header")
            self._headers["Authorization"] = f"Bearer {key}"

    def _exchange(self, conn, body: bytes) -> tuple[int, str | None, bytes]:
        """Status, Retry-After and body of one POST on conn. The connection
        goes back to the idle pool if the server keeps it open; any error
        closes it."""
        try:
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return resp.status, resp.getheader("Retry-After"), data

    def _roundtrip(self, body: bytes) -> tuple[int, str | None, bytes]:
        """One POST on an idle connection, or on a new one when none is idle."""
        try:
            conn = self._idle.pop()  # the most recently used: the least likely to have gone stale
        except IndexError:
            return self._exchange(self._connect(), body)
        try:
            return self._exchange(conn, body)
        except (ConnectionResetError, BrokenPipeError):  # http.client.RemoteDisconnected included
            return self._exchange(self._connect(), body)  # closed while idle: not an attempt

    def close(self) -> None:
        """Close the idle connections; call it with no request in flight.
        A later request opens a new connection."""
        while self._idle:
            self._idle.pop().close()

    def _post(self, payload: dict) -> dict:
        import http.client  # already loaded by __init__; this only looks it up
        body = json.dumps(payload, allow_nan=False).encode()
        last_error: Exception | None = None
        wait: float | None = None  # a 429's Retry-After in seconds; None: the backoff
        for attempt in range(self.settings.max_attempts):
            if attempt:
                time.sleep(self.settings.backoff_s * 2 ** (attempt - 1) if wait is None else wait)
                wait = None
            try:
                status, retry_after, data = self._roundtrip(body)
            except (OSError, http.client.HTTPException) as exc:  # timeouts are OSError
                last_error = exc
                continue
            if status == 200:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise BackendError(f"malformed JSON from server: {exc}") from exc
            if status == 429:
                last_error = BackendError("rate limited (429)")
                wait = _retry_after(retry_after, self.settings.timeout_s)
            elif status >= 500:
                last_error = BackendError(f"server error {status}")
            else:
                raise BackendError(f"request failed with status {status}: "
                                   f"{data.decode('utf-8', 'replace')[:200]}")
        raise BackendError(f"request failed after {self.settings.max_attempts} attempts: {last_error}")

    def generate(self, request: GenerationRequest) -> GenerationResult:
        payload = {
            "model": self.settings.model,
            "messages": request.messages,  # a tuple serializes as a JSON array
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        body = self._post(payload)
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc!r}") from exc
        if not isinstance(text, str) or find_surrogate(text):  # a lone surrogate is never echoed
            raise BackendError("completion content is not a string UTF-8 can encode")
        usage = body.get("usage")
        tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
        if type(tokens) is not int or tokens < 0:  # a JSON true or false is a bool
            tokens = count_tokens(text)
        finish = choice.get("finish_reason")
        if not isinstance(finish, str) or not finish or find_surrogate(finish):
            finish = FINISH_STOP  # none the record can hold; other values are kept as sent
        return GenerationResult(text=text, token_count=tokens, finish_reason=finish)
