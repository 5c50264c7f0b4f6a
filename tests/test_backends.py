import json
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinker.backend import (
    _FILLER,
    _SLOW_FILLER,
    FILLER_CACHE_SIZE,
    FINISH_LENGTH,
    FINISH_STOP,
    GenerationRequest,
    GenerationResult,
    BackendConfig,
    HttpBackend,
    PolicyParams,
    ScriptedPolicyBackend,
    count_tokens,
    derive_seed,
    truncate_to_budget,
    wrong_answer,
    _filler,
    _padded,
)
from thinker.dataset import QAItem
from thinker.errors import BackendError, LogprobUnsupportedError
from thinker.grading import extract_boxed, extract_verdict, Verdict
from thinker.rollout import run_batch, run_episode, write_transcripts
from thinker.task import Mode, Stage, StageBudgets

from mock_backend import MockBackend, MockFixtureError
from stub_server import StubServer


def user_msg(text="hello"):
    return ({"role": "user", "content": text},)


def request(**kwargs):
    defaults = dict(messages=user_msg(), max_tokens=100, temperature=1.0,
                    seed=1, stage=Stage.FAST_THINKING, item_id="q1",
                    reference_answer="7")
    defaults.update(kwargs)
    return GenerationRequest(**defaults)


class TestRequestContract:
    def test_roles_must_alternate(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=(
                {"role": "user", "content": "a"},
                {"role": "user", "content": "b"},
            ), max_tokens=10, temperature=1.0)

    def test_must_start_with_user(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=({"role": "assistant", "content": "a"},),
                              max_tokens=10, temperature=1.0)

    def test_must_end_with_user(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=(
                {"role": "user", "content": "a"},
                {"role": "assistant", "content": "b"},
            ), max_tokens=10, temperature=1.0)

    def test_nonempty_messages(self):
        with pytest.raises(ValueError, match="messages must be nonempty"):
            GenerationRequest(messages=(), max_tokens=10, temperature=1.0)

    def test_positive_budget(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=user_msg(), max_tokens=0, temperature=1.0)


class TestTruncation:
    def test_under_budget_untouched(self):
        text, tokens, finish = truncate_to_budget("one two three", 10)
        assert (text, tokens, finish) == ("one two three", 3, FINISH_STOP)

    def test_over_budget_clipped(self):
        text, tokens, finish = truncate_to_budget("a b c d e f g", 5)
        assert text == "a b c d e"
        assert tokens == 5
        assert finish == FINISH_LENGTH

    def test_count_tokens_is_word_count(self):
        assert count_tokens("") == 0
        assert count_tokens("x \\boxed{1}") == 2


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed(0, "stage", i) for i in range(100)}
        assert len(seeds) == 100


class TestMockBackend:
    def test_fixture_verbatim(self):
        mock = MockBackend({(Stage.FAST_THINKING, "q1"): "canned \\boxed{7}"})
        result = mock.generate(request())
        assert result.text == "canned \\boxed{7}"
        assert result.token_count == 2
        assert result.finish_reason == FINISH_STOP

    def test_unknown_fixture_errors(self):
        mock = MockBackend({})
        with pytest.raises(MockFixtureError, match="fast_thinking"):
            mock.generate(request())

    def test_budget_truncates_fixture(self):
        mock = MockBackend({(Stage.FAST_THINKING, "q1"): "a b c d e f g h"})
        result = mock.generate(request(max_tokens=5))
        assert result.token_count == 5
        assert result.finish_reason == FINISH_LENGTH

    def test_call_log_records_requests(self):
        mock = MockBackend({(Stage.FAST_THINKING, "q1"): "x"})
        mock.generate(request())
        assert len(mock.calls) == 1
        assert mock.calls[0].stage is Stage.FAST_THINKING
        assert mock.calls[0].max_tokens == 100

    def test_score_configured_value(self):
        mock = MockBackend({}, logprob_value=-123.0)
        assert mock.score_logprob(user_msg(), "some completion") == -123.0

    def test_score_empty_completion_zero(self):
        mock = MockBackend({}, logprob_value=-123.0)
        assert mock.score_logprob(user_msg(), "") == 0.0


class TestWrongAnswer:
    @pytest.mark.parametrize("truth,expected", [
        ("7", "8"),
        ("-1", "0"),
        ("1/2", "3/2"),
        ("0.5", "3/2"),
        ("x", "x_wrong"),
        ("18 - 4\\sqrt{3}", "18 - 4\\sqrt{3}_wrong"),
    ])
    def test_perturbation(self, truth, expected):
        assert wrong_answer(truth) == expected

    def test_never_equal_to_truth(self):
        from thinker.grading import answers_equal
        for truth in ("7", "0", "-3", "1/2", "x", "yes"):
            assert not answers_equal(wrong_answer(truth), truth)

    def test_bump_past_str_limit_falls_back_to_suffix(self):
        # 4300 nines parse, but their successor has more digits than str() converts
        from thinker.grading import answers_equal
        truth = "9" * 4300
        assert wrong_answer(truth) == truth + "_wrong"
        assert not answers_equal(wrong_answer(truth), truth)


# a budget no scripted stage reaches, so responses come back unclipped
BUDGET = 8000


def _padded_by_join(lead_words, total_tokens, tail, max_tokens):
    """The filler and tail joined word by word, as before the filler memo."""
    tail_len = len(tail.split())
    pad = max(total_tokens - tail_len, 0)
    cycles, rest = divmod(pad, len(lead_words))
    parts = [" ".join(lead_words)] * cycles + [" ".join(lead_words[:rest]), tail]
    text = " ".join(filter(None, parts))  # skip an empty last cycle
    if pad + tail_len > max_tokens:
        return truncate_to_budget(text, max_tokens)
    return text, pad + tail_len, FINISH_STOP


class TestPadded:
    """_padded builds its filler once per length and memoizes its result;
    the text must not change."""

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_equals_join_reference(self, data):
        lead = data.draw(st.sampled_from([_FILLER, _SLOW_FILLER]))
        answer = data.draw(st.text(alphabet="7x/ \t\n", min_size=1, max_size=8))
        template = data.draw(st.sampled_from(["The final answer is \\boxed{{{}}}.", "\\boxed{{{}}}",
                                              "</think> The refined answer is \\boxed{{{}}}."]))
        tail = template.format(answer)
        tail_len = len(tail.split())
        total = data.draw(st.one_of(
            st.integers(0, 80),
            st.integers(0, 4).map(lambda k: tail_len + k * len(lead)),  # whole cycles, pad 0 included
        ))
        budget = data.draw(st.integers(1, max(total, tail_len) + 3))
        expected = _padded_by_join(lead, total, tail, budget)
        for _ in range(2):  # the second call finds the filler in the memo
            result = _padded(lead, total, tail, budget)
            assert (result.text, result.token_count, result.finish_reason) == expected

    def test_filler_never_longer_than_budget(self, monkeypatch):
        pads = []

        def spy(lead_words, pad):
            pads.append(pad)
            return _filler(lead_words, pad)

        monkeypatch.setattr("thinker.backend._filler", spy)
        _padded.cache_clear()  # a memoized result would never reach the spy
        tail = "The final answer is \\boxed{7}."
        result = _padded(_FILLER, 10**5, tail, 50)
        assert pads and max(pads) <= 50
        assert (result.text, result.token_count, result.finish_reason) == \
            _padded_by_join(_FILLER, 10**5, tail, 50)

    def test_filler_miss_then_hit(self):
        _filler.cache_clear()
        _padded.cache_clear()
        first = _padded(_SLOW_FILLER, 5500, "\\boxed{7}", BUDGET)
        assert (_filler.cache_info().hits, _filler.cache_info().misses) == (0, 1)
        # another tail of the same word count misses _padded's memo and finds the filler
        other = _padded(_SLOW_FILLER, 5500, "\\boxed{8}", BUDGET)
        assert (_filler.cache_info().hits, _filler.cache_info().misses) == (1, 1)
        # a _padded hit hands back the same result and never reaches _filler
        assert _padded(_SLOW_FILLER, 5500, "\\boxed{7}", BUDGET) is first
        assert (_filler.cache_info().hits, _filler.cache_info().misses) == (1, 1)
        assert (_padded.cache_info().hits, _padded.cache_info().misses) == (1, 2)
        assert _padded.cache_info().maxsize == FILLER_CACHE_SIZE
        assert first == GenerationResult(*_padded_by_join(_SLOW_FILLER, 5500, "\\boxed{7}", BUDGET))
        assert other == GenerationResult(*_padded_by_join(_SLOW_FILLER, 5500, "\\boxed{8}", BUDGET))


def policy_request(stage, truth="7", seed=0, budget=BUDGET, fast=None, slow=None):
    """A request at stage whose dialogue holds the fast answer in
    messages[1] and the slow answer in messages[-2], as far as the stage's
    dialogue reaches (fast thinking or no stage: the question alone). An
    absent answer becomes a response with no box."""
    replies = [fast, "No", slow][:stage - 1] if stage is not None else []
    messages = [{"role": "user", "content": "question"}]
    for answer in replies:
        content = "reply with no box" if answer is None else f"reply \\boxed{{{answer}}}"
        messages += [{"role": "assistant", "content": content}, {"role": "user", "content": "next"}]
    return GenerationRequest(messages=messages, max_tokens=budget, temperature=1.0, seed=seed,
                             stage=stage, item_id="q1", reference_answer=truth)


def _respond_seed_first(stage, question_answer, params, rng_seed, max_tokens,
                        fast_correct=None, slow_answer=None):
    """The scripted policy as it was before it seeded only the stages that
    draw: one random.Random(rng_seed) made first, whatever the stage."""
    rng = random.Random(rng_seed)
    if stage is Stage.FAST_THINKING:
        correct = rng.random() < params.p_fast
        answer = question_answer if correct else wrong_answer(question_answer)
        tail = f"The final answer is \\boxed{{{answer}}}."
        return _padded(_FILLER, params.fast_tokens, tail, max_tokens)
    if stage is Stage.VERIFICATION:
        if fast_correct is None:
            raise ValueError("verification response needs fast_correct")
        if fast_correct:
            verdict = "Yes" if rng.random() < params.t_p else "No"
        else:
            verdict = "No" if rng.random() < params.t_n else "Yes"
        tail = f"\\boxed{{{verdict}}}"
        return _padded(_FILLER, params.verify_tokens, tail, max_tokens)
    if stage is Stage.SLOW_THINKING:
        correct = rng.random() < params.p_slow
        answer = question_answer if correct else wrong_answer(question_answer)
        tail = f"</think> The refined answer is \\boxed{{{answer}}}."
        return _padded(_SLOW_FILLER, params.slow_tokens, tail, max_tokens)
    answer = slow_answer if slow_answer is not None else question_answer
    tail = f"The final answer is \\boxed{{{answer}}}."
    return _padded(_FILLER, params.summary_tokens, tail, max_tokens)


class TestRespondSeeding:
    """The scripted policy seeds a generator only where it draws; the
    responses must not change."""

    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_equals_seed_first_reference(self, data):
        probability = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])
        p_fast, t_p, t_n, p_slow = data.draw(st.tuples(*[probability] * 4))
        fast, verify, slow, summary = data.draw(st.tuples(*[st.integers(8, 40)] * 4))
        params = PolicyParams(p_fast=p_fast, t_p=t_p, t_n=t_n, p_slow=p_slow,
                              fast_tokens=fast, verify_tokens=verify, slow_tokens=slow,
                              summary_tokens=summary)
        stage = data.draw(st.sampled_from(list(Stage)))
        answer = data.draw(st.sampled_from(["7", "-3/4", "x", "2 5"]))
        kwargs = dict(rng_seed=data.draw(st.integers(0, 2 ** 63 - 1)),
                      max_tokens=data.draw(st.integers(1, 60)),  # clipped now and then
                      fast_correct=data.draw(st.booleans()),
                      slow_answer=data.draw(st.none() | st.sampled_from(["7", "8", "y z"])))
        # a wrong fast answer is another answer, or a response with no box
        fast_answer = answer
        if not kwargs["fast_correct"]:
            fast_answer = data.draw(st.sampled_from([None, wrong_answer(answer)]))
        request = policy_request(stage, answer, kwargs["rng_seed"], kwargs["max_tokens"],
                                 fast=fast_answer, slow=kwargs["slow_answer"])
        assert ScriptedPolicyBackend(params).generate(request) == \
            _respond_seed_first(stage, answer, params, **kwargs)


class TestScriptedPolicy:
    def test_fast_certain_correct(self):
        text = ScriptedPolicyBackend(PolicyParams(p_fast=1.0)).generate(
            policy_request(Stage.FAST_THINKING, seed=5)).text
        assert extract_boxed(text).raw == "7"

    def test_fast_certain_wrong(self):
        text = ScriptedPolicyBackend(PolicyParams(p_fast=0.0)).generate(
            policy_request(Stage.FAST_THINKING, seed=5)).text
        assert extract_boxed(text).raw == "8"

    def test_fast_exact_token_count(self):
        params = PolicyParams(fast_tokens=37)
        text = ScriptedPolicyBackend(params).generate(policy_request(Stage.FAST_THINKING, seed=1)).text
        assert count_tokens(text) == 37

    @given(seed=st.integers(0, 2 ** 63 - 1), budget=st.integers(1, 200))
    def test_one_shot_request_answers_as_fast_thinking(self, seed, budget):
        backend = ScriptedPolicyBackend(PolicyParams(fast_tokens=150))
        assert backend.generate(policy_request(None, seed=seed, budget=budget)) == \
            backend.generate(policy_request(Stage.FAST_THINKING, seed=seed, budget=budget))

    def test_verify_yes_when_correct_and_tp_one(self):
        text = ScriptedPolicyBackend(PolicyParams(t_p=1.0)).generate(
            policy_request(Stage.VERIFICATION, seed=2, fast="7")).text
        assert extract_verdict(text) is Verdict.YES

    def test_verify_no_when_wrong_and_tn_one(self):
        text = ScriptedPolicyBackend(PolicyParams(t_n=1.0)).generate(
            policy_request(Stage.VERIFICATION, seed=2, fast="8")).text
        assert extract_verdict(text) is Verdict.NO

    def test_one_message_verification_request_answers_as_for_a_wrong_fast_answer(self):
        # no fast response in the dialogue, so no fast answer that could be correct
        backend = ScriptedPolicyBackend(PolicyParams(t_p=1.0, t_n=1.0))
        result = backend.generate(request(stage=Stage.VERIFICATION, max_tokens=BUDGET, seed=11))
        assert result == backend.generate(policy_request(Stage.VERIFICATION, seed=11, fast="8"))
        assert extract_verdict(result.text) is Verdict.NO

    def test_summary_echoes_slow_answer_at_length(self):
        params = PolicyParams(summary_tokens=350)
        text = ScriptedPolicyBackend(params).generate(
            policy_request(Stage.SUMMARIZATION, seed=3, slow="42")).text
        assert count_tokens(text) == 350
        assert extract_boxed(text).raw == "42"

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_clipped_response_is_truncated_full_response(self, data):
        answers = st.text(alphabet="7x/ \t\n", min_size=1, max_size=8)
        stage = data.draw(st.sampled_from(list(Stage)))
        fast, verify, slow, summary = data.draw(st.tuples(*[st.integers(8, 60)] * 4))
        backend = ScriptedPolicyBackend(PolicyParams(fast_tokens=fast, verify_tokens=verify,
                                                     slow_tokens=slow, summary_tokens=summary))
        seed = data.draw(st.integers(0, 2 ** 32))
        fast_correct = data.draw(st.booleans())
        slow_answer = data.draw(st.none() | answers)
        answer = data.draw(answers)
        kwargs = dict(seed=seed, fast=answer if fast_correct else None, slow=slow_answer)
        full = backend.generate(policy_request(stage, answer, budget=BUDGET, **kwargs))
        assert (full.token_count, full.finish_reason) == (count_tokens(full.text), FINISH_STOP)
        budget = data.draw(st.integers(1, full.token_count + 3))
        clipped = backend.generate(policy_request(stage, answer, budget=budget, **kwargs))
        assert (clipped.text, clipped.token_count, clipped.finish_reason) == \
            truncate_to_budget(full.text, budget)

    def test_deterministic_given_seed(self):
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=0.5))
        first = backend.generate(request(seed=99))
        second = backend.generate(request(seed=99))
        assert first == second

    def test_budget_truncation(self):
        backend = ScriptedPolicyBackend(PolicyParams(fast_tokens=100))
        result = backend.generate(request(max_tokens=5))
        assert result.token_count == 5
        assert result.finish_reason == FINISH_LENGTH

    def test_requires_reference_answer(self):
        backend = ScriptedPolicyBackend()
        with pytest.raises(BackendError):
            backend.generate(request(reference_answer=None))

    def test_verify_reads_fast_answer_from_history(self):
        backend = ScriptedPolicyBackend(PolicyParams(t_p=1.0, t_n=1.0))
        messages = (
            {"role": "user", "content": "question"},
            {"role": "assistant", "content": "I think \\boxed{7}"},
            {"role": "user", "content": "verify it"},
        )
        result = backend.generate(request(messages=messages, stage=Stage.VERIFICATION))
        assert extract_verdict(result.text) is Verdict.YES
        messages_wrong = (
            {"role": "user", "content": "question"},
            {"role": "assistant", "content": "I think \\boxed{9}"},
            {"role": "user", "content": "verify it"},
        )
        result = backend.generate(request(messages=messages_wrong, stage=Stage.VERIFICATION))
        assert extract_verdict(result.text) is Verdict.NO

    def test_summary_reads_slow_answer_by_position(self):
        # the slow response is the message just before the summary prompt,
        # whether or not it carries the think marker
        messages = (
            {"role": "user", "content": "question"},
            {"role": "assistant", "content": "fast \\boxed{9}"},
            {"role": "user", "content": "verify it"},
            {"role": "assistant", "content": "\\boxed{No}"},
            {"role": "user", "content": "think again"},
            {"role": "assistant", "content": "slow \\boxed{8}"},
            {"role": "user", "content": "summarize"},
        )
        result = ScriptedPolicyBackend().generate(
            request(messages=messages, max_tokens=BUDGET, stage=Stage.SUMMARIZATION, reference_answer="7"))
        assert extract_boxed(result.text).raw == "8"

    def test_score_logprob_linear_in_tokens(self):
        backend = ScriptedPolicyBackend(PolicyParams(logprob_per_token=-0.25))
        assert backend.score_logprob(user_msg(), "four words right here") == pytest.approx(-1.0)
        assert backend.score_logprob(user_msg(), "") == 0.0

    def test_empirical_fast_accuracy_matches_p_fast(self):
        p = 0.35
        n = 4000
        backend = ScriptedPolicyBackend(PolicyParams(p_fast=p))
        hits = 0
        for i in range(n):
            text = backend.generate(policy_request(Stage.FAST_THINKING, seed=i)).text
            hits += extract_boxed(text).raw == "7"
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) < 3 * sigma

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PolicyParams(p_fast=1.5)
        with pytest.raises(ValueError):
            PolicyParams(t_n=-0.1)
        with pytest.raises(ValueError):
            PolicyParams(fast_tokens=2)
        with pytest.raises(ValueError):
            PolicyParams(logprob_per_token=0.5)


class TestHttpBackend:
    def settings(self, url, **kwargs):
        defaults = dict(base_url=url, model="m", timeout_s=5.0, backoff_s=0.01)
        defaults.update(kwargs)
        return BackendConfig(kind="http", **defaults)

    def test_happy_path_and_wire_fields(self):
        with StubServer(lambda payload, i: "answer \\boxed{7}") as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            result = backend.generate(request(max_tokens=123, temperature=0.7, seed=9))
            assert result.text == "answer \\boxed{7}"
            assert result.token_count == 2
            payload = stub.requests[0]["payload"]
            assert payload["model"] == "m"
            assert payload["max_tokens"] == 123
            assert payload["temperature"] == 0.7
            assert payload["seed"] == 9
            assert payload["messages"] == [{"role": "user", "content": "hello"}]
            assert "stage" not in payload and "reference_answer" not in payload
            assert stub.requests[0]["path"].endswith("/chat/completions")

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("THINKER_API_KEY", "sekrit")
        with StubServer() as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            backend.generate(request())
            assert stub.requests[0]["headers"]["authorization"] == "Bearer sekrit"

    def test_key_unfit_for_a_header_fails_without_echo(self, monkeypatch):
        monkeypatch.setenv("THINKER_API_KEY", "sekrit\r")
        with StubServer() as stub:
            with pytest.raises(BackendError, match=r"API key in \$THINKER_API_KEY") as info:
                HttpBackend(self.settings(stub.base_url))
            assert "sekrit" not in str(info.value)
            assert stub.requests == []

    def test_no_key_no_header(self, monkeypatch):
        monkeypatch.delenv("THINKER_API_KEY", raising=False)
        with StubServer() as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            backend.generate(request())
            assert "authorization" not in stub.requests[0]["headers"]

    @pytest.mark.parametrize("sent,recorded", [
        ("content_filter", "content_filter"),
        ("tool_calls", "tool_calls"),
        (None, FINISH_STOP),
        ("", FINISH_STOP),
        (7, FINISH_STOP),
        ("absent", FINISH_STOP),
    ])
    def test_finish_reason_kept_as_sent(self, sent, recorded):
        choice = {"message": {"role": "assistant", "content": "a \\boxed{7}"}}
        if sent != "absent":
            choice["finish_reason"] = sent
        with StubServer(lambda payload, i: {"choices": [choice]}) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            batch = run_batch(backend, [QAItem(id="q1", question="q", answer="7")],
                              Mode.INFERENCE, seed=0, budgets=StageBudgets())
        turn = batch.transcripts[0].turns[0]
        assert turn.finish_reason == recorded
        assert not turn.truncated

    def test_missing_usage_falls_back_to_tokenizer(self):
        body = {"choices": [{"message": {"role": "assistant", "content": "a b c"},
                             "finish_reason": "stop"}]}
        with StubServer(lambda payload, i: body) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            assert backend.generate(request()).token_count == 3

    @pytest.mark.parametrize("usage", ["n/a", [3], 7])
    def test_non_object_usage_falls_back_to_tokenizer(self, usage):
        body = {"choices": [{"message": {"role": "assistant", "content": "a b c"},
                             "finish_reason": "stop"}],
                "usage": usage}
        with StubServer(lambda payload, i: body) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            assert backend.generate(request()).token_count == 3

    @pytest.mark.parametrize("completion_tokens", [True, False, -1, 2.5])
    def test_unfit_completion_tokens_fall_back_to_word_count(self, completion_tokens):
        body = {"choices": [{"message": {"role": "assistant", "content": "a b c"},
                             "finish_reason": "stop"}],
                "usage": {"completion_tokens": completion_tokens}}
        with StubServer(lambda payload, i: body) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            tokens = backend.generate(request()).token_count
        assert type(tokens) is int and tokens == 3

    def test_length_finish_reason_kept(self):
        body = {"choices": [{"message": {"role": "assistant", "content": "a b"},
                             "finish_reason": "length"}],
                "usage": {"completion_tokens": 2}}
        with StubServer(lambda payload, i: body) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            assert backend.generate(request()).finish_reason == FINISH_LENGTH

    def test_retries_5xx_then_succeeds(self):
        def behavior(payload, index):
            return 503 if index < 2 else "recovered"
        with StubServer(behavior) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            assert backend.generate(request()).text == "recovered"
            assert len(stub.requests) == 3

    def test_gives_up_after_max_attempts(self):
        with StubServer(lambda payload, i: 500) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="after 3 attempts"):
                backend.generate(request())
            assert len(stub.requests) == 3

    def test_retries_429_then_succeeds(self):
        def behavior(payload, index):
            return 429 if index == 0 else "recovered"
        with StubServer(behavior) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            assert backend.generate(request()).text == "recovered"
            assert len(stub.requests) == 2

    def test_persistent_429_gives_up_after_max_attempts(self):
        with StubServer(lambda payload, i: 429) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="after 3 attempts: rate limited"):
                backend.generate(request())
            assert len(stub.requests) == 3

    @pytest.mark.parametrize("retry_after,expected", [
        ("0", [0.0]),          # the server asks for no wait: skip the backoff
        ("3600", [2.0]),       # capped at timeout_s
        ("Wed, 21 Oct 2015 07:28:00 GMT", [30.0]),  # HTTP-date: the backoff
    ])
    def test_429_waits_as_retry_after_says(self, monkeypatch, retry_after, expected):
        sleeps = []
        monkeypatch.setattr("thinker.backend.time.sleep", sleeps.append)

        def behavior(payload, index):
            return (429, {"Retry-After": retry_after}) if index == 0 else "recovered"
        with StubServer(behavior) as stub:
            backend = HttpBackend(self.settings(stub.base_url, timeout_s=2.0, backoff_s=30.0))
            assert backend.generate(request()).text == "recovered"
        assert sleeps == expected

    def test_4xx_fails_without_retry(self):
        with StubServer(lambda payload, i: 401) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="401"):
                backend.generate(request())
            assert len(stub.requests) == 1

    def test_malformed_body_raises(self):
        with StubServer(lambda payload, i: {"nonsense": True}) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="malformed"):
                backend.generate(request())

    def test_non_string_content_raises(self):
        reply = {"choices": [{"message": {"role": "assistant", "content": 7}, "finish_reason": "stop"}]}
        with StubServer(lambda payload, i: reply) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="completion content is not a string"):
                backend.generate(request())

    @pytest.mark.parametrize("content", [
        b"so \\ud800 \\\\boxed{4}",  # a JSON escape of a lone surrogate
        b"so \xed\xa0\x80 \\\\boxed{4}",  # its UTF-8-style bytes, which json.loads lets through
    ])
    def test_lone_surrogate_content_fails_the_episode(self, content, tmp_path):
        raw = b'{"choices": [{"message": {"role": "assistant", "content": "' + content + b'"}}]}'
        with StubServer(lambda payload, i: raw) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="completion content is not a string") as info:
                backend.generate(request())
            assert "boxed" not in str(info.value)  # the text is not echoed
            item = QAItem(id="a", question="Compute 2 + 2.", answer="4")
            transcript = run_episode(backend, item, Mode.INFERENCE)
            backend.close()
        assert transcript.failed and not transcript.turns
        path = tmp_path / "t.jsonl"
        write_transcripts(str(path), [transcript], "hash")  # the record can be written
        assert json.loads(path.read_text(encoding="utf-8"))["failed"] is True

    def test_lone_surrogate_finish_reason_reads_as_stop(self):
        raw = (b'{"choices": [{"message": {"role": "assistant", "content": "\\\\boxed{4}"}, '
               b'"finish_reason": "length\\udfff"}]}')
        with StubServer(lambda payload, i: raw) as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            assert backend.generate(request()).finish_reason == FINISH_STOP
            backend.close()

    def test_invalid_json_raises(self):
        with StubServer(lambda payload, i: b"not json") as stub:
            backend = HttpBackend(self.settings(stub.base_url))
            with pytest.raises(BackendError, match="JSON"):
                backend.generate(request())

    def test_connection_refused_raises_backend_error(self):
        backend = HttpBackend(self.settings("http://127.0.0.1:9/v1", max_attempts=2))
        with pytest.raises(BackendError):
            backend.generate(request())

    def test_unusable_limits_rejected(self):
        with pytest.raises(ValueError):
            HttpBackend(BackendConfig(kind="http", timeout_s=0))

    @pytest.mark.parametrize("name, value", [("timeout_s", float("nan")), ("timeout_s", float("inf")),
                                             ("backoff_s", float("nan")), ("backoff_s", float("inf"))])
    def test_non_finite_timing_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"backend.{name} must be finite"):
            BackendConfig(kind="http", **{name: value})

    def test_parallelism_bounds_requests_in_flight(self):
        # the first request of each of 9 episodes is answered only once all
        # 9 are at the server at the same time
        arrived = threading.Barrier(9)

        def behavior(payload, index):
            if index < 9:
                try:
                    arrived.wait(timeout=10)
                except threading.BrokenBarrierError:
                    return 500
            return "\\boxed{Yes}" if len(payload["messages"]) == 3 else "\\boxed{7}"

        items = [QAItem(id=f"q{i}", question="Compute 3 + 4.", answer="7") for i in range(9)]
        with StubServer(behavior) as stub:
            # the client outwaits the barrier, so a bound below 9 shows as a
            # broken barrier rather than as a client timeout
            backend = HttpBackend(self.settings(stub.base_url, timeout_s=30.0, max_attempts=1))
            batch = run_batch(backend, items, Mode.TRAINING, seed=0, parallelism=9)
        assert not arrived.broken
        assert batch.failures == 0
        assert batch.final_accuracy == 1.0

    def test_keep_alive_connections_bounded_by_parallelism(self):
        # 12 in flight, above the 10 idle connections a requests session
        # keeps; each item has its own answer, so a reply delivered to the
        # wrong episode shows as a wrong answer
        def behavior(payload, index):
            if len(payload["messages"]) == 3:
                return "\\boxed{Yes}"
            number = re.search(r"Compute (\d+) \+ 0", payload["messages"][0]["content"])[1]
            return "\\boxed{" + number + "}"

        items = [QAItem(id=f"q{i}", question=f"Compute {i} + 0.", answer=str(i)) for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost update in the pool
        try:
            with StubServer(behavior, keep_alive=True) as stub:
                backend = HttpBackend(self.settings(stub.base_url, max_attempts=1))
                for seed in range(3):
                    batch = run_batch(backend, items, Mode.TRAINING, seed=seed, parallelism=12)
                    assert batch.failures == 0
                    assert batch.final_accuracy == 1.0
                backend.close()
                assert len(stub.requests) == 3 * 24 * 2
        finally:
            sys.setswitchinterval(interval)
        assert stub.connections <= 12

    def test_stale_keep_alive_connection_costs_no_attempt(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("thinker.backend.time.sleep", sleeps.append)
        with StubServer(keep_alive="drop") as stub:
            backend = HttpBackend(self.settings(stub.base_url, max_attempts=1))
            for _ in range(5):
                assert backend.generate(request()).text == "\\boxed{ok}"
            backend.close()
            assert len(stub.requests) == 5
            assert stub.connections == 5
        assert sleeps == []

    def test_https_url_speaks_tls(self):
        # a plain-HTTP server cannot complete the handshake: a transport error
        with StubServer() as stub:
            backend = HttpBackend(self.settings(stub.base_url.replace("http:", "https:"), max_attempts=1))
            with pytest.raises(BackendError, match="SSL"):
                backend.generate(request())

    # a schemeless and an ftp:// URL: test_cli's TestEpisode
    @pytest.mark.parametrize("url", ["http:///v1", "http://localhost:port/v1", "http://localhost:99999/v1"])
    def test_unusable_base_url_rejected(self, url):
        with pytest.raises(ValueError, match="base_url"):
            BackendConfig(kind="http", base_url=url)

    def test_scoring_unsupported(self):
        backend = HttpBackend(self.settings("http://127.0.0.1:9/v1"))
        with pytest.raises(LogprobUnsupportedError):
            backend.score_logprob(user_msg(), "text")
