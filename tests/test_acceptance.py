"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints via the conftest summary hook as its pass/fail line. The
large-scale training results themselves are out of desk-scale reach, so the
criteria below check the machinery those results depend on: exact routing,
exact rewards, class balance, closed-form/engine agreement, credit
assignment, isolation, wire fidelity, and determinism.
"""

import itertools
import json
import random
import threading
import time
from fractions import Fraction
from statistics import fmean, stdev

from thinker.backend import PolicyParams, ScriptedPolicyBackend
from thinker.cli import transcript_record
from thinker.config import EngineConfig, config_hash
from thinker.dataset import QAItem, sample_batch
from thinker.evaluation import THINKER, THINKER_FAST, evaluate
from thinker.grading import Verdict, answers_equal, extract_boxed, extract_verdict
from thinker.rewards import RewardConfig, reward_fast, reward_slow, reward_summary, reward_verify
from thinker.rollout import (
    Trajectory,
    compute_gae,
    compute_stage_returns,
    per_token_rewards,
    run_batch,
    run_episode,
)
from thinker.sim import (
    SyntheticTaskConfig,
    analytic_accuracy,
    analytic_expected_tokens,
    gen_synthetic,
    monte_carlo,
)
from thinker.task import Mode, StageBudgets

from conftest import fixture_map
from mock_backend import MockBackend, PooledScriptedBackend
from stub_server import StubServer
from test_rollout import brute_force_gae


# --------------------------------------------------------------------------
# 1. transition truth table, via the full engine (mock backend)

def _expected_flow(mode, fast_correct, verdict, slow_correct):
    if mode is Mode.TRAINING:
        if fast_correct:
            return ["fast_thinking", "verification"], "fast"
        stages = ["fast_thinking", "verification", "slow_thinking"]
        if slow_correct:
            stages.append("summarization")
        return stages, "slow"
    if verdict == "yes":
        return ["fast_thinking", "verification"], "fast"
    return ["fast_thinking", "verification", "slow_thinking"], "slow"


def test_c01_transition_truth_table():
    started = time.perf_counter()
    truth = "7"
    verdict_text = {
        "yes": "looks right: \\boxed{Yes}",
        "no": "found a slip: \\boxed{No}",
        "malformed": "cannot decide",
    }
    cases = itertools.product(
        [Mode.TRAINING, Mode.INFERENCE], [True, False],
        ["yes", "no", "malformed"], [True, False])
    for mode, fast_correct, verdict, slow_correct in cases:
        fast_answer = truth if fast_correct else "9"
        slow_answer = truth if slow_correct else "8"
        item = QAItem(id="tt", question="Compute 3 + 4.", answer=truth)
        backend = MockBackend(fixture_map(
            "tt",
            fast=f"quick take \\boxed{{{fast_answer}}}",
            verify=verdict_text[verdict],
            slow=f"</think> revised \\boxed{{{slow_answer}}}",
            summary=f"recap steps \\boxed{{{slow_answer}}}",
        ))
        transcript = run_episode(backend, item, mode, seed=0)
        assert not transcript.failed
        stages, which = _expected_flow(mode, fast_correct, verdict, slow_correct)
        assert [t.stage.key for t in transcript.turns] == stages, (mode, fast_correct, verdict, slow_correct)
        expected_answer = fast_answer if which == "fast" else slow_answer
        assert transcript.final_answer.raw == expected_answer
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------------
# 2. class-balance law: degenerate verifiers earn the same expected reward

def _mean_verify_reward(t_p, t_n, n_episodes):
    params = PolicyParams(p_fast=0.6, t_p=t_p, t_n=t_n, p_slow=0.5)
    dataset = gen_synthetic(SyntheticTaskConfig(n_items=128, seed=2024))
    items = sample_batch(dataset, n_episodes, seed=7)
    batch = run_batch(ScriptedPolicyBackend(params), items, Mode.TRAINING,
                      seed=11, samples_per_prompt=1)
    rewards = [t.rewards.verify for t in batch.ok]
    return fmean(rewards), stdev(rewards) / len(rewards) ** 0.5


def test_c02_class_balance_law():
    started = time.perf_counter()
    n = 10_000
    target = 0.6 * (1 - 0.6)
    mean_yes, se_yes = _mean_verify_reward(t_p=1.0, t_n=0.0, n_episodes=n)
    mean_no, se_no = _mean_verify_reward(t_p=0.0, t_n=1.0, n_episodes=n)
    assert abs(mean_yes - target) <= 3 * se_yes
    assert abs(mean_no - target) <= 3 * se_no
    assert time.perf_counter() - started < 30.0


# --------------------------------------------------------------------------
# 3. analytic model and engine Monte Carlo agree on accuracy and tokens

def test_c03_analytic_engine_agreement():
    started = time.perf_counter()
    for draw in range(5):
        rng = random.Random(1000 + draw)
        params = PolicyParams(
            p_fast=rng.uniform(0.1, 0.9), t_p=rng.uniform(0.1, 0.9),
            t_n=rng.uniform(0.1, 0.9), p_slow=rng.uniform(0.1, 0.9))
        accuracy, tokens = monte_carlo(params, 10_000, seed=500 + draw)
        assert accuracy.stderr > 0 and tokens.stderr > 0
        assert abs(accuracy.value - analytic_accuracy(params)) <= 3 * accuracy.stderr, params
        assert abs(tokens.value - analytic_expected_tokens(params)) <= 3 * tokens.stderr, params
    assert time.perf_counter() - started < 120.0


# --------------------------------------------------------------------------
# 4. credit assignment: stage-constant returns, GAE identities, isolation

def test_c04_credit_assignment():
    started = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(1000):
        n_stages = rng.randint(1, 4)
        counts = tuple(rng.randint(1, 15) for _ in range(n_stages))
        stage_rewards = tuple(rng.uniform(-1, 1) for _ in range(n_stages))
        traj = Trajectory(stage_token_counts=counts, stage_rewards=stage_rewards)
        returns = compute_stage_returns(traj)
        start = 0
        for end, reward in zip(traj.boundaries, stage_rewards):
            assert all(r == reward for r in returns[start:end])
            start = end

        stream = per_token_rewards(traj)
        values = [rng.uniform(-1, 1) for _ in range(traj.total_tokens)]
        zeros = [0.0] * traj.total_tokens
        assert compute_gae(stream, zeros, traj.boundaries) == returns
        fast = compute_gae(stream, values, traj.boundaries)
        assert list(fast) == brute_force_gae(stream, values, traj.boundaries)

        target = rng.randrange(n_stages)
        perturbed = list(stage_rewards)
        perturbed[target] += rng.uniform(0.5, 2.0)
        other = Trajectory(stage_token_counts=counts, stage_rewards=tuple(perturbed))
        other_adv = compute_gae(per_token_rewards(other), values, other.boundaries)
        lo = traj.boundaries[target - 1] if target else 0
        hi = traj.boundaries[target]
        for t in range(traj.total_tokens):
            if not lo <= t < hi:
                assert other_adv[t] == fast[t]
    assert time.perf_counter() - started < 10.0


# --------------------------------------------------------------------------
# 5. inference transcripts are byte-identical under scrambled ground truth

def _isolation_records(answers):
    fixtures, items = {}, []
    for i in range(50):
        item_id = f"iso-{i:02d}"
        items.append(QAItem(id=item_id, question=f"Compute {i} + 2.", answer=answers[i]))
        verdict = "\\boxed{Yes}" if i % 3 == 0 else ("\\boxed{No}" if i % 3 == 1 else "hmm.")
        fixtures.update(fixture_map(
            item_id,
            fast=f"guess {i}: \\boxed{{{i + 2}}}",
            verify=verdict,
            slow=f"</think> settled on \\boxed{{{i + 5}}}",
            summary=f"recap \\boxed{{{i + 5}}}",
        ))
    backend = MockBackend(fixtures)
    records = []
    for item in items:
        transcript = run_episode(backend, item, Mode.INFERENCE, seed=99)
        assert not transcript.failed
        record = transcript_record(transcript, cfg_hash="fixed")
        record["correct"] = None  # post-hoc scoring may differ
        for stage in record["stages"]:
            stage["reward"] = None
        records.append(json.dumps(record, sort_keys=True).encode())
    return records


def test_c05_ground_truth_isolation():
    started = time.perf_counter()
    true_answers = [str(i + 2) for i in range(50)]
    scrambled = [f"garbage-{i * 37 % 50}" for i in range(50)]
    assert _isolation_records(true_answers) == _isolation_records(scrambled)
    assert time.perf_counter() - started < 5.0


# --------------------------------------------------------------------------
# 6. reward substitution suite (exactly rounded IEEE evaluation)

def test_c06_reward_substitution_suite():
    cfg = RewardConfig()  # c = 1e-3, minimum summary length 300

    # verification: exact value is the correctly rounded (1 - p) / p
    verify_cases = [
        ((True, Verdict.YES, 0.7), Fraction(1) - Fraction(0.7)),
        ((True, Verdict.YES, 0.5), Fraction(1, 2)),
        ((True, Verdict.YES, 0.25), Fraction(3, 4)),
        ((True, Verdict.YES, 0.0), Fraction(1)),
        ((True, Verdict.YES, 1.0), Fraction(0)),
        ((False, Verdict.NO, 0.7), Fraction(0.7)),
        ((False, Verdict.NO, 0.25), Fraction(0.25)),
        ((False, Verdict.NO, 1.0), Fraction(1)),
        ((True, Verdict.NO, 0.3), Fraction(0)),
        ((True, Verdict.NO, 0.9), Fraction(0)),
        ((False, Verdict.YES, 0.3), Fraction(0)),
        ((False, Verdict.YES, 0.0), Fraction(0)),
        ((True, Verdict.MALFORMED, 0.4), Fraction(0)),
        ((False, Verdict.MALFORMED, 0.4), Fraction(0)),
    ]
    for (fast_correct, verdict, p), exact in verify_cases:
        assert reward_verify(fast_correct, verdict, p) == float(exact), (fast_correct, verdict, p)
    assert abs(reward_verify(True, Verdict.YES, 0.7) - 0.3) < 1e-15

    # summarization: indicator + c * logprob, gated below 300 tokens
    summary_cases = [
        (("7", "7", -200.0, 350), 0.8),
        (("7", "7", -200.0, 120), 0.0),
        (("7", "7", -200.0, 299), 0.0),
        (("7", "7", -200.0, 300), 0.8),
        (("8", "7", -100.0, 400), -0.1),
        (("7", "7", 0.0, 300), 1.0),
        (("7", "7", -1000.0, 500), 0.0),
        ((None, "7", -1000.0, 500), -1.0),
        (("1/2", "0.5", 0.0, 300), 1.0),
        (("7", None, 0.0, 300), 0.0),
    ]
    for (summary, slow, logprob, tokens), expected in summary_cases:
        got = reward_summary(summary, slow, logprob, tokens, cfg)
        assert got == expected, (summary, slow, logprob, tokens)

    # fast / slow indicators
    indicator_cases = [
        (reward_fast("7", "7"), 1.0),
        (reward_fast("9", "7"), 0.0),
        (reward_fast(None, "7"), 0.0),
        (reward_fast("0.5", "1/2"), 1.0),
        (reward_slow("18 - 4\\sqrt{3}", "18 - 4\\sqrt{3}"), 1.0),
        (reward_slow("6\\sqrt{3}-12", "18 - 4\\sqrt{3}"), 0.0),
        (reward_slow(None, "7"), 0.0),
    ]
    for got, expected in indicator_cases:
        assert got == expected
    assert len(verify_cases) + len(summary_cases) + len(indicator_cases) >= 20


# --------------------------------------------------------------------------
# 7. grading corpus and brace-soup fuzzing

def test_c07_grading_corpus():
    extraction_cases = [
        ("The perimeter of the pool is \\boxed{18 - 4\\sqrt{3}} meters.", "18 - 4\\sqrt{3}"),
        ("\\boxed{\\frac{1}{2}}", "\\frac{1}{2}"),
        ("$\\boxed{No}$", "No"),
        ("\\boxed{6\\sqrt{3}-12}", "6\\sqrt{3}-12"),
        ("Final Answer. The perimeter of the pool is $\\boxed{18 - 4\\sqrt{3}}$ meters.", "18 - 4\\sqrt{3}"),
        ("options considered... \\boxed{D}", "D"),
        ("Therefore, the answer is B.0. $\\boxed{B}$", "B"),
        ("so sum of solutions: $\\boxed{\\dfrac{5}{2}}$", "\\dfrac{5}{2}"),
        ("testing x=1: \\boxed{1}", "1"),
        ("\\boxed{g(x) = 4 \\cdot 5^{x-2}}", "g(x) = 4 \\cdot 5^{x-2}"),
        ("\\boxed{\\dfrac{5^x - 3^x}{4}}", "\\dfrac{5^x - 3^x}{4}"),
        ("first \\boxed{3} then \\boxed{5}", "5"),
        ("\\boxed{a{b}c}", "a{b}c"),
        ("no box at all", None),
        ("\\boxed{dangling", None),
    ]
    for text, expected in extraction_cases:
        got = extract_boxed(text)
        assert (got.raw if got else None) == expected, text

    equality_cases = [
        ("1/2", "0.5", True),
        ("6\\sqrt{3}-12", "18 - 4\\sqrt{3}", False),
        ("x", "x", True),
        (" $18-4\\sqrt{3}$ ", "18-4\\sqrt{3}", True),
        ("\\left(3, 4\\right)", "(3, 4)", True),
        ("0.50.", "1/2", True),
        ("-2/4", "-0.5", True),
        ("0.5", "0.500", True),
        ("2", "3", False),
        ("Yes", "yes", False),
    ]
    for a, b, expected in equality_cases:
        assert answers_equal(a, b) is expected, (a, b)

    verdict_cases = [
        ("Thus our initial approach is wrong. <...> $\\boxed{No}$", Verdict.NO),
        ("\\boxed{YES}", Verdict.YES),
        ("I think yes.", Verdict.MALFORMED),
        ("\\boxed{Yes}", Verdict.YES),
        ("\\boxed{No.}", Verdict.NO),
        ("\\boxed{確認}", Verdict.MALFORMED),
    ]
    for text, expected in verdict_cases:
        assert extract_verdict(text) is expected, text

    assert len(extraction_cases) + len(equality_cases) + len(verdict_cases) >= 20

    rng = random.Random(0xFEED)
    alphabet = "\\boxed{}}{{}$ \\bo{xed}Yes No1/2.\n\t"
    for _ in range(10_000):
        soup = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 64)))
        extract_boxed(soup)
        extract_verdict(soup)


# --------------------------------------------------------------------------
# 8. wire conformance: budgets and temperatures exactly as configured

def test_c08_wire_conformance():
    from thinker.backend import BackendConfig, HttpBackend

    summary_text = " ".join(["recap"] * 340) + " \\boxed{7}"
    script = {
        0: "quick guess \\boxed{11}",        # wrong fast answer
        1: "checking... \\boxed{No}",
        2: "</think> careful redo \\boxed{7}",
        3: summary_text,
    }
    with StubServer(lambda payload, index: script[index]) as stub:
        backend = HttpBackend(BackendConfig(kind="http", base_url=stub.base_url, model="test-model"))
        item = QAItem(id="wire", question="Compute 3 + 4.", answer="7")
        transcript = run_episode(backend, item, Mode.TRAINING, budgets=StageBudgets(), seed=0)
        assert not transcript.failed
        assert [t.stage.key for t in transcript.turns] == [
            "fast_thinking", "verification", "slow_thinking", "summarization"]
        budgets = [req["payload"]["max_tokens"] for req in stub.requests]
        temps = [req["payload"]["temperature"] for req in stub.requests]
        assert budgets == [1000, 2000, 6000, 1000]
        assert temps == [1.0, 1.0, 1.0, 0.6]
        # scoring is not available over the wire: reward falls back cleanly
        assert transcript.logprob_available is False
        assert transcript.summary_logprob == 0.0
        assert transcript.rewards.summary == 1.0


# --------------------------------------------------------------------------
# 9. determinism: identical transcript files at parallelism 1 and 16
#    (on a backend marked as waiting on a server, so 16 runs on the pool)

def test_c09_determinism_across_parallelism(tmp_path):
    from thinker.cli import write_transcripts

    params = PolicyParams(p_fast=0.5, t_p=0.8, t_n=0.8, p_slow=0.5)
    dataset = gen_synthetic(SyntheticTaskConfig(n_items=50, seed=77))
    cfg_hash = config_hash(EngineConfig())
    paths = []
    for parallelism in (1, 16):
        backend = PooledScriptedBackend(params)
        batch = run_batch(
            backend, list(dataset.items), Mode.TRAINING,
            seed=123, samples_per_prompt=4, parallelism=parallelism)
        assert len(batch.transcripts) == 200
        assert (threading.get_ident() in backend.threads) == (parallelism == 1)
        path = tmp_path / f"transcripts-p{parallelism}.jsonl"
        write_transcripts(str(path), batch.transcripts, cfg_hash)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --------------------------------------------------------------------------
# 10. mechanism: higher fast accuracy shortens episodes, never loses accuracy

def test_c10_fast_accuracy_mechanism():
    dataset = gen_synthetic(SyntheticTaskConfig(n_items=25, seed=55))
    grid = [round(0.1 * i, 1) for i in range(11)]
    token_curve, thinker_curve, fast_curve = [], [], []
    for p_fast in grid:
        params = PolicyParams(p_fast=p_fast, t_p=1.0, t_n=1.0, p_slow=0.6)
        full = evaluate(ScriptedPolicyBackend(params), dataset, THINKER, k=40, seed=909)
        fast = evaluate(ScriptedPolicyBackend(params), dataset, THINKER_FAST, k=40, seed=909)
        token_curve.append(full.mean_total_tokens)
        thinker_curve.append(full.overall_accuracy)
        fast_curve.append(fast.overall_accuracy)
    # same seeds share the fast-stage draws across the grid, so both claims
    # hold exactly, not just in expectation
    assert all(a >= b for a, b in zip(token_curve, token_curve[1:])), token_curve
    assert all(t >= f for t, f in zip(thinker_curve, fast_curve))
    assert thinker_curve == sorted(thinker_curve)
