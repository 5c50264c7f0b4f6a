"""Byte-identical outputs for a fixed seed and config.

The digests were recorded before eval samples became transcripts, before
batch and eval shared one token reducer, (the clipped batches) before the
scripted policy counted its responses' tokens without splitting their text,
(the advantages) before compute_gae carried the next value through its
loop, and (the long simulated episodes) before the scripted policy built
each filler once; those that changed were re-pinned once when the
scripted policy's draw became splitmix64_draw. A refactor that changes a
report, a transcript file, a Monte Carlo estimate or one bit of an
advantage fails here.
"""

import hashlib
import json
import random
import struct
from dataclasses import asdict

import pytest

from thinker.backend import PolicyParams, ScriptedPolicyBackend
from thinker.cli import write_transcripts
from thinker.evaluation import SINGLE_TURN, THINKER, THINKER_FAST, evaluate
from thinker.rollout import Trajectory, compute_gae, per_token_rewards, run_batch, run_episode
from thinker.sim import SyntheticTaskConfig, gen_synthetic, monte_carlo
from thinker.task import Mode, Stage, StageBudgets

POLICY = PolicyParams(p_fast=0.4, t_p=0.8, t_n=0.7, p_slow=0.6)
# the simulate-long benchmark's policy: responses about ten times the default length
LONG_POLICY = PolicyParams(p_fast=0.2, fast_tokens=900, verify_tokens=300, slow_tokens=5500)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dataset():
    return gen_synthetic(SyntheticTaskConfig(n_items=12, seed=3))


@pytest.mark.parametrize("mode,digest", [
    (THINKER, "a7d110ae4bee5be176d1417706e0f99725d76af54831dabc46962bd92e8ec96e"),
    (THINKER_FAST, "0a464e4eeddc3c9ee50af44e5f41a876fe4d067715ba0339e6881e1d4bd27c75"),
    (SINGLE_TURN, "464248414cf6098a24d7a6cb0553a5782e2b300f0ee73db31e9f8e7019d71ec0"),
], ids=[THINKER, THINKER_FAST, SINGLE_TURN])  # names that a re-pinned digest leaves alone
def test_eval_report_bytes(mode, digest):
    report = evaluate(ScriptedPolicyBackend(POLICY), _dataset(), mode, k=3, seed=11)
    assert _sha(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")) == digest


def test_training_batch_bytes(tmp_path):
    batch = run_batch(ScriptedPolicyBackend(POLICY), list(_dataset()), Mode.TRAINING,
                      seed=5, samples_per_prompt=4)
    path = tmp_path / "batch.jsonl"
    write_transcripts(str(path), batch.transcripts, "fence")
    assert _sha(path.read_bytes()) == "7bfe19d7382746be23331e71312ef81174da0e5ec3acba5fa5f552af193bff3f"
    stats = {"fast": batch.fast_accuracy, "final": batch.final_accuracy, "p": batch.trailing.p,
             "stages": batch.mean_stage_tokens, "total": batch.mean_total_tokens,
             "failures": batch.failures}
    assert _sha(json.dumps(stats, sort_keys=True).encode("utf-8")) == \
        "111db4f7a2058994f4822449b097ca061f9dea48e579347169dd72283695af8f"


@pytest.mark.parametrize("budgets,digest", [
    # fast and slow clipped inside their closing sentence, verify inside the filler
    (StageBudgets(fast_tokens=117, verify_tokens=40, slow_tokens=398, summary_tokens=200),
     "19763f91ddb247d3b1d321062b8f08a6935a4545c0c18ec275109fc8fba44cbf"),
    # slow exactly at its budget, so summaries run and are clipped inside the filler
    (StageBudgets(fast_tokens=117, verify_tokens=40, slow_tokens=400, summary_tokens=200),
     "fa2ce356e0e13b2724ca042a3f1de9e1c55afa055e6aee109b781eadde7fbb6f"),
], ids=["slow-clipped", "slow-at-budget"])
def test_clipped_training_batch_bytes(tmp_path, budgets, digest):
    batch = run_batch(ScriptedPolicyBackend(POLICY), list(_dataset()), Mode.TRAINING,
                      seed=5, samples_per_prompt=4, budgets=budgets)
    assert any(turn.finish_reason == "length" for t in batch.transcripts for turn in t.turns)
    path = tmp_path / "batch.jsonl"
    write_transcripts(str(path), batch.transcripts, "fence")
    assert _sha(path.read_bytes()) == digest


@pytest.mark.parametrize("gamma,lam,digest", [
    (1.0, 1.0, "4a6438c500bf67480e6a59b8711cbdb6a85f1359706fde6074660db8345dc951"),
    (0.99, 0.95, "2815169a3565faef440171863f21ece4c131b4ccc57ba4ed694d05bc4420478d"),
], ids=["gamma1-lam1", "gamma0.99-lam0.95"])
def test_training_batch_advantages_bits(gamma, lam, digest):
    # default policy and budgets: episodes of about 550 tokens, past what the
    # quadratic oracle in test_rollout.py covers quickly
    dataset = gen_synthetic(SyntheticTaskConfig(n_items=8, seed=12))
    batch = run_batch(ScriptedPolicyBackend(PolicyParams()), list(dataset), Mode.TRAINING,
                      seed=7, samples_per_prompt=4)
    rng = random.Random(31)
    h = hashlib.sha256()
    for transcript in batch.transcripts:
        traj = Trajectory.from_transcript(transcript)
        values = [rng.uniform(-2.0, 2.0) for _ in range(traj.total_tokens)]
        for a in compute_gae(per_token_rewards(traj), values, traj.boundaries, gamma=gamma, lam=lam):
            h.update(struct.pack("<d", a))
    assert h.hexdigest() == digest


def test_long_monte_carlo_estimates_bytes():
    accuracy, tokens = monte_carlo(LONG_POLICY, 64, seed=9)
    assert _sha(json.dumps([asdict(accuracy), asdict(tokens)], sort_keys=True).encode("utf-8")) == \
        "f406b0e200dbf187e4e24c0335a8c2b9b3f215ac030097b47f7bf61a0e71995a"


def test_long_inference_transcript_bytes(tmp_path):
    # seed 4 is the smallest whose episode reaches slow thinking
    transcript = run_episode(ScriptedPolicyBackend(LONG_POLICY), _dataset().items[0], Mode.INFERENCE, seed=4)
    assert [turn.stage for turn in transcript.turns] == \
        [Stage.FAST_THINKING, Stage.VERIFICATION, Stage.SLOW_THINKING]
    path = tmp_path / "long.jsonl"
    write_transcripts(str(path), [transcript], "fence")
    assert _sha(path.read_bytes()) == "1e707d53b16b6a7038fd509904a6c1220bbd661731c2112fbf7d6dcef315a36d"
