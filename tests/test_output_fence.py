"""Byte-identical outputs for a fixed seed and config.

The digests were recorded before eval samples became transcripts, before
batch and eval shared one token reducer, (the clipped batches) before the
scripted policy counted its responses' tokens without splitting their text,
(the advantages) before compute_gae carried the next value through its
loop, and (the long simulated episodes) before the scripted policy built
each filler once; a refactor that changes a report, a transcript file, a
Monte Carlo estimate or one bit of an advantage fails here.
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
    (THINKER, "c022cf9257ee30a206174ffe4712c60818e2b0d792d5c8a91fb504c01820acc6"),
    (THINKER_FAST, "38bb35dc111f363e2b5a6b908cf65cc7b79df04b3b55b05578257f54f7433797"),
    (SINGLE_TURN, "f68c644fcb9ce174711cc9f7a906646d85cdc8be490e6f47de76802dbffd2de2"),
])
def test_eval_report_bytes(mode, digest):
    report = evaluate(ScriptedPolicyBackend(POLICY), _dataset(), mode, k=3, seed=11)
    assert _sha(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")) == digest


def test_training_batch_bytes(tmp_path):
    batch = run_batch(ScriptedPolicyBackend(POLICY), list(_dataset()), Mode.TRAINING,
                      seed=5, samples_per_prompt=4)
    path = tmp_path / "batch.jsonl"
    write_transcripts(str(path), batch.transcripts, "fence")
    assert _sha(path.read_bytes()) == "dae8581df7def08947cf98f4e1a3c18173b6e2f6de84b74a919364e124df6c50"
    stats = {"fast": batch.fast_accuracy, "final": batch.final_accuracy, "p": batch.trailing.p,
             "stages": batch.mean_stage_tokens, "total": batch.mean_total_tokens,
             "failures": batch.failures}
    assert _sha(json.dumps(stats, sort_keys=True).encode("utf-8")) == \
        "0f773126461fbef49c76914973debbe79aca803543968ce8d57334f819ecc153"


@pytest.mark.parametrize("budgets,digest", [
    # fast and slow clipped inside their closing sentence, verify inside the filler
    (StageBudgets(fast_tokens=117, verify_tokens=40, slow_tokens=398, summary_tokens=200),
     "19763f91ddb247d3b1d321062b8f08a6935a4545c0c18ec275109fc8fba44cbf"),
    # slow exactly at its budget, so summaries run and are clipped inside the filler
    (StageBudgets(fast_tokens=117, verify_tokens=40, slow_tokens=400, summary_tokens=200),
     "c95b9a44cee6524e7c5e32a44536113536c681cacd03dad1d49d7abefbcc6051"),
])
def test_clipped_training_batch_bytes(tmp_path, budgets, digest):
    batch = run_batch(ScriptedPolicyBackend(POLICY), list(_dataset()), Mode.TRAINING,
                      seed=5, samples_per_prompt=4, budgets=budgets)
    assert any(turn.finish_reason == "length" for t in batch.transcripts for turn in t.turns)
    path = tmp_path / "batch.jsonl"
    write_transcripts(str(path), batch.transcripts, "fence")
    assert _sha(path.read_bytes()) == digest


@pytest.mark.parametrize("gamma,lam,digest", [
    (1.0, 1.0, "bf3894bd3befb17563b92e286a454be12287c04c3a5a4f91a09c556faf94f9df"),
    (0.99, 0.95, "e8c29ac28ce6ec5117efee5b93b98832859cc8f1d79f78b6b7dfaeafb065e76f"),
])
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
        "b51de72e8653e9210e1e452a61501e67f96649a26fb5856c4efe22bd4ffa1069"


def test_long_inference_transcript_bytes(tmp_path):
    transcript = run_episode(ScriptedPolicyBackend(LONG_POLICY), _dataset().items[0], Mode.INFERENCE, seed=3)
    assert [turn.stage for turn in transcript.turns] == \
        [Stage.FAST_THINKING, Stage.VERIFICATION, Stage.SLOW_THINKING]
    path = tmp_path / "long.jsonl"
    write_transcripts(str(path), [transcript], "fence")
    assert _sha(path.read_bytes()) == "83f3332a203a76273d995f07b125cbaaab88dda8924b015833f0ef1130b9b4a0"
