"""Byte-identical outputs for a fixed seed and config.

The digests were recorded before eval samples became transcripts and before
batch and eval shared one token reducer; a refactor that changes a report or
a transcript file by one byte fails here.
"""

import hashlib
import json

import pytest

from thinker.backend import PolicyParams, ScriptedPolicyBackend
from thinker.cli import write_transcripts
from thinker.evaluation import SINGLE_TURN, THINKER, THINKER_FAST, evaluate
from thinker.rollout import run_batch
from thinker.sim import SyntheticTaskConfig, gen_synthetic
from thinker.task import Mode

POLICY = PolicyParams(p_fast=0.4, t_p=0.8, t_n=0.7, p_slow=0.6)


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
