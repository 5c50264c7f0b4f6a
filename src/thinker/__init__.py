"""Four-stage QA environment engine: fast answer, self-verification,
slow refinement, and summarization, with exact per-stage rewards,
stage-isolated credit assignment, pluggable generation backends, and a
scripted-policy simulator for desk-scale verification."""

from .backend import (
    GenerationRequest,
    GenerationResult,
    HttpBackend,
    PolicyParams,
    ScriptedPolicyBackend,
)
from .dataset import Dataset, QAItem, load_dataset, sample_batch
from .grading import ExtractedAnswer, Verdict, answers_equal, extract_boxed, extract_verdict, normalize
from .rewards import (
    RewardConfig,
    TrailingAccuracy,
    reward_fast,
    reward_slow,
    reward_summary,
    reward_verify,
    update_trailing,
)
from .rollout import (
    RolloutBatch,
    Trajectory,
    compute_gae,
    compute_stage_returns,
    run_batch,
    run_episode,
)
from .task import (
    Mode,
    Stage,
    StageBudgets,
    StageRewards,
    Transcript,
    advance,
    begin_episode,
    render_prompt,
)
from .evaluation import BenchmarkReport, ReflectionVocab, count_reflections, evaluate, standard_error
from .sim import (
    SimEstimate,
    SyntheticTaskConfig,
    analytic_accuracy,
    analytic_expected_tokens,
    gen_synthetic,
    monte_carlo,
)
from .config import EngineConfig, build_backend, config_hash, load_config

__version__ = "0.1.0"
