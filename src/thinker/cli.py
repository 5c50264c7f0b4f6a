"""Command-line entry point.

Subcommands: grade (stdin pairs), episode (one dialogue), rollout (batch +
transcript file), eval (benchmark report), simulate (analytic vs Monte
Carlo), gen-data (synthetic dataset). Exit codes: 0 ok, 2 usage, 3 config,
4 backend, 5 I/O, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .backend import PolicyParams
from .config import (
    EngineConfig,
    build_backend,
    config_hash,
    config_to_dict,
    load_config,
)
from .dataset import Dataset, QAItem, load_dataset, sample_batch, write_dataset
from .errors import BackendError, ConfigError, DatasetError, ThinkerError
from .evaluation import evaluate
from .grading import answers_equal, extract_boxed
from .rollout import RolloutBatch, Trajectory, run_batch, run_episode
from .sim import (
    SyntheticTaskConfig,
    analytic_accuracy,
    analytic_expected_tokens,
    gen_synthetic,
    monte_carlo,
    sweep,
)
from .task import Mode, Stage, Transcript

TRANSCRIPT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_BACKEND = 4
EXIT_IO = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left


# ---------------------------------------------------------------------------
# transcript persistence

def transcript_record(transcript: Transcript, cfg_hash: str) -> dict:
    """Flatten one transcript into the versioned JSONL record schema.

    Adds the credit-assignment view (boundaries, stage_rewards) once every
    executed stage has its reward. Deliberately excludes wall-clock metadata
    so identical runs serialize byte-identically.
    """
    stages = []
    for turn in transcript.turns:
        if turn.stage is Stage.VERIFICATION:
            extracted = transcript.verdict.value if transcript.verdict else None
        else:
            answer = transcript.answers.get(turn.stage)
            extracted = answer.raw if answer is not None else None
        stages.append({
            "stage": turn.key,
            "prompt": turn.prompt,
            "response": turn.response,
            "token_count": turn.token_count,
            "finish_reason": turn.finish_reason,
            "extracted": extracted,
            "reward": transcript.rewards.for_stage(turn.stage),
        })
    record = {
        "schema_version": TRANSCRIPT_SCHEMA_VERSION,
        "episode_id": transcript.episode_id,
        "mode": transcript.mode.value,
        "item_id": transcript.item.id,
        "seed": transcript.seed,
        "backend": transcript.backend_id,
        "config_hash": cfg_hash,
        "failed": transcript.failed,
        "error": transcript.error,
        "stages": stages,
        "final_stage": transcript.final_stage.key if transcript.final_stage else None,
        "final_answer": transcript.final_answer.raw if transcript.final_answer else None,
        "correct": transcript.correct,
        "summary_logprob": transcript.summary_logprob,
        "logprob_available": transcript.logprob_available,
    }
    try:
        traj = Trajectory.from_transcript(transcript)
    except ValueError:  # failed, or a reward not filled (eval samples, unbatched episodes)
        return record
    record["boundaries"] = list(traj.boundaries)
    record["stage_rewards"] = list(traj.stage_rewards)
    return record


def dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def write_transcripts(path: str, transcripts: list[Transcript], cfg_hash: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for transcript in transcripts:
            fh.write(dump_record(transcript_record(transcript, cfg_hash)))
            fh.write("\n")


# ---------------------------------------------------------------------------
# argument parsing

# Shorthand flags (by argparse dest) and the config keys they stand for. The
# values argparse typed apply after every --set, so a flag wins over both the
# file and --set, and config_hash and --print-config cover it.
_FLAG_KEYS = {
    "p_fast": "backend.policy.p_fast",
    "t_p": "backend.policy.t_p",
    "t_n": "backend.policy.t_n",
    "p_slow": "backend.policy.p_slow",
    "backend": "backend.kind",
    "batch_size": "rollout.batch_size",
    "samples_per_prompt": "rollout.samples_per_prompt",
    "parallelism": "rollout.parallelism",
    "k": "eval.k",
    "eval_modes": "eval.modes",
}


def _flag_values(args) -> dict[str, object]:
    return {key: getattr(args, dest) for dest, key in _FLAG_KEYS.items()
            if getattr(args, dest, None) is not None}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_policy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p-fast", type=float, help="chance the fast stage answers correctly")
    sub.add_argument("--t-p", type=float, help="P(boxed Yes | fast answer correct)")
    sub.add_argument("--t-n", type=float, help="P(boxed No | fast answer wrong)")
    sub.add_argument("--p-slow", type=float, help="chance the slow stage answers correctly")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinker",
        description="Four-stage QA environment engine: episodes, rollouts, evaluation, simulation.",
    )
    parser.add_argument("--config", help="YAML config file (defaults match the experiment settings)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", dest="overrides",
                        help="override one config key, e.g. --set rewards.logprob_coef=1e-4")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective config and its hash, then exit")

    commands = parser.add_subparsers(dest="command")
    parallelism_help = ("most requests in flight to an http backend (rollout.parallelism); "
                        "in-process backends run episodes inline")

    grade = commands.add_parser("grade", help="grade JSONL {response, answer} pairs from stdin")
    grade.add_argument("--fields", default="response,answer",
                       help="comma-separated input field names (default response,answer)")

    episode = commands.add_parser("episode", help="run one episode and print the transcript")
    episode.add_argument("--mode", choices=["training", "inference"], default="inference")
    episode.add_argument("--backend", choices=["scripted", "http"], help="override backend.kind")
    episode.add_argument("--question", help="ad-hoc question text")
    episode.add_argument("--answer", help="ad-hoc ground-truth answer")
    episode.add_argument("--dataset", help="dataset JSONL to pick the item from")
    episode.add_argument("--index", type=int, default=0, help="item index in --dataset")
    episode.add_argument("--item-id", help="item id in --dataset (overrides --index)")
    episode.add_argument("--seed", type=int, default=0)
    episode.add_argument("--json", action="store_true", help="print the JSON record instead of text")
    _add_policy_flags(episode)

    rollout = commands.add_parser("rollout", help="run a batch and write transcripts + returns")
    rollout.add_argument("--dataset", required=True)
    rollout.add_argument("--mode", choices=["training", "inference"], default="training")
    rollout.add_argument("--batch-size", type=_positive_int,
                         help="prompts per batch (rollout.batch_size)")
    rollout.add_argument("--samples-per-prompt", type=_positive_int,
                         help="samples per prompt (rollout.samples_per_prompt)")
    rollout.add_argument("--parallelism", type=_positive_int, help=parallelism_help)
    rollout.add_argument("--seed", type=int, default=0)
    rollout.add_argument("--out", default="transcripts.jsonl")
    _add_policy_flags(rollout)

    ev = commands.add_parser("eval", help="benchmark pass@1 accuracy over k samples")
    ev.add_argument("--dataset", required=True)
    # nargs=1 stores a list of the one mode, the type of eval.modes
    ev.add_argument("--mode", nargs=1, dest="eval_modes",
                    choices=["thinker", "thinker-fast", "single-turn"],
                    help="run only this mode (eval.modes; default: every mode listed there)")
    ev.add_argument("--k", type=_positive_int, help="samples per question (eval.k)")
    ev.add_argument("--parallelism", type=_positive_int, help=parallelism_help)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default="eval_report.json")
    _add_policy_flags(ev)

    sim = commands.add_parser("simulate", help="analytic vs Monte Carlo task dynamics")
    sim.add_argument("--episodes", type=_positive_int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sweep", metavar="NAME=START:STOP:STEP",
                     help="sweep one policy parameter, e.g. p_fast=0:1:0.1")
    sim.add_argument("--out", default="simulate_sweep.tsv", help="sweep output file (TSV)")
    _add_policy_flags(sim)

    gen = commands.add_parser("gen-data", help="generate a synthetic arithmetic dataset")
    gen.add_argument("--n", type=_positive_int, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--min-operands", type=int, default=3)
    gen.add_argument("--max-operands", type=int, default=6)
    gen.add_argument("--magnitude", type=int, default=9)
    gen.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommands

def _cmd_grade(args, cfg: EngineConfig) -> int:
    fields = [f.strip() for f in args.fields.split(",")]
    if len(fields) != 2:
        raise ConfigError("--fields must name exactly two fields")
    response_field, answer_field = fields
    for line_no, line in enumerate(sys.stdin, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            response, answer = record[response_field], record[answer_field]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DatasetError(f"stdin line {line_no}: bad record ({exc})") from exc
        if not (isinstance(response, str) and isinstance(answer, str)):
            raise DatasetError(f"stdin line {line_no}: {response_field}/{answer_field} must be strings")
        boxed = extract_boxed(response)
        out = {
            "extracted": boxed.raw if boxed else None,
            "canonical": boxed.canonical if boxed else None,
            "correct": answers_equal(boxed, answer),
        }
        print(dump_record(out))
    return EXIT_OK


def _load_nonempty(path: str) -> Dataset:
    dataset = load_dataset(path)
    if len(dataset) == 0:
        raise DatasetError(f"dataset {path!r} is empty")
    return dataset


def _pick_item(args) -> QAItem:
    if args.question is not None or args.answer is not None:
        if not (args.question and args.answer):
            raise ConfigError("--question and --answer must be given together")
        return QAItem(id="cli", question=args.question, answer=args.answer)
    if not args.dataset:
        raise ConfigError("need --question/--answer or --dataset")
    dataset = _load_nonempty(args.dataset)
    if args.item_id:
        return dataset.get(args.item_id)
    if not 0 <= args.index < len(dataset):
        raise ConfigError(f"--index {args.index} out of range (dataset has {len(dataset)} items)")
    return dataset.items[args.index]


def _render_transcript(record: dict) -> str:
    """The text view of one transcript record."""
    lines = [
        f"episode {record['episode_id']}  mode={record['mode']}  "
        f"item={record['item_id']}  seed={record['seed']}  "
        f"backend={record['backend']}  config={record['config_hash']}"
    ]
    for turn in record["stages"]:
        reward = turn["reward"]
        reward_str = f"{reward:.4f}" if reward is not None else "-"
        lines.append(f"\n[{turn['stage']}] tokens={turn['token_count']} "
                     f"finish={turn['finish_reason']} reward={reward_str}")
        lines.append(f"  prompt   | {turn['prompt']}")
        lines.append(f"  response | {turn['response']}")
    if record["failed"]:
        lines.append(f"\nFAILED: {record['error']}")
    else:
        answer = record["final_answer"] if record["final_answer"] is not None else "<no box>"
        stage = record["final_stage"] or "-"  # a one-shot sample has no stage
        lines.append(f"\nfinal: stage={stage} answer={answer!r} correct={record['correct']}")
    return "\n".join(lines)


def _cmd_episode(args, cfg: EngineConfig) -> int:
    item = _pick_item(args)
    backend = build_backend(cfg)
    transcript = run_episode(
        backend, item, Mode(args.mode),
        budgets=cfg.budgets, seed=args.seed, reward_cfg=cfg.rewards,
        trailing=0.5,
    )
    record = transcript_record(transcript, config_hash(cfg))
    print(dump_record(record) if args.json else _render_transcript(record))
    return EXIT_BACKEND if transcript.failed else EXIT_OK


def _cmd_rollout(args, cfg: EngineConfig) -> int:
    items = sample_batch(_load_nonempty(args.dataset), cfg.rollout.batch_size, args.seed)
    backend = build_backend(cfg)
    batch = run_batch(
        backend, items, Mode(args.mode),
        seed=args.seed, samples_per_prompt=cfg.rollout.samples_per_prompt,
        budgets=cfg.budgets, reward_cfg=cfg.rewards, parallelism=cfg.rollout.parallelism,
    )
    write_transcripts(args.out, batch.transcripts, config_hash(cfg))
    print(_batch_summary(batch, args.out))
    return EXIT_OK


def _batch_summary(batch: RolloutBatch, out_path: str) -> str:
    stage_bits = "  ".join(
        f"{key}={value:.1f}" for key, value in sorted(batch.mean_stage_tokens.items()))
    return (
        f"episodes={len(batch.transcripts)} failures={batch.failures}\n"
        f"fast accuracy={batch.fast_accuracy:.4f}  final accuracy={batch.final_accuracy:.4f}  "
        f"trailing p={batch.trailing.p:.4f}\n"
        f"mean tokens: total={batch.mean_total_tokens:.1f}  {stage_bits}\n"
        f"transcripts written to {out_path}"
    )


def _cmd_eval(args, cfg: EngineConfig) -> int:
    dataset = _load_nonempty(args.dataset)
    backend = build_backend(cfg)
    for mode in cfg.eval.modes:
        report = evaluate(
            backend, dataset, mode,
            k=cfg.eval.k,
            budgets=cfg.budgets,
            seed=args.seed,
            reward_cfg=cfg.rewards,
            vocab=cfg.eval.reflection_vocab(),
            parallelism=cfg.rollout.parallelism,
            single_turn_tokens=cfg.eval.single_turn_tokens,
        )
        payload = report.to_dict()
        payload["config_hash"] = config_hash(cfg)
        payload["seed"] = args.seed
        out = args.out
        if len(cfg.eval.modes) > 1:
            stem, suffix = os.path.splitext(args.out)  # the file name's suffix only
            out = f"{stem}.{mode}{suffix}"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, ensure_ascii=False, indent=2)
            fh.write("\n")
        print(report.render_table())
        print(f"report written to {out}")
    return EXIT_OK


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    try:
        name, rest = spec.split("=", 1)
        start_s, stop_s, step_s = rest.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ConfigError(f"bad sweep spec {spec!r}; expected NAME=START:STOP:STEP") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ConfigError(f"bad sweep range {spec!r}; expected finite START <= STOP and STEP > 0")
    count = int(round((stop - start) / step))
    values = [round(start + i * step, 10) for i in range(count + 1)]
    return name.strip(), [v for v in values if v <= stop + 1e-9]


def _cmd_simulate(args, cfg: EngineConfig) -> int:
    params: PolicyParams = cfg.backend.policy
    cfg_hash = config_hash(cfg)
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        try:
            rows = sweep(name, values, params, args.episodes, args.seed, budgets=cfg.budgets)
        except ValueError as exc:
            raise ConfigError(f"--sweep {args.sweep}: {exc}") from None
        columns = list(rows[0].keys())
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# config_hash={cfg_hash} seed={args.seed}\n")
            fh.write("\t".join(columns) + "\n")
            for row in rows:
                fh.write("\t".join(_format_cell(row[c]) for c in columns) + "\n")
        print(f"swept {name} over {len(values)} values; wrote {args.out}")
        return EXIT_OK
    accuracy, tokens = monte_carlo(params, args.episodes, args.seed, budgets=cfg.budgets)
    print(f"config={cfg_hash} episodes={accuracy.n}")
    print(f"accuracy: analytic={analytic_accuracy(params):.6f}  "
          f"monte-carlo={accuracy.value:.6f} (se {accuracy.stderr:.6f})")
    print(f"tokens:   analytic={analytic_expected_tokens(params, cfg.budgets):.2f}  "
          f"monte-carlo={tokens.value:.2f} (se {tokens.stderr:.2f})")
    return EXIT_OK


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _cmd_gen_data(args, cfg: EngineConfig) -> int:
    try:
        sim_cfg = SyntheticTaskConfig(
            n_items=args.n, min_operands=args.min_operands,
            max_operands=args.max_operands, magnitude=args.magnitude, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dataset = gen_synthetic(sim_cfg)
    write_dataset(args.out, dataset.items)
    print(f"wrote {len(dataset)} items to {args.out} (config={config_hash(cfg)})")
    return EXIT_OK


_COMMANDS = {
    "grade": _cmd_grade,
    "episode": _cmd_episode,
    "rollout": _cmd_rollout,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "gen-data": _cmd_gen_data,
}


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.overrides, _flag_values(args))
    if args.print_config:
        import yaml
        print(yaml.safe_dump(config_to_dict(cfg), sort_keys=False).rstrip())
        print(f"# config_hash={config_hash(cfg)}")
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return _COMMANDS[args.command](args, cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else EXIT_OK
    try:
        status = _run(parser, args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left early (`thinker ... | head -1`): stop quietly, and let
        # the rest of the buffered output drain into devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ThinkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
