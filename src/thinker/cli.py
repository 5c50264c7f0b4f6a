"""Command-line entry point.

Subcommands: grade (stdin pairs), episode (one dialogue), rollout (batch +
transcript file), eval (benchmark report), simulate (analytic vs Monte
Carlo), gen-data (synthetic dataset). Exit codes: 0 ok, 2 usage, 3 config,
4 backend, 5 I/O, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import closing, suppress

from .backend import BACKEND_KINDS, PolicyParams
from .config import (
    EngineConfig,
    build_backend,
    config_hash,
    load_config,
)
from .dataset import Dataset, QAItem, find_surrogate, load_dataset, sample_batch, write_dataset
from .errors import BackendError, ConfigError, DatasetError, ThinkerError
from .evaluation import EVAL_MODES, evaluate
from .grading import answers_equal, extract_boxed
from .rewards import TrailingAccuracy
from .rollout import (RolloutBatch, dump_record, render_transcript, run_batch, run_episode,
                      transcript_record, write_transcripts)
from .sim import SyntheticTaskConfig, compare, gen_synthetic, sweep
from .task import Mode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_BACKEND = 4
EXIT_IO = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left

MAX_SWEEP_VALUES = 10_000  # each value is a whole monte_carlo run
GAP_SE = 4  # simulate flags a Monte Carlo estimate further than this from its closed form


# ---------------------------------------------------------------------------
# argument parsing

# A shorthand flag's dest is its dotted config key. The value argparse typed applies after
# every --set, so the flag wins over the file and --set, and config_hash covers it.
def _flag_values(args) -> dict[str, object]:
    return {key: value for key, value in vars(args).items() if "." in key and value is not None}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_policy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p-fast", type=float, dest="backend.policy.p_fast", metavar="P_FAST",
                     help="chance the fast stage answers correctly")
    sub.add_argument("--t-p", type=float, dest="backend.policy.t_p", metavar="T_P",
                     help="P(boxed Yes | fast answer correct)")
    sub.add_argument("--t-n", type=float, dest="backend.policy.t_n", metavar="T_N",
                     help="P(boxed No | fast answer wrong)")
    sub.add_argument("--p-slow", type=float, dest="backend.policy.p_slow", metavar="P_SLOW",
                     help="chance the slow stage answers correctly")


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
    parallelism = dict(type=_positive_int, dest="rollout.parallelism", metavar="PARALLELISM",
                       help="most requests in flight to an http backend (%(dest)s); "
                            "in-process backends run episodes inline")

    grade = commands.add_parser("grade", help="grade JSONL {response, answer} pairs from stdin")
    grade.add_argument("--fields", default="response,answer",
                       help="comma-separated input field names (default response,answer)")

    episode = commands.add_parser("episode", help="run one episode and print the transcript")
    episode.add_argument("--mode", choices=[m.value for m in Mode], default="inference")
    episode.add_argument("--backend", choices=BACKEND_KINDS, dest="backend.kind",
                         help="override %(dest)s")
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
    rollout.add_argument("--mode", choices=[m.value for m in Mode], default="training")
    rollout.add_argument("--batch-size", type=_positive_int, metavar="BATCH_SIZE",
                         dest="rollout.batch_size", help="prompts per batch (%(dest)s)")
    rollout.add_argument("--samples-per-prompt", type=_positive_int, metavar="SAMPLES_PER_PROMPT",
                         dest="rollout.samples_per_prompt", help="samples per prompt (%(dest)s)")
    rollout.add_argument("--parallelism", **parallelism)
    rollout.add_argument("--seed", type=int, default=0)
    rollout.add_argument("--out", default="transcripts.jsonl")
    rollout.add_argument("--trailing", metavar="FILE",
                         help="start from the trailing fast accuracy {p, count} in FILE, if it "
                              "exists, and write the batch's back to FILE")
    _add_policy_flags(rollout)

    ev = commands.add_parser("eval", help="benchmark pass@1 accuracy over k samples")
    ev.add_argument("--dataset", required=True)
    # nargs=1 stores a list of the one mode, the type of eval.modes
    ev.add_argument("--mode", nargs=1, dest="eval.modes",
                    choices=[m.replace("_", "-") for m in EVAL_MODES],
                    help="run only this mode (%(dest)s; default: every mode listed there)")
    ev.add_argument("--k", type=_positive_int, dest="eval.k", metavar="K",
                    help="samples per question (%(dest)s)")
    ev.add_argument("--parallelism", **parallelism)
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
    gen.add_argument("--n", type=_positive_int, default=SyntheticTaskConfig.n_items)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--min-operands", type=int, default=SyntheticTaskConfig.min_operands)
    gen.add_argument("--max-operands", type=int, default=SyntheticTaskConfig.max_operands)
    gen.add_argument("--magnitude", type=int, default=SyntheticTaskConfig.magnitude)
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
        if line_no == 1:
            line = line.removeprefix("\ufeff")  # a leading byte-order mark, as --dataset skips
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            response, answer = record[response_field], record[answer_field]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DatasetError(f"stdin line {line_no}: bad record ({exc})") from exc
        if not (isinstance(response, str) and isinstance(answer, str)) or find_surrogate(response + answer):
            raise DatasetError(f"stdin line {line_no}: {response_field}/{answer_field} "
                               "must be strings UTF-8 can encode")
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
    if args.item_id is not None:  # an empty id is looked up too, not read as no id
        return dataset.get(args.item_id)
    if not 0 <= args.index < len(dataset):
        raise ConfigError(f"--index {args.index} out of range (dataset has {len(dataset)} items)")
    return dataset.items[args.index]


def _cmd_episode(args, cfg: EngineConfig) -> int:
    item = _pick_item(args)
    with closing(build_backend(cfg)) as backend:
        transcript = run_episode(
            backend, item, Mode(args.mode),
            budgets=cfg.budgets, seed=args.seed, reward_cfg=cfg.rewards,
            trailing=TrailingAccuracy().p,
        )
    record = transcript_record(transcript, config_hash(cfg))
    print(dump_record(record) if args.json else render_transcript(record))
    return EXIT_BACKEND if transcript.failed else EXIT_OK


def _read_trailing(path: str) -> TrailingAccuracy | None:
    """The tracker saved in *path*, or None when there is no such file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    try:
        state = json.loads(data)
        p, count = state["p"], state["count"]
    # not JSON or not UTF-8, nested past the decoder's depth, a key missing, not an object
    except (ValueError, RecursionError, KeyError, TypeError):
        p = count = None
    # bool is an int subclass, so true and false are refused by name
    if (type(p) not in (int, float) or not 0 <= p <= 1  # NaN included
            or type(count) is not int or count < 0):
        raise DatasetError(f"trailing file {path!r} must hold a JSON object with a number p in "
                           "[0, 1] and an integer count >= 0")
    return TrailingAccuracy(p=float(p), count=count)


def _write_trailing(path: str, tracker: TrailingAccuracy) -> None:
    """Replace *path* with the tracker in one step: a reader, or a run that
    crashes midway, sees the old file or the new one, never a part."""
    tmp = f"{path}.{os.getpid()}.tmp"  # beside path: os.replace cannot move across file systems
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"count": tracker.count, "p": tracker.p}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cmd_rollout(args, cfg: EngineConfig) -> int:
    items = sample_batch(_load_nonempty(args.dataset), cfg.rollout.batch_size, args.seed)
    tracker = _read_trailing(args.trailing) if args.trailing is not None else None
    with closing(build_backend(cfg)) as backend:
        batch = run_batch(
            backend, items, Mode(args.mode),
            seed=args.seed, samples_per_prompt=cfg.rollout.samples_per_prompt,
            budgets=cfg.budgets, reward_cfg=cfg.rewards, parallelism=cfg.rollout.parallelism,
            tracker=tracker,
        )
    write_transcripts(args.out, batch.transcripts, config_hash(cfg))
    if args.trailing is not None:  # after the transcripts: a batch that was not written does not count
        _write_trailing(args.trailing, batch.trailing)
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
    with closing(build_backend(cfg)) as backend:
        for mode in cfg.eval.modes:
            report = evaluate(
                backend, dataset, mode,
                k=cfg.eval.k,
                budgets=cfg.budgets,
                seed=args.seed,
                vocab=cfg.eval.reflection_vocab(),
                parallelism=cfg.rollout.parallelism,
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
    span = (stop - start) / step  # inf when the range overflows or the step underflows
    if not span < MAX_SWEEP_VALUES - 0.5:  # more than MAX_SWEEP_VALUES values once rounded
        raise ConfigError(f"sweep {spec!r} has more than {MAX_SWEEP_VALUES} values")
    count = int(round(span))
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
        for row in rows:
            _report_gaps(f"{name}={row[name]}: ", row)
        return EXIT_OK
    row = compare(params, args.episodes, args.seed, budgets=cfg.budgets)
    print(f"config={cfg_hash} episodes={row['episodes']}")
    print(f"accuracy: analytic={row['analytic_accuracy']:.6f}  "
          f"monte-carlo={row['mc_accuracy']:.6f} (se {row['mc_accuracy_se']:.6f})")
    print(f"tokens:   analytic={row['analytic_tokens']:.2f}  "
          f"monte-carlo={row['mc_tokens']:.2f} (se {row['mc_tokens_se']:.2f})")
    _report_gaps("", row)
    return EXIT_OK


def _report_gaps(prefix: str, row: dict) -> None:
    """One stderr line per estimate in a compare row, accuracy or tokens,
    whose Monte Carlo value lies more than GAP_SE standard errors from its
    analytic value; a zero standard error flags any gap. A single episode
    has no standard error, so it flags nothing. The exit code stays 0."""
    episodes = row["episodes"]
    if episodes < 2:
        return
    for name in ("accuracy", "tokens"):
        analytic, value, se = row[f"analytic_{name}"], row[f"mc_{name}"], row[f"mc_{name}_se"]
        if abs(value - analytic) > GAP_SE * se:
            print(f"{prefix}{name}: monte-carlo {value:.6g} is {abs(value - analytic):.6g} from "
                  f"analytic {analytic:.6g}, more than {GAP_SE} se (se {se:.6g}, {episodes} episodes)",
                  file=sys.stderr)


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
        print(yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=False).rstrip())
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
