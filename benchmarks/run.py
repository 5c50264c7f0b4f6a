"""thinker-engine benchmark: one workload, one run, one JSON result.

    python3 benchmarks/run.py --workload train-scripted --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the engine is imported from the
checkout's ``src/``. The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with run metadata, every metric's sample count and a sha256 of the
first unit's output bytes. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a traced run. The exit code
is 0 when every correctness check passed; a failed check exits with 1 and a
missing engine source with 2, both without printing a result. See benchmarks/README.md for the workloads and
what each metric predicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "episodes_per_s": "1/s",
    "setup_s": "s",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "grading.extract_boxed.calls_per_episode": "count",
    "grading.extract_boxed.self_us_per_episode": "us",
    "grading.from_raw.calls_per_episode": "count",
    "grading.answers_equal.calls_per_episode": "count",
    "grading.answers_equal.self_us_per_episode": "us",
    "grading.self_share": "ratio",
    "task.advance.self_us_per_episode": "us",
    "task.render_prompt.us_per_episode": "us",
    "task.messages.us_per_episode": "us",
    "backend.generate.calls_per_episode": "count",
    "backend.request_build.us_per_episode": "us",
    "backend.scripted.self_us_per_episode": "us",
    "backend.truncate.us_per_episode": "us",
    "backend.http.request_p50_ms": "ms",
    "backend.http.request_p99_ms": "ms",
    "backend.http.service_p50_ms": "ms",
    "backend.http.send_delay_p50_ms": "ms",
    "backend.http.return_delay_p50_ms": "ms",
    "backend.http.connections_per_request": "count",
    "backend.http.attempts_per_call": "count",
    "backend.http.in_flight_mean": "requests",
    "rollout.run_episode.p50_us": "us",
    "rollout.run_episode.p99_us": "us",
    "rollout.episode_busy_share": "ratio",
    "rollout.barrier_ms": "ms",
    "rollout.trajectory.us_per_episode": "us",
    "rollout.gae.us_per_episode": "us",
    "rollout.gae.tokens_per_episode": "tokens",
    "rewards.us_per_episode": "us",
    "cli.write_transcripts.us_per_episode": "us",
    "cli.transcript_bytes_per_episode": "bytes",
    "evaluation.count_reflections.us_per_episode": "us",
    "evaluation.aggregate_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPS = 5
MIN_UNITS = 3  # timed units per untraced run, however short --seconds is
IMPORT_PROBE = "import time; t = time.perf_counter(); import thinker; print(time.perf_counter() - t)"
# Host-speed reference: fixed pure-Python work that shares no code with the
# engine. On a shared host the same work can take twice as long from one
# second to the next, and stay slow for minutes. CPU-bound timings are scaled
# by host_scale() of a slice run just before and just after them, so they
# read as on a host that runs the slice in REF_NOMINAL_S. The engine slows
# down less than the slice: REF_ELASTICITY is the log-log slope of its time
# on the slice's time that left the least spread between runs (README.md).
REF_ITERS = 60_000
REF_NOMINAL_S = 0.025
REF_ELASTICITY = 0.75


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one thinker-engine benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=["train-scripted", "eval-http", "simulate-long"])
    parser.add_argument("--seed", type=int, required=True, help="seed all inputs are derived from")
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time of the timed phase of an untraced run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="minimal sizes, for smoke tests")
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the engine's source files, standing in for a commit id
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "thinker").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def time_import(env: dict) -> float:
    """Seconds a fresh interpreter spends importing the engine."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def reference_slice() -> float:
    """Seconds this host takes for the fixed reference work."""
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_ITERS):
        key = "k%d" % (i & 255)
        table[key] = table.get(key, 0) + i % 7
    return time.perf_counter() - t0


def host_scale(ref_s: float) -> float:
    """Factor by which this host, running the slice in *ref_s*, runs the engine slower than nominal."""
    return (ref_s / REF_NOMINAL_S) ** REF_ELASTICITY


def run_unit(workload, index: int, tracer=None, reference: bool = False):
    """Run and check one unit; with *reference*, time a reference slice just
    before and just after the unit's timed work."""
    before = reference_slice() if reference else None
    if tracer is None:
        elapsed, result = workload.run(index, workload.calls())
    else:
        with tracer.installed():
            elapsed, result = workload.run(index, workload.calls(tracer))
    after = reference_slice() if reference else None
    outcome = workload.check(index, elapsed, result)
    if reference:
        outcome.ref_s = (before + after) / 2
    return outcome


def measure(workload, args, env: dict) -> tuple[list, dict[str, tuple[float, int]], dict]:
    """Set up and run one workload; return its outcomes, metrics and counts."""
    from tracing import Tracer
    from workloads import CheckFailed

    if workload.cpu_bound and hasattr(os, "sched_setaffinity"):
        # One CPU for the interpreter's threads: spread over two, each lock
        # hand-off waits on a cross-CPU wake-up whose cost swings with the host.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups, raw_setups = [], []
    for _ in range(1 if args.tiny else SETUP_REPS):
        workload.close()
        before = reference_slice()
        import_s = time_import(env)
        t0 = time.monotonic()
        workload.setup()
        elapsed = import_s + time.monotonic() - t0
        raw_setups.append(elapsed)
        setups.append(elapsed / host_scale((before + reference_slice()) / 2))

    warm = run_unit(workload, 0)
    if not args.trace:
        timed = []
        deadline = time.monotonic() + args.seconds
        while len(timed) < MIN_UNITS or time.monotonic() < deadline:
            timed.append(run_unit(workload, len(timed) + 1, reference=workload.cpu_bound))
        outcomes = [warm] + timed
        workload.finish(outcomes)
        attempted = sum(o.episodes for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        rates = [o.rate for o in timed]
        if workload.cpu_bound:
            scaled = [o.rate * host_scale(o.ref_s) for o in timed]
            counts = {"raw_episodes_per_s": statistics.median(rates),
                      "reference_s": [o.ref_s for o in timed], "reference_nominal_s": REF_NOMINAL_S}
        else:
            scaled, counts = rates, {}
        metrics = {
            "episodes_per_s": (statistics.median(scaled), len(scaled)),
            "setup_s": (statistics.median(setups), len(setups)),
            "completed_ratio": ((attempted - failed) / attempted, attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        counts.update(setup_s=setups, raw_setup_s=raw_setups, unit_rates=rates,
                      timed_episodes=sum(o.episodes for o in timed))
        return outcomes, metrics, {**counts, **workload.counts()}

    units = range(1, workload.traced_units + 1)
    untraced = [run_unit(workload, i) for i in units]
    workload.finish([warm] + untraced)
    tracer = Tracer()
    workload.begin_trace()
    traced = [run_unit(workload, i, tracer) for i in units]
    for i, plain, seen in zip(units, untraced, traced):
        if plain.digest != seen.digest:
            raise CheckFailed(f"unit {i}: traced output differs from untraced output")
    metrics = {name: (0.0, 0) for name in PER_LAYER}
    metrics.update(workload.layer_metrics(tracer.summary(), traced))
    overhead = (statistics.median(o.rate for o in untraced) / statistics.median(o.rate for o in traced) - 1)
    metrics["trace.overhead_ratio"] = (overhead, len(traced))
    return [warm] + untraced + traced, metrics, {"setup_s": setups, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thinker" / "__init__.py").is_file():
        print(f"engine source not found: {SRC / 'thinker'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thinker

    if Path(thinker.__file__).resolve().parent != (SRC / "thinker").resolve():
        print(f"imported thinker from {thinker.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed
    from thinker import config_hash

    # the stub is local; a proxy configured in the environment must not see its traffic
    for var in ("no_proxy", "NO_PROXY"):
        os.environ[var] = ",".join(filter(None, (os.environ.get(var), "127.0.0.1", "localhost")))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir, env)
    error = None
    try:
        outcomes, metrics, counts = measure(workload, args, env)
        cfg_hash = config_hash(workload.config())
    except CheckFailed as exc:
        error = str(exc)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if error is not None:
        print(f"correctness check failed: {error}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "config_hash": cfg_hash,
        "settings": workload.settings(),
        "units": len(outcomes),
        "episodes": sum(o.episodes for o in outcomes),
        "output_sha256": outcomes[0].digest,
        "counts": counts,
        "metrics": {name: {"value": value, "unit": units[name], "samples": samples}
                    for name, (value, samples) in metrics.items()},
    }
    result = {
        "correct": True,
        "attempted": sum(o.episodes for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
