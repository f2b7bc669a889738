"""mfnear benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a source checkout: the program is imported from `src/` (it is
pure Python, nothing to build).  Each measurement runs in a fresh worker
interpreter, one at a time, so no cache built by one run (the lru_cached
scan tables, for instance) reaches another.  The load is a closed loop
with one client: the next op starts when the previous one has returned.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
as the median over several workers, then a timed worker for S seconds.
--trace 1 reports the per-layer metrics from a traced worker that runs for
S seconds.  It runs each op twice back to back, with and without the
layer wrappers, and the tracing overhead comes from those pairs.

The last stdout line is the result JSON; the full record (environment,
latencies, failures, every span) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_WORKERS = 4  # set-up-only workers; the timed worker adds one more sample
DEADLINE_S = 170  # the whole run, set-up included, ends within this


class BenchError(Exception):
    pass


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Workers:
    """Starts worker interpreters one at a time under one overall deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.base = {"workload": workload, "seed": seed, "workdir": str(workdir)}
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, **cfg) -> dict:
        cfg = {**self.base, **cfg}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {cfg['mode']} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {cfg['mode']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["t_ready"] - t_spawn
        return res


def _untraced(workers: Workers, seconds: int) -> tuple[dict, dict, dict]:
    setup = [workers.run(mode="setup", trace=False)["setup_s"] for _ in range(SETUP_WORKERS)]
    timed = workers.run(mode="timed", trace=False, seconds=seconds)
    setup.append(timed["setup_s"])
    lat = timed["latencies_ms"]
    tail_pct, tail_ms = stats.tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": timed["attempted"] / timed["loop_s"],
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": timed["maxrss_kb"] / 1024,
    }
    details = {
        "setup_samples_s": setup,
        "op_tail_percentile": tail_pct,
        "op_samples": len(lat),
        "fail_frac": timed["failed"] / timed["attempted"],
    }
    return metrics, details, timed


def _traced(workers: Workers, seconds: int) -> tuple[dict, dict, dict]:
    traced = workers.run(mode="timed", trace=True, seconds=seconds)
    if abs(traced["self_sum_ms"] - traced["op_sum_ms"]) > 1e-6 * traced["op_sum_ms"]:
        raise BenchError(f"self times sum to {traced['self_sum_ms']} ms, ops to {traced['op_sum_ms']} ms")
    ratios = [r for r in traced["overhead_ratios"].values() if r]
    if not ratios:
        raise BenchError("no op ran cleanly both traced and untraced")
    metrics = dict(traced["layers"])
    # Each order's median, averaged, so that a second run of the same op
    # being faster or slower than the first cancels out.
    metrics["trace.overhead_frac"] = statistics.mean(statistics.median(r) for r in ratios) - 1
    details = {
        "traced_ops": traced["traced_ops"],
        "overhead_pairs": {k: len(v) for k, v in traced["overhead_ratios"].items()},
        "self_sum_ms": traced["self_sum_ms"],
        "op_sum_ms": traced["op_sum_ms"],
        "spans_per_op": {name: {k: v / traced["traced_ops"] for k, v in row.items()}
                         for name, row in sorted(traced["spans"].items())},
    }
    return metrics, details, traced


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not (ROOT / "src" / "mfnear" / "__init__.py").is_file():
        print(f"no mfnear source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    signal.signal(signal.SIGTERM, _terminate)
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workers = Workers(args.workload, args.seed, workdir)
        measure = _traced if args.trace else _untraced
        metrics, details, timed = measure(workers, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / ".work").rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": timed["correct"],
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**timed["env"], "git_commit": _git_commit()},
        "result": result,
        "all_metrics": metrics,
        "details": {**details, "failures": timed["failures"], "wrong": timed["wrong"],
                    "unexpected_failures": timed["unexpected"],
                    "latencies_ms": timed["latencies_ms"] if not args.trace else None},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
