"""One benchmark worker: a fresh interpreter that imports mfnear, runs the
warm-up op, then (unless it only measures set-up) the timed closed loop.

Started by run.py as `python3 bench/worker.py CONFIG_JSON`; prints one
JSON object as its last stdout line.  CONFIG_JSON keys: workload, seed,
workdir, mode ("setup" or "timed"), trace (bool) and seconds.

A traced worker runs every op twice back to back, once with the layer
wrappers installed and once without, alternating which goes first.  The
traced copies give the per-layer metrics; the pairs give the tracing
overhead at one machine speed.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import stats
import workloads


@dataclass
class OpResult:
    latency_ms: float
    error: Optional[str] = None  # the op failed: non-zero exit, exception or bad output
    wrong: bool = False  # the program exited 0 but its output failed the check


class Runner:
    """Runs ops through an in-process `main(argv)` and checks their outputs."""

    def __init__(self, main: Callable[[list[str]], int], workdir: str) -> None:
        self.main = main
        self.workdir = workdir

    def run(self, op: workloads.Op) -> OpResult:
        outputs = []
        busy = 0.0
        for j, argv in enumerate(op.argvs):
            path = os.path.join(self.workdir, f"out{j}")
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                    rc = self.main([*argv, "--out", path])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the op fails; the run goes on
                busy += time.perf_counter() - t0
                return OpResult(busy * 1e3, f"{' '.join(argv[:3])}: {type(exc).__name__}: {exc}")
            busy += time.perf_counter() - t0
            if rc != 0:
                msg = sink.getvalue().strip().splitlines()
                return OpResult(busy * 1e3, f"{' '.join(argv[:3])}: exit {rc}: {msg[-1] if msg else ''}")
            try:
                with open(path, "rb") as fh:
                    outputs.append(fh.read())
            except FileNotFoundError:
                return OpResult(busy * 1e3, f"{' '.join(argv[:3])}: exit 0 without --out file", wrong=True)
        try:
            error = workloads.check(op, outputs)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        return OpResult(busy * 1e3, error, wrong=error is not None)


@dataclass
class Tally:
    """Latencies and failures of a loop's ops."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    unexpected: int = 0  # failed ops other than the known `tables` failures, wrong outputs included

    def add(self, op: workloads.Op, res: OpResult) -> None:
        self.latencies.append(res.latency_ms)
        if res.error:
            self.failed += 1
            self.wrong += res.wrong
            self.unexpected += res.wrong or not workloads.may_fail(op)
            if len(self.failures) < 20:
                self.failures.append(res.error)

    def result(self) -> dict:
        return {
            "latencies_ms": self.latencies,
            "attempted": len(self.latencies),
            "failed": self.failed,
            "wrong": self.wrong,
            "unexpected": self.unexpected,
            "failures": self.failures,
            "correct": self.unexpected == 0,
        }


def environment(kernels, numpy_version: str) -> dict:
    forced = os.environ.get("MFNEAR_FORCE_PURE")
    built = importlib.util.find_spec("mfnear._kernels") is not None
    reason = None
    if kernels.BACKEND != "compiled":
        reason = "MFNEAR_FORCE_PURE=1" if forced == "1" else (
            "compiled extension mfnear._kernels failed to import" if built else
            "compiled extension mfnear._kernels is not built")
    return {
        "backend": kernels.BACKEND,
        "fallback": reason is not None,
        "fallback_reason": reason,
        "MFNEAR_FORCE_PURE": forced,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workload = cfg["workload"]

    import numpy
    import mfnear
    from mfnear import cli, counting, kernels, mmf, oracle

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(mfnear.__file__).startswith(src + os.sep):
        print(f"mfnear was imported from {mfnear.__file__}, not from {src}", file=sys.stderr)
        return 1

    plain = Runner(cli.main, cfg["workdir"]).run
    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install({"cli": cli, "counting": counting, "kernels": kernels, "mmf": mmf, "oracle": oracle})
        traced = tracer.wrap(tracing.OP_SPAN, Runner(tracer.wrap(tracing.CLI_SPAN, cli.main), cfg["workdir"]).run)

    warm = (traced if tracer else plain)(workloads.warmup(workload))
    t_ready = time.monotonic()
    if warm.error:
        print(f"warm-up op failed: {warm.error}", file=sys.stderr)
        return 1
    if cfg["mode"] == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0

    gc.collect()
    tally = Tally()
    pairs: tuple[list[float], list[float]] = ([], [])  # traced / plain latency, by whether traced ran first
    n_traced = 0

    def plain_copy(op: workloads.Op) -> OpResult:
        tracer.uninstall()
        try:
            return plain(op)
        finally:
            tracer.install()

    stream = workloads.groups(workload, cfg["seed"])
    min_ops = 2 if tracer else stats.TAIL_BEYOND + 1
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < cfg["seconds"] or (n_traced if tracer else len(tally.latencies)) < min_ops:
        for op in next(stream):
            if not tracer:
                tally.add(op, plain(op))
                continue
            traced_first = n_traced % 2 == 0
            if not traced_first:
                base = plain_copy(op)
            tracer.op = n_traced
            res = traced(op)
            n_traced += 1
            if traced_first:
                base = plain_copy(op)
            tally.add(op, res)
            tally.add(op, base)
            if not (res.error or base.error):
                pairs[traced_first].append(res.latency_ms / base.latency_ms)
    loop_s = time.perf_counter() - t0

    out = {
        "t_ready": t_ready,
        "loop_s": loop_s,
        **tally.result(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(kernels, numpy.__version__),
    }
    if tracer:
        import tracing

        out["traced_ops"] = n_traced
        out["layers"] = tracing.layer_metrics(tracer.spans, n_traced)
        out["overhead_ratios"] = {"plain_first": pairs[0], "traced_first": pairs[1]}
        out["spans"] = tracing.span_table(tracer.spans)
        out["self_sum_ms"], out["op_sum_ms"] = tracing.self_time_gap(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
