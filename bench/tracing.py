"""Per-layer tracing for the traced run, done entirely from the benchmark side.

Each layer's public functions are wrapped at the name their caller
resolves (`from .mmf import build_mmf` in cli means cli.build_mmf is the
name to patch).  Spans stay in memory as flat records with parent links
and are turned into per-layer metrics once the run has ended.  gf2 is not
wrapped: its primitives run 10^5-10^6 times per op and a wrapper would
distort them; their cost lands in the self time of the mmf caller.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Optional

# (module the caller lives in, attribute the caller resolves, span name)
WRAPS = (
    ("cli", "build_mmf", "mmf.build_mmf"),
    ("cli", "near_enumerate", "mmf.near_enumerate"),
    ("cli", "realize_near", "mmf.realize_near"),
    ("cli", "is_bent", "boolfun.is_bent"),
    ("oracle", "near_brute", "oracle.near_brute"),
    ("oracle", "m_census", "oracle.m_census"),
    ("oracle", "is_bent", "boolfun.is_bent"),
    ("oracle", "build_mmf", "mmf.build_mmf"),
    ("oracle", "scan_arrays", "scan.scan_arrays"),
    ("oracle", "affine_lut", "scan.affine_lut"),
    ("mmf", "image_subspaces", "mmf.image_subspaces"),
    ("mmf", "h_solution_space", "mmf.h_solution_space"),
    ("mmf", "build_mmf", "mmf.build_mmf"),
    ("kernels", "coset_affine_bits", "kernels.coset_affine_bits"),
    ("kernels", "coset_affine_all", "kernels.coset_affine_all"),
    ("counting", "table", "counting.table"),
    ("counting", "formulas", "counting.formulas"),
)

OP_SPAN = "bench.op"
CLI_SPAN = "cli.main"
SETUP = -1  # op index of spans recorded before the timed loop


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of Z2^n.

    Kept apart from mfnear.gf2 so the computed counters cannot move with
    the code they describe.
    """
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << n) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def flats(n: int, k: int) -> int:
    """k-dim affine subspaces of Z2^n that image_subspaces visits: 2^(n-k) [n k]_2."""
    return (1 << (n - k)) * gaussian_binomial(n, k)


def kernel_work(rows: int, cosets: int, span: int) -> tuple[int, int]:
    """(lookups, computed bytes) of one coset_affine_bits call.

    lookups = rows * cosets * span gathers of f.  Bytes are computed, not
    measured: the uint16 span and representative tables, one byte per f
    gather, and one byte per (row, coset) for the pattern-table read and
    for the output flag.
    """
    lookups = rows * cosets * span
    return lookups, 2 * rows * span + 2 * rows * cosets + lookups + 2 * rows * cosets


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _scan_attrs(args, kwargs, result) -> dict:
    spans, reps = result
    return {"m": _arg(args, kwargs, 0, "m"), "k": _arg(args, kwargs, 1, "k"),
            "rows": spans.shape[0], "bytes": spans.nbytes + reps.nbytes}


def _bits_attrs(args, kwargs, result) -> dict:
    spans, reps = _arg(args, kwargs, 1, "spans"), _arg(args, kwargs, 2, "reps")
    lookups, nbytes = kernel_work(spans.shape[0], reps.shape[1], spans.shape[1])
    return {"lookups": lookups, "bytes": nbytes, "hits": int(result.sum(dtype="int64"))}


def _all_attrs(args, kwargs, result) -> dict:
    return {"rows": _arg(args, kwargs, 1, "spans").shape[0], "hits": int(result.sum(dtype="int64"))}


def _image_attrs(args, kwargs, result) -> dict:
    pi, k = _arg(args, kwargs, 0, "pi"), _arg(args, kwargs, 1, "k")
    return {"k": k, "flats": flats(pi.n, k), "hits": len(result)}


ATTRS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "scan.scan_arrays": _scan_attrs,
    "scan.affine_lut": lambda a, kw, r: {"k": _arg(a, kw, 0, "k")},
    "kernels.coset_affine_bits": _bits_attrs,
    "kernels.coset_affine_all": _all_attrs,
    "mmf.image_subspaces": _image_attrs,
    "mmf.h_solution_space": lambda a, kw, r: {"solutions": r.count},
    "mmf.near_enumerate": lambda a, kw, r: {"witnesses": len(r)},
    "oracle.near_brute": lambda a, kw, r: {"hits": len(r)},
    "counting.table": lambda a, kw, r: {"id": _arg(a, kw, 0, "table_id")},
}


class Tracer:
    """In-memory spans: [name, parent index, op index, start, end, attrs, failed]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = SETUP
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None, True]
            spans.append(rec)
            stack.append(idx)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            rec[6] = False
            if attrs_of is not None:
                rec[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self, modules: Optional[dict] = None) -> None:
        """Patch every WRAPS entry.

        `modules` maps short names to module objects; it is needed on the
        first call only, later calls re-install the same wrappers.
        """
        if modules is not None:
            self._patches = []
            for mod, attr, name in WRAPS:
                original = getattr(modules[mod], attr)
                self._patches.append((modules[mod], attr, original, self.wrap(name, original)))
        for obj, attr, _, wrapped in self._patches:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        """Put back the unwrapped functions."""
        for obj, attr, original, _ in self._patches:
            setattr(obj, attr, original)


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name over the timed ops: calls, total ms and self ms."""
    child = defaultdict(float)
    for name, parent, op, t0, t1, attrs, failed in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    table: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for idx, (name, parent, op, t0, t1, attrs, failed) in enumerate(spans):
        if op == SETUP:
            continue
        row = table[name]
        row["calls"] += 1
        row["ms"] += (t1 - t0) * 1e3
        row["self_ms"] += (t1 - t0 - child[idx]) * 1e3
        row["failed"] += failed
        for key, val in (attrs or {}).items():
            if key not in ("k", "m", "id"):
                row[key] += val
        if name == "mmf.image_subspaces":
            sub = table[f"{name}.k{attrs['k'] if attrs else '?'}"]
            sub["calls"] += 1
            sub["ms"] += (t1 - t0) * 1e3
            for key in ("flats", "hits"):
                sub[key] += attrs[key] if attrs else 0
        if name == "counting.table" and attrs:
            sub = table[f"counting.table.t{attrs['id']}"]
            sub["calls"] += 1
            sub["ms"] += (t1 - t0) * 1e3
    return {name: dict(row) for name, row in table.items()}


def _first(spans: list[list], name: str, **match) -> Optional[list]:
    for rec in spans:
        if rec[0] == name and rec[5] and all(rec[5].get(k) == v for k, v in match.items()):
            return rec
    return None


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics: per op over the timed ops unless the name says otherwise."""
    table = span_table(spans)

    def per_op(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0) / n_ops

    def per_call(name: str, key: str) -> float:
        row = table.get(name, {})
        return row.get(key, 0.0) / row["calls"] if row.get("calls") else 0.0

    out: dict[str, float] = {
        "bench.self_ms": per_op(OP_SPAN, "self_ms"),
        "cli.self_ms": per_op(CLI_SPAN, "self_ms"),
        "trace.op_ms": per_op(OP_SPAN, "ms"),
    }
    # cold builds happen in the warm-up op, so these come from the setup spans
    cold = _first(spans, "scan.scan_arrays", m=8, k=4)
    out["scan.scan_arrays.m8k4.ms"] = (cold[4] - cold[3]) * 1e3 if cold else 0.0
    out["scan.scan_arrays.m8k4.rows"] = cold[5]["rows"] if cold else 0
    out["scan.scan_arrays.m8k4.bytes"] = cold[5]["bytes"] if cold else 0
    first_lut: dict[int, float] = {}
    for rec in spans:
        if rec[0] == "scan.affine_lut" and rec[5]:
            first_lut.setdefault(rec[5]["k"], (rec[4] - rec[3]) * 1e3)
    out["scan.affine_lut.ms"] = sum(first_lut.values())

    for name, keys in (
        ("kernels.coset_affine_bits", ("calls", "ms", "lookups", "bytes", "hits")),
        ("kernels.coset_affine_all", ("calls", "ms", "rows", "hits")),
        ("mmf.h_solution_space", ("calls", "ms", "solutions")),
        ("mmf.near_enumerate", ("ms", "self_ms", "witnesses")),
        ("mmf.realize_near", ("calls", "ms")),
        ("mmf.build_mmf", ("calls", "ms")),
        ("oracle.near_brute", ("ms", "self_ms", "hits")),
        ("oracle.m_census", ("self_ms",)),
        ("boolfun.is_bent", ("calls", "ms")),
    ):
        for key in keys:
            out[f"{name}.{key}"] = per_op(name, key)
    for k in range(2, 5):  # 2n=8, so n=4
        for key in ("ms", "flats", "hits"):
            out[f"mmf.image_subspaces.k{k}.{key}"] = per_op(f"mmf.image_subspaces.k{k}", key)
    for t in range(1, 6):
        out[f"counting.table.t{t}.ms"] = per_call(f"counting.table.t{t}", "ms")
    out["counting.formulas.ms"] = per_call("counting.formulas", "ms")
    out["counting.formulas.failed"] = per_call("counting.formulas", "failed")
    return out


def self_time_gap(spans: list[list]) -> tuple[float, float]:
    """(sum of self ms over every timed span, sum of op ms); equal when every
    wrapped call nests inside its op."""
    table = span_table(spans)
    total_self = sum(row.get("self_ms", 0.0) for row in table.values())
    return total_self, table.get(OP_SPAN, {}).get("ms", 0.0)
