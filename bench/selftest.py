"""Tests of the benchmark itself; they never import mfnear.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import time
import types

import pytest

import compare
import stats
import tracing
import workloads
from worker import Runner, Tally


def _take(workload: str, seed: int, n: int) -> list[list[workloads.Op]]:
    return list(itertools.islice(workloads.groups(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _take(workload, 7, 5) == _take(workload, 7, 5)
    assert _take(workload, 7, 5) != _take(workload, 8, 5)
    timed = {op for group in _take(workload, 7, 50) for op in group}
    assert workloads.warmup(workload) not in timed


def test_tables_cycle_covers_every_command():
    (cycle,) = _take("tables", 3, 1)
    labels = sorted(op.label for op in cycle)
    assert labels == sorted(k for k in workloads.TABLE_DIGESTS if k.endswith("json"))
    assert len(labels) == 17


class FakeCli:
    """Stands in for mfnear.cli.main: writes canned bytes to --out."""

    def __init__(self, outputs: list[bytes], rc: int = 0) -> None:
        self.outputs = list(outputs)
        self.rc = rc

    def __call__(self, argv: list[str]) -> int:
        if self.rc:
            return self.rc
        with open(argv[argv.index("--out") + 1], "wb") as fh:
            fh.write(self.outputs.pop(0))
        return 0


def _near_doc(realized: list[str], brute: bool) -> bytes:
    doc = {"schema": "mfnear/1", "two_n": 8, "count": len(realized), "realized": realized}
    if brute:
        doc["mode"] = "brute"
    return json.dumps(doc).encode()


def test_crosscheck_corrupted_entry_is_a_failed_op(tmp_path):
    (op,) = _take("crosscheck", 1, 1)[0]
    good = ["00ff" * 16, "0f0f" * 16]
    ok = Runner(FakeCli([_near_doc(good, False), _near_doc(good, True)]), str(tmp_path)).run(op)
    assert ok.error is None and not ok.wrong
    bad = [good[0], "1f0f" + "0f0f" * 15]
    res = Runner(FakeCli([_near_doc(good, False), _near_doc(bad, True)]), str(tmp_path)).run(op)
    assert res.error and res.wrong


def test_tables_wrong_digest_is_a_failed_op(tmp_path):
    (op,) = [o for o in _take("tables", 1, 1)[0] if o.label == "table 3 --format json"]
    res = Runner(FakeCli([b'{"schema": "mfnear/1", "reports": []}']), str(tmp_path)).run(op)
    assert res.error and res.wrong


def test_nonzero_exit_fails_without_a_stale_output(tmp_path):
    (op,) = _take("crosscheck", 1, 1)[0]
    (tmp_path / "out0").write_bytes(_near_doc(["00ff" * 16], False))
    res = Runner(FakeCli([], rc=2), str(tmp_path)).run(op)
    assert res.error.endswith("exit 2: ") and not res.wrong
    assert not (tmp_path / "out0").exists()


def test_crashing_op_makes_the_run_incorrect(tmp_path):
    tally = Tally()
    for (op,) in _take("crosscheck", 1, 3):
        tally.add(op, Runner(FakeCli([], rc=2), str(tmp_path)).run(op))
    res = tally.result()
    assert (res["attempted"], res["failed"], res["wrong"]) == (3, 3, 0)
    assert res["correct"] is False


def _tables_op(label: str) -> workloads.Op:
    (op,) = [o for o in _take("tables", 1, 1)[0] if o.label == label]
    return op


@pytest.mark.parametrize("label,outputs,rc,correct", [
    ("formulas --two-n 22 --format json", [], 2, True),  # the known failure
    ("formulas --two-n 24 --format json", [], 2, True),
    ("formulas --two-n 22 --format json", [b"{}"], 0, False),  # wrong output from a known failure
    ("formulas --two-n 20 --format json", [], 2, False),
    ("table 3 --format json", [], 2, False),
])
def test_only_the_known_tables_failures_keep_the_run_correct(tmp_path, label, outputs, rc, correct):
    op = _tables_op(label)
    tally = Tally()
    tally.add(op, Runner(FakeCli(outputs, rc=rc), str(tmp_path)).run(op))
    assert tally.failed == 1 and tally.result()["correct"] is correct


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(20, 0, -1)]
    pct, val = stats.tail(values)
    assert (pct, val) == (50.0, 10.0)
    assert sum(v > val for v in values) == 10
    assert stats.tail([float(v) for v in range(1000)]) == (99.0, 989.0)
    assert stats.tail([5.0] * 11)[0] == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def _subspaces(n: int, k: int) -> set[frozenset[int]]:
    """All k-dim linear subspaces of Z2^n as point sets, by brute force."""
    out = set()
    for basis in itertools.combinations(range(1, 1 << n), k):
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        if len(span) == 1 << k:
            out.add(frozenset(span))
    return out


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_flats_match_hand_count(n, k):
    affine = {frozenset(a ^ p for p in sub) for sub in _subspaces(n, k) for a in range(1 << n)}
    assert tracing.flats(n, k) == len(affine)


def test_kernel_lookups_and_bytes_match_hand_count():
    rows = len(_subspaces(4, 2))
    assert rows == tracing.gaussian_binomial(4, 2) == 35
    # every (subspace, coset, point) triple of Z2^4 with 2-dim subspaces
    lookups, nbytes = tracing.kernel_work(rows, 4, 4)
    assert lookups == 35 * 4 * 4 == 560
    # spans 35*4 uint16 + reps 35*4 uint16 + 560 gathers + 35*4 lut reads + 35*4 flags
    assert nbytes == 280 + 280 + 560 + 140 + 140
    # the 2n=8 scan: [8 4]_2 rows x 16 cosets x 16 points
    assert tracing.kernel_work(tracing.gaussian_binomial(8, 4), 16, 16)[0] == 51_401_472


def test_self_times_add_up_to_op_time():
    tr = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    def op():
        traced_inner()
        time.sleep(0.001)

    traced_leaf, traced_inner = tr.wrap("leaf", leaf), tr.wrap("inner", inner)
    traced_op = tr.wrap(tracing.OP_SPAN, op)
    traced_op()  # the set-up op is excluded
    for i in range(3):
        tr.op = i
        traced_op()
    table = tracing.span_table(tr.spans)
    assert table["leaf"]["calls"] == 6 and table[tracing.OP_SPAN]["calls"] == 3
    assert table["leaf"]["ms"] == pytest.approx(table["leaf"]["self_ms"])
    assert table["inner"]["self_ms"] == pytest.approx(table["inner"]["ms"] - table["leaf"]["ms"])
    total_self, total_op = tracing.self_time_gap(tr.spans)
    assert total_self == pytest.approx(total_op, rel=1e-9)


def test_install_wraps_the_name_the_caller_resolves():
    modules = {name: types.SimpleNamespace() for name in ("cli", "counting", "kernels", "mmf", "oracle")}
    for mod, attr, _ in tracing.WRAPS:
        setattr(modules[mod], attr, lambda *a, **kw: None)
    tr = tracing.Tracer()
    tr.install(modules)
    modules["oracle"].is_bent()
    modules["cli"].is_bent()
    assert [s[0] for s in tr.spans] == ["boolfun.is_bent", "boolfun.is_bent"]
    tr.uninstall()
    modules["oracle"].is_bent()
    assert len(tr.spans) == 2
    tr.install()
    modules["oracle"].is_bent()
    assert len(tr.spans) == 3


def test_failed_span_is_marked():
    tr = tracing.Tracer()
    tr.op = 0

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("counting.formulas", boom)()
    assert tracing.span_table(tr.spans)["counting.formulas"]["failed"] == 1


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def v(change, better="higher", bound=0.05):
        return compare.verdict(parent, change, list(zip(parent, change)), better, bound)

    assert v([x * 1.2 for x in parent]) == "improved"
    assert v([x * 0.8 for x in parent]) == "worse"
    assert v([x * 1.2 for x in parent], better="lower") == "worse"
    assert v([x * 1.001 for x in parent[::-1]]) == "unchanged"
    assert v([80.0, 120.0, 85.0, 115.0, 90.0, 110.0, 100.0, 100.0, 95.0, 105.0]) == "unresolved"
    faster = [x * 1.2 for x in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "higher", 0.05,
                           more_failures=True) != "improved"
