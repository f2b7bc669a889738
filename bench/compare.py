"""Compare two sets of benchmark records: a parent commit and a change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of the records
bench/run.py writes to bench/results/; only untraced records are used.
Prints one row per workload x end-to-end metric with each side's median
and quartiles and a verdict, then each side's failed-op share.

Verdicts, with the bounds of BENCHMARK.json:
- improved: the change wins at least 9/10 of the pairs (runs paired by
  seed, else in order; ties count for neither side), the medians differ
  by more than the parent's interquartile range, and the change fails no
  larger share of its ops than the parent.
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median).
- unresolved: neither of the above, and either side's interquartile range
  is wider than the bound, unless every change run beats every parent run.
- unchanged: everything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced records under `path`, by workload, sorted by seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict[str, list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["seed"])
    return out


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return matched or list(zip(parent, change))


def verdict(parent: list[float], change: list[float], paired: list[tuple[float, float]],
            better: str, bound: float, more_failures: bool = False) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_q1, c_med, c_q3 = stats.quartiles(change)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    if not more_failures and paired and wins >= WIN_SHARE * len(paired) and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved"
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fail_frac(recs: list[dict]) -> float:
    return sum(r["result"]["failed"] for r in recs) / sum(r["result"]["attempted"] for r in recs)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    common = [w["name"] for w in spec["workloads"] if w["name"] in parent and w["name"] in change]
    if not common:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 1

    head = f"{'workload':<11} {'metric':<12} {'parent med [q1, q3]':<32} {'change med [q1, q3]':<32} {'runs':>5}  verdict"
    print(head)
    print("-" * len(head))
    for w in common:
        matched = pairs(parent[w], change[w])
        p_fail, c_fail = fail_frac(parent[w]), fail_frac(change[w])
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[w]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[w]]
            pp = [(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"])
                  for a, b in matched]
            v = verdict(pv, cv, pp, m["better"], m["bound"], more_failures=c_fail > p_fail)
            cols = []
            for vals in (pv, cv):
                q1, med, q3 = stats.quartiles(vals)
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            print(f"{w:<11} {name:<12} {cols[0]:<32} {cols[1]:<32} {len(pv):>2}/{len(cv):<2}  {v}")
        print(f"{w:<11} {'fail_frac':<12} {p_fail:<32.4f} {c_fail:<32.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
