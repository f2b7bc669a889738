"""Command-line front end.

Subcommands: formulas (closed-form panel per 2n), table (reproduce the
printed tables), near (per-function neighbor analysis), verify (oracle
suites, exit 1 on failure), sample (seeded Monte Carlo estimates).
Output is deterministic for fixed (command, parameters, seed); JSON embeds
the schema version, the seed and the work counters.  Exit codes: 0 ok
(also when the reader closes stdout early), 1 a verification failed,
2 bad usage or output that cannot be written (with a message), 3
internal error (one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
from typing import Callable, Optional

from . import counting, oracle
from .boolfun import TruthTable, hex_rows, is_bent
from .mmf import (
    MMFunction,
    Permutation,
    build_mmf,
    coincidence_parents,
    decode_mm,
    near_count,
    near_enumerate,
    near_tables,
)
from .mmf import realize_near  # noqa: F401  kept resolvable: bench/tracing.py wraps cli.realize_near

SCHEMA = "mfnear/1"
EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get("MFNEAR_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to --out, or to stdout ending in a newline, and flush it.

    A failed open, write or close (a full disk) raises ValueError, so main
    exits 2; a closed stdout pipe stays a BrokenPipeError, a normal end."""
    target = _resolve_out(out)
    if target:
        try:
            with open(target, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {target}: {exc.strerror}") from exc
        return
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        _stdout_to_devnull()
        raise ValueError(f"cannot write output: {exc.strerror}") from exc


def _reports_text(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"schema": SCHEMA, "reports": [r.as_dict() for r in reports]}, indent=2
        )
    if fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["label", "text", "exact", "log2", "source"])
        for r in reports:
            d = r.as_dict()
            wr.writerow([d["label"], d["text"], d.get("exact", ""), d.get("log2", ""), d["source"]])
        return buf.getvalue()
    width = max(len(r.label) for r in reports)
    return "\n".join(f"{r.label:<{width}}  {r.text}" for r in reports)


def _parse_two_n_range(spec: str) -> list[int]:
    bad = ValueError(
        f"--two-n {spec}: need even values in 2..20, low <= high"
        " (exact values above 2n = 20 pass Python's int-to-str digit limit)"
    )
    lo, dots, hi = spec.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if dots else lo)
    except ValueError:
        raise bad from None
    if lo_i < 2 or hi_i > 20 or lo_i % 2 or hi_i % 2 or lo_i > hi_i:
        raise bad
    return list(range(lo_i, hi_i + 1, 2))


def cmd_formulas(args) -> int:
    reports = []
    for two_n in _parse_two_n_range(args.two_n):
        reports.extend(counting.formulas(two_n))
    _emit(_reports_text(reports, args.format), args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    reports = counting.table(args.id)
    _emit(_reports_text(reports, args.format), args.out)
    return EXIT_OK


def _parse_function(args) -> tuple[Optional[MMFunction], TruthTable]:
    if args.hex:
        if args.two_n is None:
            raise ValueError("--hex needs --two-n")
        f = TruthTable.from_hex(args.hex, args.two_n)
        g = decode_mm(f)
        return g, f
    if args.pi is None or args.phi is None:
        raise ValueError("give --pi and --phi, or --hex with --two-n")
    table = json.loads(args.pi)
    if not isinstance(table, list) or not all(type(v) is int for v in table):
        raise ValueError("--pi must be a JSON array of ints")
    n = (len(table)).bit_length() - 1
    pi = Permutation(tuple(table), n)
    phi_str = args.phi.strip()
    if len(phi_str) != 1 << n or set(phi_str) - {"0", "1"}:
        raise ValueError(f"--phi must be a bit string of length {1 << n}")
    phi = TruthTable.from_values((int(c) for c in phi_str), n)
    g = MMFunction(pi, phi)
    return g, build_mmf(g)


def cmd_near(args) -> int:
    if args.parents is not None and (args.brute or args.mode == "count"):
        raise ValueError("--parents needs --mode list or realize, without --brute")
    if args.brute and args.mode == "list":
        raise ValueError("--brute gives --mode count or realize; it finds no witnesses to list")
    g, f = _parse_function(args)
    result: dict = {"schema": SCHEMA, "two_n": f.m}
    if args.brute:
        if not is_bent(f):
            raise ValueError("input is not bent")
        neighbors = sorted(hex_rows(oracle.near_brute(f), f.m))
        result["mode"] = "brute"
        result["count"] = len(neighbors)
        if args.mode == "realize":
            result["realized"] = neighbors
        _emit(json.dumps(result, indent=2), args.out)
        return EXIT_OK
    if g is None:
        raise ValueError("input is not a Maiorana-McFarland function; use --brute")
    if args.mode == "count":
        result["count"] = near_count(g)
    elif args.mode == "realize":
        rows = near_tables(g)
        result["count"] = len(rows)
        result["realized"] = sorted(hex_rows(rows, f.m))
    if args.mode == "list" or args.parents is not None:
        witnesses = near_enumerate(g)
        if args.mode == "list":
            result["count"] = len(witnesses)
            result["witnesses"] = [
                {
                    "dim": w.L.dim,
                    "L_base": w.L.base,
                    "L_basis": list(w.L.direction.basis),
                    "info_set": list(w.info_set),
                    "H_matrix": list(w.H.matrix.rows) if w.H else [],
                    "H_constant": w.H.constant if w.H else 0,
                }
                for w in witnesses
            ]
        if args.parents is not None:
            if not 0 <= args.parents < len(witnesses):
                raise ValueError(f"--parents must be a witness index in 0..{len(witnesses) - 1}")
            w = witnesses[args.parents]
            if w.L.dim != 2:
                raise ValueError("--parents needs a dim-2 witness index")
            result["parents"] = [
                {
                    "pi": list(p.table),
                    "phi": "".join(str(phi.value(y)) for y in range(1 << g.n)),
                    "H_matrix": list(h.matrix.rows),
                    "H_constant": h.constant,
                }
                for p, phi, h in coincidence_parents(g, w)
            ]
    _emit(json.dumps(result, indent=2), args.out)
    return EXIT_OK


# the verify suites, name -> runner(seed, trials), in `--suite all` order
_SUITES: dict[str, Callable[[int, int], list[oracle.VerificationOutcome]]] = {
    "sums": lambda seed, trials: [oracle.verify_sum_pi(n, k) for n in (2, 3) for k in range(n + 1)]
    + [oracle.verify_sum_phiH(k, seed=seed) for k in (1, 2, 3)],
    "coincidence": lambda seed, trials: [oracle.verify_coincidence(trials=trials, seed=seed)],
    "census": lambda seed, trials: [oracle.near_mf_census(mode="brute"), oracle.near_mf_census(mode="criterion")],
    "beta": lambda seed, trials: [
        oracle.verify_beta(4),
        oracle.verify_beta(6, seed=seed, subspace_samples=max(3, trials // 4)),
        oracle.verify_two_coset_lower(trials=max(3, trials // 4), seed=seed),
    ],
    "near": lambda seed, trials: [oracle.verify_near_equality(trials=trials, seed=seed)],
}


def cmd_verify(args) -> int:
    if args.trials <= 0:  # checked here: sums and census ignore --trials
        raise ValueError("trials must be positive")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    outcomes = [o for s in suites for o in _SUITES[s](args.seed, args.trials)]
    payload = {
        "schema": SCHEMA,
        "seed": args.seed,
        "outcomes": [o.as_dict(include_timing=args.timings) for o in outcomes],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_VERIFY_FAIL


def cmd_sample(args) -> int:
    if args.kind == "near-average":
        est = oracle.sample_near_average(args.two_n, trials=args.trials, seed=args.seed)
    else:
        est = oracle.m_census(args.two_n, trials=args.trials, seed=args.seed)
    payload = {"schema": SCHEMA}
    payload.update(est.as_dict())
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use; parse_args gives a
    fresh Namespace each call, so no state passes from one call to the next."""
    p = argparse.ArgumentParser(prog="mfnear", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("formulas", help="closed-form counts per 2n")
    f.add_argument("--two-n", dest="two_n", default="8")
    f.add_argument("--format", choices=("json", "csv", "text"), default="text")
    f.add_argument("--out")
    f.set_defaults(func=cmd_formulas)

    t = sub.add_parser("table", help="reproduce a printed table")
    t.add_argument("id", type=int, choices=(1, 2, 3, 4, 5))
    t.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    t.add_argument("--out")
    t.set_defaults(func=cmd_table)

    nr = sub.add_parser("near", help="closest bent functions of one function")
    nr.add_argument("--pi", help="JSON array of 2^n ints")
    nr.add_argument("--phi", help="bit string of length 2^n")
    nr.add_argument("--hex", help="truth table as hex")
    nr.add_argument("--two-n", dest="two_n", type=int, help="variables for --hex input")
    nr.add_argument("--mode", choices=("count", "list", "realize"), default="count")
    nr.add_argument("--brute", action="store_true")
    nr.add_argument("--parents", type=int, default=None, help="witness index for parent listing")
    nr.add_argument("--out")
    nr.set_defaults(func=cmd_near)

    v = sub.add_parser("verify", help="run oracle verification suites")
    v.add_argument("--suite", choices=("all", *_SUITES), default="all")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--timings", action="store_true")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sample", help="seeded Monte Carlo estimates")
    s.add_argument("--kind", choices=("near-average", "m-size"), required=True)
    s.add_argument("--two-n", dest="two_n", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_sample)
    s.add_argument("--out")
    return p


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at devnull, so the interpreter's final flush
    of what is still buffered cannot fail on the closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor behind stdout
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        # record a concrete seed so the run is reproducible afterwards
        args.seed = random.SystemRandom().getrandbits(64)
    try:
        rc = args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (`| head`): a normal end of output
        _stdout_to_devnull()
        return EXIT_OK
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in the program, not in its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return rc


if __name__ == "__main__":
    sys.exit(main())
