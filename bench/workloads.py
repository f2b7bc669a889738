"""The three workloads: inputs generated from the workload seed, and output checks.

Every operation is one or two `mfnear` command lines, exactly as a user
would type them (the worker appends `--out FILE`).  The program never sees
the workload seed: it receives only the generated pi tables, phi bit
strings and per-op `--seed` values.

The table digests were recorded from the `mfnear` code this benchmark was
written against, so a change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterator, Optional

WORKLOADS = ("crosscheck", "census", "tables")

CENSUS_TRIALS = 8
TABLE_IDS = (1, 2, 3, 4, 5)
FORMULAS_TWO_N = tuple(range(2, 25, 2))  # every 2n the CLI accepts

# sha256 of each `--out` file.  formulas 22 and 24 exit 2 on the recorded
# code (the int-to-str digit limit); their digests were taken with the limit
# lifted, so a fix is checked against the full output.
TABLE_DIGESTS = {
    "table 1 --format json": "da9a8239691c60f8a631e9681b240104272c8b96e24c588ec4f69afc5c2d87e0",
    "table 2 --format json": "bdadde8fec0443c045fd39b1ac5fcf8ae12c36a17a942bc5b460ffcbdad3b5a4",
    "table 3 --format json": "aa0291f922071eaf7b2a9b3f8e111d86347881626efd76731589abe5ab223b11",
    "table 4 --format json": "1cb2e904eedc7d77670014674e02d428b05a801519d5785079653601850f84b4",
    "table 5 --format json": "5e797048f5a30eab730bf495d143d712c5b61b46976bd7858094fc0f6f18ff28",
    "formulas --two-n 2 --format json": "1e6a19642474b58ce2ac095ee851ea376cd4838732d4c29b82204a97f5e8be8f",
    "formulas --two-n 4 --format json": "33c0412ad0c587e10fedfa709d3892cc6eb330a04244712ac4cb7198d5f07f23",
    "formulas --two-n 6 --format json": "b1a65fb5ed722d54a88967a812836b7bfc95e884bd2f5012239320d8836b49ea",
    "formulas --two-n 8 --format json": "b76a1bede5ad19e5a6dfac5315f805b0beaa60a7276f8f2dd19fcd73c0b2dfb7",
    "formulas --two-n 10 --format json": "a2a746d84f223a1a0da4a4baa53bee69b814279b4d15a9cfa79f212025f53d75",
    "formulas --two-n 12 --format json": "5317e1d41bb29ba8d4a2eefa4a9db1fe8a28c225979892fab8d226d92c924a35",
    "formulas --two-n 14 --format json": "fddc418dd0c9ad4b625545a5591cf5ce7b5842e37629192f89c368c325c98520",
    "formulas --two-n 16 --format json": "4663f7a3cd450c57dec1c9d4750677ecbdf58946f10b3ee07864b90b046f8194",
    "formulas --two-n 18 --format json": "fae9bb7da110dc27649a13ca684bdfb487a456c52b23e48ec23ba4301e4125f6",
    "formulas --two-n 20 --format json": "a82495e6946ee537bf9c6759ed9f24e250aa3ba633b8763359bdc735b522fdcd",
    "formulas --two-n 22 --format json": "9b6b85879f681927d962f44de551647cadca396f0f02972496bb317d46ba6e5d",
    "formulas --two-n 24 --format json": "b8c11dafb8c617388d8374431d0b535ecf7b23f55d93ac3367671a4934aba03f",
    # the warm-up op of `tables`; text format keeps it outside the timed set
    "formulas --two-n 8 --format text": "5ea614fc51487572fa100bea2cddaa7f91673ff7144d695387788d7fda0c544f",
}
# The only ops allowed to fail: they exit 2 on the recorded code.  A wrong
# output from them still makes the run incorrect.
KNOWN_FAILURES = frozenset({"formulas --two-n 22 --format json", "formulas --two-n 24 --format json"})


@dataclass(frozen=True)
class Op:
    """One operation: the command lines it runs, without `--out`."""

    workload: str
    argvs: tuple[tuple[str, ...], ...]

    @property
    def label(self) -> str:
        return " ".join(self.argvs[0])


def _near_argv(pi: list[int], phi: str, *mode: str) -> tuple[str, ...]:
    return ("near", "--pi", json.dumps(pi, separators=(",", ":")), "--phi", phi, *mode)


def _random_mf(rng: random.Random, n: int) -> tuple[list[int], str]:
    size = 1 << n
    pi = list(range(size))
    rng.shuffle(pi)
    return pi, format(rng.getrandbits(size), f"0{size}b")


def _crosscheck_op(pi: list[int], phi: str) -> Op:
    realize = _near_argv(pi, phi, "--mode", "realize")
    return Op("crosscheck", (realize, realize + ("--brute",)))


def _census_op(seed: int) -> Op:
    argv = ("sample", "--kind", "m-size", "--two-n", "8", "--trials", str(CENSUS_TRIALS), "--seed", str(seed))
    return Op("census", (argv,))


def _tables_cycle() -> list[Op]:
    cmds = [("table", str(t), "--format", "json") for t in TABLE_IDS]
    cmds += [("formulas", "--two-n", str(x), "--format", "json") for x in FORMULAS_TWO_N]
    return [Op("tables", (c,)) for c in cmds]


def groups(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of op groups; a run stops only between groups.

    A `tables` group is one full cycle of its 17 commands in a seeded
    order, so every run does whole cycles of the same mixed work; the
    other workloads have one op per group.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "crosscheck":
            yield [_crosscheck_op(*_random_mf(rng, 4))]
        elif workload == "census":
            yield [_census_op(rng.randrange(1, 1 << 63))]
        else:
            cycle = _tables_cycle()
            rng.shuffle(cycle)
            yield cycle


def warmup(workload: str) -> Op:
    """The fixed warm-up op, outside every timed set.

    Its MF function is drawn from a stream no workload seed maps to, so it
    is a typical input rather than a structured one (y -> 5y + 3 has five
    times the usual neighbours and would make set-up unrepresentative).
    """
    rng = random.Random(f"{workload}:warm-up")
    if workload == "crosscheck":
        return _crosscheck_op(*_random_mf(rng, 4))
    if workload == "census":
        return _census_op(0)
    if workload == "tables":
        return Op("tables", (("formulas", "--two-n", "8", "--format", "text"),))
    raise ValueError(f"unknown workload {workload!r}")


def may_fail(op: Op) -> bool:
    """True for the known `tables` failures, which a run counts without being incorrect."""
    return op.workload == "tables" and op.label in KNOWN_FAILURES


def check(op: Op, outputs: list[bytes]) -> Optional[str]:
    """The error of one op's outputs, or None when they pass.

    `outputs` holds the bytes of each command's `--out` file, in order.
    """
    if op.workload == "tables":
        got = hashlib.sha256(outputs[0]).hexdigest()
        want = TABLE_DIGESTS.get(op.label)
        return None if got == want else f"digest {got[:12]} != recorded {str(want)[:12]}"
    docs = [json.loads(b) for b in outputs]
    if op.workload == "crosscheck":
        crit, brute = docs
        if brute.get("mode") != "brute":
            return "second command did not run the brute scan"
        for d in docs:
            if d["count"] != len(d["realized"]):
                return "count disagrees with the realized list"
        if crit["realized"] != brute["realized"]:
            diff = set(crit["realized"]) ^ set(brute["realized"])
            return f"criterion and brute sets differ in {len(diff) or 'order of'} entries"
        return None
    doc = docs[0]
    argv = op.argvs[0]
    seed = int(argv[argv.index("--seed") + 1])
    if doc.get("kind") != "m-size" or doc.get("trials") != CENSUS_TRIALS or doc.get("seed") != seed:
        return "census output does not echo its request"
    if not doc["mean"] >= 1:
        return f"mean |M(f)| {doc['mean']!r} < 1"
    return None

