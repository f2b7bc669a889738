"""Brute-force and Monte Carlo verifiers.

The verifiers recompute every claim from definitions, using only the gf2
and boolfun primitives plus the coset scan of kernels (its hit list in
near_brute, its dense flags in m_subspaces); the criterion machinery in mmf
is the thing being checked, never part of the check itself.  The brute references (near_brute, m_subspaces, _parent_scan,
_confirm_parent, _count_mf_intersection, _permutations, verify_sum_pi,
verify_sum_phiH) name of mmf only the definitional MMFunction, Permutation
and build_mmf; len(m_subspaces(f)) is the reference for mmf.m_count, and
_count_mf_intersection(U), one sweep of the whole (pi, phi) grid at 2n = 4
or 6, is the reference for |MF intersect MF_U| in verify_beta.  The
exceptions are explicitly statistical: m_census and sample_near_average
count seeded samples with mmf.m_count and mmf.near_count, through the one
loop _sample, to test the closed formulas.  Randomized runs are
reproducible from (seed, trials) and report exact work counters.

The brute neighbour scan re-checks its own output: every f xor 1_U it
finds is verified bent from its Walsh spectrum, all of them at once by one
batched transform (boolfun.bent_rows).  near_brute returns the packed rows
it bent-checked, the form mmf.near_tables gives the criterion side, so
verify_near_equality and near_mf_census compare the two as sets of rows.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt
from typing import Callable, Optional

import numpy as np

from . import counting, kernels
from .boolfun import TruthTable, _ip_blocks, bent_rows, is_affine_on
from .boolfun import is_bent  # noqa: F401  kept resolvable: bench/tracing.py wraps oracle.is_bent
from .gf2 import (
    AffineMap,
    AffineSubspace,
    Gf2Matrix,
    LinearSubspace,
    affine_hull_or_none,
    coset_representatives,
    dot,
    enumerate_subspaces,
    linear_subspace_bases,
    orthogonal,
    project_bits,
    random_invertible,
)
from .kernels import affine_lut, scan_arrays
from .mmf import (
    MMFunction,
    Permutation,
    build_mmf,
    coincidence_parents,
    compose_subspace,
    h_solution_space,
    image_subspaces,
    m_count,
    near_count,
    near_tables,
    realize_near,
    witness,
)


@dataclass
class VerificationOutcome:
    """Result of one verifier run; failures always carry a witness."""

    label: str
    passed: bool
    work: dict[str, int] = field(default_factory=dict)
    witness: Optional[str] = None
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            self.witness = "failure without recorded witness"

    def as_dict(self, include_timing: bool = False) -> dict:
        d: dict = {
            "label": self.label,
            "status": "pass" if self.passed else "fail",
            "work": dict(sorted(self.work.items())),
        }
        if self.witness is not None:
            d["witness"] = self.witness
        if include_timing:
            d["wall_time_s"] = round(self.wall_time, 3)
        return d


@dataclass
class SampleEstimate:
    """Seeded Monte Carlo estimate with its target and z-score."""

    kind: str
    two_n: int
    mean: float
    std_error: float
    trials: int
    seed: int
    target: float
    z: Optional[float]
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields in order, z only when defined, then the extra fields."""
        d = {k: v for k, v in vars(self).items() if k != "extra" and v is not None}
        d.update(self.extra)
        return d


def _timed(label: str, passed: bool, work: dict, witness_str: Optional[str], t0: float) -> VerificationOutcome:
    return VerificationOutcome(label, passed, work, witness_str, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# closest bent functions by full subspace scan


def near_brute(f: TruthTable) -> np.ndarray:
    """All bent functions f xor 1_U over every n-dim affine U with f|_U affine.

    Scans all 2^n * gb(2n, n) affine subspaces with the coset kernel, whose
    hit list (kernels.coset_affine_hits: the flat indices of the affine
    (subspace, coset) cells, ascending) gives each hit's subspace row and
    coset column by one divmod.  The truth tables of all hits are then
    built in one array (f's values per hit, with the hit's coset points
    flipped) and every one is re-verified bent by a single batched Walsh
    transform; a non-bent neighbour raises AssertionError.  Returns those
    rows packed, one distinct row per neighbour in scan order, in the form
    of mmf.near_tables.
    """
    if f.m % 2 or f.m > 8:
        raise ValueError("brute scan supports even m <= 8")
    n = f.m // 2
    spans, reps = scan_arrays(f.m, n)
    fv = f.to_u8()
    sub, coset = np.divmod(kernels.coset_affine_hits(fv, spans, reps), reps.shape[1])
    values = np.repeat(fv[None, :], len(sub), axis=0)
    values[np.arange(len(sub))[:, None], reps[sub, coset, None] ^ spans[sub]] ^= 1
    if not bent_rows(values).all():
        raise AssertionError("scan produced a non-bent neighbor")
    return np.packbits(values, axis=1, bitorder="little")


def _row_set(packed: np.ndarray) -> set[bytes]:
    return {row.tobytes() for row in packed}


def _at_least_one(name: str, count: int) -> None:
    """Raise ValueError for a count below 1: a verifier that checked nothing
    must not report a pass."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def verify_near_equality(trials: int, seed: int) -> VerificationOutcome:
    """The criterion's realized neighbours equal the brute scan's, as sets,
    on seeded random MF functions at 2n = 6."""
    _at_least_one("trials", trials)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        g = MMFunction.random(3, rng)
        results.append(_row_set(near_tables(g)) == _row_set(near_brute(build_mmf(g))))
    ok = all(results)
    return _timed(
        "criterion vs brute near sets at 2n=6",
        ok,
        {"functions": trials},
        None if ok else f"function #{results.index(False)} disagrees",
        t0,
    )


# ---------------------------------------------------------------------------
# permutation sums


@lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    """All (2^n)! permutations of Z2^n, one read-only uint8 row each, in
    itertools.permutations order."""
    if not 1 <= n <= 3:
        raise ValueError("full permutation sweep needs n <= 3")
    perms = np.array(list(itertools.permutations(range(1 << n))), dtype=np.uint8)
    perms.flags.writeable = False
    return perms


def verify_sum_pi(n: int, k: int) -> VerificationOutcome:
    """Sum of |A_k(pi)| over every permutation equals 2^n! sigma(n, k)."""
    t0 = time.perf_counter()
    perms = _permutations(n)
    size = 1 << n
    total = 0
    n_sub = 0
    for U in enumerate_subspaces(n, k, affine=True):
        n_sub += 1
        if U.dim <= 1 or U.dim == n:
            # 1- and 2-point sets are cosets by definition; the full space
            # maps onto itself
            total += perms.shape[0]
            continue
        # n <= 3 leaves dim 2 < n: four points are a flat iff they XOR to 0
        imgs = perms[:, U.points()]
        total += int((np.bitwise_xor.reduce(imgs, axis=1) == 0).sum())
    expected = counting.sigma(n, k) * math.factorial(size)
    if expected.denominator != 1:
        raise AssertionError("expected permutation sum is not integral")
    expected = int(expected)
    ok = total == expected
    return _timed(
        f"sum over {size}! permutations of |A_{k}| at n={n}",
        ok,
        {"permutations": perms.shape[0], "subspaces": n_sub, "total": total, "expected": expected},
        None if ok else f"total {total} != expected {expected}",
        t0,
    )


def verify_sum_phiH(k: int, seed: int = 1) -> VerificationOutcome:
    """Sum over restrictions phi|_L of the number of valid affine H.

    Enumerates all 2^(2^k) restrictions and all 2^(k(k+1)) affine H for a
    seeded random bijection sigma from the 2^k points of a k-flat L of
    Z2^(k+1) to Z2^k, testing the composite by its restriction pattern.
    The pattern reads a point of L only by its index eps, so L itself is
    never drawn, and the total is 2^((k+1)^2) for every sigma; the
    full-domain factor 2^(2^n - 2^k) is exact because the condition only
    reads phi on L.
    """
    t0 = time.perf_counter()
    if k not in (1, 2, 3):
        raise ValueError("exhaustive phi/H sweep supports k in 1..3")
    n = k + 1
    size = 1 << k
    sigma_vals = list(range(size))
    random.Random(seed).shuffle(sigma_vals)  # sigma: point eps of L -> sigma_vals[eps]

    lut = affine_lut(k)
    n_h = 1 << (k * (k + 1))
    tpat = np.zeros(n_h, dtype=np.uint32)
    mask = size - 1
    for coeff in range(n_h):
        h0 = coeff & mask
        pat = 0
        for eps in range(size):
            hv = h0
            for i in range(k):
                if (eps >> i) & 1:
                    hv ^= ((coeff >> ((i + 1) * k)) & mask) ^ h0
            if dot(hv, sigma_vals[eps]):
                pat |= 1 << eps
        tpat[coeff] = pat
    phis = np.arange(1 << size, dtype=np.uint32)
    total = int(lut[tpat[None, :] ^ phis[:, None]].sum())
    expected = 1 << ((k + 1) ** 2)
    ok = total == expected
    return _timed(
        f"sum over phi|_L of |H| at k={k}",
        ok,
        {
            "h_candidates": n_h,
            "restrictions": 1 << size,
            "total": total,
            "expected": expected,
            "extension_exponent": (1 << n) - (1 << k),
        },
        None if ok else f"total {total} != expected {expected}",
        t0,
    )


# ---------------------------------------------------------------------------
# coincidence of neighbors across parents


def _confirm_parent(gt: TruthTable, fp: TruthTable) -> bool:
    """Definitional membership check: gt = fp xor 1_U for an affinity subspace."""
    n = fp.m // 2
    d = gt.bits ^ fp.bits
    if d.bit_count() != 1 << n:
        return False
    support = [i for i in range(1 << fp.m) if (d >> i) & 1]
    hull = affine_hull_or_none(support, fp.m)
    if hull is None or hull.dim != n:
        return False
    return is_affine_on(fp, hull) is not None


def _parent_scan(g: MMFunction, L: AffineSubspace, gt: TruthTable) -> list[tuple[tuple[int, ...], int]]:
    """Branch-and-bound scan over all candidates agreeing off L, any |L|.

    Candidates reorder the image multiset on L and choose phi bits there;
    the distance to gt decomposes over the y-slices of L, so partial sums
    prune the assignment tree.
    """
    n = g.n
    size = 1 << n
    ones = (1 << size) - 1
    target = 1 << n
    pts = sorted(L.points())
    imgs = sorted(g.pi.table[p] for p in pts)
    blocks = _ip_blocks(n)
    gblk = [(gt.bits >> (y * size)) & ones for y in pts]
    # cost[y-index][image-index][phi bit]
    cost = [
        [
            (
                (gblk[yi] ^ blocks[v]).bit_count(),
                size - (gblk[yi] ^ blocks[v]).bit_count(),
            )
            for v in imgs
        ]
        for yi in range(len(pts))
    ]
    row_min = [min(min(c) for c in row) for row in cost]
    suffix_min = [0] * (len(pts) + 1)
    for i in range(len(pts) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + row_min[i]

    found = []
    used = [False] * len(imgs)
    assign: list[tuple[int, int]] = []

    def dfs(yi: int, partial: int) -> None:
        if partial + suffix_min[yi] > target:
            return
        if yi == len(pts):
            if partial == target:
                table = list(g.pi.table)
                phi_bits = g.phi.bits
                for (vi, bit), p in zip(assign, pts):
                    table[p] = imgs[vi]
                    if ((g.phi.bits >> p) & 1) != bit:
                        phi_bits ^= 1 << p
                fp = build_mmf(MMFunction(Permutation(tuple(table), n), TruthTable(n, phi_bits)))
                if _confirm_parent(gt, fp):
                    found.append((tuple(table), phi_bits))
            return
        for vi in range(len(imgs)):
            if used[vi]:
                continue
            used[vi] = True
            for bit in (0, 1):
                assign.append((vi, bit))
                dfs(yi + 1, partial + cost[yi][vi][bit])
                assign.pop()
            used[vi] = False

    dfs(0, 0)
    return found


def verify_coincidence(trials: int = 20, seed: int = 1) -> VerificationOutcome:
    """Each dim-2 neighbor at 2n = 6 has exactly 24 parents; dim >= 3 has
    exactly one.

    Parents are found by exhaustive candidate scans with definitional
    membership checks and compared bitwise with the formula-produced
    (phi', H') parents.
    """
    _at_least_one("trials", trials)
    t0 = time.perf_counter()
    work = {"trials": 0}
    failure = _coincidence_failure(random.Random(seed), trials, work)
    return _timed("24-fold coincidence of dim-2 neighbors", failure is None, work, failure, t0)


def _coincidence_failure(rng, trials: int, work: dict) -> Optional[str]:
    """The first failed check of verify_coincidence as a witness string, or
    None; counts trials and controls into `work`."""
    for _ in range(trials):
        g, L = _sample_function_with_dim2(rng)
        space = h_solution_space(g, L)
        maps = space.maps()
        H = maps[rng.randrange(len(maps))]
        w = witness(g, L, H)
        gt = realize_near(g, w)
        scan = _parent_scan(g, L, gt)
        work["trials"] += 1
        if len(scan) != 24:
            return f"scan found {len(scan)} parents"
        if (g.pi.table, g.phi.bits) not in scan:
            return "original function missing from parent scan"
        formula = coincidence_parents(g, w)
        formula_keys = {(p.table, phi.bits) for p, phi, _ in formula}
        if formula_keys != set(scan):
            return "formula parents differ from scanned parents"
        for pi2, phi2, h2 in formula:
            g2 = MMFunction(pi2, phi2)
            try:
                w2 = witness(g2, L, h2)
            except ValueError as exc:
                return f"formula parent pi'={list(pi2.table)} phi'={phi2.to_hex()}: H' is not a witness ({exc})"
            if realize_near(g2, w2).bits != gt.bits:
                return "formula parent does not realize the same function"
    # dim >= 3 control: the parent is unique
    work["controls"] = 0
    for _ in range(max(1, trials // 10)):
        g, L3, H3 = _sample_function_with_dim3(rng)
        w3 = witness(g, L3, H3)
        gt3 = realize_near(g, w3)
        scan3 = _parent_scan(g, L3, gt3)
        work["controls"] += 1
        if scan3 != [(g.pi.table, g.phi.bits)]:
            return f"dim-3 control found {len(scan3)} parents"
    return None


def _sample_function_with_dim2(rng) -> tuple[MMFunction, AffineSubspace]:
    while True:
        g = MMFunction.random(3, rng)
        a2 = image_subspaces(g.pi, 2)
        if a2:
            return g, a2[rng.randrange(len(a2))]


def _sample_function_with_dim3(rng) -> tuple[MMFunction, AffineSubspace, AffineMap]:
    while True:
        g = MMFunction.random(3, rng)
        a3 = image_subspaces(g.pi, 3)
        rng_order = list(range(len(a3)))
        rng.shuffle(rng_order)
        for idx in rng_order:
            space = h_solution_space(g, a3[idx])
            if space.count:
                maps = space.maps()
                return g, a3[idx], maps[rng.randrange(len(maps))]


# ---------------------------------------------------------------------------
# census of the neighbors of the whole class at 2n = 4


def all_mf_functions():
    """Iterate all 384 (pi, phi) pairs of MF_4."""
    for table in itertools.permutations(range(4)):
        pi = Permutation(table, 2)
        for bits in range(16):
            yield MMFunction(pi, TruthTable(2, bits))


def near_mf_census(mode: str = "brute") -> VerificationOutcome:
    """Global dedup census of near(MF_4): 512 outside MF, 896 in the union."""
    t0 = time.perf_counter()
    mf_tables: set[bytes] = set()
    union: set[bytes] = set()
    per_counts = set()
    count_funcs = 0
    for g in all_mf_functions():
        f = build_mmf(g)
        mf_tables.add(np.packbits(f.to_u8(), bitorder="little").tobytes())
        if mode == "brute":
            neighbors = _row_set(near_brute(f))
        elif mode == "criterion":
            neighbors = _row_set(near_tables(g))
        else:
            raise ValueError("mode must be brute or criterion")
        per_counts.add(len(neighbors))
        union |= neighbors
        count_funcs += 1
    non_mf = union - mf_tables
    mfsp = union | mf_tables
    ok = (
        len(mf_tables) == 384
        and per_counts == {60}
        and len(non_mf) == 512
        and len(mfsp) == 896
    )
    return _timed(
        f"near(MF_4) census ({mode})",
        ok,
        {
            "functions": count_funcs,
            "mf_size": len(mf_tables),
            "near_outside_mf": len(non_mf),
            "mfsp_size": len(mfsp),
        },
        None
        if ok
        else f"census sizes {len(mf_tables)}/{len(non_mf)}/{len(mfsp)}, per-function counts {sorted(per_counts)}",
        t0,
    )


# ---------------------------------------------------------------------------
# coset-series subspace censuses


def m_subspaces(f: TruthTable) -> list[LinearSubspace]:
    """All n-dimensional linear subspaces with f affine on each coset, by the
    coset kernel over all gb(2n, n) of them."""
    if f.m % 2:
        raise ValueError("f must have an even number of variables")
    n = f.m // 2
    spans, reps = scan_arrays(f.m, n)
    mask = kernels.coset_affine_all(f.to_u8(), spans, reps)
    bases = linear_subspace_bases(f.m, n)
    return [LinearSubspace(bases[i], f.m) for i in mask.nonzero()[0]]


def _sample(
    kind: str, two_n: int, trials: int, seed: int, count: Callable[[MMFunction], int], target: float
) -> tuple[SampleEstimate, np.ndarray]:
    """Seeded mean of count(g) over `trials` uniform g in MF_2n, with its
    standard error and z-score against `target`; also returns the counts."""
    _at_least_one("trials", trials)
    n = two_n // 2
    rng = random.Random(seed)
    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        counts[t] = count(MMFunction.random(n, rng))
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / sqrt(trials)) if trials > 1 else 0.0
    z = (mean - target) / se if se else None
    return SampleEstimate(kind, two_n, mean, se, trials, seed, target, z), counts


def m_census(two_n: int, trials: int = 1000, seed: int = 1) -> SampleEstimate:
    """Seeded mean count of coset-series subspaces over MF functions, by
    mmf.m_count; at 2n = 8 the fraction with more than one subspace is
    tracked against its tiny target."""
    if two_n not in (4, 6, 8):
        raise ValueError("sampled census supports 2n in {4, 6, 8}")
    est, counts = _sample("m-size", two_n, trials, seed, m_count, float(counting.expected_m(two_n)))
    if two_n == 8:
        p_hat = float((counts > 1).mean())
        p_target = float(counting.expected_m(8) - 1)
        p_se = sqrt(p_target * (1 - p_target) / trials)
        est.extra = {
            "multi_fraction": p_hat,
            "multi_target": p_target,
            "multi_z": (p_hat - p_target) / p_se,
        }
    return est


def sample_near_average(two_n: int, trials: int = 1000, seed: int = 1) -> SampleEstimate:
    """Seeded mean of |near(f)| against the exact expectation formula."""
    if two_n not in (8, 10):
        raise ValueError("sampling supported at 2n in {8, 10}")
    floor = counting.lambda_(two_n)

    def count(g: MMFunction) -> int:
        c = near_count(g)
        if c < floor:
            raise AssertionError("near count fell below the in-class floor")
        return c

    return _sample("near-average", two_n, trials, seed, count, float(counting.near_average(two_n // 2)))[0]


# ---------------------------------------------------------------------------
# functions affine on two coset series


def _random_linear_subspace(n: int, k: int, rng) -> LinearSubspace:
    bases = linear_subspace_bases(n, k)
    return LinearSubspace(bases[rng.randrange(len(bases))], n)


def construct_two_series(n: int, rng) -> tuple[MMFunction, AffineSubspace]:
    """Build f in MF_2n affine on the cosets of a second linear subspace.

    Picks a linear L of dim n - k, 0 < k < n, a direction W = orthogonal(R)
    for a random k-dim R, and a linear H: L -> Z2^(n-k), so U =
    compose_subspace(L, W, H); then makes pi map cosets of L affinely onto
    cosets of W, and chooses phi so the composite condition is affine on
    every coset.
    """
    k = rng.randrange(1, n)  # dim R
    R = _random_linear_subspace(n, k, rng)
    L = _random_linear_subspace(n, n - k, rng)
    width = n - k
    h_vals = {0: 0}
    for v in L.basis:
        h_vals[v] = rng.getrandbits(width)
    L_aff = AffineSubspace(0, L)
    H = AffineMap.from_values(L_aff, h_vals, width)
    W = orthogonal(R)
    U = compose_subspace(L_aff, W, H)
    I = W.pivots
    l_reps = coset_representatives(L.basis, n)
    t_reps = coset_representatives(W.basis, n)
    rng.shuffle(t_reps)
    table = [0] * (1 << n)
    lpts = L.points()
    span_w = Gf2Matrix(W.basis, n)  # coordinates in W's basis -> points of W
    for a, tgt in zip(l_reps, t_reps):
        M = random_invertible(width, rng)  # a linear bijection L -> W in coordinates
        for p in lpts:
            # coordinates of p in the rref basis are its pivot bits
            table[a ^ p] = tgt ^ span_w.mul_vec(M.mul_vec(project_bits(p, L.pivots)))
    pi = Permutation(tuple(table), n)

    phi_bits = 0
    for a in l_reps:
        w_mask = rng.getrandbits(n)
        c_bit = rng.getrandbits(1)
        for p in lpts:
            x = a ^ p
            val = dot(H.evaluate(p), project_bits(pi.table[x], I))
            val ^= dot(w_mask, x) ^ c_bit
            if val:
                phi_bits |= 1 << x
    g = MMFunction(pi, TruthTable(n, phi_bits))
    return g, U


def verify_two_coset_lower(trials: int = 10, seed: int = 1) -> VerificationOutcome:
    """Constructed double-series functions at 2n = 8 have at least
    2^(2n+2) - 2^(n+3) = 896 closest bent functions, by full brute scan."""
    _at_least_one("trials", trials)
    t0 = time.perf_counter()
    label = "two-coset-series lower bound"
    rng = random.Random(seed)
    bound = (1 << 10) - (1 << 7)
    x_side = LinearSubspace.from_vectors([1 << i for i in range(4)], 8)
    least = None
    for _ in range(trials):
        g, U = construct_two_series(4, rng)
        f = build_mmf(g)
        series = set(m_subspaces(f))
        if x_side not in series:
            return _timed(label, False, {}, "x-side series broken", t0)
        if U.direction not in series:
            return _timed(label, False, {}, "constructed series broken", t0)
        if U.base != 0 or U.direction.basis == x_side.basis:
            return _timed(label, False, {}, "constructed subspace is trivial", t0)
        c = len(near_brute(f))
        least = c if least is None else min(least, c)
        if c < bound:
            return _timed(label, False, {"trials": trials}, f"near count {c} below bound {bound}", t0)
    # control: a generic function gets no assertion, only a record
    ctl_m = len(m_subspaces(build_mmf(MMFunction.random(4, rng))))
    return _timed(
        label,
        True,
        {"trials": trials, "bound": bound, "least_count": least, "control_m": ctl_m},
        None,
        t0,
    )


# ---------------------------------------------------------------------------
# intersections MF and MF_U


def _dim_x_intersection(U: LinearSubspace, n: int) -> int:
    cnt = sum(1 for p in U.points() if (p >> n) == 0)
    return cnt.bit_length() - 1


def verify_beta(two_n: int, seed: int = 1, subspace_samples: int = 20) -> VerificationOutcome:
    """Brute per-subspace intersection counts against the closed formulas.

    Every n-dim linear U other than the x-side one is counted by
    _count_mf_intersection, a staged sweep over all (2^n)! 2^(2^n) pairs
    (pi, phi), and must equal mf_mfu_intersection(n, dim(U cap x-side)).
    At 2n = 4 all 34 such U are counted and their total must also equal
    beta(4) = 5376; at 2n = 6 `subspace_samples` of them are, in a seeded
    shuffle of the canonical order.
    """
    _at_least_one("subspace_samples", subspace_samples)
    t0 = time.perf_counter()
    if two_n not in (4, 6):
        raise ValueError("beta verification supports 2n in {4, 6}")
    n = two_n // 2
    x_basis = tuple(1 << i for i in range(n))
    bases = [b for b in linear_subspace_bases(two_n, n) if b != x_basis]
    if two_n == 6:
        random.Random(seed).shuffle(bases)
        bases = bases[:subspace_samples]
    label = "beta(4) full intersection census" if two_n == 4 else "sampled MF_6 intersection counts"
    total = 0
    for checked, basis in enumerate(bases):
        U = LinearSubspace(basis, two_n)
        cnt = _count_mf_intersection(U)
        want = counting.mf_mfu_intersection(n, _dim_x_intersection(U, n))
        if cnt != want:
            return _timed(
                label, False, {"subspaces": checked}, f"basis {basis}: count {cnt} != formula {want}", t0
            )
        total += cnt
    grid = len(_permutations(n)) << (1 << n)
    if two_n == 6:
        return _timed(label, True, {"subspaces": len(bases), "pairs_per_subspace": grid}, None, t0)
    expected = counting.beta(4)
    ok = total == expected
    return _timed(
        label,
        ok,
        {"subspaces": len(bases), "functions": grid, "total": total, "expected": expected},
        None if ok else f"total {total} != beta(4) {expected}",
        t0,
    )


def _count_mf_intersection(U: LinearSubspace) -> int:
    """|MF_2n intersect MF_U| for an n-dim U of Z2^(2n), n = U.ambient // 2
    <= 3, by staged sweep over all (pi, phi) pairs.

    For each coset of U the affinity pattern of f splits into a pi part and
    a phi part that is linear in phi, so the whole (2^n)! x 2^(2^n) grid can
    be filtered coset by coset.  Both parts are 2^n-bit uint8 patterns, and
    a coset's bool grid is one lookup of them in a table of pattern pairs,
    so the sweep holds two bool grids (10 MB each at 2n = 6) and no index
    grid.
    """
    n = U.ambient // 2
    size = 1 << n
    perms = _permutations(n)
    blocks = np.array(_ip_blocks(n), dtype=np.uint8)  # bit x of blocks[p] is <x, p>
    phis = np.arange(1 << size, dtype=np.uint8)  # also every 2^n-bit pattern
    pair = affine_lut(n).view(bool)[phis[:, None] ^ phis[None, :]]  # pair[a, b] = lut[a ^ b]
    span = U.points()
    alive = np.ones((perms.shape[0], phis.shape[0]), dtype=bool)
    for rep in coset_representatives(U.basis, U.ambient):
        b = np.zeros(perms.shape[0], dtype=np.uint8)
        sel = np.zeros(phis.shape[0], dtype=np.uint8)
        for i, s in enumerate(span):
            x, y = (rep ^ s) & (size - 1), (rep ^ s) >> n
            b |= ((blocks[perms[:, y]] >> x) & 1) << i
            sel |= ((phis >> y) & 1) << i
        alive &= pair[b[:, None], sel[None, :]]
        if not alive.any():
            return 0
    return int(alive.sum())
