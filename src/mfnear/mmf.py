"""Maiorana-McFarland bent functions and their closest bent neighbors.

An MF function on 2n variables is f(x, y) = <x, pi(y)> xor phi(y) for a
permutation pi of Z2^n.  Every bent function at the minimum distance 2^n
from f arises as f xor 1_U for an n-dimensional affine subspace U on which
f is affine, and those U are parametrized by pairs (L, H): an affine
subspace L of Z2^n whose pi-image is again a subspace, plus an affine map
H: L -> Z2^(dim L) subject to one affinity condition.  This module builds
the functions, enumerates the (L, H) witnesses, realizes the neighbors,
and decides membership in the per-subspace classes MF_U.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from . import kernels
from .boolfun import TruthTable, indicator_table, is_affine_on
from .gf2 import (
    AffineMap,
    AffineSubspace,
    Gf2Matrix,
    IndexSet,
    LinearSubspace,
    affine_hull_or_none,
    coset_rep_on,
    coset_representatives,
    dot,
    embed_bits,
    enumerate_subspaces,
    information_set,
    linear_subspace_bases,
    orthogonal,
    project_bits,
    rref_rows,
    solve_linear,
)
from .scan import affine_lut, scan_arrays

MAX_N = 8


@dataclass(frozen=True)
class Permutation:
    """Bijection on Z2^n stored as a lookup table."""

    table: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}")
        if len(self.table) != 1 << self.n or set(self.table) != set(range(1 << self.n)):
            raise ValueError("table is not a permutation of Z2^n")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1 << n)), n)

    @classmethod
    def random(cls, n: int, rng) -> "Permutation":
        table = list(range(1 << n))
        rng.shuffle(table)
        return cls(tuple(table), n)

    @classmethod
    def from_linear(cls, M: Gf2Matrix) -> "Permutation":
        if not M.is_invertible():
            raise ValueError("matrix is singular")
        n = M.width
        return cls(tuple(M.mul_vec(y) for y in range(1 << n)), n)

    def __call__(self, y: int) -> int:
        return self.table[y]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.table)
        for y, v in enumerate(self.table):
            inv[v] = y
        return Permutation(tuple(inv), self.n)


@dataclass(frozen=True)
class MMFunction:
    """Pair (pi, phi) defining f(x, y) = <x, pi(y)> xor phi(y)."""

    pi: Permutation
    phi: TruthTable

    def __post_init__(self) -> None:
        if self.phi.m != self.pi.n:
            raise ValueError("phi must be a function on n variables")

    @property
    def n(self) -> int:
        return self.pi.n

    @classmethod
    def random(cls, n: int, rng) -> "MMFunction":
        pi = Permutation.random(n, rng)
        phi = TruthTable(n, rng.getrandbits(1 << n))
        return cls(pi, phi)


@lru_cache(maxsize=None)
def _ip_blocks(n: int) -> tuple[int, ...]:
    """Block patterns: bit x of block[p] is <x, p>."""
    size = 1 << n
    out = []
    for p in range(size):
        v = 0
        for x in range(size):
            if dot(x, p):
                v |= 1 << x
        out.append(v)
    return tuple(out)


@lru_cache(maxsize=4096)
def build_mmf(g: MMFunction) -> TruthTable:
    """Truth table of f(x, y) = <x, pi(y)> xor phi(y); index = x + 2^n y."""
    n = g.n
    size = 1 << n
    blocks = _ip_blocks(n)
    ones = (1 << size) - 1
    bits = 0
    for y in range(size):
        blk = blocks[g.pi.table[y]]
        if g.phi.value(y):
            blk ^= ones
        bits |= blk << (y * size)
    return TruthTable(2 * n, bits)


def decode_mm(f: TruthTable) -> Optional[MMFunction]:
    """Recover (pi, phi) from a truth table, or None when f is not MF.

    Each y-slice must be <x, p> xor c for some p, and y -> p must be a
    bijection.
    """
    if f.m % 2:
        return None
    n = f.m // 2
    size = 1 << n
    ones = (1 << size) - 1
    blocks = _ip_blocks(n)
    table = []
    phi_bits = 0
    for y in range(size):
        blk = (f.bits >> (y * size)) & ones
        c = blk & 1  # value at x = 0
        p = 0
        for i in range(n):
            if ((blk >> (1 << i)) & 1) ^ c:
                p |= 1 << i
        if blk != blocks[p] ^ (ones if c else 0):
            return None
        table.append(p)
        phi_bits |= c << y
    if set(table) != set(range(size)):
        return None
    return MMFunction(Permutation(tuple(table), n), TruthTable(n, phi_bits))


def _image_is_affine(pi: Permutation, U: AffineSubspace) -> bool:
    k = U.dim
    if k <= 1:
        return True
    pts = U.points()
    if k == 2:
        t = pi.table
        return t[pts[0]] ^ t[pts[1]] ^ t[pts[2]] ^ t[pts[3]] == 0
    base = pi.table[pts[0]]
    rows, _ = rref_rows((pi.table[p] ^ base for p in pts[1:]), pi.n)
    return len(rows) == k


def image_subspaces(pi: Permutation, k: int) -> list[AffineSubspace]:
    """All k-dimensional affine subspaces whose pi-image is again affine."""
    if not 0 <= k <= pi.n:
        raise ValueError("k out of range")
    return [U for U in enumerate_subspaces(pi.n, k, affine=True) if _image_is_affine(pi, U)]


@dataclass(frozen=True)
class SubspaceTriple:
    """Decomposition of an n-dimensional subspace of Z2^2n.

    The subspace is { (embed(H(y), I) xor z, y) : y in L, z in R } with
    I the information set of the orthogonal of R.  H is None exactly when
    dim L = 0.
    """

    L: AffineSubspace
    R: LinearSubspace
    H: Optional[AffineMap]

    def __post_init__(self) -> None:
        n = self.L.ambient
        if self.R.ambient != n:
            raise ValueError("L and R must share the ambient space")
        if self.L.dim + self.R.dim != n:
            raise ValueError("dim L + dim R must equal n")
        if (self.H is None) != (self.L.dim == 0):
            raise ValueError("H must be present exactly when dim L > 0")
        if self.H is not None and self.H.codomain_width != self.L.dim:
            raise ValueError("H must map into Z2^(dim L)")


def compose_subspace(t: SubspaceTriple, info_set: Optional[IndexSet] = None) -> AffineSubspace:
    """Build the n-dimensional subspace of Z2^2n named by the triple."""
    n = t.L.ambient
    k = t.L.dim
    I = info_set if info_set is not None else information_set(orthogonal(t.R))
    if len(I) != k:
        raise ValueError("information set size must equal dim L")
    b = t.L.base
    rows = []
    if k:
        hb = t.H.evaluate(b)
        x0 = embed_bits(hb, I.indices)
        for v in t.L.direction.basis:
            dx = embed_bits(t.H.evaluate(b ^ v) ^ hb, I.indices)
            rows.append(dx | (v << n))
    else:
        x0 = 0
    for w in t.R.basis:
        rows.append(w)
    base = x0 | (b << n)
    return AffineSubspace.coset(base, LinearSubspace.from_vectors(rows, 2 * n))


def decompose_subspace(U: AffineSubspace) -> SubspaceTriple:
    """Invert compose_subspace; unique for every n-dimensional subspace."""
    if U.ambient % 2:
        raise ValueError("ambient dimension must be even")
    n = U.ambient // 2
    if U.dim != n:
        raise ValueError("subspace dimension must be n")
    low_mask = (1 << n) - 1

    # R = direction(U) intersected with the x-side: eliminate y-columns.
    work = list(U.direction.basis)
    for col in range(n, 2 * n):
        mask = 1 << col
        src = next((i for i, v in enumerate(work) if v & mask), None)
        if src is None:
            continue
        piv = work.pop(src)
        work = [v ^ piv if v & mask else v for v in work]
    R = LinearSubspace.from_vectors((v & low_mask for v in work if v), n)

    L = AffineSubspace.coset(
        U.base >> n,
        LinearSubspace.from_vectors((row >> n for row in U.direction.basis), n),
    )
    k = L.dim
    if k + R.dim != n:
        raise AssertionError("inconsistent split")
    if k == 0:
        return SubspaceTriple(L, R, None)

    I = information_set(orthogonal(R))
    fiber: dict[int, int] = {}
    for pt in U.points():
        fiber.setdefault(pt >> n, pt & low_mask)
    b = L.base
    anchors = [b] + [b ^ v for v in L.direction.basis]
    values = {y: project_bits(coset_rep_on(fiber[y], R, I), I.indices) for y in anchors}
    H = AffineMap.from_values(L, values, k)
    return SubspaceTriple(L, R, H)


@dataclass(frozen=True)
class HSolutionSpace:
    """All affine H: L -> Z2^k passing the neighbor criterion, as a coset.

    Solutions live in the k(k+1)-bit space of values at the anchor points
    (base, base xor basis rows); `particular` and `kernel` are coefficient
    vectors there.  Empty solution set has particular None.  `image` is the
    direction of the pi-image of the domain and `info_set` its information
    set.
    """

    domain: AffineSubspace
    width: int
    image: LinearSubspace
    info_set: IndexSet
    particular: Optional[int]
    kernel: tuple[int, ...]

    @property
    def count(self) -> int:
        return 0 if self.particular is None else 1 << len(self.kernel)

    def _coeff_to_map(self, coeff: int) -> AffineMap:
        k = self.width
        b = self.domain.base
        mask = (1 << k) - 1
        values = {b: coeff & mask}
        for i, v in enumerate(self.domain.direction.basis):
            values[b ^ v] = (coeff >> ((i + 1) * k)) & mask
        return AffineMap.from_values(self.domain, values, k)

    def maps(self) -> list[AffineMap]:
        """All solutions, sorted by (matrix rows, constant)."""
        if self.particular is None:
            return []
        out = []
        for sel in range(1 << len(self.kernel)):
            coeff = self.particular
            for j, kv in enumerate(self.kernel):
                if (sel >> j) & 1:
                    coeff ^= kv
            out.append(self._coeff_to_map(coeff))
        out.sort(key=lambda h: (h.matrix.rows, h.constant.bits))
        return out


def _image_direction(pi: Permutation, L: AffineSubspace) -> LinearSubspace:
    """Direction of the affine subspace pi(L); L must have an affine image."""
    hull = affine_hull_or_none((pi.table[p] for p in L.points()), pi.n)
    if hull is None:
        raise ValueError("pi image of L is not an affine subspace")
    return hull.direction


def _image_info_set(pi: Permutation, L: AffineSubspace) -> IndexSet:
    """Information set of the span of pi(L); L must have an affine image."""
    return information_set(_image_direction(pi, L))


def h_solution_space(g: MMFunction, L: AffineSubspace) -> HSolutionSpace:
    """Solve for all affine H with <H(x), pi_I(x)> xor phi(x) affine on L.

    The unknowns are the k(k+1) bits of H's values at the anchor points;
    affinity of the composite on L contributes one linear constraint per
    span combination of weight >= 2, so the solution count is 0 or a power
    of two.
    """
    k = L.dim
    image = _image_direction(g.pi, L)
    I = information_set(image)
    if k == 0:
        return HSolutionSpace(L, 0, image, I, 0, ())
    b = L.base
    basis = L.direction.basis
    width = k * (k + 1)

    # projected images and phi values at all span combinations
    cvec = [0] * (1 << k)
    fval = [0] * (1 << k)
    pts = [0] * (1 << k)
    pts[0] = b
    for eps in range(1 << k):
        if eps:
            low = eps & -eps
            pts[eps] = pts[eps ^ low] ^ basis[low.bit_length() - 1]
        cvec[eps] = project_bits(g.pi.table[pts[eps]], I.indices)
        fval[eps] = g.phi.value(pts[eps])

    rows: list[int] = []
    rhs: list[int] = []
    for eps in range(1 << k):
        w = eps.bit_count()
        if w < 2:
            continue
        row = 0
        if (1 + w) & 1:
            row |= cvec[eps] ^ cvec[0]
        r = fval[eps] ^ ((1 + w) & 1) * fval[0]
        for i in range(k):
            if (eps >> i) & 1:
                anchor = 1 << i
                row |= (cvec[eps] ^ cvec[anchor]) << ((i + 1) * k)
                r ^= fval[anchor]
        rows.append(row)
        rhs.append(r & 1)

    sol = solve_linear(rows, rhs, width)
    if sol is None:
        return HSolutionSpace(L, k, image, I, None, ())
    particular, kernel = sol
    return HSolutionSpace(L, k, image, I, particular, tuple(kernel))


def dim2_h_maps(g: MMFunction, L: AffineSubspace) -> list[AffineMap]:
    """The 32 valid H for a dim-2 subspace, via the five-free-bits shape.

    Writing a, b, c for the points of L whose projected images are (0,1),
    (1,0) and (1,1), the values H(a), H(b) and the first bit of H(c) are
    free; the second bit of H(c) is the parity of H_2(a), H_1(b), H_1(c)
    and the phi values over L, and the fourth point takes the affine sum.
    """
    if L.dim != 2:
        raise ValueError("dim L must be 2")
    I = _image_info_set(g.pi, L)
    by_proj = {project_bits(g.pi.table[p], I.indices): p for p in L.points()}
    pa, pb, pc = by_proj[0b10], by_proj[0b01], by_proj[0b11]
    pd = pa ^ pb ^ pc  # the four points of a 2-flat xor to zero
    phi_sum = 0
    for p in L.points():
        phi_sum ^= g.phi.value(p)
    out = []
    for free in range(32):
        ha = free & 3
        hb = (free >> 2) & 3
        hc1 = (free >> 4) & 1
        hc2 = ((ha >> 1) ^ (hb & 1) ^ hc1 ^ phi_sum) & 1
        hc = hc1 | (hc2 << 1)
        values = {pa: ha, pb: hb, pc: hc, pd: ha ^ hb ^ hc}
        b = L.base
        anchor_vals = {b: values[b]}
        for v in L.direction.basis:
            anchor_vals[b ^ v] = values[b ^ v]
        h = AffineMap.from_values(L, anchor_vals, 2)
        # the affine extension must reproduce the determined fourth value
        assert all(h.evaluate(p) == values[p] for p in L.points())
        out.append(h)
    out.sort(key=lambda h: (h.matrix.rows, h.constant.bits))
    return out


@dataclass(frozen=True)
class NearBentWitness:
    """One (L, H) pair naming a closest bent function to f_(pi, phi).

    The realized subspace U of Z2^2n and the information set used for the
    embedding are stored at creation, so realizations stay reproducible.
    """

    L: AffineSubspace
    H: Optional[AffineMap]
    info_set: IndexSet
    subspace: AffineSubspace


def _make_witness(L: AffineSubspace, H: Optional[AffineMap], R: LinearSubspace, I: IndexSet) -> NearBentWitness:
    """Witness for (L, H), given R = orthogonal of the pi-image direction of L
    and I its information set; both depend on L only."""
    return NearBentWitness(L, H, I, compose_subspace(SubspaceTriple(L, R, H), info_set=I))


def witness(g: MMFunction, L: AffineSubspace, H: Optional[AffineMap]) -> NearBentWitness:
    """Package one (L, H) pair with its information set and subspace."""
    image = _image_direction(g.pi, L)
    return _make_witness(L, H, orthogonal(image), information_set(image))


def near_enumerate(g: MMFunction) -> list[NearBentWitness]:
    """All closest-bent witnesses (L, H), in canonical order.

    The pi-image of L, R and the information set come from the solver once
    per L and are shared by every H of that L.
    """
    out: list[NearBentWitness] = []
    for k in range(g.n + 1):
        for L in image_subspaces(g.pi, k):
            space = h_solution_space(g, L)
            R = orthogonal(space.image)
            if k == 0:
                out.append(_make_witness(L, None, R, space.info_set))
                continue
            for H in space.maps():
                out.append(_make_witness(L, H, R, space.info_set))
    return out


def near_count(g: MMFunction) -> int:
    """|near(f)| without materializing witnesses.

    The k <= 1 layer contributes 2^(2n+1) - 2^n always; every dim-2
    subspace with affine image contributes exactly 32; higher k goes
    through the linear solver.
    """
    n = g.n
    total = (1 << (2 * n + 1)) - (1 << n)
    for k in range(2, n + 1):
        for L in image_subspaces(g.pi, k):
            if k == 2:
                total += 32
            else:
                total += h_solution_space(g, L).count
    return total


def realize_near(g: MMFunction, w: NearBentWitness) -> TruthTable:
    """The bent function f xor 1_U named by the witness."""
    f = build_mmf(g)
    if w.subspace.dim != g.n or w.subspace.ambient != 2 * g.n:
        raise ValueError("witness subspace has the wrong shape")
    if is_affine_on(f, w.subspace) is None:
        raise ValueError("witness subspace is not an affinity subspace of f")
    return f ^ indicator_table(w.subspace, f.m)


def coincidence_parents(
    g: MMFunction, w: NearBentWitness
) -> list[tuple[Permutation, TruthTable, AffineMap]]:
    """The 24 MF functions whose neighbor sets contain the realized function.

    Valid only for dim L = 2 witnesses: every reordering pi' of the four
    image points yields one parent, with phi' and H' determined by the
    coincidence formulas; the original (pi, phi, H) is among them.
    """
    L = w.L
    if L.dim != 2:
        raise ValueError("dim L must be 2")
    n = g.n
    I = w.info_set
    pts = sorted(L.points())
    imgs = [g.pi.table[p] for p in pts]
    parents = []
    for order in itertools.permutations(range(4)):
        table = list(g.pi.table)
        for idx, p in enumerate(pts):
            table[p] = imgs[order[idx]]
        pi2 = Permutation(tuple(table), n)
        phi_bits = g.phi.bits
        h_values: dict[int, int] = {}
        for p in pts:
            old = project_bits(g.pi.table[p], I.indices)
            new = project_bits(pi2.table[p], I.indices)
            delta = old ^ new
            same = 1 if pi2.table[p] == g.pi.table[p] else 0
            hp = w.H.evaluate(p)
            phi_new = g.phi.value(p) ^ dot(hp, delta) ^ same ^ 1
            if phi_new != g.phi.value(p):
                phi_bits ^= 1 << p
            if same:
                h_values[p] = hp
            else:
                # unique nonzero t orthogonal to delta in Z2^2: swap the bits
                t = ((delta & 1) << 1) | ((delta >> 1) & 1)
                h_values[p] = hp ^ t
        b = L.base
        anchor_vals = {b: h_values[b]}
        for v in L.direction.basis:
            anchor_vals[b ^ v] = h_values[b ^ v]
        h2 = AffineMap.from_values(L, anchor_vals, 2)
        assert all(h2.evaluate(p) == h_values[p] for p in pts)
        parents.append((pi2, TruthTable(n, phi_bits), h2))
    return parents


def _vector_affine_on_coset(values: dict[int, int], base: int, basis: tuple[int, ...]) -> bool:
    """Check a vector-valued map is affine on base + span(basis)."""
    c0 = values[base]
    deltas = [values[base ^ v] ^ c0 for v in basis]
    for eps in range(1 << len(basis)):
        x = base
        expect = c0
        for i, v in enumerate(basis):
            if (eps >> i) & 1:
                x ^= v
                expect ^= deltas[i]
        if values[x] != expect:
            return False
    return True


def member_of_mf_u(g: MMFunction, U: AffineSubspace) -> bool:
    """Whether f_(pi, phi) is affine on every coset of the linear U.

    Decided by the coset-series criterion: pi must be affine on every coset
    of L with image direction equal to the orthogonal of R, and the
    composite <H(x xor a), pi_I(x)> xor phi(x) must be affine per coset.
    """
    n = g.n
    if U.ambient != 2 * n or not U.is_linear() or U.dim != n:
        raise ValueError("U must be a linear n-dimensional subspace of Z2^2n")
    t = decompose_subspace(U)
    L, R, H = t.L, t.R, t.H
    k = L.dim
    r_orth = orthogonal(R)
    if k == 0:
        # U is the x-side itself: every MF function qualifies
        return True
    hull = affine_hull_or_none((g.pi.table[p] for p in L.points()), n)
    if hull is None or hull.direction != r_orth:
        return False
    I = information_set(hull.direction)
    lpts = L.direction.points()
    for a in coset_representatives(L.direction.basis, n):
        imgs = {a ^ p: g.pi.table[a ^ p] for p in lpts}
        if not _vector_affine_on_coset(imgs, a, L.direction.basis):
            return False
        span = LinearSubspace.from_vectors(
            (imgs[a ^ p] ^ imgs[a] for p in lpts), n
        )
        if span != r_orth:
            return False
        vals = {
            a ^ p: dot(H.evaluate(p), project_bits(g.pi.table[a ^ p], I.indices))
            ^ g.phi.value(a ^ p)
            for p in lpts
        }
        if not _vector_affine_on_coset(vals, a, L.direction.basis):
            return False
    return True


def m_subspaces(f: TruthTable) -> list[LinearSubspace]:
    """All n-dimensional linear subspaces with f affine on each coset."""
    if f.m % 2:
        raise ValueError("f must have an even number of variables")
    n = f.m // 2
    spans, reps = scan_arrays(f.m, n)
    mask = kernels.coset_affine_all(f.to_u8(), spans, reps, affine_lut(n))
    bases = linear_subspace_bases(f.m, n)
    return [LinearSubspace(bases[i], f.m) for i in mask.nonzero()[0]]
