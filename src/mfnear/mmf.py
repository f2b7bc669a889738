"""Maiorana-McFarland bent functions and their closest bent neighbors.

An MF function on 2n variables is f(x, y) = <x, pi(y)> xor phi(y) for a
permutation pi of Z2^n.  Every bent function at the minimum distance 2^n
from f arises as f xor 1_U for an n-dimensional affine subspace U on which
f is affine, and those U are parametrized by pairs (L, H): an affine
subspace L of Z2^n whose pi-image is again a subspace, plus an affine map
H: L -> Z2^(dim L) subject to one affinity condition.  This module builds
the functions, enumerates the (L, H) witnesses, realizes the neighbors,
decides membership in the per-subspace classes MF_U, and counts
|M(g)|, the linear n-dim U with f affine on every coset.
One point formula for U (_triple_points) is behind compose_subspace, the
witness subspace and realize_near; only witness() re-checks a caller's H.
One per-L system (_series_equations) is behind member_of_mf_u and m_count:
a linear U = (L, R, H) is in M(g) iff pi is affine on every coset of L with
image direction orthogonal(R) and H solves a GF(2) system in k^2 unknowns.
Nothing here uses the brute-force subspace scan; the oracle module checks
this criterion against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .boolfun import TruthTable, is_affine_on
from .gf2 import (
    AffineMap,
    AffineSubspace,
    Gf2Matrix,
    LinearSubspace,
    affine_hull_or_none,
    coset_rep_on,
    coset_representatives,
    dot,
    embed_bits,
    enumerate_subspaces,
    information_set,
    orthogonal,
    project_bits,
    rref_rows,
    solve_linear,
)

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

    The subspace is { (embed_bits(H(y), I) xor z, y) : y in L, z in R }
    with I = information_set(orthogonal(R)), a tuple of 1-based pivot
    columns.  H is None exactly when dim L = 0.
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


def _triple_points(L: AffineSubspace, R: LinearSubspace, H: Optional[AffineMap], I: tuple[int, ...]) -> list[int]:
    """The 2^n points (embed_bits(H(y), I) xor z, y), y in L and z in R, of Z2^2n:
    the base point spanned by L's rows with H's differences, then by R's rows."""
    n = L.ambient
    b = L.base
    hb = H.evaluate(b) if H is not None else 0
    pts = [(b << n) | embed_bits(hb, I)]
    for v in L.direction.basis:
        step = (v << n) | embed_bits(H.evaluate(b ^ v) ^ hb, I)
        pts += [p ^ step for p in pts]
    for z in R.basis:
        pts += [p ^ z for p in pts]
    return pts


def compose_subspace(t: SubspaceTriple, info_set: Optional[tuple[int, ...]] = None) -> AffineSubspace:
    """Build the n-dimensional subspace of Z2^2n named by the triple.

    `info_set` defaults to information_set(orthogonal(t.R)); a caller that
    already has it (one per L) passes it in.  It must be strictly increasing
    within 1..n, with dim L columns.
    """
    I = info_set if info_set is not None else information_set(orthogonal(t.R))
    if len(I) != t.L.dim:
        raise ValueError("information set size must equal dim L")
    if not all(0 < a < b for a, b in zip(I, I[1:] + (t.L.ambient + 1,))):
        raise ValueError("information set must be strictly increasing within 1..n")
    return affine_hull_or_none(_triple_points(t.L, t.R, t.H, I), 2 * t.L.ambient)


def decompose_subspace(U: AffineSubspace) -> SubspaceTriple:
    """Invert compose_subspace; unique for every n-dimensional subspace."""
    if U.ambient % 2:
        raise ValueError("ambient dimension must be even")
    n = U.ambient // 2
    if U.dim != n:
        raise ValueError("subspace dimension must be n")
    low_mask = (1 << n) - 1

    # With the y-bits rotated low, rref puts the rows with a y-part first:
    # their y-parts are an rref basis of L's direction, and the rows without
    # one are an rref basis of R = direction(U) intersected with the x-side.
    rows, _ = rref_rows(((v >> n) | ((v & low_mask) << n) for v in U.direction.basis), 2 * n)
    R = LinearSubspace._from_rref(tuple(r >> n for r in rows if not r & low_mask), n)
    L = AffineSubspace.coset(
        U.base >> n,
        LinearSubspace._from_rref(tuple(r & low_mask for r in rows if r & low_mask), n),
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
    values = {y: project_bits(coset_rep_on(fiber[y], R, I), I) for y in anchors}
    H = AffineMap.from_values(L, values, k)
    return SubspaceTriple(L, R, H)


@dataclass(frozen=True)
class HSolutionSpace:
    """All affine H: L -> Z2^k passing the neighbor criterion, as a coset.

    Solutions live in the k(k+1)-bit space of values at the anchor points
    (base, base xor basis rows); `particular` and `kernel` are coefficient
    vectors there.  Empty solution set has particular None.  `image` is the
    direction of the pi-image of the domain and `info_set` its information
    set, a tuple of 1-based pivot columns.
    """

    domain: AffineSubspace
    width: int
    image: LinearSubspace
    info_set: tuple[int, ...]
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

    def maps(self) -> list[Optional[AffineMap]]:
        """All solutions, sorted by (matrix rows, constant); [None] for a
        dim-0 domain, where H is None."""
        if self.particular is None:
            return []
        if self.width == 0:
            return [None]
        out = []
        for sel in range(1 << len(self.kernel)):
            coeff = self.particular
            for j, kv in enumerate(self.kernel):
                if (sel >> j) & 1:
                    coeff ^= kv
            out.append(self._coeff_to_map(coeff))
        out.sort(key=lambda h: (h.matrix.rows, h.constant))
        return out


def _image_direction(pi: Permutation, L: AffineSubspace) -> LinearSubspace:
    """Direction of the affine subspace pi(L); L must have an affine image."""
    hull = affine_hull_or_none((pi.table[p] for p in L.points()), pi.n)
    if hull is None:
        raise ValueError("pi image of L is not an affine subspace")
    return hull.direction


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
    width = k * (k + 1)

    # projected images and phi values at all span combinations: point eps
    # of L.points() is the base xor the basis rows selected by eps's bits
    pts = L.points()
    cvec = [project_bits(g.pi.table[p], I) for p in pts]
    fval = [g.phi.value(p) for p in pts]

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


@dataclass(frozen=True)
class NearBentWitness:
    """One (L, H) pair naming a closest bent function to f_(pi, phi).

    R is the orthogonal of the pi-image direction of L and info_set its
    information set (a tuple of 1-based pivot columns); both depend on L
    only and are stored at creation, so realizations stay reproducible.
    The subspace U of Z2^2n is derived from (L, H, info_set, R) on demand.
    """

    L: AffineSubspace
    H: Optional[AffineMap]
    info_set: tuple[int, ...]
    R: LinearSubspace

    @property
    def subspace(self) -> AffineSubspace:
        return compose_subspace(SubspaceTriple(self.L, self.R, self.H), info_set=self.info_set)


def witness(g: MMFunction, L: AffineSubspace, H: Optional[AffineMap]) -> NearBentWitness:
    """Package a caller's (L, H) pair with its information set and R; raises
    ValueError unless f is affine on the subspace (a closest bent neighbor)."""
    image = _image_direction(g.pi, L)
    w = NearBentWitness(L, H, information_set(image), orthogonal(image))
    if is_affine_on(build_mmf(g), w.subspace) is None:
        raise ValueError("witness subspace is not an affinity subspace of f")
    return w


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
            out += [NearBentWitness(L, H, space.info_set, R) for H in space.maps()]
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
    """The bent function f xor 1_U named by a witness of g from near_enumerate
    or witness(); it is not re-checked here."""
    bits = sum(1 << p for p in _triple_points(w.L, w.R, w.H, w.info_set))
    return build_mmf(g) ^ TruthTable(2 * w.L.ambient, bits)


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
            old = project_bits(g.pi.table[p], I)
            new = project_bits(pi2.table[p], I)
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


@lru_cache(maxsize=None)
def _anf_masks(k: int) -> tuple[tuple[int, ...], int]:
    """Moebius-transform masks on 2^k-bit truth tables: per variable i the
    points with bit i clear, and the monomials of degree 3 or more."""
    lows = tuple(sum(1 << e for e in range(1 << k) if not (e >> i) & 1) for i in range(k))
    return lows, sum(1 << e for e in range(1 << k) if e.bit_count() >= 3)


def _series_equations(
    g: MMFunction, basis: tuple[int, ...]
) -> Optional[tuple[LinearSubspace, list[int], list[int]]]:
    """The linear system for H on the linear L = span(basis), an rref basis.

    None unless pi is affine on every coset a + L with one image direction W
    and phi has degree at most 2 on every coset.  Otherwise (W, rows, rhs):
    a linear H: L -> Z2^k, coded with h_i = H(basis[i]) in bits ik..ik+k-1,
    makes f affine on every coset of U = (L, orthogonal(W), H) iff
    <H, row> = rhs for every row.  Per coset and pair i < j the row is
    <h_i, m_j> xor <h_j, m_i> = the t_i t_j coefficient of the ANF of
    t -> phi(a + sum t_i basis[i]), with m_j = pi_I(a + basis[j]) xor pi_I(a).
    """
    k = len(basis)
    table = g.pi.table
    phi = g.phi.bits
    span = [0]
    for v in basis:
        span += [p ^ v for p in span]
    lows, high = _anf_masks(k)
    direction: Optional[set[int]] = None
    cosets: list[tuple[list[int], int]] = []  # per coset: pi's differences along the basis, phi's ANF
    for a in coset_representatives(basis, g.n):
        img = [table[a ^ p] for p in span]
        diffs = [img[1 << i] ^ img[0] for i in range(k)]
        lin = [img[0]]
        for d in diffs:
            lin += [x ^ d for x in lin]
        if lin != img:
            return None
        image = {x ^ img[0] for x in img}
        if direction is None:
            direction = image
        elif image != direction:
            return None
        anf = sum(((phi >> (a ^ p)) & 1) << e for e, p in enumerate(span))
        for i, low in enumerate(lows):
            anf ^= (anf & low) << (1 << i)
        if anf & high:
            return None
        cosets.append((diffs, anf))
    W = LinearSubspace.from_vectors(cosets[0][0], g.n)
    I = W.pivots
    rows: list[int] = []
    rhs: list[int] = []
    for diffs, anf in cosets:
        m = [project_bits(d, I) for d in diffs]
        for i, j in itertools.combinations(range(k), 2):
            rows.append((m[j] << (i * k)) | (m[i] << (j * k)))
            rhs.append((anf >> ((1 << i) | (1 << j))) & 1)
    return W, rows, rhs


def member_of_mf_u(g: MMFunction, U: AffineSubspace) -> bool:
    """Whether f_(pi, phi) is affine on every coset of the linear U.

    Decided by the coset-series criterion: U = (L, R, H) qualifies iff
    _series_equations of L has image direction orthogonal(R) and H solves
    its system.
    """
    n = g.n
    if U.ambient != 2 * n or not U.is_linear() or U.dim != n:
        raise ValueError("U must be a linear n-dimensional subspace of Z2^2n")
    t = decompose_subspace(U)
    basis = t.L.direction.basis
    if not basis:
        # U is the x-side itself: every MF function qualifies
        return True
    eq = _series_equations(g, basis)
    if eq is None or eq[0] != orthogonal(t.R):
        return False
    k = len(basis)
    h = sum(t.H.evaluate(b) << (i * k) for i, b in enumerate(basis))
    return all(dot(h, row) == r for row, r in zip(eq[1], eq[2]))


def m_count(g: MMFunction) -> int:
    """|M(g)|: the linear n-dim U with f_(pi, phi) affine on every coset of U.

    Each U is (L, R, H) with L linear.  The x-side (dim L = 0) counts 1; every
    other L counts its number of linear H solving _series_equations.  Pi is
    affine on the cosets of L only if D_u D_v pi = 0 for all u, v in L, so
    every basis of a candidate L is a clique of the graph u ~ v iff
    D_u D_v pi = 0; the candidates are grown as rref bases, last row first,
    over that graph.
    """
    n = g.n
    x = np.arange(1 << n)
    shift = x[:, None] ^ x[None, :]
    t = np.array(g.pi.table, dtype=np.uint8)  # n <= MAX_N = 8
    d = t[None, :] ^ t[shift]  # d[u, x] = D_u pi(x)
    adj = (d[:, shift] == d[:, None, :]).all(axis=2)  # D_u pi(x xor v) = D_u pi(x) for all x
    nbrs = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(adj, axis=1, bitorder="little")]

    total = 1
    # (rref basis, common neighbours of its rows, pivot mask with a sentinel
    # bit n); a new row has its pivot below every pivot of the basis and
    # zeros at them, so the rows stay rref and each L is visited once
    stack: list[tuple[tuple[int, ...], int, int]] = [((), (1 << (1 << n)) - 2, 1 << n)]
    while stack:
        basis, common, pivots = stack.pop()
        below = (pivots & -pivots) - 1
        cand = common
        while cand:
            r = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if not r & below or r & pivots:
                continue
            grown = (r,) + basis
            eq = _series_equations(g, grown)
            if eq is not None:
                sol = solve_linear(eq[1], eq[2], len(grown) ** 2)
                if sol is not None:
                    total += 1 << len(sol[1])
            stack.append((grown, common & nbrs[r], pivots | (r & -r)))
    return total
