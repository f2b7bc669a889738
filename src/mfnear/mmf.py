"""Maiorana-McFarland bent functions and their closest bent neighbors.

An MF function on 2n variables is f(x, y) = <x, pi(y)> xor phi(y) for a
permutation pi of Z2^n.  Every bent function at the minimum distance 2^n
from f arises as f xor 1_U for an n-dimensional affine subspace U on which
f is affine, and those U are parametrized by pairs (L, H): an affine
subspace L of Z2^n whose pi-image is again a subspace, plus an affine map
H: L -> Z2^(dim L) subject to one affinity condition.  This module builds
the functions, enumerates the (L, H) witnesses, realizes the neighbors,
and counts |M(g)|, the linear n-dim U with f affine on every coset.
Every U is described by (L, W, H): the points (x, y) with y in L and
W.x = H(y), W the direction of pi(L).  One batched point formula
(_triple_points, for S maps H on one L at once) is behind
compose_subspace, the witness subspace, realize_near and near_tables; its
docstring shows it is the paper's (L, R, H) form with R = orthogonal(W).
Only witness() re-checks a caller's H.
near_tables realizes every neighbour of f as one packed row, the dim
L >= 2 ones straight from the per-L solution coefficients, with no witness
or TruthTable per row.
One flatness test (_image_direction) decides whether pi(L) is a flat, and
one per-flat builder (_flat_equations) gives the GF(2) system that makes
t -> <H(t), pi_I(t)> xor phi(t) affine on a flat.  h_solution_space solves
it on one L for near(f); _series_equations stacks it over every coset of
a linear L for m_count: a linear U = (L, W, H) is in M(g) iff pi is
affine on every coset of L with image direction W and H solves the
stacked system in k^2 unknowns.
The dim L <= 1 layer needs no solver, because a flat of at most two points
gives no equation: each of the 2^n points L = {y0} has one H, and each of
the 2^(n-1) (2^n - 1) lines L = {y0, y1} has all four, so this layer holds
lambda = 2^n + 2^(n+1) (2^n - 1) = 2^(2n+1) - 2^n neighbours, the ones that
stay in MF.  near_count adds it as that number and near_tables writes its
rows directly; m_count counts a linear L = {0, u} as 2 when D_u pi is
constant and 0 otherwise.
Nothing here uses the brute-force subspace scan; the oracle module checks
this criterion against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .boolfun import TruthTable, _ip_blocks, is_affine_on
from .counting import lambda_
from .gf2 import (
    AffineMap,
    AffineSubspace,
    Gf2Matrix,
    LinearSubspace,
    affine_hull_or_none,
    coset_representatives,
    dot,
    enumerate_subspaces,
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


def _image_direction(pi: Permutation, L: AffineSubspace) -> Optional[LinearSubspace]:
    """Direction of pi(L) when that image is an affine subspace, else None.

    The image is a flat iff its differences from the base point's image span
    only 2^(dim L) points; at dim 2 that is the XOR of the four images.
    """
    t = pi.table
    pts = L.points()
    base = t[pts[0]]
    if L.dim == 2 and t[pts[1]] ^ t[pts[2]] ^ t[pts[3]] ^ base:
        return None
    rows, _ = rref_rows((t[p] ^ base for p in pts[1:]), pi.n)
    return LinearSubspace._from_rref(rows, pi.n) if len(rows) == L.dim else None


def image_subspaces(pi: Permutation, k: int) -> list[AffineSubspace]:
    """All k-dimensional affine subspaces whose pi-image is again affine."""
    if not 0 <= k <= pi.n:
        raise ValueError("k out of range")
    flats = enumerate_subspaces(pi.n, k, affine=True)
    if k <= 1:  # every image of at most two points is a flat
        return list(flats)
    return [U for U in flats if _image_direction(pi, U) is not None]


def _anchor_values(L: AffineSubspace, H: Optional[AffineMap]) -> np.ndarray:
    """H's values at L's anchor points (the base, then the base xor each
    basis row) as one (1, dim L + 1) row; [[0]] when H is None."""
    if H is None:
        return np.zeros((1, 1), dtype=np.int64)
    b = L.base
    return np.array([[H.evaluate(b)] + [H.evaluate(b ^ v) for v in L.direction.basis]], dtype=np.int64)


@lru_cache(maxsize=1024)
def _codes(W: LinearSubspace) -> np.ndarray:
    """W.x for every x in Z2^n, cached per W: bit j is <x, w_j> for W's j-th
    rref row.  Built by doubling over x's coordinates; callers only read it."""
    code = [0]
    for i in range(W.ambient):
        column = sum((w >> i & 1) << j for j, w in enumerate(W.basis))
        code += [c ^ column for c in code]
    return np.array(code)


def _triple_points(L: AffineSubspace, W: LinearSubspace, anchors: np.ndarray) -> np.ndarray:
    """The 2^n points (x, y) of Z2^2n with y in L and W.x = H(y), for S maps
    H at once.  Row s of the (S, k + 1) `anchors` holds map s's values at L's
    anchor points, and row s of the (S, 2^n) result is its subspace's points,
    in no set order.

    This is the paper's { (embed_bits(H(y), I) xor z, y) : y in L, z in R }
    with R = orthogonal(W) and I = W's pivots: the rref row w_j is 1 at
    pivot I_j and 0 at the other pivots, so <embed_bits(h, I), w_j> = h_j,
    and R is orthogonal to W, so W.x = h exactly on embed_bits(h, I) + R.
    The x are grouped by code into 2^k fibres of 2^(n-k) points, and H's
    values on L come from the anchors by doubling.
    """
    n, k = L.ambient, L.dim
    fibres = np.argsort(_codes(W), kind="stable").reshape(1 << k, 1 << (n - k))
    h = anchors[:, :1]
    for i in range(k):
        h = np.concatenate((h, h ^ anchors[:, i + 1, None] ^ anchors[:, :1]), axis=1)
    ys = np.array(L.points(), dtype=np.int64)[:, None] << n
    return (ys | fibres[h]).reshape(len(anchors), 1 << n)


def compose_subspace(L: AffineSubspace, W: LinearSubspace, H: Optional[AffineMap]) -> AffineSubspace:
    """The n-dimensional subspace of Z2^2n of the points (x, y) with y in L
    and W.x = H(y), for dim W = dim L; H is None exactly when dim L = 0.

    The paper writes it as the triple (L, R, H) with R = orthogonal(W); the
    proof that both name the same points is in _triple_points.
    """
    return affine_hull_or_none(_triple_points(L, W, _anchor_values(L, H))[0].tolist(), 2 * L.ambient)


@dataclass(frozen=True)
class HSolutionSpace:
    """All affine H: L -> Z2^k passing the neighbor criterion, as a coset.

    Solutions live in the k(k+1)-bit space of values at the anchor points
    (base, base xor basis rows); `particular` and `kernel` are coefficient
    vectors there.  Empty solution set has particular None.  `image` is the
    direction of the pi-image of the domain.
    """

    domain: AffineSubspace
    width: int
    image: LinearSubspace
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

    def coefficients(self) -> np.ndarray:
        """Every solution's coefficient vector, particular xor span(kernel), in
        span order; empty when there is none.  int64, or Python ints when the
        k(k+1) bits exceed 63 (k = 8)."""
        if self.particular is None:
            return np.zeros(0, dtype=np.int64)
        out = np.array([self.particular], dtype=np.int64 if self.width * (self.width + 1) < 64 else object)
        for kv in self.kernel:
            out = np.concatenate((out, out ^ kv))
        return out

    def maps(self) -> list[Optional[AffineMap]]:
        """All solutions, sorted by (matrix rows, constant); [None] for a
        dim-0 domain, where H is None."""
        if self.particular is None:
            return []
        if self.width == 0:
            return [None]
        out = [self._coeff_to_map(int(c)) for c in self.coefficients()]
        out.sort(key=lambda h: (h.matrix.rows, h.constant))
        return out


def _flat_equations(g: MMFunction, a: int, span: list[int], I: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The affinity system of one flat a + L, L = span(u_1, ..., u_k).

    `span` lists L's points in basis-combination order (entry eps is the
    XOR of the u_i selected by eps's bits) and I is the information set of
    the pi-image direction of a + L.  The unknowns are H's values at the
    anchors a, a ^ u_1, ..., a ^ u_k, in bits 0..k-1, k..2k-1, and so on;
    an affine H makes t -> <H(a ^ t), pi_I(a ^ t)> xor phi(a ^ t) affine
    on L iff <coefficients, row> = rhs for every row.  There is one row per
    eps of weight w >= 2: the composite at eps must equal (1 + w) times its
    value at a plus its values at the anchors a ^ u_i, i in eps.
    """
    k = len(I)
    table = g.pi.table
    phi = g.phi.bits
    c = [project_bits(table[a ^ p], I) for p in span]
    f = [(phi >> (a ^ p)) & 1 for p in span]
    rows: list[int] = []
    rhs: list[int] = []
    for eps in range(3, 1 << k):
        w = eps.bit_count()
        if w < 2:
            continue
        row, r = (0, f[eps]) if w & 1 else (c[eps] ^ c[0], f[eps] ^ f[0])
        for i in range(k):
            if (eps >> i) & 1:
                row |= (c[eps] ^ c[1 << i]) << ((i + 1) * k)
                r ^= f[1 << i]
        rows.append(row)
        rhs.append(r)
    return rows, rhs


def h_solution_space(g: MMFunction, L: AffineSubspace) -> HSolutionSpace:
    """Solve for all affine H with <H(x), pi_I(x)> xor phi(x) affine on L.

    The unknowns are the k(k+1) bits of H's values at the anchor points
    L.base, L.base ^ u_i; _flat_equations gives one linear constraint per
    span combination of weight >= 2, so the solution count is 0 or a power
    of two.  Raises ValueError unless the pi-image of L is a flat.
    """
    k = L.dim
    image = _image_direction(g.pi, L)
    if image is None:
        raise ValueError("pi image of L is not an affine subspace")
    rows, rhs = _flat_equations(g, L.base, L.direction.points(), image.pivots)
    sol = solve_linear(rows, rhs, k * (k + 1))
    if sol is None:
        return HSolutionSpace(L, k, image, None, ())
    particular, kernel = sol
    return HSolutionSpace(L, k, image, particular, tuple(kernel))


@dataclass(frozen=True)
class NearBentWitness:
    """One (L, H) pair naming a closest bent function to f_(pi, phi).

    `image` is the direction W of the pi-image of L, stored at creation.
    The subspace U of Z2^2n, the points (x, y) with y in L and W.x = H(y)
    (see _triple_points), is derived from (L, H, image) on demand.
    """

    L: AffineSubspace
    H: Optional[AffineMap]
    image: LinearSubspace

    @property
    def info_set(self) -> tuple[int, ...]:
        """The information set of the image: its 1-based pivot columns."""
        return self.image.pivots

    @property
    def subspace(self) -> AffineSubspace:
        return compose_subspace(self.L, self.image, self.H)


def witness(g: MMFunction, L: AffineSubspace, H: Optional[AffineMap]) -> NearBentWitness:
    """Package a caller's (L, H) pair with the image direction of L; raises
    ValueError unless f is affine on the subspace (a closest bent neighbor)."""
    image = _image_direction(g.pi, L)
    if image is None:
        raise ValueError("pi image of L is not an affine subspace")
    w = NearBentWitness(L, H, image)
    if is_affine_on(build_mmf(g), w.subspace) is None:
        raise ValueError("witness subspace is not an affinity subspace of f")
    return w


_EXPANSION_BUDGET = 1 << 26


def _check_budget(count: int, n: int) -> None:
    if count << (2 * n) > _EXPANSION_BUDGET:
        raise ValueError(
            f"more than {_EXPANSION_BUDGET >> (2 * n)} closest bent functions on {2 * n} "
            f"variables: past the budget of {_EXPANSION_BUDGET} truth-table bits for listing "
            "or realizing them; near --mode count gives their number"
        )


def _solved_flats(g: MMFunction, first: int) -> list[HSolutionSpace]:
    """The H solutions of every L with a flat pi-image and dim L >= first, by
    dim L and then in image_subspaces order, all solved before any is
    expanded.  `first` is 0, or 2 for a caller that builds the dim <= 1
    layer itself; its lambda neighbours then count towards the budget first.

    Raises ValueError as soon as the closest bent functions, truth tables of
    2^(2n) bits each, would exceed _EXPANSION_BUDGET = 2^26 bits together:
    pi = identity, phi = 0 at 2n = 10 has 2423520 of them, 2.5 GB as bytes.
    """
    spaces: list[HSolutionSpace] = []
    count = lambda_(2 * g.n) if first == 2 else 0
    _check_budget(count, g.n)
    for k in range(first, g.n + 1):
        for L in image_subspaces(g.pi, k):
            spaces.append(h_solution_space(g, L))
            count += spaces[-1].count
            _check_budget(count, g.n)
    return spaces


def near_enumerate(g: MMFunction) -> list[NearBentWitness]:
    """All closest-bent witnesses (L, H), in canonical order.

    The pi-image direction of L comes from the solver once per L and is
    shared by every H of that L.  Raises ValueError past _EXPANSION_BUDGET
    (see _solved_flats), before building any witness.
    """
    out: list[NearBentWitness] = []
    for space in _solved_flats(g, 0):
        out += [NearBentWitness(space.domain, H, space.image) for H in space.maps()]
    return out


def near_count(g: MMFunction) -> int:
    """|near(f)| without materializing witnesses.

    The k <= 1 layer contributes 2^(2n+1) - 2^n always; every dim-2
    subspace with affine image contributes exactly 32; higher k goes
    through the linear solver.
    """
    n = g.n
    total = lambda_(2 * n)
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
    pts = _triple_points(w.L, w.image, _anchor_values(w.L, w.H))[0]
    return build_mmf(g) ^ TruthTable(2 * w.L.ambient, sum(1 << p for p in pts.tolist()))


def near_tables(g: MMFunction) -> np.ndarray:
    """Every closest bent neighbour f xor 1_U as one packed row.

    The same set as realize_near over near_enumerate, without a witness
    object.  The dim <= 1 layer, lambda = 2^(2n+1) - 2^n rows, is written in
    closed form: for each y0 one row flips the block y = y0 (dim 0), and for
    each y0 < y1, with w = pi(y0) xor pi(y1), four rows flip the x with
    <x, w> = h0 in block y0 and those with <x, w> = h1 in block y1 (dim 1,
    every (h0, h1), as no equation binds a 2-point L).  For dim L >= 2 the
    solution coefficients give H's anchor values, and one _triple_points
    call per L gives the subspaces of all its H.  The result is a
    (near_count(g), ceil(2^(2n) / 8)) uint8 array of distinct rows, packed
    like np.packbits(TruthTable.to_u8(), bitorder="little"), in no set order.
    Raises ValueError past _EXPANSION_BUDGET (see _solved_flats), before
    expanding any solution.
    """
    n = g.n
    size = 1 << n
    spaces = _solved_flats(g, 2)
    low = lambda_(2 * n)
    values = np.empty((low + sum(space.count for space in spaces), size * size), dtype=np.uint8)
    values[:] = build_mmf(g).to_u8()
    blocks = values.reshape(len(values), size, size)  # [row, y, x]: point (y << n) | x
    y = np.arange(size)
    blocks[y, y] ^= 1
    y0, y1 = np.triu_indices(size, 1)
    t = np.array(g.pi.table)
    ip = (np.bitwise_count(y[None, :] & (t[y0] ^ t[y1])[:, None]) & 1).astype(np.uint8)  # <x, w> per pair
    for h, (h0, h1) in enumerate(itertools.product((0, 1), repeat=2)):
        rows = size + 4 * np.arange(len(y0)) + h
        blocks[rows, y0] ^= ip ^ (1 - h0)
        blocks[rows, y1] ^= ip ^ (1 - h1)
    row = low
    for space in spaces:
        k = space.width
        anchors = ((space.coefficients()[:, None] >> (np.arange(k + 1) * k)) & ((1 << k) - 1)).astype(np.int64)
        pts = _triple_points(space.domain, space.image, anchors)
        values[np.arange(row, row + len(pts))[:, None], pts] ^= 1
        row += len(pts)
    return np.packbits(values, axis=1, bitorder="little")


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
        h2 = AffineMap.from_values(L, h_values, 2)
        assert all(h2.evaluate(p) == h_values[p] for p in pts)
        parents.append((pi2, TruthTable(n, phi_bits), h2))
    return parents


def _series_equations(
    g: MMFunction, basis: tuple[int, ...]
) -> Optional[tuple[LinearSubspace, list[int], list[int]]]:
    """The linear system for H on the linear L = span(basis), an rref basis
    whose rows are pairwise adjacent in m_count's graph: D_u D_v pi = 0 for
    every two rows u, v.

    That precondition makes pi affine on every coset a + L: on a + L, pi is
    t -> pi(a + sum t_i basis[i]), and an ANF coefficient of degree >= 2 of
    it is nonzero only if some D_(basis[i]) D_(basis[j]) pi, i < j, is
    nonzero there.  So only the image direction is tested: None unless the
    image differences pi(a ^ p) ^ pi(a) of every coset form the same set W.
    Otherwise (W, rows, rhs): a linear H: L -> Z2^k, coded with
    h_i = H(basis[i]) in bits ik..ik+k-1, makes f affine on every coset of
    U = (L, W, H) iff <H, row> = rhs for every row.  On the coset a + L, H
    acts as t -> H(t), which is 0 at the anchor a and h_i at a ^ basis[i];
    so the rows are every coset's _flat_equations with the anchor's k bits
    dropped.
    """
    k = len(basis)
    table = g.pi.table
    span = [0]
    for v in basis:
        span += [p ^ v for p in span]
    reps = coset_representatives(basis, g.n)
    image = {table[p] ^ table[0] for p in span}  # reps[0] = 0: the coset L itself
    if any({table[a ^ p] ^ table[a] for p in span} != image for a in reps[1:]):
        return None
    W = LinearSubspace.from_vectors([table[v] ^ table[0] for v in basis], g.n)
    I = W.pivots
    rows: list[int] = []
    rhs: list[int] = []
    for a in reps:
        coset_rows, coset_rhs = _flat_equations(g, a, span, I)
        rows += [row >> k for row in coset_rows]
        rhs += coset_rhs
    return W, rows, rhs


def m_count(g: MMFunction) -> int:
    """|M(g)|: the linear n-dim U with f_(pi, phi) affine on every coset of U.

    Each U is (L, W, H) with L linear.  The x-side (dim L = 0) counts 1.  A
    line L = {0, u} has no equation, so it counts its two linear H exactly
    when D_u pi is constant (one image direction on every coset), read from
    the derivative table; every L of dim >= 2 counts its number of linear H
    solving _series_equations.  Pi is affine on the cosets of L iff
    D_u D_v pi = 0 for every two rows u, v of a basis of L: read in the
    basis coordinates t, pi on a coset a + L has an ANF monomial containing
    t_i t_j exactly when D_(u_i) D_(u_j) pi is nonzero on that coset.  So the
    candidates are exactly the cliques of the graph u ~ v iff D_u D_v pi = 0,
    grown as rref bases, last row first, and _series_equations, which gets
    only cliques, tests the image direction alone.
    """
    n = g.n
    x = np.arange(1 << n)
    shift = x[:, None] ^ x[None, :]
    t = np.array(g.pi.table, dtype=np.uint8)  # n <= MAX_N = 8
    d = t[None, :] ^ t[shift]  # d[u, x] = D_u pi(x)
    adj = (d[:, shift] == d[:, None, :]).all(axis=2)  # D_u pi(x xor v) = D_u pi(x) for all x
    const = (d == d[:, :1]).all(axis=1)  # D_u pi is constant
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
            stack.append((grown, common & nbrs[r], pivots | (r & -r)))
            if not basis:  # L = {0, r} has no equation: both H count iff D_r pi is constant
                total += 2 * int(const[r])
                continue
            eq = _series_equations(g, grown)
            if eq is not None:
                sol = solve_linear(eq[1], eq[2], len(grown) ** 2)
                if sol is not None:
                    total += 1 << len(sol[1])
    return total
