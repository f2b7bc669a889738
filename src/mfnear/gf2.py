"""GF(2) linear algebra on bit-packed vectors.

Vectors x = (x_1, ..., x_n) are plain ints with x_1 in the least
significant bit, so int(x) = sum x_i * 2^(i-1).  Gf2Matrix is the one
matrix type: a tuple of row ints sharing a common width.  Subspaces carry a
reduced-row-echelon basis, which makes every subspace representation
canonical and hashable.  The information set of a subspace is
LinearSubspace.pivots: the 1-based pivot columns of its rref basis,
increasing.  Every Gaussian elimination goes through rref_rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

MAX_WIDTH = 16


def dot(x: int, y: int) -> int:
    """Inner product <x, y> over GF(2)."""
    return (x & y).bit_count() & 1


def _check_width(width: int) -> None:
    if not 0 < width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


@dataclass(frozen=True)
class Gf2Matrix:
    """Matrix over GF(2); rows are ints of a common width."""

    rows: tuple[int, ...]
    width: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        for r in self.rows:
            if not 0 <= r < (1 << self.width):
                raise ValueError("row out of range for width")

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def mul_vec(self, x: int) -> int:
        """Row vector times matrix: x (1 x rows) . M -> width-bit int."""
        acc = 0
        for i, row in enumerate(self.rows):
            if (x >> i) & 1:
                acc ^= row
        return acc

    def rank(self) -> int:
        return len(rref_rows(self.rows, self.width)[0])

    def is_invertible(self) -> bool:
        return self.row_count == self.width and self.rank() == self.width

    def inverse(self) -> "Gf2Matrix":
        n = self.width
        if self.row_count != n:
            raise ValueError("not square")
        # [M | I] packed as rows of width 2n reduces to [I | M^-1]
        rows, pivots = rref_rows((r | (1 << (n + i)) for i, r in enumerate(self.rows)), 2 * n)
        if pivots[-1] != n:
            raise ValueError("singular matrix")
        return Gf2Matrix(tuple(r >> n for r in rows), n)


def rref_rows(rows: Iterable[int], width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(2).

    Returns (rows, pivots): nonzero rref rows ordered by pivot and the
    1-based pivot columns.  The row space is preserved.
    """
    work = [r for r in rows if r]
    out: list[int] = []
    pivots: list[int] = []
    for col in range(width):
        mask = 1 << col
        src = next((i for i, v in enumerate(work) if v & mask), None)
        if src is None:
            continue
        piv = work[src]
        work = [v ^ piv if v & mask else v for v in work if v != piv]
        work = [v for v in work if v]
        out = [v ^ piv if v & mask else v for v in out]
        out.append(piv)
        pivots.append(col + 1)
        if not work:
            break
    return tuple(out), tuple(pivots)


def project_bits(x: int, indices: tuple[int, ...]) -> int:
    """Extract coordinates (x_{i_1}, ..., x_{i_k}) into a width-k int."""
    y = 0
    for j, i in enumerate(indices):
        y |= ((x >> (i - 1)) & 1) << j
    return y


@dataclass(frozen=True)
class LinearSubspace:
    """Linear subspace of Z2^n held as a reduced-row-echelon basis."""

    basis: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        _check_width(self.ambient)
        rows, _ = rref_rows(self.basis, self.ambient)
        if rows != self.basis:
            raise ValueError("basis is not in reduced row echelon form")

    @classmethod
    def _from_rref(cls, rows: tuple[int, ...], ambient: int) -> "LinearSubspace":
        """Wrap rows that are already an rref basis, skipping the re-check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "basis", rows)
        object.__setattr__(obj, "ambient", ambient)
        return obj

    @classmethod
    def from_vectors(cls, vectors: Iterable[int], ambient: int) -> "LinearSubspace":
        _check_width(ambient)
        return cls._from_rref(rref_rows(vectors, ambient)[0], ambient)

    @classmethod
    def zero(cls, ambient: int) -> "LinearSubspace":
        return cls((), ambient)

    @classmethod
    def full(cls, ambient: int) -> "LinearSubspace":
        return cls(tuple(1 << i for i in range(ambient)), ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        """1-based pivot columns: the lowest set bit of each rref row."""
        return tuple((row & -row).bit_length() for row in self.basis)

    def points(self) -> list[int]:
        """All 2^dim elements, in basis-combination order."""
        pts = [0]
        for b in self.basis:
            pts += [p ^ b for p in pts]
        return pts


def reduce_by_basis(v: int, basis: tuple[int, ...]) -> int:
    """Reduce v modulo an rref basis: zero out its pivot coordinates."""
    for row in basis:
        piv = row & -row
        if v & piv:
            v ^= row
    return v


@dataclass(frozen=True)
class AffineSubspace:
    """Coset base + direction; base has zero pivot coordinates, making it the
    lexicographically least coset element in (x_1, ..., x_n) order."""

    base: int
    direction: LinearSubspace

    def __post_init__(self) -> None:
        if not 0 <= self.base < (1 << self.direction.ambient):
            raise ValueError("base out of range")
        if reduce_by_basis(self.base, self.direction.basis) != self.base:
            raise ValueError("base is not the canonical coset representative")

    @classmethod
    def coset(cls, base: int, direction: LinearSubspace) -> "AffineSubspace":
        return cls(reduce_by_basis(base, direction.basis), direction)

    @classmethod
    def from_point(cls, v: int, ambient: int) -> "AffineSubspace":
        return cls(v, LinearSubspace.zero(ambient))

    @property
    def ambient(self) -> int:
        return self.direction.ambient

    @property
    def dim(self) -> int:
        return self.direction.dim

    def points(self) -> list[int]:
        return [self.base ^ p for p in self.direction.points()]


@dataclass(frozen=True)
class AffineMap:
    """Affine map H(x) = x.matrix xor constant, optionally restricted to a domain.

    When built from values on a domain, the matrix is supported on the pivot
    rows of the domain direction basis, which makes equal maps compare equal.
    """

    matrix: Gf2Matrix
    constant: int
    domain: Optional[AffineSubspace] = None

    def __post_init__(self) -> None:
        if not 0 <= self.constant < (1 << self.matrix.width):
            raise ValueError("constant out of range for the matrix width")

    def evaluate(self, x: int) -> int:
        return self.matrix.mul_vec(x) ^ self.constant

    @classmethod
    def from_values(cls, domain: AffineSubspace, values: dict[int, int], width: int) -> "AffineMap":
        """Affine extension of values given at base and base^v for basis v.

        `values` must contain the domain base point and every base^basis_row;
        other entries are ignored.  The result is canonical for the domain.
        """
        if width < 1:
            raise ValueError("codomain width must be at least 1")
        n = domain.ambient
        b = domain.base
        h0 = values[b]
        rows = [0] * n
        for v in domain.direction.basis:
            piv = (v & -v).bit_length() - 1
            rows[piv] = values[b ^ v] ^ h0
        matrix = Gf2Matrix(tuple(rows), width)
        const = matrix.mul_vec(b) ^ h0
        return cls(matrix, const, domain)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of Z2^n; 0 outside 0<=k<=n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << n) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def orthogonal(L: LinearSubspace) -> LinearSubspace:
    """All y with <x, y> = 0 for every x in L: the kernel of L's basis rows."""
    return LinearSubspace.from_vectors(solve_linear(list(L.basis), [0] * L.dim, L.ambient)[1], L.ambient)


MAX_ENUM_AMBIENT = 8


@lru_cache(maxsize=None)
def linear_subspace_bases(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All rref bases of k-dimensional subspaces of Z2^n, in canonical order.

    The order is by pivot columns (itertools.combinations order), then by
    the row tuple read from the last row to the first, so row 0's free bits
    vary fastest.  The rows of kernels.scan_arrays follow this order, and
    oracle.m_subspaces indexes into it; oracle.verify_beta relies on it only
    as the start of its seeded shuffle.
    """
    if not 0 <= k <= n <= MAX_ENUM_AMBIENT:
        raise ValueError(f"need 0 <= k <= n <= {MAX_ENUM_AMBIENT}")
    if k == 0:
        return ((),)
    result = []
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        # each row's values, increasing: its pivot plus every subset of its
        # free columns (columns above the pivot that are not pivots)
        choices = []
        for p in pivots:
            vals = [1 << p]
            for c in range(p + 1, n):
                if c not in pivset:
                    vals += [v | (1 << c) for v in vals]
            choices.append(vals)
        # row 0 varies fastest
        result.extend(t[::-1] for t in itertools.product(*choices[::-1]))
    return tuple(result)


def coset_representatives(basis: tuple[int, ...], n: int) -> list[int]:
    """Canonical coset reps of a subspace: ints supported off the pivots."""
    pivots = {b & -b for b in basis}
    reps = [0]
    for c in range(n):
        if 1 << c not in pivots:
            reps += [r | (1 << c) for r in reps]
    return reps


def enumerate_subspaces(n: int, k: int, affine: bool = False) -> Iterator[LinearSubspace | AffineSubspace]:
    """Yield every k-dimensional (affine) subspace of Z2^n exactly once."""
    _check_width(n)
    for basis in linear_subspace_bases(n, k):
        direction = LinearSubspace._from_rref(basis, n)
        if not affine:
            yield direction
            continue
        for rep in coset_representatives(basis, n):
            yield AffineSubspace(rep, direction)


def affine_hull_or_none(points: Iterable[int], ambient: int) -> Optional[AffineSubspace]:
    """The canonical affine subspace equal to the point set, if it is one."""
    pts = set(points)
    if not pts:
        raise ValueError("empty point set")
    b = min(pts)
    rows, _ = rref_rows((p ^ b for p in pts), ambient)
    if (1 << len(rows)) != len(pts):
        return None
    return AffineSubspace.coset(b, LinearSubspace._from_rref(rows, ambient))


def solve_linear(rows: list[int], rhs: list[int], width: int) -> Optional[tuple[int, list[int]]]:
    """Solve x . row_i^T = rhs_i over GF(2) for x of `width` bits.

    Each equation is <x, rows[i]> = rhs[i].  Returns (particular solution,
    kernel basis) or None when inconsistent.
    """
    aug = [(r | (b << width)) for r, b in zip(rows, rhs)]
    reduced, pivots = rref_rows(aug, width + 1)
    if pivots and pivots[-1] == width + 1:
        return None
    pivcols = [p - 1 for p in pivots]
    pivset = set(pivcols)
    particular = 0
    for row, p in zip(reduced, pivcols):
        if row >> width:
            particular |= 1 << p
    kernel = []
    for c in range(width):
        if c in pivset:
            continue
        v = 1 << c
        for row, p in zip(reduced, pivcols):
            if (row >> c) & 1:
                v |= 1 << p
        kernel.append(v)
    return particular, kernel


def random_invertible(n: int, rng) -> Gf2Matrix:
    """Uniform random invertible n x n matrix over GF(2)."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        M = Gf2Matrix(rows, n)
        if M.is_invertible():
            return M
