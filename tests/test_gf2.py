"""GF(2) layer: derived values come from in-test brute enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfnear.gf2 import (
    AffineSubspace,
    Gf2Matrix,
    LinearSubspace,
    affine_hull_or_none,
    enumerate_subspaces,
    gaussian_binomial,
    linear_subspace_bases,
    orthogonal,
    project_bits,
    random_invertible,
    rref_rows,
    solve_linear,
)


def brute_linear_subspaces(n, k):
    """All k-dim subspaces of Z2^n as frozensets, by closure scan."""
    out = set()
    for vecs in itertools.combinations(range(1, 1 << n), k):
        span = {0}
        for v in vecs:
            span |= {p ^ v for p in span}
        if len(span) == 1 << k:
            out.add(frozenset(span))
    if k == 0:
        return {frozenset({0})}
    return out


def test_gaussian_binomial_brute():
    assert gaussian_binomial(4, 2) == len(brute_linear_subspaces(4, 2)) == 35
    assert gaussian_binomial(3, 1) == len(brute_linear_subspaces(3, 1)) == 7


def test_gaussian_binomial_edges():
    for n in range(7):
        assert gaussian_binomial(n, 0) == 1
    assert gaussian_binomial(2, 3) == 0
    assert gaussian_binomial(5, -1) == 0


def test_rref_identity_and_duplicates():
    eye = Gf2Matrix.identity(4)
    red, piv = rref_rows(eye.rows, 4)
    assert red == eye.rows and piv == (1, 2, 3, 4)
    red, piv = rref_rows((0b101, 0b101), 3)
    assert red == (0b101,) and piv == (1,)


def test_rref_span_preserved():
    # rows 011 and 101 in x1..x3 coordinates
    r1 = 0b110
    r2 = 0b101
    rows, pivots = rref_rows((r1, r2), 3)
    assert len(rows) == 2 and len(pivots) == 2
    span = {0}
    for r in rows:
        span |= {p ^ r for p in span}
    assert span == {0, r1, r2, r1 ^ r2}


def test_information_set_examples():
    full = AffineSubspace(0, LinearSubspace.full(4))
    assert full.direction.pivots == (1, 2, 3, 4)
    point = AffineSubspace.from_point(5, 4)
    assert point.direction.pivots == ()
    d = LinearSubspace.from_vectors((0b011, 0b100), 3)  # (1, 1, 0) and (0, 0, 1)
    I = d.pivots
    assert I == (1, 3)
    # projection onto the information set covers Z2^2
    proj = {project_bits(p, I) for p in d.points()}
    assert proj == set(range(4))


def test_information_set_surjective_everywhere():
    for n in range(1, 6):
        for k in range(n + 1):
            for L in enumerate_subspaces(n, k):
                I = L.pivots
                proj = {project_bits(p, I) for p in L.points()}
                assert proj == set(range(1 << k))


def _is_information_set(indices, points, k):
    return {project_bits(p, indices) for p in points} == set(range(1 << k))


def test_information_set_duality():
    # I is an information set of L iff its complement is one of orthogonal(L)
    for n in range(2, 7):
        for k in range(n + 1):
            for L in enumerate_subspaces(n, k):
                perp = orthogonal(L)
                ppts = perp.points()
                lpts = L.points()
                for idx in itertools.combinations(range(1, n + 1), k):
                    comp = tuple(i for i in range(1, n + 1) if i not in idx)
                    assert _is_information_set(idx, lpts, k) == _is_information_set(
                        comp, ppts, n - k
                    )


def test_orthogonal_examples():
    zero = LinearSubspace.zero(3)
    assert orthogonal(zero) == LinearSubspace.full(3)
    L = LinearSubspace.from_vectors((0b011,), 3)  # (1, 1, 0)
    perp = orthogonal(L)
    assert perp.dim == 2
    # brute scan over all 8 vectors
    expected = {y for y in range(8) if all((y & x).bit_count() % 2 == 0 for x in L.points())}
    assert set(perp.points()) == expected
    assert 0b100 in expected  # (0, 0, 1)
    assert 0b011 in expected  # (1, 1, 0)


def test_orthogonal_is_its_definition_for_n_up_to_5():
    # {y : <x, y> = 0 for all x in L}, by scanning every y, for every subspace
    for n in range(1, 6):
        for k in range(n + 1):
            for L in enumerate_subspaces(n, k):
                pts = L.points()
                expected = {y for y in range(1 << n) if not any((x & y).bit_count() & 1 for x in pts)}
                assert set(orthogonal(L).points()) == expected




@st.composite
def vectors_in(draw):
    """(vectors, width): up to width + 2 arbitrary vectors of Z2^width."""
    n = draw(st.integers(1, 10))
    vecs = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    return vecs, n


@settings(max_examples=300, deadline=None)
@given(vectors_in())
def test_from_vectors_equals_validated_rref(case):
    vecs, n = case
    rows, pivots = rref_rows(vecs, n)
    S = LinearSubspace.from_vectors(vecs, n)
    assert S == LinearSubspace(rows, n)  # the validating constructor accepts it
    assert S.pivots == pivots


@settings(max_examples=300, deadline=None)
@given(vectors_in())
def test_orthogonal_involution(case):
    vecs, n = case
    L = LinearSubspace.from_vectors(vecs, n)
    assert orthogonal(orthogonal(L)) == L
    assert orthogonal(L).dim == n - L.dim


def test_project_example():
    x = 0b01101  # (1, 0, 1, 1, 0)
    assert project_bits(x, (2, 5)) == 0
    assert project_bits(x, (1, 3, 4)) == 0b111


def test_enumerate_counts_match_closed_forms():
    for n in range(0, 7):
        if n == 0:
            continue
        for k in range(n + 1):
            lin = sum(1 for _ in enumerate_subspaces(n, k))
            aff = sum(1 for _ in enumerate_subspaces(n, k, affine=True))
            assert lin == gaussian_binomial(n, k)
            assert aff == (1 << (n - k)) * gaussian_binomial(n, k)


def test_enumerate_examples():
    assert sum(1 for _ in enumerate_subspaces(4, 2)) == 35
    assert sum(1 for _ in enumerate_subspaces(3, 3, affine=True)) == 1
    assert sum(1 for _ in enumerate_subspaces(6, 3, affine=True)) == 11160


def test_enumerate_matches_brute_sets():
    got = {frozenset(L.points()) for L in enumerate_subspaces(4, 2)}
    assert got == brute_linear_subspaces(4, 2)


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(9, 2))
    with pytest.raises(ValueError):
        linear_subspace_bases(4, 5)


def test_linear_subspace_bases_order():
    # every k-tuple of nonzero rows that is its own rref, sorted by pivot
    # columns and then by the rows read last to first (row 0 fastest)
    for n, kmax in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 3)):
        for k in range(1, kmax + 1):
            ref = [
                rows
                for rows in itertools.product(range(1, 1 << n), repeat=k)
                if rref_rows(rows, n)[0] == rows
            ]
            ref.sort(key=lambda rows: (tuple((r & -r).bit_length() for r in rows), rows[::-1]))
            assert list(linear_subspace_bases(n, k)) == ref, (n, k)
            assert len(ref) == gaussian_binomial(n, k)


def test_affine_hull_examples():
    U = affine_hull_or_none([5], 4)
    assert U is not None and U.dim == 0 and U.points() == [5]
    pts = [0b000, 0b100, 0b010, 0b110]  # x2/x3 plane
    U = affine_hull_or_none(pts, 3)
    assert U is not None and U.dim == 2 and set(U.points()) == set(pts)
    assert affine_hull_or_none([0b000, 0b100, 0b010, 0b001], 3) is None


def test_affine_canonicity_under_rerandomized_bases():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, n + 1)
        bases = linear_subspace_bases(n, k)
        basis = bases[rng.randrange(len(bases))]
        base = rng.getrandbits(n)
        U = AffineSubspace.coset(base, LinearSubspace(basis, n))
        pts = U.points()
        # rebuild from a randomly generated spanning presentation
        shift = pts[rng.randrange(len(pts))]
        combos = []
        for _ in range(2 * k + 2):
            v = 0
            for b in basis:
                if rng.getrandbits(1):
                    v ^= b
            combos.append(v)
        rebuilt = AffineSubspace.coset(shift, LinearSubspace.from_vectors(combos + list(basis), n))
        assert rebuilt == U
        hull = affine_hull_or_none(pts, n)
        assert hull == U
        # the stored base is lexicographically least in (x_1, ..., x_n) order
        lex_min = min(pts, key=lambda p: tuple((p >> i) & 1 for i in range(n)))
        assert U.base == lex_min


def test_solve_linear_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randrange(1, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(0, width + 3))]
        x = rng.getrandbits(width)
        rhs = [(r & x).bit_count() & 1 for r in rows]
        sol = solve_linear(rows, rhs, width)
        assert sol is not None
        part, kernel = sol
        for r, b in zip(rows, rhs):
            assert (r & part).bit_count() & 1 == b
            for kv in kernel:
                assert (r & kv).bit_count() & 1 == 0
        # solution count matches rank defect
        rank = len(rref_rows(rows, width)[0])
        assert len(kernel) == width - rank


def test_matrix_inverse():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 9)
        M = random_invertible(n, rng)
        Minv = M.inverse()
        for x in range(min(1 << n, 64)):
            assert Minv.mul_vec(M.mul_vec(x)) == x



# ---------------------------------------------------------------------------
# properties of the eliminations built on rref_rows


@st.composite
def linear_systems(draw):
    """(rows, rhs, width) with width <= 8 and up to width + 3 equations."""
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=width + 3))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return rows, rhs, width


def _satisfies(x, rows, rhs):
    return all((r & x).bit_count() & 1 == b for r, b in zip(rows, rhs))


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_brute_force(system):
    rows, rhs, width = system
    brute = [x for x in range(1 << width) if _satisfies(x, rows, rhs)]
    sol = solve_linear(rows, rhs, width)
    if sol is None:
        assert brute == []
        return
    part, kernel = sol
    assert len(kernel) == width - len(rref_rows(rows, width)[0])
    coset = set()
    for sel in range(1 << len(kernel)):
        x = part
        for j, kv in enumerate(kernel):
            if (sel >> j) & 1:
                x ^= kv
        assert _satisfies(x, rows, rhs)
        coset.add(x)
    assert coset == set(brute)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_inverse_times_matrix_is_identity(n, seed):
    M = random_invertible(n, random.Random(seed))
    Minv = M.inverse()
    product = tuple(Minv.mul_vec(row) for row in M.rows)  # row i of M . M^-1
    assert product == Gf2Matrix.identity(n).rows


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_inverse_raises_on_singular(n, seed):
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(n - 1)]
    dependent = 0
    for r in rows:
        if rng.getrandbits(1):
            dependent ^= r
    rows.insert(rng.randrange(n), dependent)
    with pytest.raises(ValueError):
        Gf2Matrix(tuple(rows), n).inverse()
