"""GF(2) layer: derived values come from in-test brute enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfnear.gf2 import (
    AffineSubspace,
    BitVector,
    Gf2Matrix,
    IndexSet,
    LinearSubspace,
    affine_hull_or_none,
    coset_rep_on,
    embed,
    embed_bits,
    enumerate_subspaces,
    gaussian_binomial,
    information_set,
    linear_subspace_bases,
    orthogonal,
    project,
    project_bits,
    random_invertible,
    rref,
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
    red, piv = rref(eye)
    assert red == eye and piv.indices == (1, 2, 3, 4)
    dup = Gf2Matrix((0b101, 0b101), 3)
    red, piv = rref(dup)
    assert red.rows == (0b101,) and len(piv) == 1


def test_rref_span_preserved():
    # rows 011 and 101 in x1..x3 coordinates
    r1 = BitVector.from_coords((0, 1, 1)).bits
    r2 = BitVector.from_coords((1, 0, 1)).bits
    rows, pivots = rref_rows((r1, r2), 3)
    assert len(rows) == 2 and len(pivots) == 2
    span = {0}
    for r in rows:
        span |= {p ^ r for p in span}
    assert span == {0, r1, r2, r1 ^ r2}


def test_information_set_examples():
    full = AffineSubspace(0, LinearSubspace.full(4))
    assert information_set(full).indices == (1, 2, 3, 4)
    point = AffineSubspace.from_point(5, 4)
    assert information_set(point).indices == ()
    d = LinearSubspace.from_vectors(
        (BitVector.from_coords((1, 1, 0)).bits, BitVector.from_coords((0, 0, 1)).bits), 3
    )
    I = information_set(d)
    assert I.indices == (1, 3)
    # projection onto the information set covers Z2^2
    proj = {project_bits(p, I.indices) for p in d.points()}
    assert proj == set(range(4))


def test_information_set_surjective_everywhere():
    for n in range(1, 6):
        for k in range(n + 1):
            for L in enumerate_subspaces(n, k):
                I = information_set(L)
                proj = {project_bits(p, I.indices) for p in L.points()}
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
    L = LinearSubspace.from_vectors((BitVector.from_coords((1, 1, 0)).bits,), 3)
    perp = orthogonal(L)
    assert perp.dim == 2
    # brute scan over all 8 vectors
    expected = {y for y in range(8) if all((y & x).bit_count() % 2 == 0 for x in L.points())}
    assert set(perp.points()) == expected
    assert BitVector.from_coords((0, 0, 1)).bits in expected
    assert BitVector.from_coords((1, 1, 0)).bits in expected




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


def test_project_embed_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        I = IndexSet(tuple(sorted(rng.sample(range(1, 9), 3))), 8)
        for y in range(8):
            yv = BitVector(y, 3)
            assert project(embed(yv, I), I) == yv


def test_project_example():
    x = BitVector.from_coords((1, 0, 1, 1, 0))
    I = IndexSet((2, 5), 5)
    assert project(x, I).to_tuple() == (0, 0)


def test_embed_example():
    y = BitVector.from_coords((1, 1))
    I = IndexSet((1, 4), 4)
    assert embed(y, I).bits == 0b1001


def test_project_width_mismatch():
    with pytest.raises(ValueError):
        project(BitVector(0, 3), IndexSet((1, 2), 4))
    with pytest.raises(ValueError):
        embed(BitVector(0, 3), IndexSet((1, 2), 4))


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


def test_coset_rep_on():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        bases = linear_subspace_bases(n, k)
        space = LinearSubspace(bases[rng.randrange(len(bases))], n)
        I = information_set(orthogonal(space))
        x = rng.getrandbits(n)
        rep = coset_rep_on(x, space, I)
        assert space.contains(rep ^ x)
        comp = I.complement()
        assert project_bits(rep, comp.indices) == 0


def test_matrix_inverse():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 9)
        M = random_invertible(n, rng)
        Minv = M.inverse()
        for x in range(min(1 << n, 64)):
            assert Minv.mul_vec(M.mul_vec(x)) == x


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(4, 2)
    with pytest.raises(ValueError):
        BitVector(0, 17)
    v = BitVector.from_coords((1, 0, 1))
    assert v.bits == 0b101 and v.coord(1) == 1 and v.coord(2) == 0
