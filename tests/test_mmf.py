"""Construction, witness enumeration, coincidence, and |M(g)|."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfnear.boolfun import TruthTable, is_affine_on, is_bent
from mfnear.counting import lambda_
from mfnear.gf2 import (
    AffineMap,
    AffineSubspace,
    LinearSubspace,
    affine_hull_or_none,
    dot,
    enumerate_subspaces,
    gaussian_binomial,
    linear_subspace_bases,
    orthogonal,
    random_invertible,
    solve_linear,
)
from mfnear.mmf import (
    HSolutionSpace,
    MMFunction,
    Permutation,
    build_mmf,
    coincidence_parents,
    compose_subspace,
    decode_mm,
    h_solution_space,
    image_subspaces,
    m_count,
    near_count,
    near_enumerate,
    near_tables,
    realize_near,
    witness,
)
from mfnear.mmf import _anchor_values, _image_direction, _series_equations, _triple_points
from mfnear import mmf, oracle
from reference import embed_bits, hamming_distance, row_tables, xor_indicator


def x_side(n):
    return LinearSubspace.from_vectors([1 << i for i in range(n)], 2 * n)


def all_mf4():
    for table in itertools.permutations(range(4)):
        for bits in range(16):
            yield MMFunction(Permutation(table, 2), TruthTable(2, bits))


def test_build_smallest():
    g = MMFunction(Permutation.identity(1), TruthTable(1, 0))
    f = build_mmf(g)
    assert f.bits == 0b1000  # f(x, y) = xy
    assert is_bent(f)


def test_build_all_384_distinct_and_bent():
    tables = {build_mmf(g).bits for g in all_mf4()}
    assert len(tables) == 384
    for bits in itertools.islice(tables, 20):
        assert is_bent(TruthTable(4, bits))


def test_decode_round_trip():
    rng = random.Random(21)
    for n in (2, 3):
        for _ in range(20):
            g = MMFunction.random(n, rng)
            back = decode_mm(build_mmf(g))
            assert back is not None
            assert back.pi.table == g.pi.table and back.phi.bits == g.phi.bits
    # a non-MF bent function decodes to None
    g = MMFunction.random(2, rng)
    ws = [w for w in near_enumerate(g) if w.L.dim == 2]
    assert decode_mm(realize_near(g, ws[0])) is None


def test_build_mf6_bent_sample():
    rng = random.Random(23)
    for _ in range(10):
        assert is_bent(build_mmf(MMFunction.random(3, rng)))


def test_image_subspaces_basics():
    rng = random.Random(25)
    for n in (2, 3):
        pi = Permutation.random(n, rng)
        assert len(image_subspaces(pi, 0)) == 1 << n
        assert len(image_subspaces(pi, 1)) == (1 << (n - 1)) * ((1 << n) - 1)
        ident = Permutation.identity(n)
        for k in range(n + 1):
            got = len(image_subspaces(ident, k))
            assert got == (1 << (n - k)) * gaussian_binomial(n, k)


def test_image_subspaces_against_hull_oracle():
    # over every flat: _image_direction is the image's hull direction, None
    # exactly when the image is no flat; the identity makes every image flat
    rng = random.Random(27)
    pis = [Permutation.random(3, rng) for _ in range(20)] + [Permutation.random(4, rng) for _ in range(4)]
    for pi in pis + [Permutation.identity(3), Permutation.identity(4)]:
        n = pi.n
        for k in range(n + 1):
            expected = []
            for U in enumerate_subspaces(n, k, affine=True):
                hull = affine_hull_or_none((pi.table[p] for p in U.points()), n)
                assert _image_direction(pi, U) == (None if hull is None else hull.direction)
                if hull is not None:
                    expected.append(U)
            assert image_subspaces(pi, k) == expected


@st.composite
def subspace_descriptions(draw):
    """A random (L, W, H) with dim L = dim W, H given by anchor values."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    direction = LinearSubspace(draw(st.sampled_from(linear_subspace_bases(n, k))), n)
    L = AffineSubspace.coset(draw(st.integers(0, (1 << n) - 1)), direction)
    W = LinearSubspace(draw(st.sampled_from(linear_subspace_bases(n, k))), n)
    H = None
    if k:
        anchors = [L.base] + [L.base ^ v for v in direction.basis]
        H = AffineMap.from_values(L, {p: draw(st.integers(0, (1 << k) - 1)) for p in anchors}, k)
    return L, W, H


@settings(max_examples=300, deadline=None)
@given(subspace_descriptions())
def test_compose_subspace_is_the_paper_formula(description):
    L, W, H = description
    n = L.ambient
    U = compose_subspace(L, W, H)
    assert U.dim == n and U.ambient == 2 * n
    # the paper's literal form: (embed_bits(H(y), I) xor z, y), I the pivots of W, z in R = orthogonal(W)
    h = H.evaluate if H is not None else (lambda y: 0)
    expected = {(y << n) | (embed_bits(h(y), W.pivots) ^ z) for y in L.points() for z in orthogonal(W).points()}
    assert set(U.points()) == expected


def test_compose_subspace_is_onto_each_stratum():
    # every linear (L, W, H) with dim L = n - k gives a U with dim(U cap x-side)
    # = k; the 2^((n-k)^2) [n choose k]^2 of each stratum are distinct, and
    # together they are every linear n-dim subspace of Z2^2n
    for n in (2, 3):
        union = set()
        for k in range(n + 1):
            d = n - k
            stratum = set()
            for l_basis in linear_subspace_bases(n, d):
                L = AffineSubspace(0, LinearSubspace(l_basis, n))
                for w_basis in linear_subspace_bases(n, d):
                    W = LinearSubspace(w_basis, n)
                    for values in itertools.product(range(1 << d), repeat=d):
                        H = AffineMap.from_values(L, {0: 0, **dict(zip(l_basis, values))}, d) if d else None
                        U = compose_subspace(L, W, H)
                        assert U.base == 0 and oracle._dim_x_intersection(U.direction, n) == k
                        stratum.add(U.direction)
            assert len(stratum) == (1 << (d * d)) * gaussian_binomial(n, k) ** 2
            union |= stratum
        assert union == set(enumerate_subspaces(2 * n, n))


def test_h_solution_dim1_always_four():
    rng = random.Random(29)
    for _ in range(20):
        g = MMFunction.random(3, rng)
        for L in image_subspaces(g.pi, 1)[:5]:
            assert h_solution_space(g, L).count == 4


def test_h_solution_dim2_always_32():
    rng = random.Random(31)
    for _ in range(30):
        g = MMFunction.random(3, rng)
        for L in image_subspaces(g.pi, 2):
            assert h_solution_space(g, L).count == 32


def brute_h_count(g, L):
    """Enumerate every affine H: L -> Z2^k and test the composite directly."""
    k = L.dim
    n = g.n
    from mfnear.gf2 import project_bits

    I = _image_direction(g.pi, L).pivots
    b = L.base
    basis = L.direction.basis
    good = []
    for coeff in range(1 << (k * (k + 1))):
        mask = (1 << k) - 1
        values = {b: coeff & mask}
        for i, v in enumerate(basis):
            values[b ^ v] = (coeff >> ((i + 1) * k)) & mask
        H = AffineMap.from_values(L, values, k)
        comp = {
            p: dot(H.evaluate(p), project_bits(g.pi.table[p], I)) ^ g.phi.value(p)
            for p in L.points()
        }
        c0 = comp[b]
        deltas = [comp[b ^ v] ^ c0 for v in basis]
        ok = True
        for eps in range(1 << k):
            x = b
            expect = c0
            for i, v in enumerate(basis):
                if (eps >> i) & 1:
                    x ^= v
                    expect ^= deltas[i]
            if comp[x] != expect:
                ok = False
                break
        if ok:
            good.append(H)
    return good


def test_h_solution_dim3_matches_brute():
    g = MMFunction(Permutation.identity(3), TruthTable(3, 0))
    L = AffineSubspace(0, LinearSubspace.full(3))
    space = h_solution_space(g, L)
    brute = brute_h_count(g, L)
    assert space.count == len(brute) == 512
    got = {(h.matrix.rows, h.constant) for h in space.maps()}
    assert got == {(h.matrix.rows, h.constant) for h in brute}
    # a couple of random functions on the same full-space L
    rng = random.Random(33)
    for _ in range(3):
        g = MMFunction.random(3, rng)
        space = h_solution_space(g, L)
        brute = brute_h_count(g, L)
        assert space.count == len(brute)
    # phi = y1 y2 y3 on a flat where pi is affine: <H, pi_I> has degree <= 2,
    # so no H makes the composite affine and the system is inconsistent
    for n, base, phi in ((3, 0, 1 << 7), (4, 8, 1 << 15)):
        g = MMFunction(Permutation.identity(n), TruthTable(n, phi))
        L3 = AffineSubspace(base, LinearSubspace((1, 2, 4), n))
        assert h_solution_space(g, L3).count == 0 == len(brute_h_count(g, L3))


def test_h_solution_sum_over_restrictions():
    # sum over all phi|_L of the solution count is 2^((k+1)^2) for k = 2
    rng = random.Random(35)
    g0 = MMFunction.random(3, rng)
    L = image_subspaces(g0.pi, 2)[0]
    total = 0
    for bits in range(16):
        phi_bits = 0
        for i, p in enumerate(sorted(L.points())):
            if (bits >> i) & 1:
                phi_bits |= 1 << p
        g = MMFunction(g0.pi, TruthTable(3, phi_bits))
        total += h_solution_space(g, L).count
    assert total == 1 << 9


def test_h_solution_dim0_maps_is_none():
    g = MMFunction.random(3, random.Random(38))
    space = h_solution_space(g, AffineSubspace.from_point(5, 3))
    assert space.count == 1
    assert space.maps() == [None]


def test_h_solution_rejects_bad_L():
    rng = random.Random(37)
    while True:
        g = MMFunction.random(3, rng)
        bad = [
            U
            for U in enumerate_subspaces(3, 2, affine=True)
            if affine_hull_or_none((g.pi.table[p] for p in U.points()), 3) is None
        ]
        if bad:
            with pytest.raises(ValueError):
                h_solution_space(g, bad[0])
            break


def test_near_enumerate_structure_at_n2():
    for g in itertools.islice(all_mf4(), 40):
        ws = near_enumerate(g)
        assert len(ws) == 60
        by_dim = {}
        for w in ws:
            by_dim.setdefault(w.L.dim, 0)
            by_dim[w.L.dim] += 1
        assert by_dim == {0: 4, 1: 24, 2: 32}
        assert by_dim[0] + by_dim[1] == lambda_(4)
        f = build_mmf(g)
        realized = [realize_near(g, w) for w in ws]
        assert len({t.bits for t in realized}) == 60
        for w, t in zip(ws[:10], realized[:10]):
            assert is_bent(t)
            assert hamming_distance(f, t) == 4


def test_near_count_matches_enumeration():
    rng = random.Random(39)
    for n in (2, 3):
        for _ in range(5):
            g = MMFunction.random(n, rng)
            assert near_count(g) == len(near_enumerate(g))


def test_near_count_lower_bound_linear_pi_n4():
    rng = random.Random(41)
    pi = Permutation.from_linear(random_invertible(4, rng))
    g = MMFunction(pi, TruthTable(4, rng.getrandbits(16)))
    a2 = len(image_subspaces(pi, 2))
    assert near_count(g) >= lambda_(8) + 32 * a2


def test_realize_small_dims_stay_in_class():
    rng = random.Random(43)
    g = MMFunction.random(3, rng)
    for w in near_enumerate(g):
        if w.L.dim <= 1:
            assert decode_mm(realize_near(g, w)) is not None
        elif w.L.dim == 2:
            assert decode_mm(realize_near(g, w)) is None


def test_dim2_dedup_gives_512():
    seen = set()
    for g in all_mf4():
        for w in near_enumerate(g):
            if w.L.dim == 2:
                seen.add(realize_near(g, w).bits)
    assert len(seen) == 512


def test_witness_stores_info_set_and_subspace():
    rng = random.Random(45)
    g = MMFunction.random(3, rng)
    for w in near_enumerate(g)[:20]:
        assert w.subspace.dim == 3 and w.subspace.ambient == 6
        again = witness(g, w.L, w.H)
        assert again.info_set == w.info_set and again.subspace == w.subspace


def test_witness_rejects_h_outside_solutions():
    rng = random.Random(53)
    g = MMFunction.random(3, rng)
    while not image_subspaces(g.pi, 2):
        g = MMFunction.random(3, rng)
    f = build_mmf(g)
    for L in (image_subspaces(g.pi, 2)[0], image_subspaces(g.pi, 3)[0]):
        k = L.dim
        anchors = [L.base] + [L.base ^ v for v in L.direction.basis]
        solutions = h_solution_space(g, L).maps()
        for values in itertools.product(range(1 << k), repeat=k + 1):
            H = AffineMap.from_values(L, dict(zip(anchors, values)), k)
            if H in solutions:
                assert is_affine_on(f, witness(g, L, H).subspace) is not None
            else:
                with pytest.raises(ValueError):
                    witness(g, L, H)


def test_realize_near_is_xor_with_the_witness_subspace():
    # realize_near does not re-check its witness, so the definition is checked here
    rng = random.Random(55)
    samples = [MMFunction.random(n, rng) for n in (3, 3, 4)]
    for g in itertools.chain(all_mf4(), samples):
        f = build_mmf(g)
        for w in near_enumerate(g):
            U = w.subspace
            assert U.dim == g.n and is_affine_on(f, U) is not None
            assert realize_near(g, w) == xor_indicator(f, U)


def test_near_enumerate_witnesses_equal_witness():
    rng = random.Random(47)
    for n in (3, 4):
        for _ in range(2):
            g = MMFunction.random(n, rng)
            ws = near_enumerate(g)
            assert len(ws) == near_count(g)
            for w in ws:
                assert w == witness(g, w.L, w.H)


def test_coincidence_parents_contains_original():
    rng = random.Random(47)
    g = MMFunction.random(3, rng)
    L = image_subspaces(g.pi, 2)[0]
    H = h_solution_space(g, L).maps()[0]
    w = witness(g, L, H)
    parents = coincidence_parents(g, w)
    assert len(parents) == 24
    assert any(p.table == g.pi.table and phi.bits == g.phi.bits for p, phi, _ in parents)
    gt = realize_near(g, w)
    for p, phi, h in parents:
        g2 = MMFunction(p, phi)
        assert realize_near(g2, witness(g2, L, h)).bits == gt.bits


def test_coincidence_rejects_wrong_dim():
    rng = random.Random(49)
    g = MMFunction.random(2, rng)
    w = [w for w in near_enumerate(g) if w.L.dim == 1][0]
    with pytest.raises(ValueError):
        coincidence_parents(g, w)


def test_m_count_equals_scan_on_mf4():
    assert all(m_count(g) == len(oracle.m_subspaces(build_mmf(g))) for g in all_mf4())


@pytest.mark.parametrize("n, trials", [(3, 200), (4, 40)])
def test_m_count_equals_scan_on_samples(n, trials):
    rng = random.Random(59 + n)
    sizes = set()
    for i in range(trials):
        g = oracle.construct_two_series(n, rng)[0] if i % 4 == 0 else MMFunction.random(n, rng)
        c = m_count(g)
        assert c == len(oracle.m_subspaces(build_mmf(g)))
        sizes.add(c)
    assert 1 in sizes and len(sizes) >= 3


def test_m_count_identity_pi_at_2n8():
    g = MMFunction(Permutation.identity(4), TruthTable(4, 0))
    assert m_count(g) == len(oracle.m_subspaces(build_mmf(g))) == 2295


@pytest.mark.parametrize("n, trials", [(3, 12), (4, 4)])
def test_m_count_equals_scan_on_linear_pi(n, trials):
    # a linear pi is affine on every coset of every L with one image
    # direction, so every basis is a clique and the stacked system decides
    rng = random.Random(71 + n)
    for _ in range(trials):
        g = MMFunction(Permutation.from_linear(random_invertible(n, rng)), TruthTable(n, rng.getrandbits(1 << n)))
        assert m_count(g) == len(oracle.m_subspaces(build_mmf(g)))


@pytest.mark.parametrize("n", [3, 4])
def test_m_count_degree3_phi_equals_scan(n):
    # phi = y1 y2 y3 has degree 3 on every coset of the L that contain e1, e2, e3
    phi = sum(1 << y for y in range(1 << n) if y & 7 == 7)
    g = MMFunction(Permutation.identity(n), TruthTable(n, phi))
    assert m_count(g) == len(oracle.m_subspaces(build_mmf(g)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_m_count_dim1_closed_form_is_the_general_system(n):
    # a 2-point L = {0, u} has no equation: both linear H solve it iff D_u pi is constant
    rng = random.Random(67 + n)
    size = 1 << n
    polys = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}
    c = rng.randrange(1, size)
    pis = [Permutation.random(n, rng) for _ in range(4)] + [
        Permutation.identity(n),
        Permutation(tuple(y ^ c for y in range(size)), n),
        Permutation.from_linear(random_invertible(n, rng)),
        gf_inversion(n, polys[n]),
    ]
    seen = set()
    for pi in pis:
        g = MMFunction(pi, TruthTable(n, rng.getrandbits(size)))
        for u in range(1, size):
            eq = _series_equations(g, (u,))
            sol = None if eq is None else solve_linear(*eq[1:], 1)
            general = 0 if sol is None else 1 << len(sol[1])
            constant = len({pi.table[y ^ u] ^ pi.table[y] for y in range(size)}) == 1
            assert general == 2 * constant
            seen.add(constant)
    assert True in seen and (n == 2 or False in seen)  # every permutation of Z2^2 is affine


def test_m_subspaces_inner_product():
    from mfnear.boolfun import TruthTable as TT

    f = TT.from_values((dot(i & 3, i >> 2) for i in range(16)), 4)
    ms = oracle.m_subspaces(f)
    assert x_side(2) in ms
    y_side = LinearSubspace.from_vectors([4, 8], 4)
    assert y_side in ms


def test_near_count_ea_invariant():
    rng = random.Random(55)
    from mfnear.boolfun import ea_transform

    g = MMFunction.random(3, rng)
    base = near_count(g)
    f = build_mmf(g)
    for _ in range(5):
        A = random_invertible(6, rng)
        ft = ea_transform(f, A, rng.getrandbits(6))
        assert len(oracle.near_brute(ft)) == base


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1, 2), 2)


def gf_inversion(n, poly):
    """y -> y^(2^n - 2) in GF(2^n) = Z2[t] / poly, with 0 -> 0."""

    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> n:
                a ^= poly
        return r

    size = 1 << n
    inv = [0] + [next(b for b in range(1, size) if mul(a, b) == 1) for a in range(1, size)]
    return Permutation(tuple(inv), n)


def near_tables_inputs():
    rng = random.Random(61)
    for table in ((0, 1), (1, 0)):  # every MF function at 2n = 2: one y-pair
        for bits in range(4):
            yield MMFunction(Permutation(table, 1), TruthTable(1, bits))
    yield from all_mf4()
    for n, count in ((3, 20), (4, 5), (5, 1)):
        for _ in range(count):
            yield MMFunction.random(n, rng)
    for pi in (
        Permutation.identity(3),
        Permutation.identity(4),
        gf_inversion(3, 0b1011),
        gf_inversion(4, 0b10011),
        Permutation(tuple((5 * y + 3) % 16 for y in range(16)), 4),
    ):
        yield MMFunction(pi, TruthTable(pi.n, rng.getrandbits(1 << pi.n)))


def test_near_tables_rows_are_the_realized_witnesses():
    for g in near_tables_inputs():
        rows = near_tables(g)
        assert rows.dtype == np.uint8 and rows.shape == (near_count(g), -(-(1 << 2 * g.n) // 8))
        tables = row_tables(rows, 2 * g.n)
        assert len(tables) == len(rows)
        assert tables == {realize_near(g, w) for w in near_enumerate(g)}


@pytest.mark.parametrize("n", [1, 3])
def test_near_tables_budget_counts_the_closed_form_layer(monkeypatch, n):
    # near_tables writes the lambda dim <= 1 rows itself; they still count
    # first, also at n = 1, where no flat of dim >= 2 follows them
    g = MMFunction.random(n, random.Random(71))
    total, low = near_count(g), lambda_(2 * n)
    for rows in (low - 1, total - low, total - 1):
        monkeypatch.setattr(mmf, "_EXPANSION_BUDGET", rows << (2 * n))
        with pytest.raises(ValueError, match=f"more than {rows} closest bent functions"):
            near_tables(g)
        with pytest.raises(ValueError):
            near_enumerate(g)
    monkeypatch.setattr(mmf, "_EXPANSION_BUDGET", total << (2 * n))
    assert len(near_tables(g)) == len(near_enumerate(g)) == total


def test_triple_points_batched_equal_the_definition():
    rng = random.Random(63)
    for n in (2, 3, 4):
        g = MMFunction.random(n, rng)
        for k in range(n + 1):
            for L in image_subspaces(g.pi, k)[:6]:
                space = h_solution_space(g, L)
                R, I = orthogonal(space.image), space.image.pivots
                maps = space.maps()
                anchors = np.array([_anchor_values(L, H)[0] for H in maps], dtype=np.int64).reshape(-1, k + 1)
                batched = _triple_points(L, space.image, anchors)
                assert batched.shape == (len(maps), 1 << n)
                for H, row in zip(maps, batched):
                    h = H.evaluate if H is not None else (lambda y: 0)
                    expected = [(y << n) | (embed_bits(h(y), I) ^ z) for z in R.points() for y in L.points()]
                    assert sorted(row.tolist()) == sorted(expected)


def coefficient_maps(space):
    """The AffineMap of every coefficient vector of space.coefficients()."""
    L, k = space.domain, space.width
    anchors = [L.base] + [L.base ^ v for v in L.direction.basis]
    return [
        AffineMap.from_values(L, {a: (int(c) >> (i * k)) & ((1 << k) - 1) for i, a in enumerate(anchors)}, k)
        for c in space.coefficients()
    ]


def test_coefficients_expand_to_the_maps():
    rng = random.Random(65)
    for n in (2, 3, 4):
        for _ in range(3):
            g = MMFunction.random(n, rng)
            for k in range(1, n + 1):
                for L in image_subspaces(g.pi, k):
                    space = h_solution_space(g, L)
                    coeffs = space.coefficients()
                    assert len(coeffs) == space.count == len(set(coeffs.tolist()))
                    maps = coefficient_maps(space)
                    assert sorted(maps, key=lambda h: (h.matrix.rows, h.constant)) == space.maps()
    dim0 = h_solution_space(MMFunction.random(3, rng), AffineSubspace.from_point(6, 3))
    assert dim0.coefficients().tolist() == [0] and dim0.maps() == [None]
    # no H solves the full-space L of this function
    empty = h_solution_space(MMFunction.random(3, random.Random(6)), AffineSubspace(0, LinearSubspace.full(3)))
    assert empty.count == 0 and empty.coefficients().shape == (0,) and empty.maps() == []


def test_coefficients_beyond_63_bits_stay_exact():
    # k = 8 has k(k+1) = 72 coefficient bits, more than an int64 holds
    full = LinearSubspace.full(8)
    p, k1, k2 = (1 << 71) | 5, 1 << 64, (1 << 70) | 3
    space = HSolutionSpace(AffineSubspace(0, full), 8, full, p, (k1, k2))
    assert space.coefficients().tolist() == [p, p ^ k1, p ^ k2, p ^ k1 ^ k2]
