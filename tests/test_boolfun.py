"""Truth tables, Walsh spectra, affinity and EA transforms."""

import random

import numpy as np
import pytest

from mfnear.boolfun import (
    AffineFit,
    TruthTable,
    bent_rows,
    ea_transform,
    hex_rows,
    is_affine_on,
    is_bent,
    walsh_rows,
)
from mfnear.gf2 import (
    AffineSubspace,
    LinearSubspace,
    dot,
    enumerate_subspaces,
    linear_subspace_bases,
    random_invertible,
)
from reference import hamming_distance, walsh_transform, xor_indicator


def brute_walsh(f):
    """Definition-level spectrum, O(4^m)."""
    return [
        sum(
            (-1) ** (f.value(x) ^ dot(u, x))
            for x in range(f.size)
        )
        for u in range(f.size)
    ]


def inner_product_table(n):
    """f(x, y) = <x, y> on 2n variables."""
    return TruthTable.from_values(
        (dot(i & ((1 << n) - 1), i >> n) for i in range(1 << (2 * n))), 2 * n
    )


def test_walsh_zero_function():
    w = walsh_transform(TruthTable(2, 0))
    assert w.values == (4, 0, 0, 0)


def test_walsh_two_variable_bent():
    f = TruthTable.from_values((0, 0, 0, 1), 2)  # f(x, y) = xy
    w = walsh_transform(f)
    assert all(abs(v) == 2 for v in w.values)
    assert is_bent(f)


def test_walsh_matches_definition():
    rng = random.Random(2)
    for m in (1, 2, 3, 4):
        for _ in range(5):
            f = TruthTable(m, rng.getrandbits(1 << m))
            assert list(walsh_transform(f).values) == brute_walsh(f)


def definition_walsh_rows(values):
    """Definition-level spectra of each row, as numpy sums: O(rows 4^m)."""
    x = np.arange(values.shape[1])
    ip = np.bitwise_count(x[:, None] & x[None, :]) & 1  # [u, x] -> <u, x>
    return (1 - 2 * (values[:, None, :] ^ ip[None, :, :]).astype(np.int64)).sum(axis=2)


def test_walsh_rows_matches_transform_and_definition():
    rng = random.Random(3)
    for m in (2, 4, 6, 8):
        tables = [TruthTable(m, rng.getrandbits(1 << m)) for _ in range(6)]
        tables += [inner_product_table(m // 2), TruthTable(m, 0)]
        values = np.array([t.to_u8() for t in tables])
        spectra = walsh_rows(values)
        assert (spectra == definition_walsh_rows(values)).all()
        for t, row in zip(tables, spectra):
            assert tuple(row.tolist()) == walsh_transform(t).values
        flags = bent_rows(values).tolist()
        assert flags == [is_bent(t) for t in tables]
        assert flags[-2] and not flags[-1]


def int64_walsh_rows(values):
    """The textbook butterfly in int64: pass h combines x and x xor h."""
    rows, size = values.shape
    w = 1 - 2 * values.astype(np.int64)
    h = 1
    while h < size:
        w = w.reshape(rows, size // (2 * h), 2, h)
        w = np.stack((w[:, :, 0] + w[:, :, 1], w[:, :, 0] - w[:, :, 1]), axis=2).reshape(rows, size)
        h *= 2
    return w


def test_walsh_rows_int16_equals_int64_reference():
    rng = np.random.default_rng(7)
    for m in range(2, 15):
        values = rng.integers(0, 2, (3, 1 << m), dtype=np.uint8)
        spectra = walsh_rows(values)
        assert spectra.dtype == np.int16
        assert (spectra == int64_walsh_rows(values)).all()


def test_walsh_rows_affine_peak_past_the_int16_range():
    # f = <a, x> xor 1 has W(a) = -2^m, the largest |W| there is: it fits
    # int16 at m = 14 and would overflow it at m = 15 and 16
    for m in (14, 15, 16):
        x = np.arange(1 << m)
        a = (1 << m) - 3
        row = (np.bitwise_count(x & a) & 1).astype(np.uint8) ^ 1
        w = walsh_rows(row[None, :])[0]
        assert w.dtype == (np.int16 if m <= 14 else np.int32)
        assert w[a] == -(1 << m) and np.count_nonzero(w) == 1


def test_hex_rows_match_to_hex():
    rng = random.Random(9)
    for m in range(1, 11):
        tables = [TruthTable(m, rng.getrandbits(1 << m)) for _ in range(4)] + [TruthTable(m, 0)]
        packed = np.array([np.packbits(t.to_u8(), bitorder="little") for t in tables])
        assert hex_rows(packed, m) == [t.to_hex() for t in tables]
        assert hex_rows(packed[:0], m) == []


def test_walsh_rows_shapes():
    assert walsh_rows(np.zeros((0, 8), dtype=np.uint8)).shape == (0, 8)
    assert bent_rows(np.zeros((0, 16), dtype=np.uint8)).shape == (0,)
    with pytest.raises(ValueError):
        walsh_rows(np.zeros((1, 6), dtype=np.uint8))
    with pytest.raises(ValueError):
        bent_rows(np.zeros((1, 8), dtype=np.uint8))


def test_parseval_random():
    rng = random.Random(4)
    for _ in range(10):
        f = TruthTable(8, rng.getrandbits(256))
        assert walsh_transform(f).parseval_holds()


def test_is_bent_inner_product_and_affine():
    assert is_bent(inner_product_table(2))
    for a in range(16):
        aff = TruthTable.from_values((dot(a, x) for x in range(16)), 4)
        assert not is_bent(aff)
    with pytest.raises(ValueError):
        is_bent(TruthTable(3, 0))


def test_hamming_examples():
    rng = random.Random(6)
    f = TruthTable(4, rng.getrandbits(16))
    assert hamming_distance(f, f) == 0
    U = next(iter(enumerate_subspaces(4, 2, affine=True)))
    g = xor_indicator(f, U)
    assert hamming_distance(f, g) == 4
    with pytest.raises(ValueError):
        hamming_distance(f, TruthTable(2, 0))


def test_affine_on_small_dims_always_fit():
    rng = random.Random(8)
    for _ in range(50):
        f = TruthTable(4, rng.getrandbits(16))
        for U in enumerate_subspaces(4, 1, affine=True):
            fit = is_affine_on(f, U)
            assert fit is not None
            for p in U.points():
                assert fit.evaluate(p) == f.value(p)
        for x in range(16):
            assert is_affine_on(f, AffineSubspace.from_point(x, 4)) is not None


def test_affine_on_diagonal_flats():
    # f = <x, y> restricted to {(x, x xor c)} is affine for every c
    f = inner_product_table(2)
    for c in range(4):
        pts = [x | ((x ^ c) << 2) for x in range(4)]
        from mfnear.gf2 import affine_hull_or_none

        U = affine_hull_or_none(pts, 4)
        assert U is not None and U.dim == 2
        fit = is_affine_on(f, U)
        assert fit is not None
        for p in pts:
            assert fit.evaluate(p) == f.value(p)


def second_affinity_test(f, U):
    """Independent check: all basis-pair 2-flat sums vanish at every point."""
    basis = U.direction.basis
    for x in U.points():
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = (
                    f.value(x)
                    ^ f.value(x ^ basis[i])
                    ^ f.value(x ^ basis[j])
                    ^ f.value(x ^ basis[i] ^ basis[j])
                )
                if s:
                    return False
    return True


def test_affinity_agrees_with_second_test():
    rng = random.Random(10)
    pools = {}
    for _ in range(10000):
        m = rng.choice((2, 4, 6, 8))
        k = rng.randrange(0, m + 1)
        key = (m, k)
        if key not in pools:
            pools[key] = linear_subspace_bases(m, k)
        basis = pools[key][rng.randrange(len(pools[key]))]
        U = AffineSubspace.coset(rng.getrandbits(m), LinearSubspace(basis, m))
        f = TruthTable(m, rng.getrandbits(1 << m))
        assert (is_affine_on(f, U) is not None) == second_affinity_test(f, U)


def test_xor_indicator_whole_space():
    f = TruthTable.from_values((1, 0, 0, 1), 2)
    U = AffineSubspace(0, LinearSubspace.full(2))
    assert xor_indicator(f, U).bits == f.bits ^ 0b1111


def test_xor_indicator_bentness():
    f = inner_product_table(2)
    good = bad = 0
    for U in enumerate_subspaces(4, 2, affine=True):
        g = xor_indicator(f, U)
        if is_affine_on(f, U) is not None:
            assert is_bent(g)
            good += 1
        else:
            assert not is_bent(g)
            bad += 1
    assert good and bad  # both cases actually exercised


def test_ea_identity_and_inverse():
    rng = random.Random(12)
    from mfnear.gf2 import Gf2Matrix

    f = TruthTable(6, rng.getrandbits(64))
    eye = Gf2Matrix.identity(6)
    assert ea_transform(f, eye).bits == f.bits
    for _ in range(20):
        A = random_invertible(6, rng)
        a = rng.getrandbits(6)
        h = AffineFit(rng.getrandbits(6), rng.getrandbits(1))
        g = ea_transform(f, A, a, h)
        Ainv = A.inverse()
        back = ea_transform(g, Ainv, Ainv.mul_vec(a), None)
        # back(x) = f(x) xor h((x xor a) Ainv); strip the transported tail
        tail = TruthTable.from_values(
            (dot(h.linear_part, Ainv.mul_vec(x ^ a)) ^ h.constant for x in range(64)), 6
        )
        assert (back ^ tail).bits == f.bits


def test_ea_preserves_bentness():
    rng = random.Random(14)
    from mfnear.mmf import MMFunction, build_mmf

    f = build_mmf(MMFunction.random(3, rng))
    for _ in range(100):
        A = random_invertible(6, rng)
        a = rng.getrandbits(6)
        h = AffineFit(rng.getrandbits(6), rng.getrandbits(1))
        assert is_bent(ea_transform(f, A, a, h))


def test_ea_rejects_singular():
    from mfnear.gf2 import Gf2Matrix

    f = TruthTable(2, 0)
    with pytest.raises(ValueError):
        ea_transform(f, Gf2Matrix((1, 1), 2))


def test_hex_round_trip():
    rng = random.Random(16)
    for m in (2, 4, 6, 8):
        f = TruthTable(m, rng.getrandbits(1 << m))
        assert TruthTable.from_hex(f.to_hex(), m) == f
    for bad in ("abc", "+356", "f_f0", "0x35"):  # int(s, 16) takes the last three
        with pytest.raises(ValueError):
            TruthTable.from_hex(bad, 4)

