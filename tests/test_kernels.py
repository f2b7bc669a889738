"""The coset kernel against the affinity definition, and its two entry points
against each other."""

import random

import numpy as np
import pytest

from mfnear import kernels
from mfnear.boolfun import TruthTable, is_affine_on
from mfnear.gf2 import AffineSubspace, LinearSubspace, linear_subspace_bases
from mfnear.mmf import MMFunction, build_mmf
from mfnear.scan import affine_lut, scan_arrays


def test_backend_reported():
    assert kernels.BACKEND == "python"


def _inputs(m, seed):
    """A random table, an MF function and an affine function, as uint8 arrays."""
    rng = random.Random(seed)
    rand = np.array([rng.getrandbits(1) for _ in range(1 << m)], dtype=np.uint8)
    mf = build_mmf(MMFunction.random(m // 2, rng)).to_u8()
    a = rng.randrange(1, 1 << m)
    affine = np.array([(a & x).bit_count() & 1 for x in range(1 << m)], dtype=np.uint8)
    return {"random": rand, "mf": mf, "affine": affine}


def _check_cells(f_arr, m, k, cells):
    """Each listed (row, coset) flag equals is_affine_on on that coset."""
    spans, reps = scan_arrays(m, k)
    bits = kernels.coset_affine_bits(f_arr, spans, reps, affine_lut(k))
    f = TruthTable.from_u8(f_arr, m)
    bases = linear_subspace_bases(m, k)
    directions = {}
    for i, j in cells:
        if i not in directions:
            directions[i] = LinearSubspace(bases[i], m)
        U = AffineSubspace.coset(int(reps[i, j]), directions[i])
        assert bool(bits[i, j]) == (is_affine_on(f, U) is not None), (m, k, i, j)


def test_kernel_matches_affinity_primitive():
    for m, k in [(4, 2), (6, 2), (6, 3)]:
        spans, reps = scan_arrays(m, k)
        every = [(i, j) for i in range(reps.shape[0]) for j in range(reps.shape[1])]
        for f in _inputs(m, seed=m * 10 + k).values():
            _check_cells(f, m, k, every)
    # (8, 4): every hit, plus random cells for the misses; the affine input
    # is left out, as all of its 3.2M cells are hits
    rng = random.Random(84)
    spans, reps = scan_arrays(8, 4)
    inputs = _inputs(8, seed=84)
    for f in (inputs["random"], inputs["mf"]):
        hits = kernels.coset_affine_bits(f, spans, reps, affine_lut(4)).nonzero()
        cells = list(zip(*hits)) + [
            (rng.randrange(reps.shape[0]), rng.randrange(reps.shape[1])) for _ in range(500)
        ]
        _check_cells(f, 8, 4, cells)


@pytest.mark.parametrize("m,k", [(6, 2), (6, 3), (8, 2), (8, 3), (8, 4)])
def test_all_equals_bits_all(m, k):
    spans, reps = scan_arrays(m, k)
    lut = affine_lut(k)
    for name, f in _inputs(m, seed=m * 10 + k).items():
        bits = kernels.coset_affine_bits(f, spans, reps, lut)
        every = kernels.coset_affine_all(f, spans, reps, lut)
        assert bits.dtype == every.dtype == np.uint8
        assert bits.shape == reps.shape and every.shape == (reps.shape[0],)
        assert np.array_equal(every, bits.all(axis=1)), name
    assert every.all()  # the affine input passes every row through the filter


def test_scan_array_shapes():
    spans, reps = scan_arrays(6, 3)
    assert spans.shape == (1395, 8) and reps.shape == (1395, 8)
    assert (spans[:, 0] == 0).all() and (reps[:, 0] == 0).all()
    lut = affine_lut(3)
    assert lut.sum() == 16  # 2^(k+1) affine patterns
    with pytest.raises(ValueError):
        affine_lut(5)
