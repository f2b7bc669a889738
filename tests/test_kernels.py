"""The scan arrays against the subspace enumeration, the coset kernel
against the affinity definition, coset_affine_bits against the scatter of
coset_affine_hits and coset_affine_all against its row reduction, the
compiled backend against the numpy reference, and the build, fallback and
bounds checks of the compiled backend."""

import functools
import random
import shutil
import subprocess

import numpy as np
import pytest

from mfnear import kernels
from mfnear.boolfun import TruthTable, is_affine_on
from mfnear.gf2 import (
    AffineSubspace,
    LinearSubspace,
    coset_representatives,
    dot,
    enumerate_subspaces,
    linear_subspace_bases,
)
from mfnear.kernels import affine_lut, scan_arrays
from mfnear.mmf import MMFunction, build_mmf


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler cc on PATH")


def test_backend_reported():
    # with a compiler on PATH a fallback is a failure, not a quiet slowdown
    if shutil.which("cc"):
        assert kernels.BACKEND == "compiled" and kernels.FALLBACK_REASON is None
    else:
        assert kernels.BACKEND == "python" and kernels.FALLBACK_REASON


def _inputs(m, seed):
    """uint8 tables: a random one, an MF function and an affine function, then
    three affine on far more cosets than the random and MF ones (about 1 in
    2300 at (8, 4)): the affine one xor x1x2 xor x3x4, the affine one xor
    x1x2x3, and the indicator of one point."""
    rng = random.Random(seed)
    rand = np.array([rng.getrandbits(1) for _ in range(1 << m)], dtype=np.uint8)
    mf = build_mmf(MMFunction.random(m // 2, rng)).to_u8()
    a = rng.randrange(1, 1 << m)
    affine = np.array([(a & x).bit_count() & 1 for x in range(1 << m)], dtype=np.uint8)
    x1, x2, x3, x4 = ((np.arange(1 << m) >> i & 1).astype(np.uint8) for i in range(4))
    point = np.zeros(1 << m, dtype=np.uint8)
    point[rng.randrange(1 << m)] = 1
    return {"random": rand, "mf": mf, "affine": affine, "quadratic": affine ^ x1 & x2 ^ x3 & x4,
            "cubic": affine ^ x1 & x2 & x3, "point": point}


def _check_cells(f_arr, m, k, cells):
    """Each listed (row, coset) flag equals is_affine_on on that coset."""
    spans, reps = scan_arrays(m, k)
    bits = kernels.coset_affine_bits(f_arr, spans, reps)
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
        hits = kernels.coset_affine_bits(f, spans, reps).nonzero()
        cells = list(zip(*hits)) + [
            (rng.randrange(reps.shape[0]), rng.randrange(reps.shape[1])) for _ in range(500)
        ]
        _check_cells(f, 8, 4, cells)


@pytest.mark.parametrize("m,k", [(6, 2), (6, 3), (8, 2), (8, 3), (8, 4)])
def test_all_equals_bits_all(monkeypatch, m, k):
    spans, reps = scan_arrays(m, k)
    # at m = 6 the numpy fallback runs too
    for lib in (kernels._LIB, None) if m == 6 else (kernels._LIB,):
        monkeypatch.setattr(kernels, "_LIB", lib)
        for name, f in _inputs(m, seed=m * 10 + k).items():
            bits = kernels.coset_affine_bits(f, spans, reps)
            every = kernels.coset_affine_all(f, spans, reps)
            assert bits.dtype == every.dtype == np.uint8
            assert bits.shape == reps.shape and every.shape == (reps.shape[0],)
            assert np.array_equal(every, bits.all(axis=1)), (name, lib)
            if name == "affine":
                assert every.all()


def test_scan_array_shapes():
    spans, reps = scan_arrays(6, 3)
    assert spans.shape == (1395, 8) and reps.shape == (1395, 8)
    assert (spans[:, 0] == 0).all() and (reps[:, 0] == 0).all()
    lut = affine_lut(3)
    assert lut.sum() == 16  # 2^(k+1) affine patterns
    with pytest.raises(ValueError):
        affine_lut(5)


def test_affine_pattern_census():
    # the ones of affine_lut(k) are the 2^(k+1) truth tables of
    # x -> <a, x> xor c on k variables, built here from dot
    for k in range(kernels.MAX_LUT_K + 1):
        size = 1 << k
        affine = {sum((dot(a, x) ^ c) << x for x in range(size)) for a in range(size) for c in (0, 1)}
        assert len(affine) == 2 * size
        assert set(np.flatnonzero(affine_lut(k)).tolist()) == affine


@pytest.mark.parametrize("m,k,sample", [(4, 2, None), (6, 3, None), (8, 4, 400)])
def test_scan_array_rows_follow_the_enumeration(m, k, sample):
    """Row i is the i-th subspace of enumerate_subspaces: its span points in
    points() order and its canonical coset representatives.  m_subspaces
    reads subspaces off row indices by this order."""
    spans, reps = scan_arrays(m, k)
    bases = linear_subspace_bases(m, k)
    assert list(bases) == [U.basis for U in enumerate_subspaces(m, k)]
    assert spans.shape[0] == reps.shape[0] == len(bases)
    rows = range(len(bases))
    if sample is not None:
        rows = random.Random(m * 10 + k).sample(rows, sample)
    for i in rows:
        assert spans[i].tolist() == LinearSubspace(bases[i], m).points(), (m, k, i)
        assert reps[i].tolist() == coset_representatives(bases[i], m), (m, k, i)


@needs_cc
@pytest.mark.parametrize("m,k", [(4, 1), (4, 2), (6, 1), (6, 2), (6, 3), (8, 1), (8, 2), (8, 3), (8, 4)])
def test_compiled_equals_numpy(m, k):
    spans, reps = scan_arrays(m, k)
    lut = affine_lut(k)
    for name, f in _inputs(m, seed=m * 10 + k).items():
        got, want = kernels.coset_affine_bits(f, spans, reps), kernels._numpy_bits(f, spans, reps, lut)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        if k < 2:  # every function is affine on every point and line
            assert got.all(), name


@pytest.mark.parametrize("m,k", [(m, k) for m in range(1, 9) for k in range(min(m, kernels.MAX_LUT_K) + 1)])
def test_hits_are_the_flags_of_the_numpy_reference(monkeypatch, m, k):
    """coset_affine_hits lists the flat indices of numpy's flags on both
    backends: every cell for the zero f, few for a random f (most rows have
    none, so the compiled kernel skips them), and coset_affine_bits is the
    scatter of the hits."""
    spans, reps = scan_arrays(m, k)
    inputs = {"zero": np.zeros(1 << m, dtype=np.uint8),
              "random": np.random.default_rng(m * 10 + k).integers(0, 2, 1 << m, dtype=np.uint8)}
    if m % 2 == 0:
        inputs |= {name: f for name, f in _inputs(m, seed=m * 10 + k).items() if name in ("mf", "quadratic")}
    for name, f in inputs.items():
        want = np.flatnonzero(kernels._numpy_bits(f, spans, reps, affine_lut(k)))
        scatter = np.zeros(reps.shape, dtype=np.uint8)
        scatter.reshape(-1)[want] = 1
        if name == "zero":
            assert want.size == reps.size
        for lib in (None, kernels._LIB):  # the module's own backend last, for the dense form
            monkeypatch.setattr(kernels, "_LIB", lib)
            hits = kernels.coset_affine_hits(f, spans, reps)
            assert hits.dtype == want.dtype and np.array_equal(hits, want), (name, lib)
        assert np.array_equal(kernels.coset_affine_bits(f, spans, reps), scatter), name


@pytest.mark.parametrize("case", ["no cc", "cc fails", "cache not writable"])
def test_fallback_reason_and_results(monkeypatch, tmp_path, case):
    spans, reps = scan_arrays(6, 3)
    lut = affine_lut(3)
    f = _inputs(6, seed=5)["mf"]
    bits = kernels._numpy_bits(f, spans, reps, lut)
    expected = (bits, bits.all(axis=1))
    cache = tmp_path / "cache"
    if case == "no cc":
        monkeypatch.setattr(shutil, "which", lambda name: None)
        cause = "cc is not on PATH"
    elif case == "cc fails":
        false = shutil.which("false")
        monkeypatch.setattr(shutil, "which", lambda name: false)
        cause = "cc failed with exit 1"
    else:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        cache.write_text("")  # a file where the cache directory should be
        cache = cache / "sub"
        cause = "NotADirectoryError"
    lib, reason = kernels._load(str(cache))
    assert lib is None and cause in reason and "\n" not in reason
    assert not list(tmp_path.glob("**/_scan_kernel-*"))  # no library, no temp file
    monkeypatch.setattr(kernels, "_LIB", lib)
    assert np.array_equal(kernels.coset_affine_bits(f, spans, reps), expected[0])
    assert np.array_equal(kernels.coset_affine_all(f, spans, reps), expected[1])


@needs_cc
def test_build_leaves_one_library(tmp_path):
    lib, reason = kernels._load(str(tmp_path))
    assert lib is not None and reason is None
    names = [p.name for p in tmp_path.iterdir()]
    assert len(names) == 1 and names[0].startswith("_scan_kernel-") and names[0].endswith(".so")
    again, _ = kernels._load(str(tmp_path))  # a second load reuses the library
    assert again is not None and [p.name for p in tmp_path.iterdir()] == names


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    # at the build's own flags, so the optimiser's flow warnings run too
    run = subprocess.run(["cc", *kernels._FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-",
                          "-o", str(tmp_path / "kernel.so")],
                         input=kernels._SOURCE, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("entry", ["coset_affine_hits", "coset_affine_bits", "coset_affine_all", "_numpy_bits"])
def test_index_outside_f_raises(entry):
    fn = getattr(kernels, entry)
    if entry == "_numpy_bits":
        fn = functools.partial(fn, lut=affine_lut(3))
    spans, reps = scan_arrays(6, 3)
    f = _inputs(6, seed=6)["affine"]  # affine on every coset, so every point is read
    bad_spans, bad_reps = spans.copy(), reps.copy()
    bad_spans[0, 1] = f.size
    bad_reps[0, 1] = f.size
    for args in [(f[:-1], spans, reps), (f, bad_spans, reps), (f, spans, bad_reps)]:
        with pytest.raises(IndexError):
            fn(*args)


@pytest.mark.parametrize("where", ["span", "rep"])
def test_index_outside_f_in_a_skipped_last_row_raises(monkeypatch, where):
    """The bounds check covers rows with no affine coset, which the compiled
    kernel skips: a bad point in the last (8, 4) row of a random f raises."""
    spans, reps = scan_arrays(8, 4)
    f = _inputs(8, seed=8)["random"]
    last = spans.shape[0] - 1
    assert not (kernels.coset_affine_hits(f, spans, reps) // reps.shape[1] == last).any()
    bad = (spans if where == "span" else reps).copy()
    bad[last, -1] = f.size
    args = (f, bad, reps) if where == "span" else (f, spans, bad)
    for lib in (kernels._LIB, None):
        monkeypatch.setattr(kernels, "_LIB", lib)
        with pytest.raises(IndexError):
            kernels.coset_affine_hits(*args)


def test_mismatched_inputs_raise(monkeypatch):
    """Shapes the C code cannot hold raise ValueError on either backend."""
    spans, reps = scan_arrays(6, 3)
    f = _inputs(6, seed=7)["mf"]
    wide, wide_reps = scan_arrays(6, 5)  # 32 span points: k = 5 > MAX_LUT_K
    bad = [(f, spans, reps[1:]), (f, spans[:, :6], reps), (f, spans[:, :0], reps),
           (f, wide, wide_reps), (np.zeros(512, dtype=np.uint8), spans, reps)]
    for lib in (kernels._LIB, None):
        monkeypatch.setattr(kernels, "_LIB", lib)
        for fn in (kernels.coset_affine_hits, kernels.coset_affine_bits, kernels.coset_affine_all):
            for args in bad:
                with pytest.raises(ValueError):
                    fn(*args)
