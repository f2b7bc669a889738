"""Verifier mechanics at reduced scale; the acceptance suite runs them full."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfnear import counting, kernels, oracle
from mfnear.boolfun import TruthTable, _ip_blocks, is_bent
from mfnear.gf2 import AffineSubspace, LinearSubspace, linear_subspace_bases
from mfnear.mmf import MMFunction, build_mmf, m_count, near_enumerate, near_tables, realize_near
from reference import row_tables, xor_indicator


def test_near_brute_uniform_60_on_sample():
    for g in itertools.islice(oracle.all_mf_functions(), 25):
        f = build_mmf(g)
        neighbors = oracle.near_brute(f)
        assert len(neighbors) == 60
        for t in itertools.islice(row_tables(neighbors, f.m), 3):
            assert is_bent(t)


def near_brute_per_hit(f):
    """Reference: one indicator and one Walsh check per kernel hit."""
    n = f.m // 2
    spans, reps = oracle.scan_arrays(f.m, n)
    hits = kernels.coset_affine_bits(f.to_u8(), spans, reps)
    out = set()
    for i, j in zip(*hits.nonzero()):
        U = AffineSubspace.coset(int(reps[i, j]), LinearSubspace.from_vectors(map(int, spans[i]), f.m))
        g = xor_indicator(f, U)
        assert is_bent(g)
        out.add(g)
    return out


def test_near_brute_matches_per_hit_reference():
    rng = random.Random(41)
    for n in (1, 2, 3):
        for _ in range(3):
            f = build_mmf(MMFunction.random(n, rng))
            rows = oracle.near_brute(f)
            assert len(rows) == len(row_tables(rows, f.m))
            assert row_tables(rows, f.m) == near_brute_per_hit(f)


def test_near_brute_raises_on_non_bent_neighbor(monkeypatch):
    f = build_mmf(MMFunction.random(2, random.Random(43)))
    real = kernels.coset_affine_hits

    def one_false_hit(fv, spans, reps):
        hits = real(fv, spans, reps)
        miss = np.setdiff1d(np.arange(reps.size), hits)[0]  # a coset where f is not affine
        return np.insert(hits, np.searchsorted(hits, miss), miss)

    monkeypatch.setattr(kernels, "coset_affine_hits", one_false_hit)
    with pytest.raises(AssertionError, match="non-bent"):
        oracle.near_brute(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**32))
def test_criterion_equals_oracle_random(n, seed):
    g = MMFunction.random(n, random.Random(seed))
    brute = oracle.near_brute(build_mmf(g))
    assert {realize_near(g, w) for w in near_enumerate(g)} == row_tables(brute, 2 * n)
    assert {row.tobytes() for row in near_tables(g)} == {row.tobytes() for row in brute}


def test_verify_near_equality_reports_disagreement(monkeypatch):
    real = oracle.near_brute
    calls = []

    def wrong_on_second(f):
        calls.append(f)
        found = real(f)
        return found if len(calls) != 2 else found[1:]

    monkeypatch.setattr(oracle, "near_brute", wrong_on_second)
    out = oracle.verify_near_equality(trials=3, seed=5)
    assert not out.passed
    assert out.witness == "function #1 disagrees"


def test_near_brute_rejects_large():
    with pytest.raises(ValueError):
        oracle.near_brute(TruthTable(10, 0))


def test_verify_sum_pi_n2():
    for k in range(3):
        out = oracle.verify_sum_pi(2, k)
        assert out.passed, out.witness
    assert oracle.verify_sum_pi(2, 1).work["total"] == 144
    assert oracle.verify_sum_pi(2, 0).work["total"] == 24 * 4


def test_verify_sum_pi_n3_k2():
    out = oracle.verify_sum_pi(3, 2)
    assert out.passed and out.work["total"] == 112896


def test_verify_sum_phiH():
    assert oracle.verify_sum_phiH(1).work["total"] == 16
    assert oracle.verify_sum_phiH(2).work["total"] == 512
    out = oracle.verify_sum_phiH(3, seed=9)
    assert out.passed and out.work["total"] == 1 << 16


def test_verify_coincidence_small():
    out = oracle.verify_coincidence(trials=5, seed=2)
    assert out.passed, out.witness
    assert out.work["trials"] == 5 and out.work["controls"] >= 1


def test_near_mf_census_both_modes():
    for mode in ("brute", "criterion"):
        out = oracle.near_mf_census(mode)
        assert out.passed, out.witness
        assert out.work["near_outside_mf"] == 512
        assert out.work["mfsp_size"] == 896


def test_mf6_census_by_dedup():
    # count distinct truth tables over all (pi, phi) at n = 3
    blocks = _ip_blocks(3)
    phi_masks = np.array(
        [
            sum(0xFF << (8 * y) for y in range(8) if (bits >> y) & 1)
            for bits in range(256)
        ],
        dtype=np.uint64,
    )
    perms = list(itertools.permutations(range(8)))
    arr = np.empty(len(perms) * 256, dtype=np.uint64)
    for i, table in enumerate(perms):
        base = 0
        for y in range(8):
            base |= blocks[table[y]] << (8 * y)
        arr[i * 256 : (i + 1) * 256] = np.uint64(base) ^ phi_masks
    arr.sort()
    distinct = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
    assert distinct == counting.mf_size(3) == 10321920


def test_m_census_full_mean_15():
    assert Fraction(sum(map(m_count, oracle.all_mf_functions())), 384) == 15


def test_m_census_sampled_6():
    est = oracle.m_census(6, trials=300, seed=3)
    assert est.trials == 300
    assert abs(est.z) < 4
    # reproducible for a fixed seed
    again = oracle.m_census(6, trials=300, seed=3)
    assert again.mean == est.mean and again.std_error == est.std_error


def test_m_census_sampled_8():
    est = oracle.m_census(8, trials=200, seed=5)
    assert est.mean >= 1.0
    assert "multi_fraction" in est.extra
    assert abs(est.extra["multi_z"]) < 4


@pytest.mark.parametrize("seed", [1, 2, 7, 2024])
def test_m_census_8_is_the_scan_mean(seed):
    # the census draws the same functions as this loop and counts them by
    # mmf.m_count; the scan reference must give the same mean
    rng = random.Random(seed)
    counts = [len(oracle.m_subspaces(build_mmf(MMFunction.random(4, rng)))) for _ in range(8)]
    assert oracle.m_census(8, trials=8, seed=seed).mean == float(np.mean(counts))


def test_sample_near_average_8():
    est = oracle.sample_near_average(8, trials=150, seed=1)
    assert abs(est.z) < 4
    again = oracle.sample_near_average(8, trials=150, seed=1)
    assert again.mean == est.mean


def test_sample_near_average_10():
    est = oracle.sample_near_average(10, trials=30, seed=2)
    assert est.mean >= counting.lambda_(10)
    assert est.target == float(counting.near_average(5))


def test_construct_two_series_properties():
    rng = random.Random(17)
    for _ in range(5):
        g, U = oracle.construct_two_series(4, rng)
        f = build_mmf(g)
        assert U.base == 0 and U.dim == 4
        ms = oracle.m_subspaces(f)
        assert U.direction in ms and len(ms) >= 2


def test_verify_two_coset_lower():
    out = oracle.verify_two_coset_lower(trials=3, seed=4)
    assert out.passed, out.witness
    assert out.work["least_count"] >= 896


@pytest.mark.parametrize("call", [
    lambda: oracle.verify_near_equality(0, 1),
    lambda: oracle.verify_coincidence(trials=0),
    lambda: oracle.verify_two_coset_lower(trials=0),
    lambda: oracle.verify_beta(6, subspace_samples=0),
    lambda: oracle.m_census(6, trials=0),
    lambda: oracle.sample_near_average(8, trials=0),
], ids=["near-equality", "coincidence", "two-coset-lower", "beta", "m-census", "near-average"])
def test_verifier_that_would_check_nothing_raises(call):
    with pytest.raises(ValueError, match="at least 1"):
        call()


def test_verify_beta_4():
    out = oracle.verify_beta(4)
    assert out.passed, out.witness
    assert out.work["total"] == 5376 and out.work["subspaces"] == 34


def test_verify_beta_6_sampled():
    out = oracle.verify_beta(6, seed=2, subspace_samples=2)
    assert out.passed, out.witness


def test_count_mf_intersection_6_strata():
    # spot-check one subspace per intersection dimension against the formula
    seen = set()
    for basis in linear_subspace_bases(6, 3):
        if basis == (1, 2, 4):
            continue
        U = LinearSubspace(basis, 6)
        k = oracle._dim_x_intersection(U, 3)
        if k in seen:
            continue
        seen.add(k)
        assert oracle._count_mf_intersection(U) == counting.mf_mfu_intersection(3, k)
        if seen == {0, 1, 2}:
            break
    assert seen == {0, 1, 2}


def test_count_mf_intersection_4_is_the_kernel_census():
    """At 2n = 4 the sweep counts, for every linear 2-dim U, x-side
    included, the MF_4 tables the coset kernel flags as affine on U."""
    spans, reps = oracle.scan_arrays(4, 2)
    flags = sum(
        kernels.coset_affine_all(build_mmf(g).to_u8(), spans, reps).astype(np.int64)
        for g in oracle.all_mf_functions()
    )
    bases = linear_subspace_bases(4, 2)
    assert len(bases) == 35
    for basis, flagged in zip(bases, flags.tolist()):
        assert oracle._count_mf_intersection(LinearSubspace(basis, 4)) == flagged, basis
    assert flags[bases.index((1, 2))] == 384


def test_count_mf_intersection_6_x_side_is_all_of_mf():
    # and in bounded memory: one bool grid per coset, not a 40320 x 256
    # uint32 index grid (41 MB)
    tracemalloc.start()
    try:
        count = oracle._count_mf_intersection(LinearSubspace((1, 2, 4), 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == counting.mf_size(3) == 10321920
    assert peak < 40_000_000, peak


def test_verify_beta_4_fails_on_a_wrong_formula(monkeypatch):
    right = counting.mf_mfu_intersection
    monkeypatch.setattr(counting, "mf_mfu_intersection", lambda n, k: right(n, k) + (k == 1))
    out = oracle.verify_beta(4)
    assert not out.passed
    assert "!= formula " + str(right(2, 1) + 1) in out.witness


def test_permutation_table_is_built_once_and_read_only():
    perms = oracle._permutations(3)
    assert perms is oracle._permutations(3) and perms.shape == (40320, 8)
    assert not perms.flags.writeable
    with pytest.raises(ValueError, match="n <= 3"):
        oracle._permutations(4)


def test_outcome_witness_enforced():
    out = oracle.VerificationOutcome("x", False)
    assert out.witness is not None
    d = out.as_dict()
    assert d["status"] == "fail"
