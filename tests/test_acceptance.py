"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` (add -s for the PASS lines).
"""

import random
import time
from fractions import Fraction

from mfnear import counting as C
from mfnear import oracle
from mfnear.boolfun import ea_transform
from mfnear.gf2 import random_invertible
from mfnear.mmf import MMFunction, build_mmf, near_count, near_tables
from reference import walsh_transform

# printed table cells, frozen from the published tables
TABLE1_TAIL = {
    8: "17.9020979020979034",
    10: "9.3590067076487955",
    12: "7.2034599713804699",
    14: "6.3945141111150132",
    16: "6.0400809074314523",
    18: "5.8737987726531991",
    20: "5.7932190779699999",
    22: "5.7535493917318199",
    24: "5.7338671451801089",
}
TABLE1_SIGMA3 = {
    8: "17.902098",
    10: "9.355732",
    12: "7.203453",
    14: "6.394514",
    16: "6.040081",
    18: "5.873799",
    20: "5.793219",
    22: "5.753549",
    24: "5.733867",
}
TABLE1_SIGMA4 = {
    8: "512",
    10: "0.0032743174336464",
    12: "0.0000071066250978",
    14: "0.0000000489712760",
    16: "0.0000000005242934",
    18: "0.0000000000068280",
    20: "0.0000000000000976",
    22: "0.0000000000000015",
    24: "0.0000000000000000",
}
TABLE2_LOG2 = {
    6: (23.299, 31.320, 31.326),
    8: (60.250, 69.338, 69.341),
}
TABLE3_EXPONENT = {
    8: 10.349626,
    10: 46.501079,
    12: 133.377320,
    14: 341.189209,
    16: 822.845858,
}
TABLE4 = {
    2: (None, 4.584963),
    4: (None, 13.714246),
    6: (None, 33.745257),
    8: (77.864341, 77.865447),
    10: (176.365947, 176.365947),
    12: (397.742211, 397.742211),
    14: (894.931155, 894.931155),
    16: (2005.776948, 2005.776948),
}
TABLE5 = {
    8: (49.900515, 48.299208, 67.515821, 60.250140),
    10: (103.162185, 103.250140, 129.864868, 149.663264),
    12: (226.617823, 226.663264, 264.364890, 359.995144),
    14: (502.972513, 502.995144, 553.741947, 844.161722),
    16: (1117.150429, 1117.161722, 1182.931089, 1939.996287),
}


def _pass(n, msg):
    print(f"PASS criterion {n}: {msg}")


def test_criterion_01_table2_exact_rows_formula_and_census():
    t0 = time.perf_counter()
    assert C.mf_size(2) == 384
    assert C.near_mf_size(2) == 512
    assert C.mfsp_size(2) == 896
    out = oracle.near_mf_census(mode="brute")
    assert out.passed, out.witness
    assert out.work["mf_size"] == 384
    assert out.work["near_outside_mf"] == 512
    assert out.work["mfsp_size"] == 896
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _pass(1, f"384/512/896 by formula and by brute census ({elapsed:.1f}s)")


def test_criterion_02_table2_log2_rows():
    t0 = time.perf_counter()
    for two_n, (a, b, c) in TABLE2_LOG2.items():
        n = two_n // 2
        assert abs(C.log2_big(C.mf_size(n)) - a) < 1e-3
        assert abs(C.log2_big(C.near_mf_size(n)) - b) < 1e-3
        assert abs(C.log2_big(C.mfsp_size(n)) - c) < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"2n=6,8 log2 cells within 0.001 ({elapsed:.3f}s)")


def _sets_equal(g):
    # both sides in the packed-row form that near_tables and near_brute share
    realized = {row.tobytes() for row in near_tables(g)}
    brute = {row.tobytes() for row in oracle.near_brute(build_mmf(g))}
    return realized == brute


def test_criterion_03_criterion_equals_oracle():
    t0 = time.perf_counter()
    for g in oracle.all_mf_functions(2):
        assert _sets_equal(g)
    rng = random.Random(2024)
    for _ in range(100):
        assert _sets_equal(MMFunction.random(3, rng))
    for _ in range(10):
        assert _sets_equal(MMFunction.random(4, rng))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _pass(3, f"set equality on 384 + 100 + 10 functions ({elapsed:.1f}s)")


def test_criterion_04_uniform_60_at_2n4():
    for g in oracle.all_mf_functions(2):
        assert near_count(g) == 60
    assert C.near_average(2) == 60
    _pass(4, "every f in MF_4 has exactly 60 neighbors = formula value")


def test_criterion_05_exhaustive_sum_lemmas():
    t0 = time.perf_counter()
    for n in (2, 3):
        for k in range(n + 1):
            out = oracle.verify_sum_pi(n, k)
            assert out.passed, out.witness
    for k in (1, 2, 3):
        out = oracle.verify_sum_phiH(k, seed=k)
        assert out.passed, out.witness
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _pass(5, f"permutation and phi/H sums exact at n<=3, k<=3 ({elapsed:.1f}s)")


def test_criterion_06_coincidence_24():
    out = oracle.verify_coincidence(trials=100, seed=7)
    assert out.passed, out.witness
    assert out.work["trials"] == 100 and out.work["controls"] == 10
    _pass(6, "100 dim-2 witnesses give 24 parents each; 10 dim-3 controls give 1")


def test_criterion_07_table3_expected_m():
    est = oracle.m_census(4, mode="full")
    assert est.exact_mean == 15
    assert C.expected_m(2) == 3 and C.expected_m(4) == 15
    assert C.expected_m(6) == Fraction(43, 5)
    for two_n, expo in TABLE3_EXPONENT.items():
        ratio = C.expected_m(two_n) - 1
        assert abs(-C.log2_big(ratio) - expo) < 1e-6
    sampled = oracle.m_census(6, mode="sample", trials=10000, seed=11)
    assert abs(sampled.mean - 8.6) <= 3 * sampled.std_error
    _pass(7, f"mean |M| = 15 exact; cells at 1e-6; sampled {sampled.mean:.3f} +- {sampled.std_error:.3f}")


def test_criterion_08_table4_bounds():
    for two_n, (lo, up) in TABLE4.items():
        lower, upper = C.mfc_bounds(two_n)
        if lo is None:
            assert lower < 0
        else:
            assert abs(C.log2_big(lower) - lo) < 1e-6
        assert abs(C.log2_big(upper) - up) < 1e-6
        if two_n >= 10:
            assert f"{C.log2_big(lower):.6f}" == f"{C.log2_big(upper):.6f}"
    _pass(8, "all completed-class bound cells within 1e-6; < 0 rows negative")


def test_criterion_09_table5_beta():
    for two_n, (b, ub, gb_b, mf) in TABLE5.items():
        n = two_n // 2
        assert abs(C.log2_big(C.beta(two_n)) - b) < 1e-6
        assert abs(C.log2_big(C.beta_upper(two_n)) - ub) < 1e-6
        from mfnear.gf2 import gaussian_binomial

        assert abs(C.log2_big(gaussian_binomial(two_n, n) * C.beta(two_n)) - gb_b) < 1e-6
        assert abs(C.log2_big(C.mf_size(n)) - mf) < 1e-6
    out = oracle.verify_beta(4)
    assert out.passed and out.work["total"] == 5376
    for n in range(5, 13):
        assert C.beta_lower(2 * n) <= C.beta(2 * n) < C.beta_upper(2 * n)
    _pass(9, "all beta cells within 1e-6; beta(4) = 5376 by census; bounds hold")


def test_criterion_10_table1_full_precision():
    cells = {r.label: r for r in C.table(1)}
    for two_n in range(8, 25, 2):
        r3 = cells[f"2n={two_n} sigma3*2^8"]
        r4 = cells[f"2n={two_n} sigma4*2^9"]
        rt = cells[f"2n={two_n} tail"]
        assert r3.text == TABLE1_SIGMA3[two_n]
        assert r4.text == TABLE1_SIGMA4[two_n]
        assert rt.text == TABLE1_TAIL[two_n]
        # the exact rational backs the printed value to well past 1e-13
        assert abs(float(rt.exact) - float(TABLE1_TAIL[two_n])) < 1e-12
    _pass(10, "all 27 printed cells reproduced byte-for-byte")


def test_criterion_11_property_suite():
    for n in range(2, 13):
        assert C.sigma2_closed(n) == C.sigma(n, 2)
    for n in range(3, 13):
        assert C.sigma3_closed(n) == C.sigma(n, 3)
    for k in range(3, 7):
        for n in range(k, 12):
            assert C.sigma(n, k) > C.sigma(n + 1, k)
    for n in range(5, 13):
        assert C.lambda_(2 * n) <= C.near_average(n) < C.near_average_upper(n)
    for n in range(2, 13):
        C.near_mf_size(n)  # integrality asserted inside
    rng = random.Random(31337)
    for m in (2, 4, 6, 8):
        from mfnear.boolfun import TruthTable

        for _ in range(5):
            assert walsh_transform(TruthTable(m, rng.getrandbits(1 << m))).parseval_holds()
    g = MMFunction.random(3, rng)
    base = near_count(g)
    f = build_mmf(g)
    for _ in range(100):
        A = random_invertible(6, rng)
        ft = ea_transform(f, A, rng.getrandbits(6))
        assert walsh_transform(ft).parseval_holds()
        assert oracle.near_brute_count(ft) == base
    _pass(11, "closed forms, monotonicity, bounds, integrality, Parseval, EA invariance")


def test_criterion_12_two_series_lower_bound():
    out = oracle.verify_two_coset_lower(8, trials=10, seed=13)
    assert out.passed, out.witness
    assert out.work["trials"] == 10
    assert out.work["least_count"] >= 896
    _pass(12, f"10 double-series functions all have >= 896 neighbors (least {out.work['least_count']})")
