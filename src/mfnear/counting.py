"""Exact closed-form counts and the five printed tables.

Every quantity is evaluated with arbitrary-precision integers or rationals;
floats only appear in the presentation layer (log2 rendering, decimal
rounding with round-half-even at the printed precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .gf2 import gaussian_binomial

Exact = Union[int, Fraction]


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


def _pow2(e: int) -> Fraction:
    """2^e as an exact rational, e may be negative."""
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


# ---------------------------------------------------------------------------
# core quantities


def sigma(n: int, k: int) -> Fraction:
    """Expected number of k-dim affine subspaces mapped to subspaces by a
    uniform permutation of Z2^n."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    gb = gaussian_binomial(n, k)
    num = (1 << (2 * (n - k))) * gb * gb * _fact(1 << k) * _fact((1 << n) - (1 << k))
    return Fraction(num, _fact(1 << n))


def sigma2_closed(n: int) -> Fraction:
    """Closed form of sigma(n, 2) for n >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction(1 << (2 * n - 3), 3) + Fraction(1, 12) + Fraction(1, (1 << (n + 2)) - 12)


def sigma3_closed(n: int) -> Fraction:
    """Closed form of sigma(n, 3) for n >= 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    q = 1 << n
    return Fraction(5, 224) * Fraction(
        q * (q - 1) * (q - 2) * (q - 4), (q - 3) * (q - 5) * (q - 6) * (q - 7)
    )


def _dim_term(n: int, k: int) -> Fraction:
    """sigma(n, k) 2^((k+1)^2 - 2^k): the expected number of closest bent
    functions whose witness L has dim k, since over phi a k-flat in A_k(pi)
    carries 2^((k+1)^2 - 2^k) valid H on average."""
    return sigma(n, k) * _pow2((k + 1) ** 2 - (1 << k))


def _check_two_n(two_n: int) -> int:
    if two_n < 2 or two_n % 2:
        raise ValueError("need an even number of variables >= 2")
    return two_n // 2


def lambda_(two_n: int) -> int:
    """Number of closest bent functions to an MF function that stay in MF."""
    n = _check_two_n(two_n)
    return (1 << (2 * n + 1)) - (1 << n)


def near_average(n: int) -> Fraction:
    """Expected |near(f)| over uniform f in MF_2n."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = Fraction(lambda_(2 * n))
    for k in range(2, n + 1):
        total += _dim_term(n, k)
    return total


def near_average_tail(n: int) -> Fraction:
    """sum_{k=3}^{n-1} sigma(n, k) 2^((k+1)^2 - 2^k)."""
    return sum((_dim_term(n, k) for k in range(3, n)), Fraction(0))


def near_average_decomposed(n: int) -> Fraction:
    """near_average through the sigma(n,2) closed form; valid for n >= 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    return (
        Fraction(10, 3) * _pow2(2 * n)
        - (1 << n)
        + Fraction(8, 3)
        + Fraction(8, (1 << n) - 3)
        + _pow2((n + 1) ** 2 - (1 << n))
        + near_average_tail(n)
    )


def near_average_upper(n: int) -> Fraction:
    """The n >= 5 upper bound 10/3 2^2n - 2^n + 29."""
    return Fraction(10, 3) * _pow2(2 * n) - (1 << n) + 29


def mf_size(n: int) -> int:
    """|MF_2n| = 2^(2^n) (2^n)!."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (1 << (1 << n)) * _fact(1 << n)


def near_mf_ratio(n: int) -> Fraction:
    """|near(MF_2n)| / |MF_2n|; zero for n = 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Fraction(0)
    total = Fraction(4, 3) * sigma(n, 2)
    for k in range(3, n + 1):
        total += _dim_term(n, k)
    return total


def near_mf_ratio_decomposed(n: int) -> Fraction:
    """The ratio through the sigma(n,2) closed form; valid for n >= 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    return (
        Fraction(1, 18) * _pow2(2 * n)
        + Fraction(1, 9)
        + Fraction(1, 3 * (1 << n) - 9)
        + _pow2((n + 1) ** 2 - (1 << n))
        + near_average_tail(n)
    )


def near_mf_size(n: int) -> int:
    """|near(MF_2n)|, exactly; the rational coefficient times |MF| is integral."""
    value = near_mf_ratio(n) * mf_size(n)
    if value.denominator != 1:
        raise AssertionError("near(MF) coefficient times |MF| must be integral")
    return int(value)


def mfsp_size(n: int) -> int:
    """|MF_2n| extended by one subspace construction step."""
    return mf_size(n) + near_mf_size(n)


def mf_mfu_intersection(n: int, k: int) -> int:
    """|MF_2n intersect MF_U| for U with dim(U intersect x-side) = k < n."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    q = 1 << (n - k)
    prod = 1
    for i in range(n - k):
        prod *= q - (1 << i)
    return _fact(1 << k) * (1 << ((2 * n - 2 * k + 1) << k)) * prod ** (1 << k)


def beta(two_n: int) -> int:
    """Sum over all non-trivial U of |MF intersect MF_U|."""
    n = _check_two_n(two_n)
    total = 0
    for k in range(n):
        gb = gaussian_binomial(n, k)
        total += gb * gb * (1 << ((n - k) ** 2)) * mf_mfu_intersection(n, k)
    return total


def beta_lower(two_n: int) -> int:
    """(2^n - 1)^2 2^(3 2^(n-1) + 1) (2^(n-1))!, the dominant summand."""
    n = _check_two_n(two_n)
    return ((1 << n) - 1) ** 2 * (1 << (3 * (1 << (n - 1)) + 1)) * _fact(1 << (n - 1))


def beta_upper(two_n: int) -> int:
    """2^(3 2^(n-1) + 2n + 1) (2^(n-1))!, valid as a bound for n >= 5."""
    n = _check_two_n(two_n)
    return (1 << (3 * (1 << (n - 1)) + 2 * n + 1)) * _fact(1 << (n - 1))


def expected_m(two_n: int) -> Fraction:
    """Expected number of coset-series subspaces of a random MF function."""
    n = _check_two_n(two_n)
    return 1 + Fraction(beta(two_n), mf_size(n))


def mfc_bounds(two_n: int) -> tuple[int, int]:
    """(lower, upper) for the completed-class size; lower may be negative."""
    n = _check_two_n(two_n)
    gb = gaussian_binomial(two_n, n)
    upper = gb * mf_size(n)
    lower = upper - gb * beta(two_n)
    return lower, upper


def mfc_lower_closed(two_n: int) -> int:
    """The n >= 5 closed lower bound using beta_upper."""
    n = _check_two_n(two_n)
    return gaussian_binomial(two_n, n) * (mf_size(n) - beta_upper(two_n))


def near_mfc_upper(two_n: int) -> dict[str, Fraction]:
    """Upper bounds for the closest-bent set of the completed class.

    Valid for 2n >= 10: the tight bound (near_average - lambda) times the
    completed-class upper estimate, the coarse 4/3 2^2n + 29 version, and
    the matching extension-class bound with coefficient + 1.
    """
    n = _check_two_n(two_n)
    if two_n < 10:
        raise ValueError("bound requires 2n >= 10")
    upper = mfc_bounds(two_n)[1]
    coeff = near_average(n) - lambda_(two_n)
    coarse = Fraction(4, 3) * _pow2(two_n) + 29
    return {
        "near_mfc_tight": coeff * upper,
        "near_mfc_coarse": coarse * upper,
        "mfcsp_coarse": (coarse + 1) * upper,
    }


# ---------------------------------------------------------------------------
# rendering helpers


def decimal_str(x: Exact, places: int) -> str:
    """Exact decimal rendering with round-half-even at `places` digits."""
    fr = Fraction(x)
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scaled = fr * 10**places
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q & 1):
        q += 1
    s = str(q).rjust(places + 1, "0")
    return sign + (s[:-places] + "." + s[-places:] if places else s)


def log2_big(x: Exact) -> float:
    """log2 of a positive exact value; math.log2 is exact on big ints."""
    fr = Fraction(x)
    if fr <= 0:
        raise ValueError("log2 of a non-positive value")
    return math.log2(fr.numerator) - math.log2(fr.denominator)


@dataclass(frozen=True)
class CountReport:
    """One table cell or formula value with its rendered form."""

    label: str
    text: str
    exact: Optional[Exact] = None
    log2: Optional[float] = None
    source: str = "computed"

    def as_dict(self) -> dict:
        d: dict = {"label": self.label, "text": self.text, "source": self.source}
        if self.exact is not None:
            fr = Fraction(self.exact)
            d["exact"] = str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"
        if self.log2 is not None:
            d["log2"] = f"{self.log2:.6f}"
        return d


def _report(label: str, value: Exact, places: int = 6) -> CountReport:
    fr = Fraction(value)
    if fr.denominator == 1:
        text = str(fr.numerator)
    else:
        text = decimal_str(fr, places)
    log2 = log2_big(fr) if fr > 0 else None
    return CountReport(label, text, exact=value, log2=log2)


def _log2_report(label: str, value: Exact) -> CountReport:
    lg = log2_big(value)
    return CountReport(label, f"{lg:.6f}", exact=value, log2=lg)


def _lower_report(label: str, lower: int) -> CountReport:
    """A lower bound's cell: its log2, or "< 0" when it is not positive."""
    return _log2_report(label, lower) if lower > 0 else CountReport(label, "< 0", exact=lower)


# literature values for the all-bent-functions column (not computed here)
_BENT_TOTALS: dict[int, CountReport] = {
    2: CountReport("|B_2|", "8", exact=8, log2=3.0, source="external"),
    4: CountReport("|B_4|", "896", exact=896, log2=log2_big(896), source="external"),
    6: CountReport("|B_6|", "~2^32.337", exact=5425430528, log2=log2_big(5425430528), source="external"),
    8: CountReport("|B_8|", "~2^106.291", exact=None, log2=106.291, source="external"),
}


def table(table_id: int) -> list[CountReport]:
    """Reproduce the printed cells of tables 1-5."""
    if table_id == 1:
        # the 16-decimal columns exceed double precision by ~2 digits; the
        # published cells carry double-rounding artifacts there, so those
        # columns render through a float64 accumulation of the exact terms
        # while `exact` keeps the rational value
        out = []
        for two_n in range(8, 25, 2):
            n = two_n // 2
            terms = [_dim_term(n, k) for k in range(3, n + 1)]
            c1, c2 = terms[:2]  # sigma(n, 3) 2^8 and sigma(n, 4) 2^9
            tail = sum(terms[:-1], Fraction(0))  # near_average_tail(n)
            tail_f = 0.0
            for term in terms[:-1]:
                tail_f += float(term)
            out.append(_report(f"2n={two_n} sigma3*2^8", c1, places=6))
            c2_text = str(int(c2)) if c2.denominator == 1 else f"{float(c2):.16f}"
            out.append(CountReport(f"2n={two_n} sigma4*2^9", c2_text, exact=c2, log2=log2_big(c2)))
            out.append(CountReport(f"2n={two_n} tail", f"{tail_f:.16f}", exact=tail, log2=log2_big(tail)))
        return out
    if table_id == 2:
        out = []
        for two_n in (2, 4, 6, 8):
            n = two_n // 2
            for label, value in (
                (f"2n={two_n} |MF|", mf_size(n)),
                (f"2n={two_n} |near(MF)|", near_mf_size(n)),
                (f"2n={two_n} |MF#SP|", mfsp_size(n)),
            ):
                if two_n <= 4:
                    text = str(value)
                else:
                    text = f"~2^{log2_big(value):.3f}"
                out.append(
                    CountReport(label, text, exact=value, log2=log2_big(value) if value else None)
                )
            out.append(_BENT_TOTALS[two_n])
        return out
    if table_id == 3:
        out = []
        for two_n in range(2, 17, 2):
            ratio = expected_m(two_n) - 1
            label = f"2n={two_n} expected |M(f)|"
            if ratio.denominator == 1:
                text = str(1 + int(ratio))
            elif ratio >= 1:
                text = decimal_str(1 + ratio, 1)
            else:
                text = f"1 + 2^-{-log2_big(ratio):.6f}"
            out.append(CountReport(label, text, exact=1 + ratio, log2=log2_big(1 + ratio)))
        return out
    if table_id == 4:
        out = []
        for two_n in range(2, 17, 2):
            lower, upper = mfc_bounds(two_n)
            out.append(_lower_report(f"2n={two_n} lower", lower))
            out.append(_log2_report(f"2n={two_n} upper", upper))
        return out
    if table_id == 5:
        out = []
        for two_n in range(8, 17, 2):
            n = two_n // 2
            out.append(_log2_report(f"2n={two_n} beta", beta(two_n)))
            out.append(_log2_report(f"2n={two_n} beta_upper", beta_upper(two_n)))
            out.append(
                _log2_report(
                    f"2n={two_n} gb*beta", gaussian_binomial(two_n, n) * beta(two_n)
                )
            )
            out.append(_log2_report(f"2n={two_n} |MF|", mf_size(n)))
        return out
    raise ValueError("table id must be 1..5")


def formulas(two_n: int) -> list[CountReport]:
    """The formula panel emitted by the CLI for one 2n."""
    n = _check_two_n(two_n)
    out = [
        _report(f"2n={two_n} lambda", lambda_(two_n)),
        _report(f"2n={two_n} near_average", near_average(n)),
        _report(f"2n={two_n} |MF|", mf_size(n)),
        _report(f"2n={two_n} |near(MF)|", near_mf_size(n)),
        _report(f"2n={two_n} |MF#SP|", mfsp_size(n)),
        _report(f"2n={two_n} beta", beta(two_n)),
        _report(f"2n={two_n} expected_m", expected_m(two_n)),
    ]
    for k in range(2, n + 1):
        out.append(_report(f"2n={two_n} sigma(n,{k})", sigma(n, k)))
    lower, upper = mfc_bounds(two_n)
    out.append(_lower_report(f"2n={two_n} mfc_lower", lower))
    out.append(_log2_report(f"2n={two_n} mfc_upper", upper))
    if two_n >= 10:
        out += [_log2_report(f"2n={two_n} {key}", value) for key, value in near_mfc_upper(two_n).items()]
    return out
