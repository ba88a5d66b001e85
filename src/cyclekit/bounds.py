"""Finite-size evaluation of the cycle-count bound expressions and exact
inequality checks between Turán-graph cycle and Hamilton counts.

Asymptotic statements carry unspecified constants; the reports here expose
the constant-free expressions and certify only inequalities whose two sides
are exact (integers, rationals, or transcendental factors replaced by
directed rational bounds rounded against the inequality).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import perm

import mpmath as mp

from .analytic import (
    bipartite_cycle_counts,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
)
from .graphs import turan_class_sizes, turan_edge_count
from .search import VerifyReport

WORK_DPS = 60
PATH_BOUND_CAP = 14
EXP_TERMS = 40  # Taylor terms that exp_bounds sums before it bounds the tail


def _tk(t: int, k: int) -> int:
    """Edge count of the k-class Turán graph on t vertices (complete for t <= k)."""
    if t <= 1:
        return 0
    return turan_edge_count(t, min(k, t))


def _balanced_hamilton(n: int, k: int) -> int:
    # T_k(n) degenerates to the complete graph when n <= k
    return hamilton_multipartite(turan_class_sizes(n, min(k, n)))


@lru_cache(maxsize=256)
def _bipartite_top_and_total(n: int) -> tuple[int, int]:
    """Longest even cycle count and total cycle count of T_2(n)."""
    spectrum, total = bipartite_cycle_counts(n)
    return spectrum[2 * (n // 2)], total


def _ln(value: int | Fraction) -> float | None:
    """Natural log as a float, exact-input safe for huge ints and Fractions
    (an int is its own numerator over 1, and ln 1 is exactly 0)."""
    if value <= 0:
        return None
    with mp.workdps(WORK_DPS):
        return float(mp.log(mp.mpf(value.numerator)) - mp.log(mp.mpf(value.denominator)))


@lru_cache(maxsize=64)
def exp_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lower and upper bounds for e^x, 0 <= x < ``EXP_TERMS`` + 2,
    via the Taylor tail.

    The lower bound is the partial sum of ``EXP_TERMS`` terms; the upper
    bound adds the geometric majorant of the tail, which needs
    x < ``EXP_TERMS`` + 2.  Memoized: the checks ask for the same few
    constants in every case.
    """
    if x < 0:
        raise ValueError("nonnegative arguments only")
    if x >= EXP_TERMS + 2:
        raise ValueError(f"the tail majorant needs x < {EXP_TERMS + 2}, got {x}")
    term = Fraction(1)
    partial = Fraction(1)
    for i in range(1, EXP_TERMS + 1):
        term *= Fraction(x, i)
        partial += term
    tail = term * Fraction(x, EXP_TERMS + 1) / (1 - Fraction(x, EXP_TERMS + 2))
    return partial, partial + tail


@dataclass
class BoundReport:
    """One evaluated inequality or ratio: lhs `direction` rhs.

    ``holds`` is None for report-only quantities (no inequality asserted).
    """

    name: str
    params: dict
    lhs: object
    rhs: object
    direction: str = "<="
    lhs_log: float | None = None
    rhs_log: float | None = None
    holds: bool | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "direction": self.direction,
            "lhs_log": self.lhs_log,
            "rhs_log": self.rhs_log,
            "holds": self.holds,
            "detail": {k: str(v) for k, v in self.detail.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    CSV_HEADER = "name,n,m,k,i,lhs_log,rhs_log,holds"

    def to_csv_row(self) -> str:
        cells = [self.name]
        for key in ("n", "m", "k", "i"):
            cells.append(str(self.params.get(key, "")))
        cells.append("" if self.lhs_log is None else repr(self.lhs_log))
        cells.append("" if self.rhs_log is None else repr(self.rhs_log))
        cells.append("" if self.holds is None else str(self.holds).lower())
        return ",".join(cells)


# ---------------------------------------------------------------------------
# Path-product optimizer
# ---------------------------------------------------------------------------


def path_bound_exhaustive(n: int, m: int, k: int) -> int:
    """Exact maximum of prod_{i=2..n} max(r_i, 1) over nonnegative integer
    sequences with sum <= m and every prefix sum_{i=2..t} r_i <= ex(t), where
    ex(t) = t_k(t), the K_{k+1}-free edge maximum by Turán's theorem.

    Memoized on (position, budget used); position caps come from the prefix
    constraints, so the state space is tiny at desk scale.
    """
    if n > PATH_BOUND_CAP:
        raise ValueError(f"exhaustive optimizer capped at {PATH_BOUND_CAP}")
    if n < 2:
        return 1
    ex = [_tk(t, k) for t in range(n + 1)]
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i > n:
            return 1
        key = (i, used)
        if key in memo:
            return memo[key]
        cap = min(ex[i] - used, m - used)
        out = 0
        for r in range(cap + 1):
            out = max(out, max(r, 1) * best(i + 1, used + r))
        memo[key] = out
        return out

    return best(2, 0)


@dataclass(frozen=True)
class StructuredBound:
    """Value of the structured candidate sequence for the path-product bound."""

    value: Fraction
    flat_start: int | None  # position I where the flat tail begins
    truncated: bool  # budget too small for the full structure


def path_bound_structured(n: int, m: int, k: int, n0: int) -> StructuredBound:
    """Product value of the structured sequence: a constant head of value
    t_k(n0)/(n0-1) on positions 2..n0, Turán edge increments on positions
    n0+1..I, and a flat tail in {r_I, r_I+1} consuming the rest of m.

    If the budget cannot fund the structure, the feasible truncation is
    returned with ``truncated=True``.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not 2 <= n0 < n:
        raise ValueError("need 2 <= n0 < n")
    if m < 0:
        raise ValueError("budget must be nonnegative")
    head = Fraction(_tk(n0, k), n0 - 1)
    head_value = max(head, Fraction(1)) ** (n0 - 1)
    if m < _tk(n0, k):
        q = Fraction(m, n0 - 1)
        return StructuredBound(max(q, Fraction(1)) ** (n0 - 1), None, True)

    increments = {i: _tk(i, k) - _tk(i - 1, k) for i in range(n0 + 1, n + 1)}
    flat_start = None
    for cand in range(n0 + 1, n + 1):
        if _tk(cand, k) + (n - cand) * increments[cand] <= m:
            flat_start = cand
        else:
            break

    if flat_start is None:
        # head fits but no increment step does: spread the leftover evenly
        budget = m - _tk(n0, k)
        slots = n - n0
        base, extras = divmod(budget, slots)
        value = head_value
        value *= max(base, 1) ** (slots - extras) * max(base + 1, 1) ** extras
        return StructuredBound(value, None, True)

    i_pos = flat_start
    value = head_value
    for i in range(n0 + 1, i_pos + 1):
        value *= increments[i]
    r_flat = increments[i_pos]
    tail = n - i_pos
    if tail:
        extras = min(tail, m - _tk(i_pos, k) - tail * r_flat)
        value *= r_flat ** (tail - extras) * (r_flat + 1) ** extras
    if m <= _tk(n, k) - 10 * n and i_pos > n - 2:
        raise ArithmeticError(
            f"flat tail should start by n-2 when m <= t_k(n) - 10n (got I={i_pos})"
        )
    return StructuredBound(value, i_pos, False)


def verify_path_bound(n: int, n0: int) -> VerifyReport:
    """The structured sequence against the exhaustive optimum for the T_2
    edge table, one case per budget m = 0..t_2(n); each asserts
    structured <= exhaustive."""
    report = VerifyReport(name="ref3count", params={"n": n})
    for m in range(turan_edge_count(n, 2) + 1):
        structured = path_bound_structured(n, m, 2, n0)
        exhaustive = path_bound_exhaustive(n, m, 2)
        ok = structured.value <= exhaustive
        report.cases.append({"m": m, "structured": str(structured.value),
                             "exhaustive": str(exhaustive), "truncated": structured.truncated, "ok": ok})
        if not ok:
            report.failures += 1
    report.passed = report.failures == 0
    return report


# ---------------------------------------------------------------------------
# Exact inequality checks
# ---------------------------------------------------------------------------


def check_recursion(n: int, k: int, i: int) -> BoundReport:
    """h(T_k(n)) >= (n-1)_i ((k-2)/k)^i h(T_k(n-i)), exact in rationals."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if i < 0 or n - i < 3:
        raise ValueError("need i >= 0 and n - i >= 3")
    lhs = _balanced_hamilton(n, k)
    rhs = Fraction(
        perm(n - 1, i) * (k - 2) ** i * _balanced_hamilton(n - i, k),
        k**i,
    )
    return BoundReport(
        name="recursion",
        params={"n": n, "k": k, "i": i},
        lhs=lhs,
        rhs=rhs,
        direction=">=",
        lhs_log=_ln(lhs),
        rhs_log=_ln(rhs),
        holds=lhs >= rhs,
    )


def check_total_to_hamilton(n: int, k: int) -> BoundReport:
    """c(T_k(n)) <= e^(2k/(k-2)) h(T_k(n)); the factor is rounded down so a
    True verdict is rigorous."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < 3:
        raise ValueError("need n >= 3")
    spectrum = cycle_spectrum_multipartite(turan_class_sizes(n, min(k, n)))
    total = sum(spectrum.values())
    ham = spectrum[n]
    lo, hi = exp_bounds(Fraction(2 * k, k - 2))
    rhs = lo * ham
    return BoundReport(
        name="secondcount",
        params={"n": n, "k": k},
        lhs=total,
        rhs=rhs,
        direction="<=",
        lhs_log=_ln(total),
        rhs_log=_ln(rhs),
        holds=total <= rhs,
        detail={"factor_lower": lo, "factor_upper": hi, "hamilton": ham},
    )


def check_bipartite_decay(n: int, i: int) -> BoundReport:
    """c(T_2(n-i)) <= 2e (4/n)^i c_{2 floor(n/2)}(T_2(n)), e rounded down."""
    if i < 0 or n - i < 4:
        raise ValueError("need i >= 0 and n - i >= 4")
    _, lhs = _bipartite_top_and_total(n - i)
    top, _ = _bipartite_top_and_total(n)
    e_lo, e_hi = exp_bounds(Fraction(1))
    rhs = 2 * e_lo * Fraction(4, n) ** i * top
    return BoundReport(
        name="second2count",
        params={"n": n, "i": i},
        lhs=lhs,
        rhs=rhs,
        direction="<=",
        lhs_log=_ln(lhs),
        rhs_log=_ln(rhs),
        holds=lhs <= rhs,
        detail={"e_lower": e_lo, "e_upper": e_hi, "top_count": top},
    )


def report_asymptotic_ratio(n: int, k: int) -> BoundReport:
    """Exact count divided by its asymptotic form; reported, never asserted.

    k = 2: longest even cycle count of T_2(n) against pi 2^-n n^n e^-n.
    k >= 3: h(T_k(n)) against ((k-1)/k)^n n^(n-1/2) e^-n.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    with mp.workdps(WORK_DPS):
        if k == 2:
            exact, _ = _bipartite_top_and_total(n)
            denom_log = mp.log(mp.pi) - n * mp.log(2) + n * mp.log(n) - n
            name = "kkmain-bipartite"
        elif k >= 3:
            exact = _balanced_hamilton(n, k)
            denom_log = (
                n * mp.log(mp.mpf(k - 1) / k) + (n - mp.mpf(1) / 2) * mp.log(n) - n
            )
            name = "kkmain-hamilton"
        else:
            raise ValueError("k must be >= 2")
        ratio = mp.exp(mp.log(mp.mpf(exact)) - denom_log)
    return BoundReport(
        name=name,
        params={"n": n, "k": k},
        lhs=exact,
        rhs=mp.nstr(mp.exp(denom_log), 30),
        direction="ratio",
        lhs_log=_ln(exact),
        rhs_log=float(denom_log),
        holds=None,
        detail={"ratio": float(ratio)},
    )
