"""Bound expressions, the path-product optimizer, and the inequality suites."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from cyclekit import bounds
from cyclekit.bounds import (
    PATH_BOUND_CAP,
    _ln,
    check_bipartite_decay,
    check_recursion,
    check_total_to_hamilton,
    EXP_TERMS,
    exp_bounds,
    path_bound_exhaustive,
    path_bound_structured,
    report_asymptotic_ratio,
)
from cyclekit.graphs import turan_edge_count

from _oracles import brute_path_product_max, reference_path_bound_exhaustive


def _mp_ln(value):
    """The display log as it was computed before the fixed-point series."""
    with mp.workdps(60):
        return float(mp.log(mp.mpf(value.numerator)) - mp.log(mp.mpf(value.denominator)))


class TestLn:
    def _assert_matches_mpmath(self, values):
        for value in values:
            assert repr(_ln(value)) == repr(_mp_ln(value)), value

    def test_huge_ints(self):
        rng = random.Random(20)
        values = [rng.randrange(2, 10 ** rng.randrange(1, 401)) for _ in range(300)]
        self._assert_matches_mpmath(values + [2, 3, 10**400, 2**1000, 2**1000 - 1])

    def test_fractions_with_huge_terms(self):
        rng = random.Random(21)
        values = [Fraction(rng.randrange(1, 10 ** rng.randrange(1, 301)), rng.randrange(1, 10 ** rng.randrange(1, 301)))
                  for _ in range(300)]
        self._assert_matches_mpmath(values + [Fraction(1, 10**400), Fraction(3, 4), Fraction(4, 3)])

    def test_fractions_near_one(self):
        rng = random.Random(22)
        values = [Fraction(10**40 + d, 10**40) for d in range(-9, 10) if d]
        for _ in range(100):
            den = rng.randrange(10**40, 10**41)
            values.append(Fraction(den + rng.choice((-1, 1)), den))
        self._assert_matches_mpmath(values)

    def test_one_is_exactly_zero(self):
        for one in (1, Fraction(1), Fraction(10**50, 10**50)):
            assert repr(_ln(one)) == "0.0"

    def test_nonpositive_has_no_log(self):
        for value in (0, -1, -(10**400), Fraction(0), Fraction(-3, 7)):
            assert _ln(value) is None


def test_importing_the_cli_leaves_mpmath_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(bounds.__file__).parents[1])}
    code = "import sys, cyclekit.cli; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestExpBounds:
    def test_brackets_true_value(self):
        for x in (Fraction(1), Fraction(6), Fraction(8, 3), Fraction(1, 7)):
            lo, hi = exp_bounds(x)
            assert lo <= hi
            with mp.workdps(60):
                truth = mp.exp(mp.mpf(x.numerator) / x.denominator)
                assert mp.mpf(lo.numerator) / lo.denominator <= truth
                assert truth <= mp.mpf(hi.numerator) / hi.denominator
            assert float(hi - lo) < 1e-12 * float(hi)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exp_bounds(Fraction(-1))

    def test_rejects_x_past_the_tail_majorant(self):
        exp_bounds(Fraction(EXP_TERMS + 2) - Fraction(1, 10))
        with pytest.raises(ValueError, match=f"x < {EXP_TERMS + 2}"):
            exp_bounds(Fraction(EXP_TERMS + 2))


class TestPathBoundExhaustive:
    @staticmethod
    def _k3_table(n):
        """ex(t) for triangle-free graphs, floor(t^2/4) by Mantel's theorem."""
        return {t: t * t // 4 for t in range(2, n + 1)}

    def test_small_case_recomputed(self):
        # brute-force optimum for n=5, m=6 under the triangle-free table;
        # the optimal sequence is (0,0,3,3) with value 9
        brute = brute_path_product_max(5, 6, self._k3_table(5))
        assert brute == 9
        assert path_bound_exhaustive(5, 6, 2) == brute

    def test_zero_budget(self):
        assert path_bound_exhaustive(5, 0, 2) == 1

    def test_budget_above_prefix_caps(self):
        assert path_bound_exhaustive(4, 100, 2) == brute_path_product_max(4, 100, self._k3_table(4))
        assert path_bound_exhaustive(4, 100, 2) == 4

    def test_matches_brute_force_on_grid(self):
        for n in range(2, 7):
            for m in range(0, turan_edge_count(n, 2) + 3):
                assert path_bound_exhaustive(n, m, 2) == brute_path_product_max(
                    n, m, self._k3_table(n)
                )

    def test_matches_the_per_budget_recursion(self):
        for k in (2, 3, 4):
            for n in range(2, (PATH_BOUND_CAP if k == 2 else 12) + 1):
                for m in range(0, turan_edge_count(n, min(k, n)) + 3):
                    assert path_bound_exhaustive(n, m, k) == reference_path_bound_exhaustive(n, m, k), (n, m, k)

    def test_cap(self):
        with pytest.raises(ValueError):
            path_bound_exhaustive(15, 3, 2)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="nonnegative"):
            path_bound_exhaustive(5, -1, 2)


class TestPathBoundStructured:
    def test_dominated_by_exhaustive_on_grid(self):
        for n in range(6, 13):
            for m in range(0, turan_edge_count(n, 2) + 1):
                s = path_bound_structured(n, m, 2, 5)
                assert s.value <= path_bound_exhaustive(n, m, 2), (n, m)

    def test_flat_tail_position_in_claim_regime(self):
        # when the budget leaves 10n slack the flat tail starts by n-2
        n, k = 60, 2
        m = turan_edge_count(n, 2) - 10 * n
        s = path_bound_structured(n, m, k, 5)
        assert not s.truncated
        assert s.flat_start is not None and s.flat_start <= n - 2

    def test_truncation_flagged(self):
        s = path_bound_structured(12, 3, 2, 5)
        assert s.truncated
        s2 = path_bound_structured(12, 8, 2, 5)
        assert s2.truncated  # head funded, no increment step fits

    def test_rejects_bad_n0(self):
        with pytest.raises(ValueError):
            path_bound_structured(5, 6, 2, 5)
        with pytest.raises(ValueError):
            path_bound_structured(5, 6, 2, 1)


class TestInequalitySuites:
    def test_recursion_example(self):
        rep = check_recursion(6, 3, 1)
        assert rep.holds
        assert rep.lhs == 16
        assert rep.rhs == Fraction(20, 3)

    def test_recursion_zero_shift_degenerate(self):
        rep = check_recursion(8, 3, 0)
        assert rep.holds
        assert rep.lhs == rep.rhs

    def test_recursion_grid(self):
        for k in (3, 4):
            for n in range(4, 31):
                for i in range(0, 6):
                    if n - i < 3:
                        continue
                    assert check_recursion(n, k, i).holds, (n, k, i)

    def test_total_to_hamilton_examples(self):
        assert check_total_to_hamilton(6, 3).holds
        assert check_total_to_hamilton(9, 3).holds

    def test_total_to_hamilton_grid(self):
        for k in (3, 4):
            for n in range(3, 31):
                assert check_total_to_hamilton(n, k).holds, (n, k)

    def test_total_to_hamilton_rejects_k2(self):
        with pytest.raises(ValueError):
            check_total_to_hamilton(8, 2)

    def test_bipartite_decay_examples(self):
        assert check_bipartite_decay(10, 0).holds
        assert check_bipartite_decay(12, 2).holds

    def test_bipartite_decay_grid(self):
        for n in range(4, 31):
            for i in range(0, 5):
                if n - i < 4:
                    continue
                assert check_bipartite_decay(n, i).holds, (n, i)

    def test_bipartite_decay_rejects_tiny_remainder(self):
        with pytest.raises(ValueError):
            check_bipartite_decay(10, 7)

    def test_csv_row_shape(self):
        rep = check_recursion(6, 3, 1)
        row = rep.to_csv_row()
        assert row.startswith("recursion,6,,3,1,")
        assert row.endswith(",true")


class TestAsymptoticRatios:
    def test_bipartite_ratio_near_one(self):
        for n in (20, 33, 47, 60):
            ratio = report_asymptotic_ratio(n, 2).detail["ratio"]
            assert 0.5 < ratio < 2

    def test_bipartite_window_on_large_range(self):
        for n in range(30, 61):
            ratio = report_asymptotic_ratio(n, 2).detail["ratio"]
            assert 0.8 < ratio < 1.25, n

    def test_hamilton_ratio_positive(self):
        ratio = report_asymptotic_ratio(15, 3).detail["ratio"]
        assert ratio > 0

    def test_never_asserts(self):
        assert report_asymptotic_ratio(12, 2).holds is None
