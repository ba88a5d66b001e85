"""Cyclic-word counting against enumeration, the subset DP, the former
memoized word DP and closed forms."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclekit import analytic
from cyclekit.analytic import (
    CodeClassSpec,
    bipartite_cycle_counts,
    code_cycle_count,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    prob_Q_given_P,
    rooted_hamilton_permutations,
    rooted_hamilton_permutations_general,
)
from cyclekit.counting import count_hamilton, cycle_spectrum
from cyclekit.graphs import complete_multipartite, turan_class_sizes
from cyclekit.search import compositions_exact, partitions_at_most

from _oracles import (
    brute_code_count,
    partitions_exact,
    reference_cycle_spectrum_multipartite,
    reference_cyclic_word_count,
    reference_rooted_word_count,
)


compositions = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


class TestCodeCounts:
    def test_frozen_small_cases(self):
        assert code_cycle_count((1, 1, 1)) == 6
        assert code_cycle_count((2, 2)) == 2
        assert code_cycle_count((2, 1, 1)) == 4
        assert code_cycle_count((3, 1)) == 0

    def test_against_enumeration(self):
        for n in range(1, 9):
            for k in range(1, 4):
                for comp in partitions_exact(n, k):
                    for arranged in set(permutations(comp)):
                        assert code_cycle_count(arranged) == brute_code_count(arranged)

    def test_rooted_against_enumeration(self):
        for comp in [(2, 2), (2, 1, 1), (3, 2, 2), (2, 2, 2), (3, 3, 1), (4, 2, 2)]:
            k = len(comp)
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    if i == j:
                        continue
                    spec = CodeClassSpec(content=comp, rooted=(i, j))
                    assert code_cycle_count(spec) == brute_code_count(comp, (i, j))

    def test_cyclic_smirnov_total_identity(self):
        # summing over all contents must give (k-1)^n + (-1)^n (k-1)
        for k in (2, 3, 4):
            for n in range(2, 9):
                total = 0
                for comp in partitions_at_most(n, k):
                    padded = comp + (0,) * (k - len(comp))
                    for arranged in set(permutations(padded)):
                        total += code_cycle_count(tuple(x for x in arranged if x))
                assert total == (k - 1) ** n + (-1) ** n * (k - 1)

    def test_vanishes_when_one_letter_dominates(self):
        for n in range(2, 11):
            for comp in partitions_at_most(n, 4):
                if max(comp) > n // 2:
                    assert code_cycle_count(comp) == 0, comp

    @settings(max_examples=60, deadline=None)
    @given(compositions, st.randoms(use_true_random=False))
    def test_symmetry_under_letter_permutation(self, comp, rnd):
        arranged = list(comp)
        rnd.shuffle(arranged)
        assert code_cycle_count(tuple(arranged)) == code_cycle_count(tuple(comp))

    def test_rooted_validation(self):
        with pytest.raises(ValueError):
            CodeClassSpec(content=(2, 2), rooted=(1, 1))
        with pytest.raises(ValueError):
            CodeClassSpec(content=(2, 2), rooted=(0, 1))


class TestProbabilities:
    def test_frozen(self):
        assert prob_Q_given_P((2, 2)) == Fraction(1, 3)
        assert prob_Q_given_P((1, 1, 1)) == 1
        assert prob_Q_given_P((3, 1)) == 0

    def test_range(self):
        for comp in [(2, 2, 2), (3, 3), (4, 2, 1), (1, 1, 1, 1)]:
            p = prob_Q_given_P(comp)
            assert 0 <= p <= 1


class TestHamilton:
    def test_frozen(self):
        assert hamilton_multipartite((1, 1, 1)) == 1
        assert hamilton_multipartite((2, 2)) == 1
        assert hamilton_multipartite((2, 1, 1)) == 1
        assert hamilton_multipartite((2, 2, 2)) == 16

    def test_oracle_equality_all_small_compositions(self):
        for total in range(3, 11):
            for k in range(1, 5):
                for comp in partitions_exact(total, k):
                    analytic = hamilton_multipartite(comp)
                    direct = count_hamilton(complete_multipartite(comp))
                    assert analytic == direct, comp

    def test_divisibility_self_check_never_fires(self):
        for total in range(3, 13):
            for comp in partitions_at_most(total, 4):
                hamilton_multipartite(comp)  # raises ArithmeticError on failure

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            hamilton_multipartite((1, 1))


class TestRootedPermutations:
    def test_single_vertices(self):
        assert rooted_hamilton_permutations((1, 1, 1), 2) == 1
        assert rooted_hamilton_permutations((1, 1, 1), 3) == 1

    def test_double_counting_identity(self):
        # summing over the second class gives twice the Hamilton count
        for total in range(3, 13):
            for comp in partitions_at_most(total, 4):
                if len(comp) < 2:
                    continue
                for arranged in set(permutations(comp)):
                    total_rooted = sum(
                        rooted_hamilton_permutations(arranged, j)
                        for j in range(2, len(arranged) + 1)
                    )
                    assert total_rooted == 2 * hamilton_multipartite(arranged)

    def test_matches_brute_force_permutation_count(self):
        # count orderings of the vertices of K_{2,2,2} directly
        comp = (2, 2, 2)
        g = complete_multipartite(comp)
        want = rooted_hamilton_permutations(comp, 2)
        count = 0
        # class 1 = vertices {0,1}, class 2 = {2,3}; root fixed at vertex 0
        for perm in permutations(range(1, 6)):
            walk = (0,) + perm
            if walk[1] not in (2, 3):
                continue
            if all(g.has_edge(walk[i], walk[(i + 1) % 6]) for i in range(6)):
                count += 1
        assert count == want

    def test_general_form_agrees_after_permuting(self):
        comp = (3, 2, 2)
        moved = (2, 3, 2)  # swap classes 1 and 2
        assert rooted_hamilton_permutations_general(
            comp, 1, 2
        ) == rooted_hamilton_permutations_general(moved, 2, 1)

    def test_rejects_root_as_target(self):
        with pytest.raises(ValueError):
            rooted_hamilton_permutations((2, 2), 1)
        with pytest.raises(ValueError):
            rooted_hamilton_permutations((2, 2), 3)


class TestSpectra:
    def test_frozen(self):
        assert cycle_spectrum_multipartite((2, 2)) == {4: 1}
        assert cycle_spectrum_multipartite((2, 3)) == {4: 3}

    def test_oracle_equality(self):
        for total in range(3, 11):
            for k in range(1, 5):
                for comp in partitions_exact(total, k):
                    assert cycle_spectrum_multipartite(comp) == cycle_spectrum(
                        complete_multipartite(comp)
                    ), comp

    def test_bipartite_closed_form_frozen(self):
        assert bipartite_cycle_counts(4) == ({4: 1}, 1)
        assert bipartite_cycle_counts(5) == ({4: 3}, 3)
        spectrum, total = bipartite_cycle_counts(7)
        assert spectrum[6] == 24
        assert spectrum == {4: 18, 6: 24}
        assert total == 42

    def test_bipartite_matches_analytic_spectrum(self):
        for n in range(4, 15):
            spectrum, total = bipartite_cycle_counts(n)
            analytic = cycle_spectrum_multipartite(turan_class_sizes(n, 2))
            assert spectrum == analytic
            assert total == sum(analytic.values())

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bipartite_cycle_counts(3)


class TestAgainstReferenceDP:
    """The generating-function kernel equals the memoized word DP it replaced."""

    def test_cyclic_counts(self):
        for n in range(1, 13):
            for k in range(1, 6):
                for comp in compositions_exact(n, k):
                    assert code_cycle_count(comp) == reference_cyclic_word_count(comp), comp

    def test_spectra(self):
        for n in range(3, 11):
            for k in range(1, 5):
                for comp in compositions_exact(n, k):
                    want = reference_cycle_spectrum_multipartite(comp)
                    assert cycle_spectrum_multipartite(comp) == want, comp

    def test_every_rooted_pair(self):
        for n in range(2, 11):
            for k in range(2, 5):
                for comp in compositions_exact(n, k):
                    for i in range(1, k + 1):
                        for j in range(1, k + 1):
                            if i != j:
                                spec = CodeClassSpec(content=comp, rooted=(i, j))
                                want = reference_rooted_word_count(comp, i, j)
                                assert code_cycle_count(spec) == want, (comp, i, j)


class TestClosedForms:
    @pytest.mark.parametrize("n", [40, 64])
    def test_complete_graph_spectrum(self, n):
        want = {r: comb(n, r) * factorial(r - 1) // 2 for r in range(3, n + 1)}
        assert cycle_spectrum_multipartite((1,) * n) == want

    def test_balanced_bipartite_at_64(self):
        spectrum, _ = bipartite_cycle_counts(64)
        assert cycle_spectrum_multipartite((32, 32)) == spectrum

    def test_cap_is_the_class_vector_limit(self):
        with pytest.raises(ValueError):
            cycle_spectrum_multipartite((1,) * 65)

    def test_one_letter_closure_is_not_zero(self):
        # the spectrum subtracts these one-class terms; they alternate in sign
        for r in range(1, 12):
            assert analytic._cyclic_closure(analytic._class_egf(r), r) == (-1) ** (r + 1)


class TestDivisionChecks:
    def test_remainder_raises(self):
        with pytest.raises(ArithmeticError):
            analytic._exact_div(7, 2, "seven halves")
        assert analytic._exact_div(8, 2, "eight halves") == 4

    def test_remainder_in_hamilton_count_raises(self, monkeypatch):
        # K_{2,2,2} has 24 * 2!^3 / 12 = 16 Hamilton cycles; with one word
        # fewer, 23 * 8 leaves a remainder modulo 2n = 12
        monkeypatch.setattr(analytic, "_cyclic_word_count", lambda parts: 23)
        with pytest.raises(ArithmeticError):
            hamilton_multipartite((2, 2, 2))

    def test_remainder_raises_with_asserts_stripped(self):
        code = (
            "from cyclekit.analytic import _exact_div\n"
            "try:\n"
            "    _exact_div(7, 2, 'seven halves')\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(analytic.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0
