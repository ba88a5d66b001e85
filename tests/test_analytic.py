"""Cyclic-word counting against enumeration, the subset DP, the former
memoized word DP and closed forms, and the packed polynomial product under
it against a naive convolution."""

from __future__ import annotations

import os
import random
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
    bipartite_cycle_counts,
    code_cycle_count,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    prob_Q_given_P,
    rooted_hamilton_permutations_general,
)
from cyclekit.counting import cycle_spectrum
from cyclekit.graphs import complete_multipartite, turan_class_sizes
from cyclekit.search import compositions_exact, partitions_at_most

from _oracles import (
    brute_code_count,
    partitions_exact,
    reference_cycle_spectrum_multipartite,
    reference_cyclic_word_count,
    reference_rooted_word_count,
    reference_spectrum_equal_classes,
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
                    assert code_cycle_count(comp, rooted=(i, j)) == brute_code_count(comp, (i, j))

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
        with pytest.raises(ValueError, match="rooted letters must differ"):
            code_cycle_count((2, 2), rooted=(1, 1))
        for rooted in [(0, 1), (1, 3), (-1, 2)]:
            with pytest.raises(ValueError, match="rooted letters out of range"):
                code_cycle_count((2, 2), rooted=rooted)
        with pytest.raises(ValueError, match="class sizes must be positive"):
            code_cycle_count((2, 0, 2), rooted=(1, 3))

    def test_rooted_letter_zero_is_not_the_last_letter(self):
        # a 0 must not be read as parts[-1]
        with pytest.raises(ValueError, match="rooted letters out of range"):
            analytic._rooted_word_count((2, 2), 0, 1)


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
                    direct = cycle_spectrum(complete_multipartite(comp)).get(total, 0)
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
        assert rooted_hamilton_permutations_general((1, 1, 1), 1, 2) == 1
        assert rooted_hamilton_permutations_general((1, 1, 1), 1, 3) == 1

    def test_double_counting_identity(self):
        # summing over the second class gives twice the Hamilton count
        for total in range(3, 13):
            for comp in partitions_at_most(total, 4):
                if len(comp) < 2:
                    continue
                for arranged in set(permutations(comp)):
                    total_rooted = sum(
                        rooted_hamilton_permutations_general(arranged, 1, j)
                        for j in range(2, len(arranged) + 1)
                    )
                    assert total_rooted == 2 * hamilton_multipartite(arranged)

    def test_matches_brute_force_permutation_count(self):
        # count orderings of the vertices of K_{2,2,2} directly
        comp = (2, 2, 2)
        g = complete_multipartite(comp)
        want = rooted_hamilton_permutations_general(comp, 1, 2)
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
        with pytest.raises(ValueError, match="rooted letters must differ"):
            rooted_hamilton_permutations_general((2, 2), 1, 1)
        with pytest.raises(ValueError, match="rooted letters out of range"):
            rooted_hamilton_permutations_general((2, 2), 1, 3)
        with pytest.raises(ValueError, match="rooted letters out of range"):
            rooted_hamilton_permutations_general((2, 2), 0, 1)


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
                                want = reference_rooted_word_count(comp, i, j)
                                assert code_cycle_count(comp, rooted=(i, j)) == want, (comp, i, j)


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
            closed = analytic._cyclic_sum(analytic._block_poly(r), r)
            assert closed == (-1) ** (r + 1) * factorial(r)


def _naive_product(polys):
    out = [1]
    for p in polys:
        grown = [0] * (len(out) + len(p) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(p):
                grown[i + j] += x * y
        out = grown
    return out


class TestPackedProduct:
    """Big-integer products of packed polynomials against a naive convolution."""

    def test_seeded_products(self):
        rng = random.Random(2009)
        for _ in range(400):
            polys = []
            for _ in range(rng.randint(1, 6)):
                bits = rng.choice((1, 8, 64, 300))
                length = rng.randint(1, 9)  # length 1 is a constant
                coeffs = [rng.getrandbits(bits) if rng.random() < 0.7 else 0 for _ in range(length)]
                coeffs[rng.randrange(length)] |= 1  # no factor may be 0
                polys.append(tuple(coeffs))
            assert analytic._poly_product(polys) == _naive_product(polys), polys

    @pytest.mark.parametrize(
        "polys",
        [
            [(0, 255)],  # the one coefficient fills its byte
            [(0, 15), (0, 17)],  # 255 from a product
            [(2**64 - 1, 0, 0), (1,)],  # eight full bytes
            [(1, 1)] * 8,  # coefficient sum 256: one bit past a byte
            [(255, 1), (1, 0, 1)],  # sum 512 with a full-byte coefficient
            [(7,)],
        ],
    )
    def test_slot_width_boundaries(self, polys):
        assert analytic._poly_product(polys) == _naive_product(polys)

    def test_slot_width_is_the_bound_in_bytes(self):
        assert analytic._slot_width(255) == 1
        assert analytic._slot_width(256) == 2
        assert analytic._slot_width(2**64 - 1) == 8
        for width in (1, 3, 8):
            top = 2 ** (8 * width) - 1
            coeffs = [top, 0, 1, top]
            assert analytic._unpack(analytic._pack(coeffs, width), width, 4) == coeffs

    def test_shift_unpacking_inverts_packing(self):
        # past 32 slots the unpacking halves the run before it shifts
        rng = random.Random(33)
        for length in (1, 2, 31, 32, 33, 64, 65, 130):
            for width in (1, 5, 40):
                coeffs = [rng.getrandbits(8 * width) for _ in range(length)]
                assert analytic._unpack(analytic._pack(coeffs, width), width, length) == coeffs

    @pytest.mark.parametrize("width, length", [(1, 1), (2, 3), (40, 33)])
    def test_too_wide_for_its_slots_raises(self, width, length):
        full = (1 << 8 * width * length) - 1
        assert analytic._unpack(full, width, length) == [(1 << 8 * width) - 1] * length
        with pytest.raises(ArithmeticError):
            analytic._unpack(full + 1, width, length)

    def test_too_wide_for_its_slots_raises_with_asserts_stripped(self):
        code = (
            "from cyclekit.analytic import _unpack\n"
            "for width, length in ((1, 1), (40, 33)):\n"
            "    try:\n"
            "        _unpack(1 << 8 * width * length, width, length)\n"
            "    except ArithmeticError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(analytic.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0


# n = 64 with few large classes, whose slots are the widest; seeded contents
# keep to four classes so that the sub-vector walk stays small, and equal
# classes go through the walk over how many classes give a vertices
SHAPES_AT_64 = [(60, 4), (32, 32), (22, 21, 21)]
EQUAL_CLASSES_AT_64 = [(1, 64), (2, 32)]


def _seeded_contents():
    rng = random.Random(64)
    out = []
    for _ in range(5):
        k = rng.randint(2, 4)
        n = rng.randint(40, 64)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        out.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [n])))
    return out


class TestAgainstReferenceUpTo64:
    """Word counts, rooted counts and spectra up to n = 64 against the
    memoized word DP and its sub-vector walk."""

    @pytest.mark.parametrize(
        "parts",
        SHAPES_AT_64 + _seeded_contents() + [(size,) * count for size, count in EQUAL_CLASSES_AT_64],
    )
    def test_word_and_rooted_counts(self, parts):
        assert code_cycle_count(parts) == reference_cyclic_word_count(parts)
        k = len(parts)
        pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
        for i, j in pairs[:6]:
            assert code_cycle_count(parts, rooted=(i, j)) == reference_rooted_word_count(parts, i, j), (i, j)

    @pytest.mark.parametrize("parts", SHAPES_AT_64 + _seeded_contents())
    def test_spectra(self, parts):
        assert cycle_spectrum_multipartite(parts) == reference_cycle_spectrum_multipartite(parts)

    @pytest.mark.parametrize("size, count", EQUAL_CLASSES_AT_64)
    def test_spectra_of_equal_classes(self, size, count):
        want = reference_spectrum_equal_classes(size, count)
        assert cycle_spectrum_multipartite((size,) * count) == want

    @pytest.mark.parametrize("size, count", [(1, 8), (2, 5), (3, 3), (5, 2)])
    def test_equal_class_oracle_matches_the_sub_vector_walk(self, size, count):
        parts = (size,) * count
        want = reference_cycle_spectrum_multipartite(parts)
        assert reference_spectrum_equal_classes(size, count) == want


class TestWordCountMemo:
    def test_one_suite_computes_each_content_once(self, capsys):
        # the 4096-entry memo recorded 6,292 misses for this suite's 5,324
        # distinct contents: 968 counts were computed again after eviction
        from cyclekit.cli import main

        # and each reduced probability once, though 9,455 cases ask for one
        analytic._word_count.cache_clear()
        analytic.reduced_prob_Q_given_P.cache_clear()
        assert main(["verify", "major", "--n-max", "30", "--k-max", "5"]) == 0
        capsys.readouterr()
        for memo in (analytic._word_count, analytic.reduced_prob_Q_given_P):
            info = memo.cache_info()
            assert info.misses == info.currsize == 5324


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

    def test_inexact_closure_raises(self, monkeypatch):
        # one block too many at t^1 for the class of three copies leaves a
        # remainder modulo the scale 3!^2 of the contents (3, 3)
        block = analytic._block_poly(3)
        bumped = (0, block[1] + 1) + block[2:]
        monkeypatch.setattr(analytic, "_block_poly", lambda c: bumped)
        for rooted in (None, (0, 1)):
            with pytest.raises(ArithmeticError):
                analytic._word_count.__wrapped__((3, 3), rooted)

    def test_inexact_closure_raises_with_asserts_stripped(self):
        code = (
            "from cyclekit import analytic\n"
            "block = analytic._block_poly(3)\n"
            "analytic._block_poly = lambda c: (0, block[1] + 1) + block[2:]\n"
            "for rooted in (None, (0, 1)):\n"
            "    try:\n"
            "        analytic._word_count.__wrapped__((3, 3), rooted)\n"
            "    except ArithmeticError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(analytic.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0

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
