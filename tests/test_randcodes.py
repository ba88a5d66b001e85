"""Monte Carlo estimators against exact values, and seeded determinism."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cyclekit.analytic import code_cycle_count
from cyclekit.graphs import turan_class_sizes
from cyclekit.randcodes import (
    _INT32_K_MAX,
    EVENTS,
    _chunk_rows,
    _draw,
    _rng,
    estimate_prob,
    exact_prob,
)
from cyclekit.search import partitions_at_most

from _oracles import reference_estimate_hits


def exact_q_probability(n: int, k: int) -> Fraction:
    return Fraction((k - 1) ** n + (-1) ** n * (k - 1), k**n)


def multinomial_probability(n: int, k: int, content: tuple[int, ...]) -> Fraction:
    from math import factorial

    ways = factorial(n)
    for c in content:
        ways //= factorial(c)
    return Fraction(ways, k**n)


class TestEstimates:
    def test_q_frequency_matches_enumeration(self):
        est = estimate_prob(4, 2, "Q", 200_000, 7)
        exact = float(exact_q_probability(4, 2))  # 2/16
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_content_frequency_matches_multinomial(self):
        est = estimate_prob(4, 2, "P", 200_000, 7, content=(2, 2))
        exact = float(multinomial_probability(4, 2, (2, 2)))  # 6/16
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_joint_frequency_matches_enumeration(self):
        est = estimate_prob(4, 2, "QP", 200_000, 7, content=(2, 2))
        exact = code_cycle_count((2, 2)) / 2**4
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_three_letter_q(self):
        est = estimate_prob(3, 3, "Q", 200_000, 11)
        assert abs(est.estimate - 6 / 27) < 4 * est.stderr

    def test_deterministic(self):
        a = estimate_prob(6, 3, "Q", 50_000, 123)
        b = estimate_prob(6, 3, "Q", 50_000, 123)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_prob(4, 2, "bogus", 10, 0)
        with pytest.raises(ValueError):
            estimate_prob(4, 2, "P", 10, 0)  # missing content
        with pytest.raises(ValueError):
            estimate_prob(4, 2, "P", 10, 0, content=(3, 2))  # wrong sum
        with pytest.raises(ValueError):
            estimate_prob(6, 2, "P", 10, 0, content=(2, 2, 2))  # more parts than letters
        with pytest.raises(ValueError):
            estimate_prob(4, 2, "QP", 10, 0, content=(5, -1))  # negative part
        with pytest.raises(ValueError):
            estimate_prob(4, 2, "Q", 0, 0)

    @pytest.mark.parametrize("n, k", [(0, 3), (-1, 3), (4, 0), (4, -2)])
    def test_rejects_empty_words_and_alphabets(self, n, k):
        # n = 0 used to give an exact Q probability of k, k = 0 numpy's "low >= high"
        for call in (lambda: estimate_prob(n, k, "Q", 10, 0), lambda: exact_prob(n, k, "Q")):
            with pytest.raises(ValueError, match="at least one letter"):
                call()

    @pytest.mark.parametrize("content", [(9, 9), (2, 2)])
    def test_q_takes_no_content(self, content):
        # a content with Q used to be ignored, even one that does not sum to n
        for call in (lambda: estimate_prob(4, 3, "Q", 10, 0, content), lambda: exact_prob(4, 3, "Q", content)):
            with pytest.raises(ValueError, match="event Q takes no content"):
                call()

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed=-1"):
            estimate_prob(4, 2, "Q", 10, -1)

    def test_one_letter_alphabet(self):
        assert estimate_prob(1, 1, "Q", 10, 0).hits == 0 == exact_prob(1, 1, "Q")
        assert estimate_prob(3, 1, "P", 10, 0, content=(3,)).hits == 10
        assert exact_prob(3, 1, "P", (3,)) == 1


def _content(n: int, k: int) -> tuple[int, ...]:
    """A content of n letters over at most k of them, balanced over
    min(n, k) letters; it leaves letters without copies when n < k."""
    return turan_class_sizes(n, min(n, k))


def _event_content(event: str, content: tuple[int, ...]) -> tuple[int, ...] | None:
    """``content`` for the events that read one, None for Q."""
    return None if event == "Q" else content


# the edges of the letter dtypes (uint8 up to 255, uint16, the int32 draw)
SMALL_K = [1, 2, 127, 128, 255, 256, 300]
HUGE_K = [_INT32_K_MAX, _INT32_K_MAX + 1, 2**31, 2**40]


class TestChunkedDraws:
    N = 12
    R = _chunk_rows(N)

    @pytest.mark.parametrize("samples", [1, R - 1, R, R + 1, 3 * R + 7])
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_hits_equal_one_draw(self, k, samples):
        for event in EVENTS:
            content = _event_content(event, turan_class_sizes(self.N, k))
            est = estimate_prob(self.N, k, event, samples, k, content=content)
            assert est.hits == reference_estimate_hits(self.N, k, event, samples, k, content)

    # n = 256 is the first length whose letter counts pass a uint8
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 130, 256])
    @pytest.mark.parametrize("k", SMALL_K)
    def test_every_event_and_dtype_equal_one_draw(self, n, k):
        for event in EVENTS:
            content = _event_content(event, _content(n, k))
            est = estimate_prob(n, k, event, 500, n + k, content=content)
            assert est.hits == reference_estimate_hits(n, k, event, 500, n + k, content), event

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 3), (130, 300), (256, 2)])
    def test_chunk_boundaries_across_lengths(self, n, k):
        rows = _chunk_rows(n)
        for samples in (rows, rows + 1):
            for event in EVENTS:
                content = _event_content(event, _content(n, k))
                est = estimate_prob(n, k, event, samples, 5, content=content)
                assert est.hits == reference_estimate_hits(n, k, event, samples, 5, content), (event, samples)

    @pytest.mark.parametrize("n, k, content", [(1, 1, (1,)), (2, 2, (1, 1)), (130, 2, (65, 65)), (256, 2, (128, 128))])
    def test_content_hits_are_counted(self, n, k, content):
        # contents likely enough that the P hits are not 0
        est = estimate_prob(n, k, "P", 2_000, 3, content=content)
        assert est.hits == reference_estimate_hits(n, k, "P", 2_000, 3, content) > 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("k", HUGE_K)
    def test_huge_alphabets(self, n, k):
        for event in EVENTS:
            content = _event_content(event, _content(n, k))
            est = estimate_prob(n, k, event, 2_000, 8, content=content)
            assert est.hits == reference_estimate_hits(n, k, event, 2_000, 8, content), event

    def test_int32_draws_equal_int64_draws(self):
        # the int32 fill takes the same 32-bit draws as the int64 fill
        powers = [2**j + d for j in range(6, 31) for d in (-1, 0, 1)]
        for k in [*range(1, 40), *powers, _INT32_K_MAX - 1, _INT32_K_MAX]:
            words = _rng(k).integers(1, k + 1, size=(300, 7), dtype=np.int32)
            assert np.array_equal(words, _rng(k).integers(1, k + 1, size=(300, 7))), k

    @pytest.mark.parametrize("k", [1, 3, 255, 256, *HUGE_K])
    def test_draw_is_the_transposed_stream(self, k):
        rng = _rng(4)
        first, second = _draw(rng, 50, 6, k), _draw(rng, 30, 6, k)
        whole = _rng(4).integers(1, k + 1, size=(80, 6))
        assert first.flags.c_contiguous and first.shape == (6, 50)
        assert np.array_equal(np.concatenate([first, second], axis=1), whole.T)

    def test_memory_does_not_grow_with_samples(self):
        # one draw of 2*10^6 words of 12 letters held 2 x 192 MB; one 8 MB
        # int64 chunk and its masks took 9.8 MiB, and 16.8 MiB when the
        # previous chunk was still alive during the next draw; one 4 MB
        # int32 chunk, its narrowed copies and the masks take 6.7 MiB
        tracemalloc.start()
        try:
            estimate_prob(12, 3, "Q", 2_000_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestExactSideIsExact:
    def test_probabilities_sum_to_one_over_contents(self):
        # sanity for the exact reference values used in comparisons
        for n, k in [(4, 2), (6, 2), (5, 3)]:
            total = Fraction(0)
            for comp in partitions_at_most(n, k):
                padded = comp + (0,) * (k - len(comp))
                from itertools import permutations

                for arranged in set(permutations(padded)):
                    total += multinomial_probability(n, k, arranged)
            assert total == 1

    def test_exact_prob_matches_word_enumeration(self):
        for n, k, content in [(4, 2, (2, 2)), (5, 3, (2, 2, 1)), (6, 3, (3, 0, 3)), (5, 3, (1, 3, 1))]:
            words = list(product(range(1, k + 1), repeat=n))
            in_q = [all(w[i] != w[(i + 1) % n] for i in range(n)) for w in words]
            has = [tuple(w.count(a) for a in range(1, k + 1)) == content for w in words]
            assert exact_prob(n, k, "Q") == Fraction(sum(in_q), k**n)
            assert exact_prob(n, k, "P", content) == Fraction(sum(has), k**n)
            assert exact_prob(n, k, "QP", content) == Fraction(sum(map(min, in_q, has)), k**n)
