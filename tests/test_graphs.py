"""Graph construction, Turán constructors, chromatic diagnostics, partitions."""

from __future__ import annotations

import random

import numpy as np
import pytest

from cyclekit import analytic
from cyclekit.graphs import (
    Graph,
    chromatic_number,
    class_sizes,
    complete_multipartite,
    has_critical_edge,
    make_graph,
    turan_class_sizes,
    turan_edge_count,
    turan_graph,
)
from cyclekit.morphisms import is_isomorphic
from cyclekit.search import compositions_exact

from _oracles import brute_chromatic, random_graph


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestMakeGraph:
    def test_triangle(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.edge_count == 3
        assert all(g.degree(v) == 2 for v in range(3))

    def test_edgeless(self):
        g = make_graph(2, [])
        assert g.edge_count == 0

    def test_k4(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert g.edge_count == 6

    def test_duplicate_edges_merged(self):
        g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            make_graph(0, [])
        with pytest.raises(ValueError):
            make_graph(65, [])

    def test_constructor_validates_rows(self):
        Graph(3, (0b110, 0b101, 0b011))
        bad_rows = {
            "length": (0b10, 0b01),
            "vertices >= 3": (0b1000, 0, 0),
            "self-loop": (0b001, 0, 0),
            "asymmetric adjacency between 2 and 0": (0b100, 0, 0),
            "asymmetric adjacency between 0 and 2": (0, 0, 0b001),
        }
        for message, rows in bad_rows.items():
            with pytest.raises(ValueError, match=message):
                Graph(3, rows)


class TestTuran:
    def test_small_cases(self):
        assert is_isomorphic(turan_graph(4, 2), complete_multipartite((2, 2)))
        assert is_isomorphic(turan_graph(5, 2), complete_multipartite((3, 2)))
        assert is_isomorphic(turan_graph(6, 3), complete_multipartite((2, 2, 2)))

    def test_class_sizes_nonincreasing(self):
        for n in range(1, 20):
            for k in range(1, n + 1):
                sizes = turan_class_sizes(n, k)
                assert sum(sizes) == n
                assert len(sizes) == k
                assert all(a >= b for a, b in zip(sizes, sizes[1:]))
                assert max(sizes) - min(sizes) <= 1

    def test_edge_counts(self):
        assert turan_edge_count(5, 2) == 6
        assert turan_edge_count(6, 3) == 12
        assert turan_edge_count(7, 3) == 16

    def test_edge_count_matches_construction(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert turan_edge_count(n, k) == turan_graph(n, k).edge_count

    def test_matches_balanced_multipartite(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert turan_graph(n, k).adj == complete_multipartite(
                    turan_class_sizes(n, k)
                ).adj

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            turan_graph(3, 4)
        with pytest.raises(ValueError):
            turan_edge_count(3, 4)


class TestCompleteMultipartite:
    def test_triangle(self):
        assert is_isomorphic(complete_multipartite((1, 1, 1)), cycle_graph(3))

    def test_c4(self):
        assert is_isomorphic(complete_multipartite((2, 2)), cycle_graph(4))

    def test_k4_minus_edge(self):
        g = complete_multipartite((2, 1, 1))
        assert g.edge_count == 5
        k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert sorted(g.degree(v) for v in range(g.n)) == [2, 2, 3, 3]
        assert not is_isomorphic(g, k4)

    def test_class_sizes_validation(self):
        assert class_sizes([3, 1, 2]) == (3, 1, 2)
        assert class_sizes((64,)) == (64,)
        for bad in ((), (2, 0), (3, -1), (65,), (32, 33)):
            with pytest.raises(ValueError):
                class_sizes(bad)
        for bad in ((2.5, 3), (2.0, 3), (np.float64(2), 3), ("2", 3)):
            with pytest.raises(TypeError):
                class_sizes(bad)


# every public function that takes class sizes, with its other arguments
CLASS_SIZE_ENTRY_POINTS = {
    "complete_multipartite": complete_multipartite,
    "code_cycle_count": analytic.code_cycle_count,
    "code_cycle_count_rooted": lambda c: analytic.code_cycle_count(c, rooted=(1, 2)),
    "reduced_prob_Q_given_P": analytic.reduced_prob_Q_given_P,
    "prob_Q_given_P": analytic.prob_Q_given_P,
    "hamilton_multipartite": analytic.hamilton_multipartite,
    "rooted_hamilton_permutations_general": lambda c: analytic.rooted_hamilton_permutations_general(c, 1, 2),
    "cycle_spectrum_multipartite": analytic.cycle_spectrum_multipartite,
}


@pytest.mark.parametrize("name", CLASS_SIZE_ENTRY_POINTS)
def test_class_sizes_at_every_entry_point(name):
    """Sizes that are not integers raise instead of being truncated, and a
    list, a tuple and numpy integers give the same result.  The memoized
    ``reduced_prob_Q_given_P`` takes hashable tuples only."""
    f = CLASS_SIZE_ENTRY_POINTS[name]
    with pytest.raises(TypeError):
        f((2.5, 3))
    want = f((3, 2, 4))
    assert f(tuple(np.array([3, 2, 4], dtype=np.int64))) == want
    assert f((np.int32(3), np.uint8(2), 4)) == want
    if name != "reduced_prob_Q_given_P":
        assert f([3, 2, 4]) == want
        assert f(np.array([3, 2, 4])) == want
    for bad in ((), (2, 0), (65,)):
        with pytest.raises(ValueError):
            f(bad)


class TestChromatic:
    def test_complete(self):
        k4 = turan_graph(4, 4)
        assert chromatic_number(k4) == 4
        assert has_critical_edge(k4)

    def test_odd_cycle(self):
        c5 = cycle_graph(5)
        assert chromatic_number(c5) == 3
        assert has_critical_edge(c5)

    def test_even_cycle(self):
        c4 = cycle_graph(4)
        assert chromatic_number(c4) == 2
        assert not has_critical_edge(c4)

    def test_edgeless(self):
        g = make_graph(3, [])
        assert chromatic_number(g) == 1
        assert not has_critical_edge(g)

    def test_against_brute_force(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.random())
            assert chromatic_number(g) == brute_chromatic(g)

    def test_turan_plus_inner_edge_is_critical(self):
        for k in (2, 3):
            for t in (2, 3):
                g = turan_graph(k * t, k)
                # first class occupies vertices 0..t-1
                ge = g.with_edge(0, 1)
                assert chromatic_number(g) == k
                assert chromatic_number(ge) == k + 1
                assert has_critical_edge(ge)

    def test_cap(self):
        with pytest.raises(ValueError):
            chromatic_number(make_graph(17, []))


class TestGraphBasics:
    def test_relabel_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            inverse = [0] * n
            for i, p in enumerate(perm):
                inverse[p] = i
            assert g.relabel(perm).relabel(inverse).adj == g.adj

    def test_without_edges(self):
        k4 = turan_graph(4, 4)
        g = k4.without_edges([(0, 1), (2, 3)])
        assert g.edge_count == 4
        assert not g.has_edge(0, 1)
        assert not g.has_edge(3, 2)

    def test_without_edges_keeps_a_valid_graph(self):
        # without_edges skips Graph's checks; its result must pass them
        rng = random.Random(23)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            edges = list(g.edges())
            mask = rng.getrandbits(len(edges))
            h = g.without_edges([e for i, e in enumerate(edges) if mask >> i & 1])
            assert type(h.adj) is tuple
            assert Graph(h.n, h.adj) == h
            assert h.edge_count == len(edges) - mask.bit_count()

    def test_complete_multipartite_is_a_valid_graph(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                for parts in compositions_exact(n, k):
                    g = complete_multipartite(parts)
                    assert type(g.adj) is tuple
                    assert Graph(g.n, g.adj) == g

    def test_public_constructors_still_validate(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="self-loop"):
            g.with_edge(1, 1)
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])  # not a permutation
        assert g.relabel([2, 1, 0]).adj == (0b010, 0b101, 0b010)

    def test_edges_iteration(self):
        g = make_graph(4, [(0, 2), (1, 3)])
        assert sorted(g.edges()) == [(0, 2), (1, 3)]
