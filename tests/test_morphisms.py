"""Containment, isomorphism and canonical labels against brute-force oracles."""

from __future__ import annotations

import random

import pytest

from cyclekit.graphs import Graph, complete_multipartite, make_graph, turan_graph, twin_classes
from cyclekit.morphisms import (
    canonical_label,
    canonical_orbits,
    contains_subgraph,
    is_isomorphic,
    refinement_colors,
)
from cyclekit.search import enumerate_graphs

from _oracles import (
    brute_automorphism_orbits,
    brute_automorphisms,
    brute_contains,
    brute_is_isomorphic,
    generated_group,
    random_graph,
    reference_canonical_label,
    reference_contains_subgraph,
)


def assert_labels_like_reference(g, rng):
    """Bit-identical output to the unpruned labeling, on g and a relabeled copy."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    for x in (g, g.relabel(perm)):
        assert canonical_label(x) == reference_canonical_label(x)


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


K3 = turan_graph(3, 3)
K4 = turan_graph(4, 4)
# a path 0-1-2-3-4 with the triangle 1-2-5: no automorphism but the identity
ASYMMETRIC6 = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])


class TestContainment:
    def test_k4_contains_k3(self):
        assert contains_subgraph(K4, K3)

    def test_c5_is_triangle_free(self):
        assert not contains_subgraph(cycle_graph(5), K3)

    def test_bipartite_has_no_odd_cycle(self):
        assert not contains_subgraph(turan_graph(6, 2), cycle_graph(5))

    def test_non_induced(self):
        # K4 contains C4 as a subgraph even though no induced C4 exists
        assert contains_subgraph(K4, cycle_graph(4))

    def test_larger_pattern_fails(self):
        assert not contains_subgraph(K3, K4)

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(150):
            gn = rng.randint(1, 7)
            hn = rng.randint(1, 5)
            g = random_graph(rng, gn, rng.random())
            h = random_graph(rng, hn, rng.random())
            assert contains_subgraph(g, h) == brute_contains(g, h)

    def test_require_vertex(self):
        # triangle on 0,1,2 plus isolated vertex 3
        g = make_graph(4, [(0, 1), (1, 2), (2, 0)])
        assert contains_subgraph(g, K3, require_vertex=0)
        assert not contains_subgraph(g, K3, require_vertex=3)

    def test_require_vertex_outside_g_names_the_range(self):
        for v in (7, -1):
            with pytest.raises(ValueError, match=rf"require_vertex {v} .*\(0\.\.3\)"):
                contains_subgraph(K4, K3, require_vertex=v)

    def test_unrooted_test_labels_nothing(self, monkeypatch):
        # labelling is exponential on twin-free symmetric H such as cycles
        def refuse(g):
            raise AssertionError("H was labelled")

        monkeypatch.setattr("cyclekit.morphisms.canonical_orbits", refuse)
        c11 = cycle_graph(11)
        assert contains_subgraph(c11, c11)
        assert not contains_subgraph(c11, K3)

    def test_rooted_against_reference_and_brute_force(self):
        # H with several orbits of Aut(H), so that several roots run
        assert len(brute_automorphisms(ASYMMETRIC6)) == 1
        shapes = [
            make_graph(5, [(0, 1), (1, 2), (3, 4)]),  # disconnected: P3 and K2
            make_graph(4, [(0, 1), (1, 2), (2, 0)]),  # a triangle and an isolated vertex
            make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),  # C4 with a pendant edge
            ASYMMETRIC6,
        ]
        rng = random.Random(41)
        for trial in range(300):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            h = shapes[trial % 4] if trial % 5 else random_graph(rng, rng.randint(1, 5), rng.random())
            for v in range(g.n):
                expected = brute_contains(g, h, through=v)
                assert reference_contains_subgraph(g, h, require_vertex=v) == expected
                assert contains_subgraph(g, h, require_vertex=v) == expected


class TestIsomorphism:
    def test_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.random())
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabel(perm)
            else:
                h = random_graph(rng, n, rng.random())
            assert is_isomorphic(g, h) == brute_is_isomorphic(g, h)

    def test_regular_non_isomorphic_pair(self):
        # both 2-regular on 6 vertices: C6 versus two triangles
        c6 = cycle_graph(6)
        two_triangles = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert sorted(refinement_colors(c6)) == sorted(refinement_colors(two_triangles))
        assert not is_isomorphic(c6, two_triangles)


class TestTwinClasses:
    def test_against_definition(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.random())
            classes = twin_classes(g)
            assert sorted(v for cls in classes for v in cls) == list(range(n))
            assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
            which = {v: i for i, cls in enumerate(classes) for v in cls}
            for u in range(n):
                for v in range(u + 1, n):
                    twins = g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)
                    assert (which[u] == which[v]) == twins

    def test_complete_multipartite_parts(self):
        assert twin_classes(complete_multipartite((3, 2, 1))) == [[0, 1, 2], [3, 4], [5]]


class TestCanonicalLabel:
    def test_canonical_form_invariant_under_relabeling(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_label(g)[0] == canonical_label(g.relabel(perm))[0]

    def test_canonical_forms_separate_classes(self):
        # all graphs on 4 vertices: 11 classes
        seen = set()
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for mask in range(1 << 6):
            g = make_graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
            seen.add(canonical_label(g)[0])
        assert len(seen) == 11

    def test_canonical_is_isomorphic_to_input(self):
        g = complete_multipartite((3, 2, 2))
        cg, perm = canonical_label(g)
        assert sorted(perm) == list(range(g.n))
        assert is_isomorphic(g, cg)

    def test_canonical_copy_is_a_valid_graph(self):
        # canonical_orbits relabels without Graph's checks; its copy must pass them
        rng = random.Random(53)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            canon = canonical_orbits(g)[0]
            assert type(canon.adj) is tuple
            assert Graph(canon.n, canon.adj) == canon

    def test_matches_unpruned_labeling_on_every_small_class(self):
        rng = random.Random(41)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert_labels_like_reference(g, rng)

    def test_matches_unpruned_labeling_on_random_relabelings(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(1, 8)
            assert_labels_like_reference(random_graph(rng, n, rng.random()), rng)

    def test_matches_unpruned_labeling_on_symmetric_graphs(self):
        rng = random.Random(47)
        for g in (complete_multipartite((4, 4)), turan_graph(9, 3), cycle_graph(8)):
            assert_labels_like_reference(g, rng)

    def test_symmetric_graphs(self):
        # high-automorphism inputs still canonicalize consistently
        for g in (turan_graph(8, 2), turan_graph(9, 3), cycle_graph(8)):
            relabeled = g.relabel(list(reversed(range(g.n))))
            assert canonical_label(g)[0] == canonical_label(relabeled)[0]


class TestOrbits:
    def test_against_brute_force_automorphisms(self):
        rng = random.Random(53)
        for _ in range(600):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.random())
            canon, perm, orbits, _ = canonical_orbits(g)
            assert (canon, perm) == canonical_label(g)
            assert orbits == brute_automorphism_orbits(g)

    def test_automorphisms_and_twin_swaps_generate_the_group(self):
        # same orbits and the same group order as a scan of all permutations
        rng = random.Random(59)
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        graphs += [random_graph(rng, n, rng.random()) for n in (rng.randint(1, 7) for _ in range(300))]
        for g in graphs:
            auts = canonical_orbits(g)[3]
            swaps = []
            for cls in twin_classes(g):
                for u, v in zip(cls, cls[1:]):
                    s = list(range(g.n))
                    s[u], s[v] = v, u
                    swaps.append(tuple(s))
            brute = brute_automorphisms(g)
            assert set(auts) <= set(brute)
            group = generated_group(g.n, list(auts) + swaps)
            assert len(group) == len(brute)
            orbits = [min(p.index(v) for p in group) for v in range(g.n)]
            assert tuple(orbits) == brute_automorphism_orbits(g)

    def test_every_small_class(self):
        # canonical forms of small classes are rich in automorphisms
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert canonical_orbits(g)[2] == brute_automorphism_orbits(g)

    def test_known_orbits(self):
        petersen = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                              + [(i, i + 5) for i in range(5)])
        for g in (petersen, cycle_graph(8), turan_graph(9, 3), make_graph(4, []), K4):
            assert canonical_orbits(g)[2] == (0,) * g.n
        path = make_graph(5, [(i, i + 1) for i in range(4)])
        assert canonical_orbits(path)[2] == (0, 1, 2, 1, 0)
        assert canonical_orbits(complete_multipartite((3, 2)))[2] == (0, 0, 0, 3, 3)
