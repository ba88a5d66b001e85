"""Enumeration, extremal search, and the exact verification suites."""

from __future__ import annotations

import json
import random

import pytest

from cyclekit import search
from cyclekit.counting import count_cycles
from cyclekit.graphs import complete_multipartite, make_graph, turan_graph
from cyclekit.graph_io import graph_from_graph6, graph_to_graph6, named_graph
from cyclekit.morphisms import contains_subgraph, is_isomorphic
from cyclekit.search import (
    SearchResult,
    compositions_exact,
    enumerate_graphs,
    max_cycles_h_free,
    partitions_at_most,
    report_rooted_class_share,
    verify_balanced_code_probability,
    verify_rooted_move_inequality,
    verify_rooted_turan_envelope,
    verify_turan_dominance,
)

from _oracles import (
    augmentation_classes,
    brute_force_graph_classes,
    extremal_function_from_search,
    extremal_number,
    partitions_exact,
    random_graph,
    reference_enumerate_graphs,
)

K3 = named_graph("K3")


def _forbidden(name):
    if name == "K1,3":
        return make_graph(4, [(0, 1), (0, 2), (0, 3)])
    return None if name is None else named_graph(name)


class TestCompositions:
    def test_partitions_at_most(self):
        assert sorted(partitions_at_most(4, 2)) == [(2, 2), (3, 1), (4,)]
        assert sorted(partitions_at_most(3, 3)) == [(1, 1, 1), (2, 1), (3,)]

    def test_partitions_exact(self):
        assert sorted(partitions_exact(5, 2)) == [(3, 2), (4, 1)]

    def test_compositions_exact(self):
        assert sorted(compositions_exact(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert len(list(compositions_exact(10, 3))) == 36


class TestEnumeration:
    def test_unrestricted_counts(self):
        # numbers of graphs up to isomorphism on 1..8 vertices (OEIS A000088)
        assert [len(list(enumerate_graphs(n))) for n in range(1, 9)] == [
            1, 2, 4, 11, 34, 156, 1044, 12346,
        ]

    def test_triangle_free_counts(self):
        # OEIS A006785
        assert [len(list(enumerate_graphs(n, K3))) for n in range(1, 11)] == [
            1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172,
        ]

    def test_every_emitted_graph_is_forbid_free(self):
        for g in enumerate_graphs(6, K3):
            assert not contains_subgraph(g, K3)

    def test_no_two_emitted_graphs_isomorphic(self):
        graphs = list(enumerate_graphs(5, K3))
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not is_isomorphic(graphs[i], graphs[j])

    def test_matches_independent_mask_sweep(self):
        # fully independent generation: every edge mask, dedup by minimum
        # adjacency key over all permutations
        for n in range(1, 6):
            assert len(list(enumerate_graphs(n))) == len(brute_force_graph_classes(n))

    @pytest.mark.parametrize("forbid", [None, "K3", "C4", "P4", "K4", "K1,3"])
    def test_matches_full_augmentation(self, forbid):
        # every neighbourhood of every new vertex, deduplicated by the
        # unpruned canonical labeling and filtered by brute-force containment;
        # equal sets also show that the emitted graphs are canonical forms
        h = _forbidden(forbid)
        for n in range(1, 7):
            assert {g.adj for g in enumerate_graphs(n, h)} == augmentation_classes(n, h)

    @pytest.mark.parametrize("forbid", [None, "K3", "C4", "P4", "K4", "K1,3", "C5"])
    def test_matches_level_by_level_dedup(self, forbid):
        # the twin augmentation with one dedup set per level, which the
        # canonical-deletion test replaced: the same canonical forms, once each
        h = _forbidden(forbid)
        for n in range(1, 8):
            emitted = [g.adj for g in enumerate_graphs(n, h)]
            assert len(emitted) == len(set(emitted))
            assert set(emitted) == {g.adj for g in reference_enumerate_graphs(n, h)}

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(11))

    def test_zero_vertices_names_the_range(self):
        with pytest.raises(ValueError, match=r"needs 1\.\.10 vertices \(n=0\)"):
            list(enumerate_graphs(0))


class TestLastLevel:
    """The search's last level: children labelled only when their deletion
    is tied, and cycle counts from the parent's path counts."""

    @pytest.mark.parametrize("forbid", ["K3", "C4", "C5", "K4", None])
    def test_labels_only_tied_deletions(self, monkeypatch, forbid):
        # a last-level child is labelled only when another least-key vertex
        # (degree, sum of neighbour degrees) is not a twin of the new vertex
        n = 7
        labelled = []
        label = search.canonical_orbits

        def recording(g):
            labelled.append(g)
            return label(g)

        monkeypatch.setattr(search, "canonical_orbits", recording)
        enumerated = list(enumerate_graphs(n, _forbidden(forbid)))
        last = [g for g in labelled if g.n == n]
        assert 0 < len(last) < len(enumerated)
        for g in last:
            key = [(g.degree(v), sum(g.degree(u) for u in g.neighbors(v))) for v in range(n)]
            m = n - 1
            ties = [v for v in range(n) if key[v] == key[m]]
            assert key[m] == min(key)
            twin = [g.adj[v] & ~(1 << m) == g.adj[m] & ~(1 << v) for v in ties]
            assert not all(twin)

    def test_incremental_identity(self):
        # c(child) = c(parent) + sum over u < w in N(m) of p_parent(u, w)
        rng = random.Random(61)
        for _ in range(100):
            parent = random_graph(rng, rng.randint(1, 8), rng.random())
            nbs = [rng.randrange(1 << parent.n) for _ in range(3)]
            children = [search._attach(parent, nb) for nb in nbs]
            assert search._child_cycle_counts(parent, nbs) == [count_cycles(g) for g in children]

    @pytest.mark.parametrize("forbid", ["K3", "C4", "C5", "P4", "P5", "C6", "K4", "K1,3"])
    def test_max_cycles_matches_reference_enumeration(self, forbid):
        h = _forbidden(forbid)
        for n in range(1, 8):
            counts = {graph_to_graph6(g): count_cycles(g) for g in reference_enumerate_graphs(n, h)}
            best = max(counts.values())
            result = max_cycles_h_free(n, h)
            assert result.max_cycles == best
            assert result.extremal_graphs == tuple(sorted(s for s, c in counts.items() if c == best))
            assert result.graphs_examined == len(counts)


class TestExtremalNumbers:
    def test_triangle_free_edge_maxima(self):
        # floor(t^2/4), attained by balanced bipartite graphs
        for t in range(2, 8):
            assert extremal_number(t, K3) == t * t // 4

    def test_k4_free_edge_maxima(self):
        k4 = named_graph("K4")
        for t in range(3, 7):
            assert extremal_number(t, k4) == turan_graph(t, 3).edge_count

    def test_search_backed_table_matches_formula(self):
        from cyclekit.bounds import ExtremalFunction

        searched = extremal_function_from_search(K3, 7)
        formula = ExtremalFunction.turan_formula(2, 7)
        assert searched.values == formula.values
        assert searched.provenance == "exhaustive"


class TestMaxCyclesSearch:
    def test_m5_triangle_free(self):
        result = max_cycles_h_free(5, K3)
        assert result.max_cycles == 3
        assert result.unique
        extremal = graph_from_graph6(result.extremal_graphs[0])
        assert is_isomorphic(extremal, complete_multipartite((2, 3)))

    def test_m4_triangle_free(self):
        result = max_cycles_h_free(4, K3)
        assert result.max_cycles == 1
        extremal = graph_from_graph6(result.extremal_graphs[0])
        assert is_isomorphic(extremal, turan_graph(4, 2))

    def test_extremal_graphs_reverify(self):
        result = max_cycles_h_free(6, K3)
        for g6 in result.extremal_graphs:
            g = graph_from_graph6(g6)
            assert not contains_subgraph(g, K3)
            assert count_cycles(g) == result.max_cycles

    def test_k4_free_small_report(self):
        # no asserted expectation: report whether the 3-class Turán graph
        # attains the maximum at this tiny size
        result = max_cycles_h_free(4, named_graph("K4"))
        t34 = turan_graph(4, 3)
        attained = any(
            is_isomorphic(graph_from_graph6(s), t34) for s in result.extremal_graphs
        )
        assert result.max_cycles >= count_cycles(t34)
        assert isinstance(attained, bool)

    def test_cache_roundtrip(self, tmp_path):
        first = max_cycles_h_free(5, K3, cache_dir=tmp_path)
        assert not first.from_cache
        second = max_cycles_h_free(5, K3, cache_dir=tmp_path)
        assert second.from_cache
        assert second.max_cycles == first.max_cycles
        assert second.extremal_graphs == first.extremal_graphs
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        raw = json.loads(files[0].read_text())
        assert SearchResult.from_dict(raw).max_cycles == 3


class TestVerifySuites:
    def test_turan_dominance_small(self):
        rep = verify_turan_dominance(8, 3, sample_subgraphs=50, seed=42)
        assert rep.passed
        assert rep.failures == 0

    def test_turan_dominance_strictness_exemption(self):
        rep = verify_turan_dominance(4, 2, sample_subgraphs=20, seed=1)
        assert rep.passed
        assert all("strict" not in case for case in rep.cases)

    def test_turan_dominance_strict_at_five(self):
        rep = verify_turan_dominance(5, 2, sample_subgraphs=100, seed=1)
        assert rep.passed
        unbalanced = [c for c in rep.cases if c["composition"] != [3, 2]]
        assert all(c["strict"] for c in unbalanced)

    def test_turan_dominance_deterministic(self):
        a = verify_turan_dominance(6, 2, sample_subgraphs=30, seed=9)
        b = verify_turan_dominance(6, 2, sample_subgraphs=30, seed=9)
        assert a == b

    def test_turan_dominance_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="sample_subgraphs"):
            verify_turan_dominance(5, 2, sample_subgraphs=-3)

    def test_major_frozen_case(self):
        rep = verify_balanced_code_probability(4, 2)
        assert rep.passed
        by_comp = {tuple(c["composition"]): c["prob"] for c in rep.cases}
        assert by_comp[(2, 2)] == "1/3"
        assert by_comp[(3, 1)] == "0/1"

    def test_major_balanced_wins_sweep(self):
        for k in (2, 3, 4):
            for n in range(2, 13):
                assert verify_balanced_code_probability(n, k).passed, (n, k)

    def test_major_degenerate_k1(self):
        rep = verify_balanced_code_probability(6, 1)
        assert rep.passed

    def test_move_inequality_example(self):
        rep = verify_rooted_move_inequality(5, 3)
        assert rep.passed
        comps = {tuple(c["composition"]) for c in rep.cases}
        assert (1, 3, 1) in comps

    def test_move_inequality_sweep(self):
        for n in range(3, 13):
            assert verify_rooted_move_inequality(n, 3).passed, n

    def test_move_inequality_balanced_vacuous(self):
        rep = verify_rooted_move_inequality(3, 3)
        assert rep.passed
        assert rep.cases == []

    def test_envelope_sweep(self):
        for n in range(3, 13):
            rep = verify_rooted_turan_envelope(n, 3)
            assert rep.passed, n

    def test_envelope_skips_unmatchable(self):
        rep = verify_rooted_turan_envelope(7, 3)
        skipped = [c for c in rep.cases if "skipped" in c]
        checked = [c for c in rep.cases if "ok" in c]
        assert skipped and checked
        assert all(c["ok"] for c in checked)

    def test_class_share_reports_only(self):
        rep = report_rooted_class_share(9, 3)
        assert rep.passed is None
        assert len(rep.cases) == 6
        assert all(isinstance(c["holds"], bool) for c in rep.cases)

    def test_class_share_rejects_k2(self):
        with pytest.raises(ValueError):
            report_rooted_class_share(8, 2)
