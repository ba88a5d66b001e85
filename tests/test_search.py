"""Enumeration, extremal search, and the exact verification suites."""

from __future__ import annotations

import json
import random

import pytest

from cyclekit import search
from cyclekit.counting import count_cycles
from cyclekit.graphs import Graph, chromatic_number, complete_multipartite, make_graph, turan_graph
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
    extremal_number,
    partitions_exact,
    random_graph,
    reference_enumerate_graphs,
    reference_balanced_code_probability,
    reference_compositions_exact,
    reference_matched_balanced,
    reference_partitions_at_most,
    reference_rooted_class_share,
    reference_rooted_move_inequality,
    reference_rooted_turan_envelope,
    reference_turan_dominance,
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
            key = [(g.degree(v), sum(g.degree(u) for u in range(n) if g.has_edge(v, u))) for v in range(n)]
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

    @pytest.mark.parametrize("forbid", ["K3", "C4", "C5", "P4", "P5", "C6", "K4", "K1,3", "K6", "K7"])
    def test_unchecked_children_are_valid(self, monkeypatch, forbid):
        # candidates and attached children skip Graph's checks; each must
        # pass them, and keep its rows as a tuple so that it hashes
        built = []
        candidates, attach = search._candidates, search._attach

        def recording_candidates(*args):
            out = list(candidates(*args))
            built.extend(child for child, _ in out)
            return iter(out)

        def recording_attach(*args):
            built.append(attach(*args))
            return built[-1]

        monkeypatch.setattr(search, "_candidates", recording_candidates)
        monkeypatch.setattr(search, "_attach", recording_attach)
        for n in range(2, 8):
            max_cycles_h_free(n, _forbidden(forbid))
        assert built
        for g in built:
            assert type(g.adj) is tuple
            assert Graph(g.n, g.adj) == g

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

    @pytest.mark.parametrize(
        "h6, n, most, extremal, examined",
        [
            ("D`{", 7, 69, "F]oxw", 400),  # the bowtie
            ("D`{", 8, 280, "G]r@x{", 2290),
            ("DF{", 7, 151, "Fhf~o", 605),  # B_3, three triangles on one edge
            ("DF{", 8, 363, "G`^\\nS", 4771),
        ],
    )
    def test_forbidden_graphs_with_several_orbits(self, h6, n, most, extremal, examined):
        # H has more than one orbit of Aut(H), so the rooted containment test
        # runs more than one root
        result = max_cycles_h_free(n, graph_from_graph6(h6))
        assert result.max_cycles == most
        assert result.extremal_graphs == (extremal,)
        assert result.graphs_examined == examined

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

    @pytest.mark.parametrize("name", ["K3", "C5", "K4"])
    def test_miss_colours_the_forbidden_graph_once(self, monkeypatch, tmp_path, name):
        # the critical-edge test takes the chromatic number the search found
        h = named_graph(name)
        whole = []

        def counted(g):
            whole.append(g == h)
            return chromatic_number(g)

        monkeypatch.setattr("cyclekit.graphs.chromatic_number", counted)
        monkeypatch.setattr(search, "chromatic_number", counted)
        result = max_cycles_h_free(5, h, cache_dir=tmp_path)
        assert not result.from_cache and result.forbidden_has_critical_edge
        # the full H once, first; then the per-edge deletions, up to a critical one
        assert whole[0] and len(whole) > 1 and not any(whole[1:])


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

    @pytest.mark.parametrize("seed", [0, 17, 2024])
    def test_turan_dominance_matches_reference(self, seed):
        # the samples of n = 8 to 11 take the dict DP or the numpy kernel by their edge count
        for n in range(1, 12):
            for k in range(1, min(n, 4) + 1):
                for samples in (0, 1, 50):
                    expected = reference_turan_dominance(n, k, samples, seed)
                    assert verify_turan_dominance(n, k, samples, seed) == expected, (n, k, samples)

    def test_turan_dominance_matches_reference_past_eleven(self):
        # the batched dense passes of 12 to 14 vertices, a graph or two per pass
        for n in range(12, 15):
            for k in range(2, 4):
                assert verify_turan_dominance(n, k, 20, 5) == reference_turan_dominance(n, k, 20, 5), (n, k)

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

    def test_move_inequality_memo_changes_no_report(self):
        for k in (3, 4, 5):
            for n in range(k, 17):
                assert verify_rooted_move_inequality(n, k) == reference_rooted_move_inequality(n, k)

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


class TestSuitesMatchOracles:
    """The suites and generators that pay per distinct content against the
    bodies they replaced, kept in ``_oracles``: over k <= 6 and n <= 20, and
    over the ranges of the benchmark's sweep."""

    def test_partitions_keep_the_recursive_order(self):
        # the order of the cases in a report is the generator's order
        for n in range(15):
            for k in range(7):
                assert list(partitions_at_most(n, k)) == reference_partitions_at_most(n, k), (n, k)

    def test_compositions_keep_the_recursive_order(self):
        for n in range(15):
            for k in range(1, 7):
                assert list(compositions_exact(n, k)) == reference_compositions_exact(n, k), (n, k)
        with pytest.raises(ValueError):
            next(compositions_exact(3, 0))

    def test_matched_balanced(self):
        matched = 0
        for k in range(1, 7):
            for n in range(k, 21):
                for comp in compositions_exact(n, k):
                    b = search._matched_balanced(comp)
                    assert b == reference_matched_balanced(comp), comp
                    matched += b is not None
        assert matched == 700

    @pytest.mark.parametrize("k", range(1, 7))
    def test_major(self, k):
        for n in range(2, 21):
            assert verify_balanced_code_probability(n, k) == reference_balanced_code_probability(n, k), n

    def test_major_over_the_sweep_range(self):
        for k in range(2, 6):
            for n in range(21, 31):
                assert verify_balanced_code_probability(n, k) == reference_balanced_code_probability(n, k), (n, k)

    @pytest.mark.parametrize("k", range(3, 7))
    def test_close(self, k):
        for n in range(k, 21):
            assert verify_rooted_turan_envelope(n, k) == reference_rooted_turan_envelope(n, k), n

    def test_turancount_over_the_sweep_range(self):
        for k in range(3, 8):
            for n in range(k, 45):
                assert report_rooted_class_share(n, k) == reference_rooted_class_share(n, k), (n, k)
