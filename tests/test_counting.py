"""Subset-DP counting against enumeration oracles and exact identities."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclekit import counting
from cyclekit.analytic import cycle_spectrum_multipartite
from cyclekit.counting import (
    count_cycles,
    count_hamilton,
    count_paths,
    count_paths_from,
    count_regular_and_irregular_cycles,
    cycle_spectrum,
    spectrum_to_csv,
)
from cyclekit.graphs import (
    PartitionInfo,
    best_k_partition,
    complete_multipartite,
    make_graph,
    turan_class_sizes,
    turan_graph,
    twin_classes,
)
from cyclekit.search import compositions_exact

from _oracles import (
    brute_count_paths,
    brute_cycle_spectrum,
    random_blowup,
    random_graph,
    walk_cycle_spectrum,
)


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


K4 = turan_graph(4, 4)
K5 = turan_graph(5, 5)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestCycleSpectrum:
    def test_k4(self):
        assert cycle_spectrum(K4) == {3: 4, 4: 3}

    def test_c5(self):
        assert cycle_spectrum(cycle_graph(5)) == {5: 1}

    def test_k23(self):
        assert cycle_spectrum(complete_multipartite((2, 3))) == {4: 3}

    def test_totals(self):
        assert count_cycles(K4) == 7
        assert count_cycles(make_graph(4, [])) == 0
        assert count_cycles(K5) == 37

    def test_complete_graph_closed_form(self):
        for n in range(3, 15):
            kn = turan_graph(n, n)
            expected = {i: factorial(i) // (2 * i) * comb(n, i) for i in range(3, n + 1)}
            assert cycle_spectrum(kn) == expected

    def test_hamilton(self):
        assert count_hamilton(K5) == 12
        assert count_hamilton(turan_graph(4, 2)) == 1
        assert count_hamilton(complete_multipartite((2, 1, 1))) == 1

    def test_against_enumeration_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.random())
            assert cycle_spectrum(g) == brute_cycle_spectrum(g) == walk_cycle_spectrum(g)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            cycle_spectrum(make_graph(25, []))
        assert cycle_spectrum(make_graph(25, []), max_n=25) == {}

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_isomorphism_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert cycle_spectrum(g) == cycle_spectrum(g.relabel(perm))

    def test_edge_addition_monotone(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, 0.4)
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            before = cycle_spectrum(g)
            after = cycle_spectrum(g.with_edge(u, v))
            for r in set(before) | set(after):
                assert after.get(r, 0) >= before.get(r, 0)


class TestPaths:
    def test_triangle(self):
        k3 = turan_graph(3, 3)
        assert count_paths(k3, 0, 1) == 2

    def test_path_graph(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert count_paths(g, 0, 2) == 1

    def test_k4_pairs(self):
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert count_paths(K4, x, y) == 5

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            count_paths(K4, 1, 1)

    def test_against_enumeration_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            x, y = rng.sample(range(n), 2)
            assert count_paths(g, x, y) == brute_count_paths(g, x, y)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=7))
    def test_symmetry(self, g):
        if g.n < 2:
            return
        for x in range(g.n):
            for y in range(x + 1, g.n):
                assert count_paths(g, x, y) == count_paths(g, y, x)

    def test_edge_path_identity(self):
        # every length-r cycle closes once over each of its r edges, and each
        # edge contributes its own one-edge path, so summing path counts over
        # edges gives sum_r r*c_r plus the edge count
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.random())
            lhs = 0
            for x in range(n):
                from_x = count_paths_from(g, x)
                lhs += sum(from_x.get(y, 0) for y in range(x + 1, n) if g.has_edge(x, y))
            rhs = sum(r * c for r, c in cycle_spectrum(g).items())
            assert lhs == rhs + g.edge_count


def codegree(g, u, v):
    return (g.adj[u] & g.adj[v]).bit_count()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record (vertices, anchors) of every call of the numpy kernel."""
    calls = []
    kernel = counting._path_layers

    def recording(adj, anchors, **options):
        calls.append((len(adj), len(anchors)))
        return kernel(adj, anchors, **options)

    monkeypatch.setattr(counting, "_path_layers", recording)
    return calls


def dict_spectrum(monkeypatch, g):
    """The vertex spectrum with the kernel switched off: the dict DP runs
    every anchor."""
    with monkeypatch.context() as m:
        m.setattr(counting, "_KERNEL_MIN_M", 65)
        return counting._vertex_spectrum(g)


class TestKernelSelection:
    """On graphs with n >= _KERNEL_MIN_M the numpy kernel runs in two passes,
    the lowest anchor with at most 20 vertices above it alone and every
    higher anchor together; anchors with more vertices above them, and every
    anchor of a smaller graph, run the dict DP.  All forms must agree."""

    def test_int64_bound(self):
        assert counting._fits_int64(20)
        assert not counting._fits_int64(21)
        assert counting._KERNEL_MAX_M == 20
        with pytest.raises(OverflowError):
            counting._path_layers(np.zeros((22, 22), dtype=np.int64), [0])
        closed, sums = counting._path_layers(np.zeros((21, 21), dtype=np.int64), [0, 20])
        assert closed == [0] * 22
        assert sums.tolist() == [[0] * 21, [1] + [0] * 19 + [1]] + [[0] * 21] * 20

    def test_both_forms_in_one_call_match_walk_oracle(self, kernel_calls):
        # "both forms": the lone pass and the pass over the higher anchors
        rng = random.Random(53)
        for n in range(11, 17):
            for p in (0.2, 0.45, 0.8):
                g = random_graph(rng, n, p)
                del kernel_calls[:]
                assert counting._vertex_spectrum(g) == walk_cycle_spectrum(g), (n, p)
                assert kernel_calls[0][1] == 1 and len(kernel_calls) <= 2

    def test_dict_anchors_and_kernel_passes_at_n22_23(self, kernel_calls, monkeypatch):
        rng = random.Random(79)
        for n in (22, 23):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = make_graph(n, rng.sample(pairs, 2 * n))
            del kernel_calls[:]
            spec = cycle_spectrum(g)
            # anchors 0..n-22 have more than 20 vertices above them
            assert kernel_calls[0] == (21, 1) and len(kernel_calls) == 2
            assert spec == dict_spectrum(monkeypatch, g)
            assert 3 * spec.get(3, 0) == sum(codegree(g, u, v) for u, v in g.edges())
            assert 2 * spec.get(4, 0) == sum(comb(codegree(g, u, v), 2) for u, v in pairs)

    def test_matches_dict_dp_on_random_graphs(self, monkeypatch):
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(11, 15)
            g = random_graph(rng, n, rng.random())
            assert counting._vertex_spectrum(g) == dict_spectrum(monkeypatch, g)

    def test_cycle_18(self, kernel_calls):
        assert cycle_spectrum(cycle_graph(18)) == {18: 1}
        # only anchor 0 has two neighbours above it
        assert kernel_calls == [(18, 1)]

    def test_sparse_18_identities(self, kernel_calls):
        rng = random.Random(59)
        pairs = [(u, v) for u in range(18) for v in range(u + 1, 18)]
        g = make_graph(18, rng.sample(pairs, 27))
        spec = cycle_spectrum(g)
        assert 3 * spec.get(3, 0) == sum(codegree(g, u, v) for u, v in g.edges())
        assert 2 * spec.get(4, 0) == sum(comb(codegree(g, u, v), 2) for u, v in pairs)
        lhs = sum(count_paths_from(g, u).get(v, 0) for u, v in g.edges())
        assert lhs == sum(r * c for r, c in spec.items()) + g.edge_count
        assert kernel_calls[0][1] == 1 and kernel_calls[1][1] > 1

    def test_paths_at_n12_match_enumeration(self, kernel_calls):
        rng = random.Random(61)
        for p in (0.3, 0.4):
            g = random_graph(rng, 12, p)
            x = rng.randrange(12)
            from_x = count_paths_from(g, x)
            assert from_x == {y: c for y in range(12) if y != x if (c := brute_count_paths(g, x, y))}
        assert kernel_calls == [(12, 1), (12, 1)]

    def test_paths_at_n13_match_enumeration(self, kernel_calls):
        rng = random.Random(89)
        g = random_graph(rng, 13, 0.3)
        for x in (0, 6, 12):
            from_x = count_paths_from(g, x)
            assert from_x == {y: c for y in range(13) if y != x if (c := brute_count_paths(g, x, y))}
        assert kernel_calls == [(13, 1)] * 3

    def test_dedup_with_repeated_masks(self):
        rng = np.random.default_rng(97)
        slot = np.full(1 << 10, -7, dtype=np.intp)  # stale values must not matter
        for size in (0, 1, 5, 300):
            keys = rng.integers(0, 40, size) << rng.integers(0, 5, size)
            distinct, where = counting._dedup(keys, slot)
            assert sorted(distinct.tolist()) == np.unique(keys).tolist()
            assert (distinct[where] == keys).all()

    def test_beyond_int64_bound_uses_python_ints(self, kernel_calls):
        g = cycle_graph(22).with_edge(0, 7)
        assert cycle_spectrum(g) == {8: 1, 16: 1, 22: 1}
        assert count_paths(g, 0, 7) == 3
        # anchor 0 has 21 vertices above it, and no other anchor two neighbours
        assert kernel_calls == []

    def test_twin_free_graph_runs_the_kernel(self, kernel_calls):
        rng = random.Random(71)
        pairs = [(u, v) for u in range(13) for v in range(u + 1, 13)]
        g = make_graph(13, rng.sample(pairs, 40))
        assert len(twin_classes(g)) == 13
        cycle_spectrum(g)
        assert len(kernel_calls) == 2 and kernel_calls[0][1] == 1

    def test_twin_rich_graph_skips_the_kernel(self, kernel_calls):
        assert cycle_spectrum(complete_multipartite((8, 8))) == cycle_spectrum_multipartite((8, 8))
        assert kernel_calls == []

    def test_small_graphs_keep_the_dict_dp(self, kernel_calls):
        g = turan_graph(10, 10)
        assert cycle_spectrum(g) == {i: factorial(i) // (2 * i) * comb(10, i) for i in range(3, 11)}
        assert count_paths_from(g, 0)
        assert kernel_calls == []


def blowup_sizes(rng, n, t):
    """A random composition of n into t positive class sizes."""
    cuts = sorted(rng.sample(range(1, n), t - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


class TestQuotient:
    """The DP over twin classes, which cycle_spectrum runs on graphs with at
    least _KERNEL_MIN_M vertices and fewer twin classes."""

    def test_matches_walk_oracle_on_blowups(self):
        rng = random.Random(67)
        kinds = set()
        for n in (11, 11, 12, 12, 13, 13):
            g = random_blowup(rng, blowup_sizes(rng, n, rng.randint(3, 7)), rng.uniform(0.4, 0.9))
            classes = twin_classes(g)
            assert len(classes) < counting._KERNEL_MIN_M
            kinds |= {g.has_edge(*cls[:2]) for cls in classes if len(cls) > 1}
            assert counting._quotient_spectrum(g, classes) == walk_cycle_spectrum(g)
        assert kinds == {False, True}  # open and clique classes both occur

    def test_matches_vertex_dp_on_small_blowups(self):
        rng = random.Random(73)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_blowup(rng, blowup_sizes(rng, n, rng.randint(1, n)), rng.random())
            assert counting._quotient_spectrum(g, twin_classes(g)) == counting._vertex_spectrum(g)

    def test_every_multipartite_composition(self):
        # the analytic spectrum depends on the class sizes only, so one value
        # per sorted composition serves all its orders
        analytic: dict[tuple[int, ...], dict[int, int]] = {}
        for n in range(11, 17):
            for k in range(1, 6):
                for parts in compositions_exact(n, k):
                    key = tuple(sorted(parts))
                    if key not in analytic:
                        analytic[key] = cycle_spectrum_multipartite(key)
                    assert cycle_spectrum(complete_multipartite(parts)) == analytic[key], parts

    def test_remainder_raises(self):
        assert counting._divide_rootings({(3, 1): 4, (4, 2): 8, (4, 1): 2}) == {3: 2, 4: 3}
        with pytest.raises(ArithmeticError):
            counting._divide_rootings({(4, 2): 6})

    def test_remainder_raises_with_asserts_stripped(self):
        code = (
            "from cyclekit.counting import _divide_rootings\n"
            "try:\n"
            "    _divide_rootings({(4, 2): 6})\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(counting.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0


class TestVertexPath:
    """cycle_spectrum sends twin-rich graphs with n >= 11 to the quotient, so
    the vertex DP is checked on them directly."""

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_complete_multipartite(self, n):
        for parts in ((1,) * n, turan_class_sizes(n, 2), turan_class_sizes(n, 3), (n - 4, 3, 1)):
            assert counting._vertex_spectrum(complete_multipartite(parts)) == cycle_spectrum_multipartite(parts)


class TestRegularIrregularSplit:
    def test_balanced_bipartite(self):
        g = turan_graph(4, 2)
        info = best_k_partition(g, 2)
        assert count_regular_and_irregular_cycles(g, info) == (1, 0)

    def test_triangle(self):
        g = turan_graph(3, 3)
        info = best_k_partition(g, 2)
        assert count_regular_and_irregular_cycles(g, info) == (0, 1)

    def test_k4(self):
        info = best_k_partition(K4, 2)
        assert count_regular_and_irregular_cycles(K4, info) == (1, 6)

    def test_sums_to_total(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.random())
            info = best_k_partition(g, rng.randint(1, 3))
            reg, irr = count_regular_and_irregular_cycles(g, info)
            assert reg + irr == count_cycles(g)

    def test_rejects_inconsistent_partition(self):
        info = PartitionInfo(assignment=(0, 0, 1, 1), irregular_edges=(), regular_edges=6)
        with pytest.raises(ValueError):
            count_regular_and_irregular_cycles(K4, info)


class TestSerialization:
    def test_csv(self):
        assert spectrum_to_csv({3: 4, 4: 3}) == "r,count\n3,4\n4,3\n"
