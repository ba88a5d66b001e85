"""Subset-DP counting against enumeration oracles and exact identities."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from itertools import combinations
from math import comb, factorial, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclekit import counting
from cyclekit.analytic import cycle_spectrum_multipartite
from cyclekit.counting import (
    count_cycles,
    count_paths_from,
    cycle_spectrum,
)
from cyclekit.graphs import (
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
    brute_force_graph_classes,
    minus_edge_spectrum,
    random_blowup,
    random_graph,
    reference_enumerate_graphs,
    reference_quotient_spectrum,
    symmetric_blowup,
    walk_cycle_spectrum,
)


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def twin_free_graph(n):
    """A seeded G(n, 6n) graph, twin-free for the n the tests use."""
    rng = random.Random(107)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, rng.sample(pairs, 6 * n))


K4 = turan_graph(4, 4)
K5 = turan_graph(5, 5)


def odd_closings(adj, anchors, **options):
    """A stand-in kernel whose doubled triangle count is 1 for the pass of
    the lowest anchor alone and 0 for the others."""
    return [0, 0, 0, int(anchors == [0])] + [0] * (len(adj) - 3)


def odd_dense_closings(matrices, **options):
    """A stand-in dense form whose doubled triangle count is 1 for every
    graph of the stack."""
    batch, n = matrices.shape[:2]
    return np.array([[0, 0, 0, 1] + [0] * (n - 3)] * batch, dtype=np.int64)


def dense(adj, ends=False):
    """The dense form's counts for the one graph with bit rows ``adj``, as
    its single-graph callers read them."""
    return counting._dense_layers(counting._stack(adj), ends=ends)[0].tolist()


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
        for g, want in [(K5, 12), (turan_graph(4, 2), 1), (complete_multipartite((2, 1, 1)), 1)]:
            assert cycle_spectrum(g).get(g.n, 0) == want

    def test_against_enumeration_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.random())
            assert cycle_spectrum(g) == brute_cycle_spectrum(g) == walk_cycle_spectrum(g)

    def test_cap_enforced(self):
        # past 24 vertices only the quotient runs, and a twin-free graph
        # bounds it at 2^25 states, above QUOTIENT_STATE_CAP
        g = twin_free_graph(25)
        assert len(twin_classes(g)) == 25
        for count in (cycle_spectrum, count_cycles):
            with pytest.raises(ValueError, match=f"n=25 .* 25 twin classes .* {2 ** 25} states"):
                count(g)

    def test_edgeless_graph_past_the_vertex_cap(self):
        assert cycle_spectrum(make_graph(25, [])) == {}
        assert count_cycles(make_graph(64, [])) == 0

    def test_state_cap_refuses_before_the_quotient(self, monkeypatch):
        def unreachable(g, classes):
            raise AssertionError("the quotient ran past the state cap")

        monkeypatch.setattr(counting, "_quotient_spectrum", unreachable)
        # classes of sizes 1 to 9: no two are interchangeable, so the
        # anchor class of size 1 keeps up to 2 * 3 * ... * 10 = 10! vectors
        assert factorial(10) > counting.QUOTIENT_STATE_CAP
        with pytest.raises(ValueError, match=f"{factorial(10)} states"):
            cycle_spectrum(complete_multipartite(range(1, 10)))

    @pytest.mark.parametrize("n, k", [(45, 3), (40, 4), (30, 5), (40, 10), (64, 8)])
    def test_turan_past_the_vertex_cap(self, n, k):
        # T_10(40) and T_8(64) have 5^10 and 9^8 vectors of used vertices,
        # past the state cap, but at most 5 * C(13, 4) and 9 * C(15, 7)
        # orbits of them from one anchor class
        assert cycle_spectrum(turan_graph(n, k)) == cycle_spectrum_multipartite(turan_class_sizes(n, k))

    def test_total_matches_spectrum(self):
        # below 11 vertices count_cycles sums the vertex forms' counts directly
        rng = random.Random(19)
        for n in range(1, 13):
            for _ in range(8):
                g = random_graph(rng, n, rng.random())
                assert count_cycles(g) == sum(cycle_spectrum(g).values()), n

    def test_odd_directed_count_raises(self, monkeypatch):
        # the rule sends K_10 to the dense form and the twin-free vertex form
        # of K_15 to the sparse kernel, whose counts are doubled; a doubled
        # count of 1 is half a triangle
        assert counting._kernel_pays(10, 45, 2) and counting._kernel_pays(15, 105, 2)
        assert 10 <= counting._DENSE_MAX_N < 15
        monkeypatch.setattr(counting, "_dense_layers", odd_dense_closings)
        monkeypatch.setattr(counting, "_path_layers", odd_closings)
        with pytest.raises(ArithmeticError):
            count_cycles(turan_graph(10, 10))
        with pytest.raises(ArithmeticError):
            cycle_spectrum(turan_graph(10, 10))
        with pytest.raises(ArithmeticError):
            counting._vertex_cycles(turan_graph(15, 15).adj)

    def test_odd_directed_count_raises_with_asserts_stripped(self):
        code = (
            "from cyclekit import counting\n"
            "from cyclekit.graphs import turan_graph\n"
            "import numpy as np\n"
            "counting._dense_layers = lambda matrices, **options: "
            "np.array([[0, 0, 0, 1] + [0] * (matrices.shape[1] - 3)] * len(matrices))\n"
            "counting._path_layers = lambda adj, anchors, **options: "
            "[0, 0, 0, int(anchors == [0])] + [0] * (len(adj) - 3)\n"
            "for count in (lambda: counting.count_cycles(turan_graph(10, 10)),\n"
            "              lambda: counting._vertex_cycles(turan_graph(15, 15).adj)):\n"
            "    try:\n"
            "        count()\n"
            "    except ArithmeticError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(counting.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0

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
        assert count_paths_from(k3, 0) == {1: 2, 2: 2}

    def test_path_graph(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert count_paths_from(g, 0) == {1: 1, 2: 1}

    def test_k4_pairs(self):
        for x in range(4):
            assert count_paths_from(K4, x) == {y: 5 for y in range(4) if y != x}

    def test_source_is_not_an_endpoint(self):
        assert 1 not in count_paths_from(K4, 1)
        for x in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                count_paths_from(K4, x)

    def test_against_enumeration_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.random())
            x, y = rng.sample(range(n), 2)
            assert count_paths_from(g, x).get(y, 0) == brute_count_paths(g, x, y)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=7))
    def test_symmetry(self, g):
        if g.n < 2:
            return
        for x in range(g.n):
            for y in range(x + 1, g.n):
                assert count_paths_from(g, x).get(y, 0) == count_paths_from(g, y).get(x, 0)

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
    """Record (vertices from the lowest anchor up, anchors) of every call of
    the numpy kernel."""
    calls = []
    kernel = counting._path_layers

    def recording(adj, anchors, **options):
        calls.append((len(adj) - min(anchors), len(anchors)))
        return kernel(adj, anchors, **options)

    monkeypatch.setattr(counting, "_path_layers", recording)
    return calls


@pytest.fixture
def dense_calls(monkeypatch):
    """Record (vertices, ends) of every call of the kernel's dense form."""
    calls = []
    layers = counting._dense_layers

    def recording(matrices, *, ends=False):
        calls.append((matrices.shape[1], ends))
        return layers(matrices, ends=ends)

    monkeypatch.setattr(counting, "_dense_layers", recording)
    return calls


@pytest.fixture
def kernel_only(monkeypatch, kernel_calls):
    """Send every vertex count to the sparse numpy kernel, whatever its size
    (the dense form takes none), and record its calls as ``kernel_calls``
    does."""
    monkeypatch.setattr(counting, "_kernel_pays", lambda n, m, passes: True)
    monkeypatch.setattr(counting, "_DENSE_MAX_N", 0)
    return kernel_calls


def dict_spectrum(g):
    """The vertex spectrum from the dict DP alone."""
    return {r: c for r, c in enumerate(counting._dict_cycles(g.adj)) if c}


def paths_through(n, k):
    """Paths between two fixed vertices of K_n through k inner vertices."""
    return factorial(n - 2) // factorial(n - 2 - k)


def paths_by_dict_dp(g, x):
    """The path ends from x by the dict DP, every vertex but x renamed as
    ``count_paths_from`` does: x and 0 swap places."""
    perm = list(range(g.n))
    perm[0], perm[x] = x, 0
    ends = counting._dict_ends(g.relabel(perm).adj)
    ends[0], ends[x] = ends[x], ends[0]
    return ends


class TestTwoForms:
    """The dict DP and the numpy kernel count the same paths: the kernel's
    closings are twice the dict DP's cycle counts, and the path ends of the
    two agree."""

    def test_kernel_matches_dict_dp(self):
        rng = random.Random(101)
        for i in range(60):
            n = 3 + i % 12
            g = random_graph(rng, n, rng.random())
            once = counting._dict_cycles(g.adj)
            # every anchor, in two passes split at a seeded point
            cut = rng.randint(1, n - 1)
            doubled = [a + b for a, b in zip(counting._path_layers(g.adj, list(range(cut))),
                                              counting._path_layers(g.adj, list(range(cut, n))))]
            assert doubled == [2 * c for c in once], (n, cut)
            assert counting._path_layers(g.adj, [0], ends=True) == counting._dict_ends(g.adj), n

    def test_once_dp_on_every_small_class(self):
        # brute_force_graph_classes scans every permutation and stops at
        # n = 5; the 156 classes on six vertices come from augmentation
        classes = [g for n in range(1, 6) for g in brute_force_graph_classes(n)]
        six = reference_enumerate_graphs(6)
        assert len(six) == 156
        for g in classes + six:
            assert dict_spectrum(g) == brute_cycle_spectrum(g), g.adj

    def test_once_dp_on_random_graphs(self):
        rng = random.Random(103)
        for n in range(3, 13):
            for p in (0.2, 0.35, 0.5, 0.65, 0.8, 0.9):
                g = random_graph(rng, n, p)
                assert dict_spectrum(g) == walk_cycle_spectrum(g), (n, p)

    def test_edgeless_graphs(self):
        for n in (21, 22):
            assert counting._path_layers((0,) * n, [0, n - 1]) == [0] * (n + 1)
            assert counting._path_layers((0,) * n, [0], ends=True) == [0] * n

    def test_split_sum_is_exact(self):
        # float64 counts below 2^53 whose sums pass 2^63 (and round in float64)
        values = np.array([2.0 ** 53 - 1, 2.0 ** 52 + 1, 7, 2.0 ** 40 + 3] * 1024)
        exact = sum(map(int, values.tolist()))
        assert exact >= 1 << 63
        assert counting._exact_sum(values, True) == exact
        matrix = values.reshape(-1, 2)
        columns = [sum(map(int, col)) for col in zip(*matrix.tolist())]
        assert max(columns) >= 1 << 63
        assert counting._exact_sum(matrix, True, axis=0).tolist() == columns
        assert counting._exact_sum(values[:4], False) == sum(map(int, values[:4].tolist()))

    def test_float_stage_while_products_stay_below_2_53(self, monkeypatch):
        # Layer p's products are below (p - 1)!, so float64 is exact up to
        # layer 19.  The complete graphs cannot show one float layer too many:
        # their counts have many factors of 2 and stay representable.
        assert factorial(18) < 1 << 53 <= factorial(19)
        dtypes = []
        exact_sum = counting._exact_sum

        def spy(values, split, axis=None):
            dtypes.append(values.dtype)
            return exact_sum(values, split, axis)

        monkeypatch.setattr(counting, "_exact_sum", spy)
        adj = cycle_graph(23).adj  # paths through up to 23 vertices
        closed = counting._path_layers(adj, [0])
        # one closing sum per layer from the third, of the product's entries
        # as they are held
        assert dtypes == [np.dtype(np.float64)] * 17 + [np.dtype(object)] * 4
        del dtypes[:]
        ends = counting._path_layers(adj, [0], ends=True)
        # the path mode takes no closing sum, only one end sum per layer from
        # the second, of the rows before the layer's product
        assert dtypes == [np.dtype(np.float64)] * 19 + [np.dtype(object)] * 3
        assert closed[23] == 2 and ends[5] == 2
        # Python ints, never floats, so that JSON prints 2, not 2.0
        assert all(type(c) is int for c in closed + ends)

    def test_complete_graph_past_int64(self, kernel_calls):
        # the doubled count of 22-cycles is 21! > 2^63
        assert factorial(21) >= 1 << 63
        expected = {r: comb(22, r) * factorial(r - 1) // 2 for r in range(3, 23)}
        assert counting._vertex_spectrum(turan_graph(22, 22)) == expected
        assert kernel_calls == [(22, 1), (21, 19)]

    def test_paths_in_complete_graph_past_int64(self, kernel_calls):
        # the products of layer 22 (up to 21!) and the number of paths pass 2^63
        n = 22
        each = sum(paths_through(n, k) for k in range(n - 1))
        assert (n - 1) * each >= 1 << 63
        assert count_paths_from(turan_graph(n, n), 5) == {y: each for y in range(n) if y != 5}
        assert kernel_calls == [(22, 1)]

    def test_path_cap(self):
        # paths have no quotient form, so even the edgeless graph is refused
        for g in (twin_free_graph(25), make_graph(25, [])):
            with pytest.raises(ValueError, match="capped at 24 vertices"):
                count_paths_from(g, 0)


class TestDense:
    """The kernel's dense form, which takes every graph with at most
    _DENSE_MAX_N vertices that _kernel_pays sends to the kernel, against the
    dict DP: its closings are twice the dict DP's cycle counts, and its path
    ends from every source are the dict DP's."""

    @staticmethod
    def check(g):
        doubled = dense(g.adj)
        assert doubled == [2 * c for c in counting._dict_cycles(g.adj)], g.adj
        # Python ints, never floats: a float64 count would compare equal
        assert all(type(c) is int for c in doubled), g.adj
        for x in range(g.n):
            # the source x as vertex 0, as count_paths_from places it
            perm = list(range(g.n))
            perm[0], perm[x] = x, 0
            rows = g.relabel(perm).adj
            ends = dense(rows, ends=True)
            assert ends == counting._dict_ends(rows), (g.adj, x)
            assert all(type(c) is int for c in ends), (g.adj, x)

    def test_every_small_class(self):
        classes = [g for n in range(1, 8) for g in reference_enumerate_graphs(n)]
        assert len(classes) == 1 + 2 + 4 + 11 + 34 + 156 + 1044
        for g in classes:
            self.check(g)

    def test_random_graphs_up_to_the_cap(self):
        rng = random.Random(127)
        for n in range(8, counting._DENSE_MAX_N + 1):
            pairs = list(combinations(range(n), 2))
            for m in (n, 2 * n, n + 15, 3 * n, 4 * n):
                self.check(make_graph(n, rng.sample(pairs, min(m, len(pairs) - 2))))

    def test_complete_graph_at_the_cap(self):
        n = counting._DENSE_MAX_N
        doubled = dense(turan_graph(n, n).adj)
        assert doubled == [0, 0, 0] + [comb(n, r) * factorial(r - 1) for r in range(3, n + 1)]
        each = sum(paths_through(n, k) for k in range(n - 1))
        ends = dense(turan_graph(n, n).adj, ends=True)
        assert ends == [0] + [each] * (n - 1)
        # Python ints, never floats, so that JSON prints 2, not 2.0
        assert all(type(c) is int for c in doubled + ends)

    def test_complete_graph_at_the_float32_edge(self):
        # K_11 takes the largest counts a float32 pass forms: products up to
        # 10!, closing sums up to 11! / 10 and 986,410 path ends per vertex,
        # all below 2^24; at 12 vertices 11! is not, and the pass is float64
        assert factorial(10) < 1 << 24 <= factorial(11)
        n = counting._DENSE_FLOAT32_MAX_N
        assert n == 11
        doubled = dense(turan_graph(n, n).adj)
        spectrum = cycle_spectrum_multipartite((1,) * n)
        assert doubled == [2 * spectrum.get(r, 0) for r in range(n + 1)]
        assert max(doubled) == factorial(n) // (n - 1)
        ends = dense(turan_graph(n, n).adj, ends=True)
        assert ends == [0] + [986_410] * (n - 1)
        assert sum(paths_through(n, k) for k in range(n - 1)) == 986_410
        assert all(type(c) is int for c in doubled + ends)
        for size, dtype in ((n, np.float32), (n + 1, np.float64)):
            for paths in (False, True):
                layers = counting._dense_views(size, paths, 1)
                assert all(view.dtype == dtype for layer in layers for view in layer[3:])
                assert counting._stack(turan_graph(size, size).adj).dtype == dtype

    def test_interleaved_forms(self):
        # each call fills its own buffers: no row, product or zero entry of
        # one call or layer may reach the next, whichever form or n came first
        rng = random.Random(131)
        order = [(13, True), (14, False), (10, False), (13, False), (8, True), (14, True),
                 (11, False), (9, True), (12, False), (8, False), (12, True), (10, True),
                 (9, False), (11, True)]
        assert sorted(order) == [(n, e) for n in range(8, 15) for e in (False, True)]
        for n, ends in order + order[::-1]:
            g = make_graph(n, rng.sample(list(combinations(range(n), 2)), 3 * n))
            if ends:
                assert dense(g.adj, ends=True) == counting._dict_ends(g.adj), g.adj
            else:
                assert dense(g.adj) == [2 * c for c in counting._dict_cycles(g.adj)], g.adj

    def test_edgeless_graphs(self):
        for n in range(1, counting._DENSE_MAX_N + 1):
            assert dense((0,) * n) == [0] * (n + 1)
            assert dense((0,) * n, ends=True) == [0] * n

    def test_plan_cache_is_bounded(self):
        plan = counting._dense_plan
        assert plan.cache_info().maxsize == 2 * counting._DENSE_MAX_N
        for n in range(1, counting._DENSE_MAX_N + 1):
            for cycles in (True, False):
                layers = plan(n, cycles)
                assert len(layers) == n
                for gather, closing in layers:
                    # shared by every caller, and 2-byte up to the cap
                    assert not gather.flags.writeable and not closing.flags.writeable
                    assert gather.dtype == closing.dtype == np.uint16
        assert plan.cache_info().currsize <= plan.cache_info().maxsize
        # every plan up to the cap takes about 1.4 MB
        assert sum(a.nbytes + b.nbytes for n in range(1, counting._DENSE_MAX_N + 1)
                   for c in (True, False) for a, b in plan(n, c)) < 2 << 20

    def test_scratch_is_kept_per_thread(self):
        # the buffer and views of a thread's passes stay its own, and numpy
        # releases the interpreter lock in its products and gathers, so a
        # buffer shared between threads would mix their rows
        rng = random.Random(233)
        graphs = [make_graph(n, rng.sample(list(combinations(range(n), 2)), 3 * n)) for n in (8, 10, 12, 13, 14)]
        want = [([2 * c for c in counting._dict_cycles(g.adj)], counting._dict_ends(g.adj)) for g in graphs]
        failures = []

        def work(offset):
            for i in range(15):
                g = graphs[(offset + i) % len(graphs)]
                if (dense(g.adj), dense(g.adj, ends=True)) != want[(offset + i) % len(graphs)]:
                    failures.append((offset, g.n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_views_are_bounded_and_follow_the_buffer(self):
        # a larger pass replaces the buffer and drops the views into the old
        # one; at most 16 sets of views are kept.  The buffer is bytes, viewed
        # as float32 at nine vertices and as float64 at twelve, which reuse
        # each other's bytes
        rng = random.Random(239)
        for batch in range(1, 25):
            for n in (9, 12):
                graphs = [random_graph(rng, n, 0.6) for _ in range(batch if n == 9 else 1)]
                matrices = np.concatenate([counting._stack(g.adj) for g in graphs])
                doubled = [[2 * c for c in counting._dict_cycles(g.adj)] for g in graphs]
                assert counting._dense_layers(matrices).tolist() == doubled
                assert len(counting._scratch.views) <= 16
                assert counting._scratch.space.dtype == np.uint8
                assert all(np.shares_memory(layer[3], counting._scratch.space)
                           for layers in counting._scratch.views.values() for layer in layers)

    @staticmethod
    def corrupted(n, cycles, layer, which, value, dtype=None):
        """A writable copy of _dense_plan(n, cycles), as ``dtype`` if given,
        with the last index of one array of one layer (``which`` 0 for the
        gather, 1 for the closings) set to ``value``."""
        plan = [[a.astype(dtype or a.dtype) for a in pair] for pair in counting._dense_plan(n, cycles)]
        plan[layer][which][-1] = value
        return plan

    def test_plan_indices_are_checked(self):
        # the dense form gathers in "clip" mode, which reads a bad index as
        # another entry, so every built plan is checked for one
        for n in (8, counting._DENSE_MAX_N):
            for cycles in (True, False):
                plan = counting._dense_plan(n, cycles)
                counting._check_plan(plan, n)
                for p, (_, closing) in enumerate(plan[:-1]):
                    zero = len(closing) * n
                    # the zero entry is a gather's last valid index
                    counting._check_plan(self.corrupted(n, cycles, p, 0, zero), n)
                    with pytest.raises(IndexError, match=f"gather index of layer {p + 1} "):
                        counting._check_plan(self.corrupted(n, cycles, p, 0, zero + 1), n)
                    with pytest.raises(IndexError, match=f"closing index of layer {p + 1} "):
                        counting._check_plan(self.corrupted(n, cycles, p, 1, zero), n)
                # 4-byte plans (past the cap) could hold a negative index
                for which in (0, 1):
                    with pytest.raises(IndexError):
                        counting._check_plan(self.corrupted(n, cycles, 2, which, -1, np.int32), n)

    def test_plan_check_with_asserts_stripped(self):
        code = (
            "from cyclekit import counting\n"
            "plan = [[a.copy() for a in pair] for pair in counting._dense_plan(10, True)]\n"
            "plan[4][0][-1] = len(plan[4][1]) * 10 + 1\n"
            "try:\n"
            "    counting._check_plan(plan, 10)\n"
            "except IndexError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(counting.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0


class TestSubgraphTotals:
    """``subgraph_cycle_totals`` counts the subgraphs of one host in batched
    passes of the dense form up to _DENSE_MAX_N vertices, and one by one
    through ``count_cycles`` above, against the dict DP of each subgraph
    built from its kept edges."""

    @staticmethod
    def built(host, masks):
        edges = list(host.edges())
        return [host.without_edges(e for i, e in enumerate(edges) if mask >> i & 1) for mask in masks]

    def expected(self, host, masks):
        return [sum(counting._dict_cycles(g.adj)) for g in self.built(host, masks)]

    @staticmethod
    def masks(rng, host, count):
        top = 1 << host.edge_count
        return [0, top - 1] + [rng.randrange(top) for _ in range(count)]

    @pytest.fixture
    def batches(self, monkeypatch):
        """Record the number of graphs of every dense pass."""
        calls = []
        layers = counting._dense_layers

        def recording(matrices, *, ends=False):
            calls.append(len(matrices))
            return layers(matrices, ends=ends)

        monkeypatch.setattr(counting, "_dense_layers", recording)
        return calls

    def test_matches_dict_dp(self, batches):
        rng = random.Random(223)
        for n in range(3, counting._DENSE_MAX_N + 1):
            pairs = list(combinations(range(n), 2))
            hosts = [complete_multipartite(turan_class_sizes(n, k)) for k in (2, 3)]
            hosts += [make_graph(n, rng.sample(pairs, min(m, len(pairs)))) for m in (n, 2 * n)]
            for host in hosts:
                masks = self.masks(rng, host, 12 if n <= 12 else 4)
                del batches[:]
                totals = counting.subgraph_cycle_totals(host, masks)
                assert totals == self.expected(host, masks), (n, host.adj)
                assert all(type(c) is int for c in totals)
                assert sum(batches) == len(masks)

    def test_complete_graph_at_the_cap(self):
        # the largest totals the dense form's float64 sums take
        n = counting._DENSE_MAX_N
        whole = sum(comb(n, r) * factorial(r - 1) // 2 for r in range(3, n + 1))
        through = sum(factorial(n - 2) // factorial(n - r) for r in range(3, n + 1))  # cycles through one edge
        assert counting.subgraph_cycle_totals(turan_graph(n, n), [0, 1, 1 << 90]) == [whole, whole - through,
                                                                                   whole - through]

    def test_dense_subgraphs_at_the_float32_edge(self, batches):
        # K_11 less a few edges, in one float32 pass, against count_cycles
        # and the dict DP of each subgraph
        n = counting._DENSE_FLOAT32_MAX_N
        host = turan_graph(n, n)
        rng = random.Random(241)
        masks = [0] + [sum(1 << i for i in rng.sample(range(host.edge_count), rng.randint(1, 4)))
                       for _ in range(4)]
        totals = counting.subgraph_cycle_totals(host, masks)
        assert batches == [len(masks)]
        assert totals == [count_cycles(g) for g in self.built(host, masks)]
        assert totals == self.expected(host, masks)

    @pytest.mark.parametrize("n", [10, counting._DENSE_MAX_N])
    def test_batch_lengths_around_the_chunk(self, monkeypatch, batches, n):
        rng = random.Random(227 + n)
        host = make_graph(n, rng.sample(list(combinations(range(n), 2)), 3 * n))
        # the module's budget, then one that fits three graphs' buffers, at
        # 4 bytes per entry (float32) at n = 10 and 8 (float64) at the cap
        itemsize = 4 if n <= 11 else 8
        assert counting._dense_dtype(n).itemsize == itemsize
        for three in (False, True):
            if three:
                monkeypatch.setattr(counting, "_DENSE_CHUNK_BYTES", 3 * itemsize * (2 * comb(n, n // 2) * n + 1))
            chunk = counting._dense_chunk(n)
            assert chunk == 3 if three else chunk >= 1
            for length in (1, chunk - 1, chunk, chunk + 1):
                masks = [rng.randrange(1 << host.edge_count) for _ in range(length)]
                del batches[:]
                assert counting.subgraph_cycle_totals(host, masks) == self.expected(host, masks), (n, length)
                assert batches == [chunk] * (length // chunk) + [length % chunk] * (length % chunk > 0)

    def test_above_the_dense_cap(self, batches):
        # each subgraph goes through count_cycles, under its caps
        rng = random.Random(229)
        for host in (complete_multipartite((8, 8)), make_graph(15, rng.sample(list(combinations(range(15), 2)), 40))):
            masks = self.masks(rng, host, 4)
            assert counting.subgraph_cycle_totals(host, masks) == [count_cycles(g) for g in self.built(host, masks)]
        assert batches == []
        # past VERTEX_CAP a twin-poor subgraph is refused as count_cycles refuses it
        host = complete_multipartite((13, 13))
        assert counting.subgraph_cycle_totals(host, [0]) == [count_cycles(host)]
        mask = rng.randrange(1 << host.edge_count)
        with pytest.raises(ValueError, match="state cap"):
            count_cycles(self.built(host, [mask])[0])
        with pytest.raises(ValueError, match="state cap"):
            counting.subgraph_cycle_totals(host, [0, mask])

    def test_masks_outside_the_edge_range(self):
        for host in (K4, complete_multipartite((8, 8))):
            top = 1 << host.edge_count
            assert counting.subgraph_cycle_totals(host, [top - 1]) == [0]
            for mask in (-1, top, top << 3):
                with pytest.raises(ValueError, match="edge mask"):
                    counting.subgraph_cycle_totals(host, [0, mask])
        assert counting.subgraph_cycle_totals(make_graph(3, []), [0]) == [0]
        assert counting.subgraph_cycle_totals(K4, []) == []

    def test_numpy_masks_and_float_masks(self):
        # numpy integer masks count as ints do, on both sides of the dense
        # cap; a float mask is not an edge set
        rng = random.Random(233)
        for host in (K5, complete_multipartite((8, 7))):
            masks = self.masks(rng, host, 4)
            want = counting.subgraph_cycle_totals(host, masks)
            assert counting.subgraph_cycle_totals(host, np.array(masks, dtype=np.int64)) == want
            assert counting.subgraph_cycle_totals(host, [np.uint64(m) for m in masks]) == want
            for bad in (1.0, 2.5, np.float64(3)):
                with pytest.raises(TypeError):
                    counting.subgraph_cycle_totals(host, [0, bad])

    def test_odd_count_raises(self, monkeypatch):
        monkeypatch.setattr(counting, "_dense_layers", odd_dense_closings)
        with pytest.raises(ArithmeticError):
            counting.subgraph_cycle_totals(K5, [0, 3])

    def test_odd_count_raises_with_asserts_stripped(self):
        code = (
            "import numpy as np\n"
            "from cyclekit import counting\n"
            "from cyclekit.graphs import turan_graph\n"
            "counting._dense_layers = lambda matrices, **options: "
            "np.array([[0, 0, 0, 1] + [0] * (matrices.shape[1] - 3)] * len(matrices))\n"
            "try:\n"
            "    counting.subgraph_cycle_totals(turan_graph(10, 10), [0, 5])\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(counting.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0


class TestKernelSelection:
    """``_kernel_pays`` sends a vertex count to the numpy kernel or to the
    dict DP by n, the edge count and the number of kernel passes; the kernel
    counts cycles in two passes, the lowest anchor alone and every higher
    anchor together, and paths in one.  All forms must agree."""

    def test_routing_by_density(self, kernel_calls, dense_calls):
        rng = random.Random(113)
        dense = [random_graph(rng, n, p) for n in (9, 10) for p in (0.75, 0.9)]
        dense += [turan_graph(10, 10), turan_graph(10, 3)]
        # the shapes of the oracle workload's graphs, and twin-free ones past
        # the dense form's cap, which the sparse kernel takes
        dense += [make_graph(n, rng.sample(list(combinations(range(n), 2)), m))
                  for n, m in ((13, 39), (14, 48), (15, 45), (16, 48)) for _ in range(2)]
        sparse = [random_graph(rng, n, p) for n in (11, 12) for p in (0.2, 0.25)]
        small = [random_graph(rng, n, p) for n in range(3, 8) for p in (0.3, 0.6, 1.0)]
        for kernel, group in ((True, dense), (False, sparse + small)):
            for g in group:
                # the dense form up to its cap, the sparse kernel above it
                expected = (kernel and g.n <= counting._DENSE_MAX_N, kernel and g.n > counting._DENSE_MAX_N)
                del kernel_calls[:], dense_calls[:]
                assert count_cycles(g) == sum(walk_cycle_spectrum(g).values())
                assert (bool(dense_calls), bool(kernel_calls)) == expected, (g.n, g.edge_count)
                del kernel_calls[:], dense_calls[:]
                count_paths_from(g, g.n - 1)
                assert (bool(dense_calls), bool(kernel_calls)) == expected, (g.n, g.edge_count)

    @pytest.mark.parametrize(
        "n, m, cycles_on_kernel, paths_on_kernel",
        [
            (8, 21, False, False),  # below the floor of 22 edges
            (14, 23, False, True),  # n + 9 <= m < n + 15
            (16, 30, False, True),
            (19, 28, False, True),
            (20, 34, False, True),
            (20, 35, True, True),  # n + 15
            (22, 34, False, False),  # 3n - 31 = 35 for paths
            (22, 37, False, True),  # 3n - 28 = 38 > n + 15 for cycles
            (22, 38, True, True),
            (24, 40, False, False),
            (24, 41, False, True),
            (24, 44, True, True),
        ],
    )
    def test_routing_by_passes(self, kernel_calls, dense_calls, n, m, cycles_on_kernel, paths_on_kernel):
        # one kernel pass for paths overtakes the dict DP before two passes
        # for cycles do; from 21 vertices on, the 2^n slot table sets the
        # rule.  The kernel is its dense form up to _DENSE_MAX_N vertices.
        g = make_graph(n, random.Random(n * 100 + m).sample(list(combinations(range(n), 2)), m))
        dense = n <= counting._DENSE_MAX_N
        del kernel_calls[:], dense_calls[:]
        cycles = counting._vertex_cycles(g.adj)
        assert (bool(dense_calls), bool(kernel_calls)) == (cycles_on_kernel and dense, cycles_on_kernel and not dense)
        if cycles_on_kernel:
            assert cycles == counting._dict_cycles(g.adj)
        del kernel_calls[:], dense_calls[:]
        paths = count_paths_from(g, 0)
        assert (bool(dense_calls), bool(kernel_calls)) == (paths_on_kernel and dense, paths_on_kernel and not dense)
        assert paths == {y: c for y, c in enumerate(counting._dict_ends(g.adj)) if c}

    def test_both_forms_in_one_call_match_walk_oracle(self, kernel_only):
        # "both forms": the lone pass and the pass over the higher anchors
        rng = random.Random(53)
        for n in range(11, 17):
            for p in (0.2, 0.45, 0.8):
                g = random_graph(rng, n, p)
                del kernel_only[:]
                assert counting._vertex_spectrum(g) == walk_cycle_spectrum(g), (n, p)
                assert kernel_only[0][1] == 1 and len(kernel_only) <= 2

    def test_kernel_takes_every_anchor_at_n22_23(self, kernel_calls):
        rng = random.Random(79)
        for n in (22, 23):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = make_graph(n, rng.sample(pairs, 2 * n))
            del kernel_calls[:]
            spec = cycle_spectrum(g)
            assert kernel_calls[0][1] == 1 and len(kernel_calls) == 2
            assert spec == dict_spectrum(g)
            assert 3 * spec.get(3, 0) == sum(codegree(g, u, v) for u, v in g.edges())
            assert 2 * spec.get(4, 0) == sum(comb(codegree(g, u, v), 2) for u, v in pairs)

    def test_matches_dict_dp_on_random_graphs(self, kernel_only):
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(11, 15)
            g = random_graph(rng, n, rng.random())
            assert counting._vertex_spectrum(g) == dict_spectrum(g)
        assert kernel_only

    def test_cycle_18(self, kernel_only):
        assert cycle_spectrum(cycle_graph(18)) == {18: 1}
        # only anchor 0 has two neighbours above it
        assert kernel_only == [(18, 1)]

    def test_sparse_18_identities(self, kernel_only):
        rng = random.Random(59)
        pairs = [(u, v) for u in range(18) for v in range(u + 1, 18)]
        g = make_graph(18, rng.sample(pairs, 27))
        spec = cycle_spectrum(g)
        assert 3 * spec.get(3, 0) == sum(codegree(g, u, v) for u, v in g.edges())
        assert 2 * spec.get(4, 0) == sum(comb(codegree(g, u, v), 2) for u, v in pairs)
        lhs = sum(count_paths_from(g, u).get(v, 0) for u, v in g.edges())
        assert lhs == sum(r * c for r, c in spec.items()) + g.edge_count
        assert kernel_only[0][1] == 1 and kernel_only[1][1] > 1

    def test_paths_at_n12_match_enumeration(self, kernel_only):
        rng = random.Random(61)
        for p in (0.3, 0.4):
            g = random_graph(rng, 12, p)
            x = rng.randrange(12)
            from_x = count_paths_from(g, x)
            assert from_x == {y: c for y in range(12) if y != x if (c := brute_count_paths(g, x, y))}
            assert from_x == {y: c for y, c in enumerate(paths_by_dict_dp(g, x)) if c}
        assert kernel_only == [(12, 1), (12, 1)]

    def test_paths_at_n13_match_enumeration(self, kernel_only):
        rng = random.Random(89)
        g = random_graph(rng, 13, 0.3)
        for x in (0, 6, 12):
            from_x = count_paths_from(g, x)
            assert from_x == {y: c for y in range(13) if y != x if (c := brute_count_paths(g, x, y))}
            assert from_x == {y: c for y, c in enumerate(paths_by_dict_dp(g, x)) if c}
        assert kernel_only == [(13, 1)] * 3

    def test_dedup_with_repeated_masks(self):
        rng = np.random.default_rng(97)
        slot = np.full(1 << 10, -7, dtype=np.intp)  # stale values must not matter
        for size in (0, 1, 5, 300):
            keys = rng.integers(0, 40, size) << rng.integers(0, 5, size)
            distinct, where = counting._dedup(keys, slot)
            assert sorted(distinct.tolist()) == np.unique(keys).tolist()
            assert (distinct[where] == keys).all()

    def test_cycle_22_with_chord(self, kernel_only):
        g = cycle_graph(22).with_edge(0, 7)
        assert cycle_spectrum(g) == {8: 1, 16: 1, 22: 1}
        assert count_paths_from(g, 0)[7] == 3
        # anchor 0 alone has two neighbours above it, and x = 0 is the path anchor
        assert kernel_only == [(22, 1), (22, 1)]

    def test_twin_free_graph_runs_the_kernel(self, kernel_calls, dense_calls):
        # the dense form in one pass up to its cap, the sparse kernel in two
        # passes above it
        rng = random.Random(71)
        for n, m in ((13, 40), (16, 48)):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = make_graph(n, rng.sample(pairs, m))
            assert len(twin_classes(g)) == n
            del kernel_calls[:], dense_calls[:]
            assert cycle_spectrum(g) == dict_spectrum(g)
            if n <= counting._DENSE_MAX_N:
                assert dense_calls == [(n, False)] and kernel_calls == []
            else:
                assert dense_calls == [] and len(kernel_calls) == 2 and kernel_calls[0] == (n, 1)

    def test_twin_rich_graph_skips_the_kernel(self, kernel_calls):
        assert cycle_spectrum(complete_multipartite((8, 8))) == cycle_spectrum_multipartite((8, 8))
        assert kernel_calls == []

    def test_small_graphs_keep_the_dict_dp(self, kernel_calls):
        # graphs on seven or fewer vertices, even complete ones
        g = turan_graph(7, 7)
        assert cycle_spectrum(g) == {i: factorial(i) // (2 * i) * comb(7, i) for i in range(3, 8)}
        assert count_paths_from(g, 0) == {y: sum(paths_through(7, k) for k in range(6)) for y in range(1, 7)}
        assert kernel_calls == []


def without_edge_between(sizes, i, j, rng):
    """The complete multipartite graph on ``sizes`` less one random edge
    between classes i and j (0-based)."""
    start = [sum(sizes[:w]) for w in range(len(sizes))]
    u = start[i] + rng.randrange(sizes[i])
    v = start[j] + rng.randrange(sizes[j])
    return complete_multipartite(sizes).without_edges([(u, v)])


def blowup_sizes(rng, n, t):
    """A random composition of n into t positive class sizes."""
    cuts = sorted(rng.sample(range(1, n), t - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


class TestQuotient:
    """The DP over twin classes, which cycle_spectrum runs on graphs with at
    least _QUOTIENT_MIN_N vertices and fewer twin classes, and on every graph
    past VERTEX_CAP that the state cap admits."""

    def test_matches_walk_oracle_on_blowups(self):
        rng = random.Random(67)
        kinds = set()
        for n in (11, 11, 12, 12, 13, 13):
            g = random_blowup(rng, blowup_sizes(rng, n, rng.randint(3, 7)), rng.uniform(0.4, 0.9))
            classes = twin_classes(g)
            assert len(classes) < counting._QUOTIENT_MIN_N
            kinds |= {g.has_edge(*cls[:2]) for cls in classes if len(cls) > 1}
            assert counting._quotient_spectrum(g, classes) == walk_cycle_spectrum(g)
        assert kinds == {False, True}  # open and clique classes both occur

    def test_matches_vertex_dp_on_small_blowups(self):
        rng = random.Random(73)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_blowup(rng, blowup_sizes(rng, n, rng.randint(1, n)), rng.random())
            assert counting._quotient_spectrum(g, twin_classes(g)) == counting._vertex_spectrum(g)

    def test_matches_reference_on_symmetric_blowups(self):
        # random_blowup draws random sizes, so it almost never makes classes
        # that the quotient may permute; these blow-ups have groups of them
        rng = random.Random(131)
        kinds = set()
        for _ in range(60):
            n_max, groups, n = rng.randint(6, 24), [], 0
            while True:
                m, s = rng.randint(1, 4), rng.randint(1, 4)
                if n + m * s > n_max:
                    break
                groups.append((m, s, rng.random() < 0.5))
                n += m * s
            if not groups:
                continue
            g = symmetric_blowup(rng, groups, rng.uniform(0.3, 0.9))
            classes = twin_classes(g)
            for group in counting._class_graph(g, classes)[1]:
                first = classes[group[0]]
                kinds.add(len(first) > 1 and g.has_edge(*first[:2]))
                for w in group[1:]:
                    # swapping two peers class for class is an automorphism
                    perm = list(range(g.n))
                    for x, y in zip(first, classes[w]):
                        perm[x], perm[y] = y, x
                    assert g.relabel(perm) == g
            spectrum = counting._quotient_spectrum(g, classes)
            assert spectrum == reference_quotient_spectrum(g, classes)
            if g.n <= 13:
                assert spectrum == walk_cycle_spectrum(g)
        assert kinds == {False, True}  # peers that are cliques and peers that are not

    @pytest.mark.parametrize("n, k", [(12, 3), (13, 4), (16, 4), (20, 5), (24, 3), (24, 6)])
    def test_matches_reference_on_turan_edits(self, n, k):
        # T_k(n), with one edge added inside a class and with one removed
        # between two classes
        sizes = turan_class_sizes(n, k)
        g = complete_multipartite(sizes)
        u, v = random.Random(n * k).sample(range(sizes[0]), 2)
        for edited in (g, g.with_edge(u, v), g.without_edges([(0, n - 1)])):
            classes = twin_classes(edited)
            spectrum = counting._quotient_spectrum(edited, classes)
            assert spectrum == reference_quotient_spectrum(edited, classes)
            if n <= 13:
                assert spectrum == walk_cycle_spectrum(edited)

    @pytest.mark.parametrize(
        "parts, states",
        [
            ((4,) * 10, 5 * comb(13, 4)),  # T_10(40): 5^10 vectors, above the state cap
            ((8,) * 8, 9 * comb(15, 7)),  # T_8(64)
            ((5, 4, 4, 5), 6 * 6 * comb(6, 2)),  # from class 0, only its peer 3 lies above it
            (range(1, 10), factorial(10)),  # no peers: the product of (|w| + 1)
        ],
    )
    def test_state_bound_counts_orbits(self, parts, states):
        g = complete_multipartite(parts)
        assert counting._quotient_states(g, twin_classes(g)) == states

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

    def test_minus_edge_oracle_on_small_compositions(self):
        rng = random.Random(109)
        for _ in range(40):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            i, j = rng.sample(range(len(sizes)), 2)
            g = without_edge_between(sizes, i, j, rng)
            assert cycle_spectrum(g) == minus_edge_spectrum(sizes, i, j), (sizes, i, j)

    @pytest.mark.parametrize("n, k", [(45, 3), (40, 4), (30, 5)])
    def test_turan_less_one_edge_past_the_vertex_cap(self, n, k):
        sizes = turan_class_sizes(n, k)
        g = without_edge_between(sizes, 0, k - 1, random.Random(n))
        assert len(twin_classes(g)) == k + 2
        assert cycle_spectrum(g) == minus_edge_spectrum(sizes, 0, k - 1)

    @pytest.mark.parametrize(
        "parts, quotient",
        [
            # six peers of size 2: 8 * 3 * C(7, 5) * 7 < 2^13 orbit states,
            # where 8 * 2 * 3^6 * 7 vectors of used vertices are not
            ((1, 2, 2, 2, 2, 2, 2), True),
            ((5, 5, 4), True),
            ((3, 3, 3, 3, 2), True),  # T_5(14): 8 * 4 * C(6, 3) * 3 * 5 < 2^14
            ((2,) * 7, True),  # T_7(14): 8 * 3 * C(8, 6) * 7 < 2^14
            ((3, 3, 3, 3, 3), True),  # past the dense cap: fewer than 11 classes
            ((2,) * 8, True),
        ],
    )
    def test_routing_by_states(self, monkeypatch, parts, quotient):
        # up to _DENSE_MAX_N vertices the quotient runs when eight times its
        # orbit states and end classes stay below the dense form's 2^n sets;
        # above that, when there are fewer than _QUOTIENT_MIN_N classes
        calls = []
        spectrum = counting._quotient_spectrum
        monkeypatch.setattr(counting, "_quotient_spectrum", lambda g, classes: calls.append(g) or spectrum(g, classes))
        assert cycle_spectrum(complete_multipartite(parts)) == cycle_spectrum_multipartite(parts)
        assert bool(calls) == quotient

    def test_routing_by_orbit_states(self, monkeypatch, dense_calls):
        # twin-rich graphs whose peers cut the quotient's states take it,
        # where their vectors of used vertices would pick the dense form;
        # twin-poor graphs, such as the oracle workload's G(13, 44) and
        # G(14, 48), have no two classes of one size >= 2, so their states
        # are the product as before, never computed by _quotient_states
        calls = []
        states = counting._quotient_states
        monkeypatch.setattr(counting, "_quotient_states", lambda g, classes: calls.append(g) or states(g, classes))
        for parts in ((2,) * 7, (1, 2, 2, 2, 2, 2, 2)):
            g = complete_multipartite(parts)
            classes = twin_classes(g)
            assert 8 * prod(len(cls) + 1 for cls in classes) * len(classes) >= 1 << g.n
            del calls[:], dense_calls[:]
            assert cycle_spectrum(g) == cycle_spectrum_multipartite(parts)
            assert calls == [g] and dense_calls == [], parts
        rng = random.Random(211)
        for n, m in ((13, 44), (14, 48)):
            for _ in range(3):
                g = make_graph(n, rng.sample(list(combinations(range(n), 2)), m))
                del calls[:], dense_calls[:]
                assert cycle_spectrum(g) == dict_spectrum(g)
                assert calls == [] and dense_calls == [(n, False)], (n, m)
        # one class of each size >= 2: no peers, so no states to count
        g = complete_multipartite((5, 3, 2, 1))
        del calls[:], dense_calls[:]
        assert cycle_spectrum(g) == cycle_spectrum_multipartite((5, 3, 2, 1))
        assert calls == []

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
