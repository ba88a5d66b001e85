"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line.  Criteria resting on recomputed values
(the optimizer anchor, the edge-path identity constant) assert the value an
independent in-test oracle produces; where that differs from a stated
constant the printed line says so explicitly.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import permutations

from cyclekit.analytic import (
    bipartite_cycle_counts,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    prob_Q_given_P,
    rooted_hamilton_permutations_general,
)
from cyclekit.bounds import (
    check_bipartite_decay,
    check_recursion,
    check_total_to_hamilton,
    path_bound_exhaustive,
    path_bound_structured,
    report_asymptotic_ratio,
)
from cyclekit.counting import count_paths_from, cycle_spectrum
from cyclekit.graphs import complete_multipartite, turan_class_sizes, turan_edge_count, turan_graph
from cyclekit.graph_io import graph_from_graph6, named_graph
from cyclekit.morphisms import is_isomorphic
from cyclekit.randcodes import estimate_prob
from cyclekit.search import (
    compositions_exact,
    max_cycles_h_free,
    partitions_at_most,
    verify_balanced_code_probability,
    verify_rooted_move_inequality,
    verify_turan_dominance,
)

from _oracles import brute_path_product_max, random_graph

SEED = 20260808


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok


def test_c01_analytic_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for total in range(3, 11):
        for k in range(1, 5):
            for comp in compositions_exact(total, k):
                g = complete_multipartite(comp)
                spectrum = cycle_spectrum(g)
                assert hamilton_multipartite(comp) == spectrum.get(total, 0), comp
                assert cycle_spectrum_multipartite(comp) == spectrum, comp
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 300,
        f"analytic equals subset-DP on {checked} compositions "
        f"(sum<=10, k<=4), exact, in {elapsed:.1f}s",
    )


def test_c02_bipartite_closed_form():
    for n in range(4, 15):
        spectrum, total = bipartite_cycle_counts(n)
        dp = cycle_spectrum(turan_graph(n, 2))
        assert spectrum == dp, n
        assert total == sum(dp.values())
    _report(2, True, "falling-factorial spectrum equals subset-DP for 4<=n<=14, all lengths")


def test_c03_turan_dominance_suite():
    checked = 0
    for k in (2, 3, 4):
        for n in range(3, 10):
            if k > n:
                continue
            rep = verify_turan_dominance(n, k, sample_subgraphs=1000, seed=SEED)
            assert rep.passed, (n, k, rep.failures)
            checked += len(rep.cases)
    _report(
        3,
        True,
        f"balanced dominance exact on {checked} compositions (n<=9, k<=4), "
        "strict totals at n>=5, 1000 sampled proper subgraphs each, zero failures",
    )


def test_c04_balanced_probability_suite():
    checked = 0
    for k in (2, 3, 4):
        for n in range(2, 15):
            rep = verify_balanced_code_probability(n, k)
            assert rep.passed, (n, k)
            checked += len(rep.cases)
    _report(
        4,
        True,
        f"balanced content maximizes adjacency-distinct probability: "
        f"{checked} exact rational comparisons (n<=14, k<=4), zero failures",
    )


def test_c05_move_inequality_suite():
    checked = 0
    for k in (3, 4):
        for n in range(k, 15):
            rep = verify_rooted_move_inequality(n, k)
            assert rep.passed, (n, k)
            checked += len(rep.cases)
    _report(
        5,
        True,
        f"rooted move inequality exact on {checked} applicable composition "
        "pairs (n<=14, k=3,4), zero failures",
    )


def test_c06_rooted_sum_identity():
    checked = 0
    for total in range(3, 13):
        for comp in partitions_at_most(total, total):
            if len(comp) < 2:
                continue
            # both sides depend only on the multiset and the front part, so
            # distinct front values cover every ordering of the composition
            for front in sorted(set(comp)):
                rest = list(comp)
                rest.remove(front)
                arranged = (front, *rest)
                lhs = 2 * hamilton_multipartite(arranged)
                rhs = sum(
                    rooted_hamilton_permutations_general(arranged, 1, j)
                    for j in range(2, len(arranged) + 1)
                )
                assert lhs == rhs, arranged
                checked += 1
    _report(
        6,
        True,
        f"twice the Hamilton count equals the rooted-permutation sum on "
        f"{checked} rooted compositions, n<=12, exact",
    )


def test_c07_inequality_grids():
    recursion_checked = 0
    for k in (3, 4):
        for n in range(4, 31):
            for i in range(0, 6):
                if n - i < 3:
                    continue
                assert check_recursion(n, k, i).holds, (n, k, i)
                recursion_checked += 1
    second_checked = 0
    for k in (3, 4):
        for n in range(3, 31):
            assert check_total_to_hamilton(n, k).holds, (n, k)
            second_checked += 1
    decay_checked = 0
    for n in range(4, 31):
        for i in range(0, 5):
            if n - i < 4:
                continue
            assert check_bipartite_decay(n, i).holds, (n, i)
            decay_checked += 1
    _report(
        7,
        True,
        f"holds=true everywhere: recursion {recursion_checked} points, "
        f"total-vs-hamilton {second_checked}, bipartite decay {decay_checked}, "
        "transcendental factors rounded against the inequality",
    )


def test_c08_path_product_optimizer():
    n0 = 5
    grid_points = 0
    for n in range(n0 + 1, 13):
        for m in range(0, turan_edge_count(n, 2) + 1):
            s = path_bound_structured(n, m, 2, n0)
            assert s.value <= path_bound_exhaustive(n, m, 2), (n, m)
            grid_points += 1
    # anchor at (n=5, m=6) with the triangle-free table, recomputed by the
    # independent enumeration oracle: optimum 9 at (0,0,3,3); the sequence
    # (0,2,2,2) is feasible with value 8 but not optimal
    table = {t: t * t // 4 for t in range(2, 6)}  # Mantel: ex(t, K3) = floor(t^2/4)
    oracle = brute_path_product_max(5, 6, table)
    assert oracle == 9
    assert path_bound_exhaustive(5, 6, 2) == oracle
    feasible_value = 1
    prefix = 0
    for idx, r in enumerate((0, 2, 2, 2)):
        prefix += r
        assert prefix <= table[idx + 2]
        feasible_value *= max(r, 1)
    assert feasible_value == 8 <= oracle
    _report(
        8,
        True,
        f"structured <= exhaustive on {grid_points} grid points (n<=12, m<=t_2(n)); "
        "anchor (n=5,m=6) optimum recomputed by enumeration oracle = 9 "
        "(stated value 8 comes from the feasible but non-optimal (0,2,2,2); "
        "deviation documented in the decisions ledger)",
    )


def test_c09_edge_path_identity():
    rng = random.Random(SEED)
    for trial in range(200):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.random())
        lhs = 0
        for x in range(n):
            from_x = count_paths_from(g, x)
            lhs += sum(from_x.get(y, 0) for y in range(x + 1, n) if g.has_edge(x, y))
        rhs = sum(r * c for r, c in cycle_spectrum(g).items())
        # each length-r cycle closes once per edge; each edge also carries its
        # own single-edge path, hence the +e(G) (exact form of the identity)
        assert lhs == rhs + g.edge_count, trial
    _report(
        9,
        True,
        "edge-path identity (sum of p_xy over edges = sum r*c_r + e) exact "
        "on 200 random graphs, n<=10",
    )


def test_c10_extremal_search():
    k3 = named_graph("K3")
    t0 = time.perf_counter()
    results = {n: max_cycles_h_free(n, k3, forbid_label="K3") for n in range(3, 9)}
    elapsed = time.perf_counter() - t0
    r5 = results[5]
    assert r5.max_cycles == 3
    _, closed_form_total = bipartite_cycle_counts(5)
    assert closed_form_total == 3
    assert any(
        is_isomorphic(graph_from_graph6(s), turan_graph(5, 2))
        for s in r5.extremal_graphs
    )
    summary = ", ".join(
        f"m({n};K3)={results[n].max_cycles}"
        + ("*" if any(
            is_isomorphic(graph_from_graph6(s), turan_graph(n, 2))
            for s in results[n].extremal_graphs
        ) else "")
        for n in sorted(results)
    )
    _report(
        10,
        elapsed < 1800,
        f"{summary} (* = balanced bipartite among extremal); "
        f"m(5;K3)=3 matches closed form; swept in {elapsed:.1f}s",
    )


def test_c11_asymptotic_ratio_window():
    worst = (None, None)
    for n in range(30, 61):
        ratio = report_asymptotic_ratio(n, 2).detail["ratio"]
        assert 0.8 < ratio < 1.25, (n, ratio)
        if worst[1] is None or abs(ratio - 1) > abs(worst[1] - 1):
            worst = (n, ratio)
    _report(
        11,
        True,
        f"longest-even-cycle ratio against pi 2^-n n^n e^-n inside (0.8, 1.25) "
        f"for 30<=n<=60; farthest from 1 at n={worst[0]}: {worst[1]:.4f}",
    )


def test_c12_monte_carlo_consistency():
    samples = 10**6
    checked = 0
    for k in (2, 3):
        for n in range(3, 9):
            q_exact = Fraction((k - 1) ** n + (-1) ** n * (k - 1), k**n)
            est = estimate_prob(n, k, "Q", samples, SEED)
            assert abs(est.estimate - float(q_exact)) <= 4 * max(est.stderr, 1e-9), (n, k)
            checked += 1
            balanced = turan_class_sizes(n, k)
            p_exact = (
                prob_Q_given_P(balanced)
                * Fraction(_multinomial(n, balanced), k**n)
            )
            est_p = estimate_prob(n, k, "P", samples, SEED + 1, content=balanced)
            want_p = Fraction(_multinomial(n, balanced), k**n)
            assert abs(est_p.estimate - float(want_p)) <= 4 * max(est_p.stderr, 1e-9)
            checked += 1
            est_qp = estimate_prob(n, k, "QP", samples, SEED + 2, content=balanced)
            assert abs(est_qp.estimate - float(p_exact)) <= 4 * max(est_qp.stderr, 1e-9)
            checked += 1
    # byte-exact seeded determinism
    a = estimate_prob(6, 3, "Q", 10**5, SEED)
    b = estimate_prob(6, 3, "Q", 10**5, SEED)
    assert a == b
    _report(
        12,
        True,
        f"{checked} Monte Carlo estimates within 4 standard errors of exact "
        "values (n<=8, k<=3, 10^6 samples); identical seeds reproduce results exactly",
    )


def _multinomial(n: int, content: tuple[int, ...]) -> int:
    from math import factorial

    out = factorial(n)
    for c in content:
        out //= factorial(c)
    return out
