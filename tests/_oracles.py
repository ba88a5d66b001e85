"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities by direct enumeration, deliberately
avoiding the algorithms under test (no subset DP, no multiset-state word DP,
no pruned backtracking).  Exponential everywhere; keep inputs tiny.  The
exceptions are reference implementations that the package once used and that
its replacements must match bit for bit: :func:`reference_canonical_label`,
the canonical labelling without twin pruning, :func:`reference_contains_subgraph`,
containment by one search from anywhere in G, :func:`reference_enumerate_graphs`,
the twin augmentation with one dedup set per level, and the memoized
cyclic-word DP with its sub-vector walk (``reference_*_word_count``,
:func:`reference_cycle_spectrum_multipartite` and, for equal classes,
:func:`reference_spectrum_equal_classes`), the ``stepcount`` suite without
its memo (:func:`reference_rooted_move_inequality`), the ``major``,
``close`` and ``turancount`` suites as they were before they paid per
distinct content (:func:`reference_balanced_code_probability` with a
``Fraction`` per case, :func:`reference_rooted_turan_envelope` with the
pairwise :func:`reference_matched_balanced`, and
:func:`reference_rooted_class_share` with a rooted count per pair), the
recursive composition generators (:func:`reference_partitions_at_most`,
:func:`reference_compositions_exact`), the one-shot Monte Carlo
draw :func:`reference_estimate_hits`, :func:`reference_cmd_verify`, the
``verify`` command with one branch per suite,
:func:`reference_turan_dominance`, the ``turanbest`` suite with every
sampled subgraph built from its edge list and counted through its
spectrum, :func:`reference_path_bound_exhaustive`, the path-product
optimum re-solved for each budget by a recursion memoized on (position,
budget used), and :func:`reference_quotient_spectrum`, the DP over twin
classes with one state per vector of used vertices, before it kept one per
orbit of interchangeable classes.  :func:`minus_edge_spectrum` counts the
cycles of a complete multipartite graph less one edge from the ``analytic``
counts alone, the check of ``counting`` past 24 vertices.
:func:`graph_texts` is the hypothesis strategy of parser input that the
fuzz tests share, and :func:`partitions_exact`, :func:`extremal_number`,
:func:`random_blowup` and :func:`symmetric_blowup` are helpers that only
the tests use.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from cyclekit import bounds, search
from cyclekit.analytic import (
    code_cycle_count,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    rooted_hamilton_permutations_general,
)
from cyclekit.cli import CHECK_FAILED
from cyclekit.graph_io import graph_to_graph6
from cyclekit.counting import cycle_spectrum
from cyclekit.graphs import Graph, _bits, make_graph, turan_class_sizes, turan_edge_count


def brute_cycle_spectrum(g: Graph) -> dict[int, int]:
    """Count cycles by enumerating vertex subsets and cyclic orders."""
    counts: dict[int, int] = {}
    for r in range(3, g.n + 1):
        for subset in combinations(range(g.n), r):
            anchor = subset[0]
            rest = subset[1:]
            seen = 0
            for perm in permutations(rest):
                if r > 2 and perm[0] > perm[-1]:
                    continue  # quotient out reflection
                walk = (anchor,) + perm
                if all(
                    g.has_edge(walk[i], walk[(i + 1) % r]) for i in range(r)
                ):
                    seen += 1
            if seen:
                counts[r] = counts.get(r, 0) + seen
    return counts


def walk_cycle_spectrum(g: Graph) -> dict[int, int]:
    """Count cycles by inclusion-exclusion over closed walks (Karp/Bax style).

    A closed walk of length r visiting r distinct vertices is one of the 2r
    rootings and directions of an r-cycle.  The closed walks of length r whose
    vertex set is exactly S number sum over T subset of S of
    (-1)^{|S|-|T|} tr(A_T^r), so summing over |S| = r gives
    2r * c_r = sum_T (-1)^{r-|T|} C(n-|T|, r-|T|) tr(A_T^r).
    Polynomial per subset, so it reaches n = 16 where enumeration cannot; the
    subsets of one size are multiplied as one stack.  Every entry of A_T^r is
    at most the one of K_n, so traces fit int64 while (n-1)^n + n-1 < 2^63,
    and they are summed as Python ints.
    """
    n = g.n
    if n > 16:
        raise ValueError("walk oracle keeps traces in int64 only up to n = 16")
    full = np.array([[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)], dtype=np.int64)
    doubled = [0] * (n + 1)
    for t in range(1, n + 1):
        subsets = np.array(list(combinations(range(n), t)), dtype=np.intp)
        a = full[subsets[:, :, None], subsets[:, None, :]]
        power = np.linalg.matrix_power(a, max(t, 3) - 1)
        for r in range(max(t, 3), n + 1):
            power = power @ a
            traces = sum(np.trace(power, axis1=1, axis2=2).tolist())
            doubled[r] += (-1) ** (r - t) * comb(n - t, r - t) * traces
    return {r: doubled[r] // (2 * r) for r in range(3, n + 1) if doubled[r]}


def brute_count_paths(g: Graph, x: int, y: int) -> int:
    """Count simple x-y paths by DFS enumeration."""
    total = 0
    stack = [(x, 1 << x)]
    while stack:
        v, visited = stack.pop()
        for w in range(g.n):
            if g.has_edge(v, w) and not visited >> w & 1:
                if w == y:
                    total += 1
                else:
                    stack.append((w, visited | 1 << w))
    return total


def brute_code_count(
    content: tuple[int, ...], rooted: tuple[int, int] | None = None
) -> int:
    """Enumerate all words over {1..k} and filter."""
    k = len(content)
    n = sum(content)
    total = 0
    for word in product(range(1, k + 1), repeat=n):
        if any(word.count(letter) != content[letter - 1] for letter in range(1, k + 1)):
            continue
        if any(word[i] == word[(i + 1) % n] for i in range(n)):
            continue
        if rooted is not None and (word[0], word[1]) != rooted:
            continue
        total += 1
    return total


def brute_contains(g: Graph, h: Graph, through: int | None = None) -> bool:
    """Subgraph containment by scanning all vertex subsets and bijections;
    with ``through`` set, only subsets holding that g-vertex count."""
    if h.n > g.n:
        return False
    h_edges = list(h.edges())
    for subset in combinations(range(g.n), h.n):
        if through is not None and through not in subset:
            continue
        for image in permutations(subset):
            if all(g.has_edge(image[u], image[v]) for u, v in h_edges):
                return True
    return False


def reference_contains_subgraph(g: Graph, h: Graph, *, require_vertex: int | None = None) -> bool:
    """Containment as the package tested it before its search was rooted:
    one backtracking search over H's vertices, each touching the prefix where
    it can, from anywhere in g, with ``require_vertex`` forced into H's last
    slot when no earlier image covers it."""
    if h.n > g.n:
        return False
    order: list[int] = []
    placed = 0
    remaining = set(range(h.n))
    while remaining:
        best = best_key = None
        for v in remaining:
            key = ((h.adj[v] & placed).bit_count(), h.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed |= 1 << best
        remaining.discard(best)
    h_deg = [h.degree(v) for v in range(h.n)]
    g_deg = [row.bit_count() for row in g.adj]
    if h.edge_count > sum(g_deg) // 2:
        return False
    image = [-1] * h.n
    g_all = (1 << g.n) - 1

    def extend(pos: int, used: int, hit: bool) -> bool:
        if pos == h.n:
            return hit
        hv = order[pos]
        candidates = g_all & ~used
        for hu in _bits(h.adj[hv]):
            if image[hu] >= 0:
                candidates &= g.adj[image[hu]]
        if not hit and pos == h.n - 1:
            candidates &= 1 << require_vertex  # last slot must cover it
        for gv in _bits(candidates):
            if g_deg[gv] < h_deg[hv]:
                continue
            image[hv] = gv
            if extend(pos + 1, used | 1 << gv, hit or gv == require_vertex):
                return True
            image[hv] = -1
        return False

    return extend(0, 0, require_vertex is None)


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return any(tuple(g.relabel(p).adj) == h.adj for p in permutations(range(g.n)))


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation p (v goes to p[v]) that preserves the adjacency."""
    return [
        p for p in permutations(range(g.n))
        if all(sum(1 << p[u] for u in _bits(g.adj[v])) == g.adj[p[v]] for v in range(g.n))
    ]


def brute_automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Lowest vertex of each vertex's orbit, from every permutation that
    preserves the adjacency."""
    orbit = list(range(g.n))
    for p in brute_automorphisms(g):
        for v in range(g.n):
            orbit[p[v]] = min(orbit[p[v]], v)
    return tuple(orbit)


def generated_group(n: int, generators: Sequence[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The permutation group on range(n) that ``generators`` generate, by
    closing the identity under composition with each generator."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for a in generators:
            q = tuple(a[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def brute_chromatic(g: Graph) -> int:
    for t in range(1, g.n + 1):
        for coloring in product(range(t), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in g.edges()):
                return t
    raise AssertionError("unreachable")


def brute_path_product_max(n: int, m: int, ex: dict[int, int]) -> int:
    """Maximize prod max(r_i, 1) subject to the budget and prefix caps."""
    best = 0

    def rec(i: int, used: int, prod_so_far: int) -> None:
        nonlocal best
        if i > n:
            best = max(best, prod_so_far)
            return
        cap = min(ex[i] - used, m - used)
        for r in range(cap + 1):
            rec(i + 1, used + r, prod_so_far * max(r, 1))

    rec(2, 0, 1)
    return best


def reference_path_bound_exhaustive(n: int, m: int, k: int) -> int:
    """``bounds.path_bound_exhaustive`` as it was before its one-pass table:
    the best product from position i on, given the budget used so far,
    memoized on (i, used) and solved afresh for each budget m."""
    if n < 2:
        return 1
    ex = [turan_edge_count(t, min(k, t)) if t > 1 else 0 for t in range(n + 1)]
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i > n:
            return 1
        key = (i, used)
        if key not in memo:
            cap = min(ex[i] - used, m - used)
            memo[key] = max(max(r, 1) * best(i + 1, used + r) for r in range(cap + 1))
        return memo[key]

    return best(2, 0)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return make_graph(n, edges)


def random_blowup(rng: random.Random, sizes: Sequence[int], p: float) -> Graph:
    """A randomly relabeled blow-up of a G(len(sizes), p) graph: vertex i
    becomes a class of sizes[i] vertices, at random a clique or an independent
    set, and two classes are joined completely when their base vertices are
    adjacent."""
    base = random_graph(rng, len(sizes), p)
    clique = [rng.random() < 0.5 for _ in sizes]
    cls = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(cls)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        (perm[x], perm[y])
        for x in range(n)
        for y in range(x + 1, n)
        if (clique[cls[x]] if cls[x] == cls[y] else base.has_edge(cls[x], cls[y]))
    ]
    return make_graph(n, edges)


def symmetric_blowup(rng: random.Random, groups: Sequence[tuple[int, int, bool]], p: float) -> Graph:
    """A randomly relabeled blow-up in which each entry (m, s, clique) of
    ``groups`` makes m interchangeable classes of s vertices: cliques that
    are not joined to each other, or independent sets that are.  Two groups
    are joined completely with probability p, and not at all otherwise."""
    owner = [(x, c) for x, (m, _, _) in enumerate(groups) for c in range(m)]
    join = random_graph(rng, len(groups), p)
    cls = [i for i, (x, _) in enumerate(owner) for _ in range(groups[x][1])]
    n = len(cls)
    perm = list(range(n))
    rng.shuffle(perm)

    def joined(i: int, j: int) -> bool:
        (x, _), (y, _) = owner[i], owner[j]
        if x != y:
            return join.has_edge(x, y)
        return groups[x][2] == (i == j)  # within a clique, or between independent peers

    edges = [
        (perm[u], perm[v])
        for u in range(n)
        for v in range(u + 1, n)
        if joined(cls[u], cls[v])
    ]
    return make_graph(n, edges)


def reference_quotient_spectrum(g: Graph, classes: list[list[int]]) -> dict[int, int]:
    """The cycle spectrum of g from the anchored DP over its twin ``classes``
    with one state per vector of used vertices per class, as ``counting``
    ran it before it kept one state per orbit of interchangeable classes.
    The frontier maps each vector, packed in mixed radix, to its counts per
    end class; stepping into class w multiplies a count by the |w| - used_w
    vertices left there, and a closed walk from the anchor class that meets
    it j times is one of the 2j rootings and directions of its cycle."""
    t = len(classes)
    size = [len(cls) for cls in classes]
    rep = [cls[0] for cls in classes]
    sees = []
    for cls in classes:
        row = g.adj[cls[0]] | (g.adj[cls[1]] if len(cls) > 1 else 0)
        sees.append([u for u, v in enumerate(rep) if row >> v & 1])
    place = [1]
    for s in size[:-1]:
        place.append(place[-1] * (s + 1))
    rooted: dict[tuple[int, int], int] = {}
    for a in range(t):
        pa, radix = place[a], size[a] + 1
        steps = [(w, place[w], size[w], [u for u in sees[w] if u >= a]) for w in range(a, t)]
        closing = steps[0][3]
        start = [0] * t
        start[a] = size[a]
        frontier = {pa: start}
        length = 1
        while frontier:
            nxt: dict[int, list[int]] = {}
            for used, ends in frontier.items():
                if length >= 3:
                    cnt = sum(ends[u] for u in closing)
                    if cnt:
                        key = (length, used // pa % radix)
                        rooted[key] = rooted.get(key, 0) + cnt
                for w, pw, sw, into in steps:
                    left = sw - used // pw % (sw + 1)
                    cnt = sum(ends[u] for u in into)
                    if left and cnt:
                        row = nxt.setdefault(used + pw, [0] * t)
                        row[w] = cnt * left
            frontier = nxt
            length += 1
    spectrum: dict[int, int] = {}
    for (r, j), total in sorted(rooted.items()):
        count, rem = divmod(total, 2 * j)
        if rem:
            raise ArithmeticError(f"rooted count of length {r} not divisible by {2 * j}")
        spectrum[r] = spectrum.get(r, 0) + count
    return spectrum


def partitions_exact(n: int, k: int) -> list[tuple[int, ...]]:
    """Nonincreasing tuples of exactly k positive ints summing to n."""
    from cyclekit.search import partitions_at_most

    return [p for p in partitions_at_most(n, k) if len(p) == k]


def extremal_number(t: int, forbid: Graph) -> int:
    """Maximum edge count of a forbid-free graph on t vertices (exhaustive)."""
    from cyclekit.search import enumerate_graphs

    return max(g.edge_count for g in enumerate_graphs(t, forbid))


@st.composite
def _damaged_graph6(draw) -> str:
    g = random_graph(random.Random(draw(st.integers(0, 1 << 16))), draw(st.integers(1, 9)), 0.5)
    s = graph_to_graph6(g)
    i = draw(st.integers(0, len(s)))
    ch = draw(st.characters())
    return draw(st.sampled_from((s[:i] + ch + s[i + 1:], s[:i] + s[i + 1:], s[:i] + ch + s[i:])))


def graph_texts() -> st.SearchStrategy[str]:
    """Text for the graph parsers: arbitrary strings, strings over the graph6
    alphabet, catalog-like names, and valid graph6 strings of small graphs
    with one character replaced, deleted or inserted.  Most are malformed."""
    return st.one_of(
        st.text(max_size=30),
        st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=14),
        st.from_regex(r" ?[KCPQkcp~>][-+0-9\u00b2\u0663]{0,3} ?", fullmatch=True),
        _damaged_graph6(),
    )


def brute_force_graph_classes(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism by scanning every edge mask
    and deduplicating with the minimum adjacency key over all permutations.
    Exponential twice over; only sensible for n <= 5."""
    if n > 5:
        raise ValueError("brute-force class listing is a tiny-n cross-check")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: set[tuple[int, ...]] = set()
    out: list[Graph] = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = make_graph(n, edges)
        key = min(tuple(g.relabel(p).adj) for p in permutations(range(n)))
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, key))
    return out


def _reference_colors(g: Graph) -> tuple[int, ...]:
    colors = tuple(g.degree(v) for v in range(g.n))
    while True:
        sigs = tuple(
            (colors[v], tuple(sorted(colors[u] for u in _bits(g.adj[v]))))
            for v in range(g.n)
        )
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = tuple(ranking[s] for s in sigs)
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def reference_canonical_label(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Canonical labelling without twin pruning: within refinement-color
    classes every ordering is explored, with lexicographic pruning only, and
    the first ordering reaching the maximal row sequence wins."""
    n = g.n
    e = g.edge_count
    if e == 0 or e == n * (n - 1) // 2:
        return g, tuple(range(n))
    colors = _reference_colors(g)
    class_of: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        class_of.setdefault(c, []).append(v)
    slots: list[list[int]] = [class_of[c] for c in sorted(class_of)]
    boundaries = []
    acc = 0
    for s in slots:
        acc += len(s)
        boundaries.append(acc)

    best_rows: list[int] | None = None
    best_order: list[int] | None = None
    order: list[int] = []
    rows: list[int] = []

    def visit(cls_idx: int, used: int) -> None:
        nonlocal best_rows, best_order
        if cls_idx == len(slots):
            if best_rows is None or rows > best_rows:
                best_rows = rows.copy()
                best_order = order.copy()
            return
        pos = len(order)
        nxt = cls_idx + (1 if pos + 1 == boundaries[cls_idx] else 0)
        for v in slots[cls_idx]:
            if used >> v & 1:
                continue
            row_bits = 0
            for i, u in enumerate(order):
                if g.has_edge(v, u):
                    row_bits |= 1 << i
            if best_rows is not None and row_bits < best_rows[pos] and rows == best_rows[:pos]:
                continue
            rows.append(row_bits)
            order.append(v)
            visit(nxt, used | (1 << v))
            order.pop()
            rows.pop()

    visit(0, 0)
    perm = [0] * n
    for new, old in enumerate(best_order):
        perm[old] = new
    return g.relabel(perm), tuple(perm)


def reference_canonical_key(g: Graph) -> tuple[int, ...]:
    return reference_canonical_label(g)[0].adj


def reference_enumerate_graphs(n: int, forbid: Graph | None = None) -> list[Graph]:
    """Canonical forms of the forbid-free classes on n vertices, grown level by
    level: each parent gets one child per vector of counts over its twin
    classes, and one set of canonical forms per level removes duplicates."""
    from cyclekit.graphs import twin_classes
    from cyclekit.morphisms import canonical_label

    level = [Graph(1, (0,))]
    for m in range(1, n):
        seen: set[tuple[int, ...]] = set()
        nxt: list[Graph] = []
        for parent in level:
            prefixes = [[sum(1 << v for v in cls[:k]) for k in range(len(cls) + 1)]
                        for cls in twin_classes(parent)]
            for picks in product(*prefixes):
                nb = sum(picks)
                adj = [row | ((nb >> v & 1) << m) for v, row in enumerate(parent.adj)]
                child = Graph(m + 1, tuple(adj) + (nb,))
                if forbid is not None and reference_contains_subgraph(child, forbid, require_vertex=m):
                    continue
                canon, _ = canonical_label(child)
                if canon.adj not in seen:
                    seen.add(canon.adj)
                    nxt.append(canon)
        level = nxt
    return level


def augmentation_classes(n: int, forbid: Graph | None = None) -> set[tuple[int, ...]]:
    """Reference canonical keys of the forbid-free classes on n vertices,
    grown level by level with all 2^m neighbourhoods of each new vertex."""
    level = {(0,)}
    for m in range(1, n):
        nxt: set[tuple[int, ...]] = set()
        for adj in level:
            for nb in range(1 << m):
                child = Graph(m + 1, tuple(row | (nb >> v & 1) << m for v, row in enumerate(adj)) + (nb,))
                if forbid is None or not brute_contains(child, forbid):
                    nxt.add(reference_canonical_key(child))
        level = nxt
    return level


# ---------------------------------------------------------------------------
# Memoized cyclic-word DP (the analytic module's former implementation)
# ---------------------------------------------------------------------------


def _insert(sorted_counts: tuple[int, ...], value: int) -> tuple[int, ...]:
    if value == 0:
        return sorted_counts
    out = list(sorted_counts)
    lo = 0
    while lo < len(out) and out[lo] < value:
        lo += 1
    out.insert(lo, value)
    return tuple(out)


@lru_cache(maxsize=None)
def _complete(others: tuple[int, ...], first_rem: int, last_rem: int, last_is_first: bool) -> int:
    """Count completions of a partially placed cyclic word.

    ``others``: sorted remaining multiplicities of letters that are neither
    the word's first letter nor the letter just placed.  ``first_rem``:
    remaining copies of the first letter (meaningful only when it is not the
    letter just placed).  ``last_rem``: remaining copies of the letter just
    placed.  The completed word must end with a letter different from the
    first (cyclic adjacency).
    """
    remaining = sum(others) + last_rem + (0 if last_is_first else first_rem)
    if remaining == 0:
        return 0 if last_is_first else 1
    ways = 0
    if not last_is_first and first_rem:
        ways += _complete(_insert(others, last_rem), first_rem - 1, first_rem - 1, True)
    prev = None
    for idx, r in enumerate(others):
        if r == prev:
            continue
        prev = r
        mult = others.count(r)
        rest = others[:idx] + others[idx + 1 :]
        if last_is_first:
            # the first letter goes back to being tracked via first_rem
            ways += mult * _complete(rest, last_rem, r - 1, False)
        else:
            ways += mult * _complete(_insert(rest, last_rem), first_rem, r - 1, False)
    return ways


def reference_cyclic_word_count(parts: Sequence[int]) -> int:
    """Words with the given letter content, cyclically adjacent letters distinct."""
    counts = tuple(x for x in parts if x)
    n = sum(counts)
    if n == 0:
        return 1
    if len(counts) == 1:
        return 0
    total = 0
    seen = set()
    for idx, r in enumerate(counts):
        if r in seen:
            continue
        seen.add(r)
        mult = counts.count(r)
        rest = tuple(sorted(counts[:idx] + counts[idx + 1 :]))
        total += mult * _complete(rest, r - 1, r - 1, True)
    return total


def reference_rooted_word_count(parts: Sequence[int], i: int, j: int) -> int:
    """Cyclic words as above with first letter i and second letter j (1-based)."""
    if i == j:
        raise ValueError("rooted letters must differ")
    ci, cj = parts[i - 1], parts[j - 1]
    if ci < 1 or cj < 1:
        raise ValueError("rooted letters exceed content")
    rest = tuple(
        sorted(c for idx, c in enumerate(parts) if idx not in (i - 1, j - 1) and c > 0)
    )
    return _complete(rest, ci - 1, cj - 1, False)


@lru_cache(maxsize=None)
def _reference_hamilton_sorted(parts: tuple[int, ...]) -> int:
    n = sum(parts)
    if n < 3 or len(parts) == 1:
        return 0
    numerator = reference_cyclic_word_count(parts)
    for ci in parts:
        numerator *= factorial(ci)
    if numerator % (2 * n):
        raise ArithmeticError(
            f"word count not divisible by 2n for c={parts}: implementation bug"
        )
    return numerator // (2 * n)


def reference_cycle_spectrum_multipartite(parts: Sequence[int]) -> dict[int, int]:
    """Per-length cycle counts of the complete multipartite graph on classes
    ``parts``: binomial products against the Hamilton counts of all
    prod(c_i + 1) sub-vectors, memoized on their sorted form."""
    spectrum: dict[int, int] = {}
    k = len(parts)
    sub = [0] * k

    def descend(idx: int, chosen: int, coeff: int) -> None:
        if idx == k:
            if chosen >= 3:
                h = _reference_hamilton_sorted(tuple(sorted(a for a in sub if a)))
                if h:
                    spectrum[chosen] = spectrum.get(chosen, 0) + coeff * h
            return
        for a in range(parts[idx] + 1):
            sub[idx] = a
            descend(idx + 1, chosen + a, coeff * comb(parts[idx], a))
        sub[idx] = 0

    descend(0, 0, 1)
    return dict(sorted(spectrum.items()))


def reference_spectrum_equal_classes(size: int, count: int) -> dict[int, int]:
    """:func:`reference_cycle_spectrum_multipartite` for ``count`` classes of
    ``size`` vertices, walking how many classes give a vertices each (a
    product of binomials over the classes left) instead of all
    (size + 1)^count sub-vectors, so K_64 and (2,) * 32 stay in reach."""
    spectrum: dict[int, int] = {}

    def descend(a: int, left: int, coeff: int, sub: tuple[int, ...]) -> None:
        if a == 0:
            chosen = sum(sub)
            if chosen >= 3:
                h = _reference_hamilton_sorted(tuple(sorted(sub)))
                if h:
                    spectrum[chosen] = spectrum.get(chosen, 0) + coeff * h
            return
        for taken in range(left + 1):
            weight = comb(left, taken) * comb(size, a) ** taken
            descend(a - 1, left - taken, coeff * weight, sub + (a,) * taken)

    descend(size, count, 1, ())
    return dict(sorted(spectrum.items()))


def minus_edge_spectrum(sizes: Sequence[int], i: int, j: int) -> dict[int, int]:
    """Per-length cycle counts of the complete multipartite graph on classes
    ``sizes`` less one edge uv, u in class i and v in class j (0-based,
    i != j): the ``analytic`` spectrum less the cycles through uv.

    On a vertex set with c'_w vertices in class w, containing u and v, the
    orderings from u whose second vertex lies in class j number
    R = ``rooted_hamilton_permutations_general(c', i, j)`` (empty classes
    dropped); by symmetry 1/c'_j of them go to v next, one per Hamilton cycle
    through uv.  The set's other vertices are chosen in
    C(s_i - 1, c'_i - 1) C(s_j - 1, c'_j - 1) prod_w C(s_w, c'_w) ways, w over
    the other classes.  Independent of ``counting``: it builds no graph.
    """
    spectrum = dict(cycle_spectrum_multipartite(sizes))
    ranges = [range(1, s + 1) if w in (i, j) else range(s + 1) for w, s in enumerate(sizes)]
    for sub in product(*ranges):
        r = sum(sub)
        if r < 3:
            continue
        kept = [w for w, c in enumerate(sub) if c]
        parts = [sub[w] for w in kept]
        rooted = rooted_hamilton_permutations_general(parts, kept.index(i) + 1, kept.index(j) + 1)
        through, rem = divmod(rooted, sub[j])
        if rem:
            raise ArithmeticError(f"rooted orderings {rooted} of {sub} not divisible by {sub[j]}")
        ways = 1
        for w, (s, c) in enumerate(zip(sizes, sub)):
            ways *= comb(s - 1, c - 1) if w in (i, j) else comb(s, c)
        spectrum[r] = spectrum.get(r, 0) - ways * through
    return {r: c for r, c in sorted(spectrum.items()) if c}


def reference_rooted_move_inequality(n: int, k: int) -> search.VerifyReport:
    """The ``stepcount`` suite recounting both rooted Hamilton counts of
    every move, with no memo across moves."""
    report = search.VerifyReport(name="stepcount", params={"n": n, "k": k})
    for comp in search.compositions_exact(n, k):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j or comp[i - 1] > comp[j - 1] - 2:
                    continue
                base = rooted_hamilton_permutations_general(comp, 1, 2)
                moved = list(comp)
                moved[i - 1] += 1
                moved[j - 1] -= 1
                other = rooted_hamilton_permutations_general(moved, 1, 2)
                ci, cj = comp[i - 1], comp[j - 1]
                ok = base * ci * (cj - 1) <= (ci + 1) * cj * other
                report.cases.append(
                    {
                        "composition": list(comp),
                        "move": [i, j],
                        "lhs": str(base),
                        "rhs_count": str(other),
                        "ok": ok,
                    }
                )
                if not ok:
                    report.failures += 1
    report.passed = report.failures == 0
    return report


def reference_partitions_at_most(n: int, k: int) -> list[tuple[int, ...]]:
    """``search.partitions_at_most`` as the recursion it was: every first
    part from the largest down, with no pruning of prefixes that cannot
    complete."""

    def rec(remaining: int, parts_left: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if parts_left == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, parts_left - 1, first, prefix + (first,))

    return list(rec(n, k, n, ()))


def reference_compositions_exact(n: int, k: int) -> list[tuple[int, ...]]:
    """``search.compositions_exact`` as the recursion it was."""
    if k == 1:
        return [(n,)]
    return [(first,) + rest for first in range(1, n - k + 2) for rest in reference_compositions_exact(n - first, k - 1)]


def reference_balanced_code_probability(n: int, k: int) -> search.VerifyReport:
    """The ``major`` suite with one ``Fraction`` per case, each the word
    count over the multinomial arrangement count, and no memo."""
    report = search.VerifyReport(name="major", params={"n": n, "k": k})
    if k < 2:
        report.passed = True
        report.cases.append({"note": "k=1 is degenerate; nothing to compare"})
        return report

    def prob(parts: Sequence[int]) -> Fraction:
        arrangements = factorial(sum(parts))
        for c in parts:
            arrangements //= factorial(c)
        return Fraction(code_cycle_count(parts), arrangements)

    kk = min(k, n)
    p_balanced = prob(turan_class_sizes(n, kk))
    for comp in reference_partitions_at_most(n, kk):
        p = prob(comp)
        ok = p_balanced >= p
        report.cases.append(
            {
                "composition": list(comp),
                "prob": f"{p.numerator}/{p.denominator}",
                "balanced_prob": f"{p_balanced.numerator}/{p_balanced.denominator}",
                "ok": ok,
            }
        )
        if not ok:
            report.failures += 1
    report.passed = report.failures == 0
    return report


def reference_matched_balanced(comp: tuple[int, ...]) -> tuple[int, ...] | None:
    """``search._matched_balanced`` by its definition: the balanced sizes
    sorted against the composition, then every pair of indices checked."""
    k = len(comp)
    sizes = sorted(turan_class_sizes(sum(comp), k), reverse=True)
    order = sorted(range(k), key=lambda idx: (-comp[idx], idx))
    b = [0] * k
    for rank, idx in enumerate(order):
        b[idx] = sizes[rank]
    for i in range(k):
        for j in range(k):
            if (b[i] >= b[j]) != (comp[i] >= comp[j]):
                return None
    return tuple(b)


def reference_rooted_turan_envelope(n: int, k: int) -> search.VerifyReport:
    """The ``close`` suite matched by :func:`reference_matched_balanced`."""
    report = search.VerifyReport(name="close", params={"n": n, "k": k})
    for comp in reference_compositions_exact(n, k):
        b = reference_matched_balanced(comp)
        if b is None:
            report.cases.append({"composition": list(comp), "skipped": "no order-matched balanced vector"})
            continue
        lhs = rooted_hamilton_permutations_general(comp, 1, 2)
        rhs = Fraction(rooted_hamilton_permutations_general(b, 1, 2))
        for ci, bi in zip(comp, b):
            rhs *= Fraction(max(bi, ci), min(bi, ci))
        ok = lhs <= rhs
        report.cases.append(
            {"composition": list(comp), "matched_balanced": list(b), "lhs": str(lhs), "rhs": str(rhs), "ok": ok}
        )
        if not ok:
            report.failures += 1
    report.passed = report.failures == 0
    return report


def reference_rooted_class_share(n: int, k: int) -> search.VerifyReport:
    """The ``turancount`` suite with a rooted count for every ordered pair."""
    report = search.VerifyReport(name="turancount", params={"n": n, "k": k})
    sizes = turan_class_sizes(n, k)
    total = hamilton_multipartite(sizes)
    for r in range(1, k + 1):
        for s in range(1, k + 1):
            if r == s:
                continue
            hv = rooted_hamilton_permutations_general(sizes, r, s)
            holds = 3 * k * hv >= 2 * total
            report.cases.append(
                {
                    "root_class": r,
                    "second_class": s,
                    "root_size": sizes[r - 1],
                    "second_size": sizes[s - 1],
                    "rooted_count": str(hv),
                    "hamilton": str(total),
                    "holds": holds,
                }
            )
            if not holds:
                report.failures += 1
    report.passed = None
    return report


def reference_estimate_hits(
    n: int, k: int, event: str, samples: int, seed: int, content: Sequence[int] | None = None
) -> int:
    """Hits of ``randcodes.estimate_prob`` from one ``samples x n`` draw of
    the same stream, tested with a rotated copy of the words.  A word has the
    content when each of its letters has its count and no letter lies past
    the content, so the cost does not grow with k."""
    content = tuple(content or ())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    words = rng.integers(1, k + 1, size=(samples, n))
    in_q = np.all(words != np.roll(words, -1, axis=1), axis=1)
    has = ~np.any(words > len(content), axis=1)
    for letter, want in enumerate(content, start=1):
        has &= (words == letter).sum(axis=1) == want
    mask = {"Q": in_q, "P": has, "QP": in_q & has}[event]
    return int(mask.sum())


# ---------------------------------------------------------------------------
# The turanbest suite with every sampled subgraph built from its kept edges by
# the validating make_graph and counted through its full spectrum; the
# suite's reports must equal it.
# ---------------------------------------------------------------------------


def reference_turan_dominance(
    n: int, k: int, sample_subgraphs: int = 0, seed: int = 0
) -> search.VerifyReport:
    if sample_subgraphs < 0:
        raise ValueError(f"sample_subgraphs must be >= 0, got {sample_subgraphs}")
    report = search.VerifyReport(
        name="turanbest",
        params={"n": n, "k": k, "sample_subgraphs": sample_subgraphs, "seed": seed},
    )
    balanced = turan_class_sizes(n, k)
    t_spec = cycle_spectrum_multipartite(balanced)
    t_total = sum(t_spec.values())
    rng = random.Random(seed)
    for comp in search.partitions_at_most(n, k):
        spec = cycle_spectrum_multipartite(comp)
        dominated = all(
            t_spec.get(r, 0) >= spec.get(r, 0) for r in set(spec) | set(t_spec)
        )
        case = {
            "composition": list(comp),
            "total": str(sum(spec.values())),
            "dominated": dominated,
        }
        ok = dominated
        is_balanced = comp == tuple(sorted(balanced, reverse=True))
        if n >= 5 and not is_balanced:
            strict = t_total > sum(spec.values())
            case["strict"] = strict
            ok = ok and strict
        sampled_failures = 0
        # vertex v lies in the last class whose first vertex is <= v
        starts = [sum(comp[:i]) for i in range(len(comp))]
        cls = [max(i for i, s in enumerate(starts) if s <= v) for v in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if cls[u] != cls[v]]
        if sample_subgraphs and edges:
            for _ in range(sample_subgraphs):
                mask = rng.randrange(1, 1 << len(edges))
                kept = [e for i, e in enumerate(edges) if not mask >> i & 1]
                sub_total = sum(cycle_spectrum(make_graph(n, kept)).values())
                good = sub_total < t_total if n >= 5 else sub_total <= t_total
                if not good:
                    sampled_failures += 1
            case["sampled"] = sample_subgraphs
            case["sampled_failures"] = sampled_failures
        ok = ok and sampled_failures == 0
        case["ok"] = ok
        if not ok:
            report.failures += 1
        report.cases.append(case)
    report.passed = report.failures == 0
    return report


# ---------------------------------------------------------------------------
# The verify command as one if/elif branch per suite, before the suite
# registry; the registry's output must match it byte for byte.
# ---------------------------------------------------------------------------


def _emit_report(report: search.VerifyReport, fmt: str) -> None:
    if fmt == "table":
        status = "report" if report.passed is None else ("pass" if report.passed else "FAIL")
        print(
            f"{report.name} {report.params}: {len(report.cases)} cases, "
            f"{report.failures} failures [{status}]"
        )
    else:
        for case in report.cases:
            line = {"name": report.name, **report.params, **case}
            print(json.dumps(line, sort_keys=True))


def _emit_bound(report: bounds.BoundReport, fmt: str) -> None:
    if fmt == "table":
        verdict = "report" if report.holds is None else ("holds" if report.holds else "VIOLATED")
        print(f"{report.name} {report.params}: {verdict}")
    else:
        print(report.to_json())


def reference_cmd_verify(args: argparse.Namespace) -> int:
    name = args.lemma
    fmt = args.format
    n_max = args.n_max
    k = getattr(args, "k", None)  # second2count and ref3count read no k
    k_values = [k] if k else list(range(2 if name in ("turanbest", "major") else 3, getattr(args, "k_max", 3) + 1))
    failures = 0
    asserted = True

    if name == "turanbest":
        for k in k_values:
            for n in range(3, n_max + 1):
                if k > n:
                    continue
                rep = search.verify_turan_dominance(n, k, args.samples, args.seed)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "major":
        for k in k_values:
            for n in range(2, n_max + 1):
                rep = search.verify_balanced_code_probability(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "stepcount":
        for k in k_values:
            for n in range(k, n_max + 1):
                rep = search.verify_rooted_move_inequality(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "close":
        for k in k_values:
            for n in range(k, n_max + 1):
                rep = search.verify_rooted_turan_envelope(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "turancount":
        asserted = False
        for k in k_values:
            for n in range(max(3, k), n_max + 1):
                rep = search.report_rooted_class_share(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "recursion":
        for k in k_values:
            for n in range(4, n_max + 1):
                for i in range(0, args.i_max + 1):
                    if n - i < 3:
                        continue
                    rep = bounds.check_recursion(n, k, i)
                    failures += 0 if rep.holds else 1
                    _emit_bound(rep, fmt)
    elif name == "secondcount":
        for k in k_values:
            for n in range(3, n_max + 1):
                rep = bounds.check_total_to_hamilton(n, k)
                failures += 0 if rep.holds else 1
                _emit_bound(rep, fmt)
    elif name == "second2count":
        for n in range(4, n_max + 1):
            for i in range(0, args.i_max + 1):
                if n - i < 4:
                    continue
                rep = bounds.check_bipartite_decay(n, i)
                failures += 0 if rep.holds else 1
                _emit_bound(rep, fmt)
    elif name == "kkmain":
        asserted = False
        for n in range(4, n_max + 1):
            _emit_bound(bounds.report_asymptotic_ratio(n, 2), fmt)
        for k in [kv for kv in k_values if kv >= 3]:
            for n in range(4, n_max + 1):
                _emit_bound(bounds.report_asymptotic_ratio(n, k), fmt)
    elif name == "ref3count":
        exf_max = min(args.n_max, bounds.PATH_BOUND_CAP)
        n0 = args.n0
        for n in range(n0 + 1, exf_max + 1):
            for m in range(0, turan_edge_count(n, 2) + 1):
                structured = bounds.path_bound_structured(n, m, 2, n0)
                exhaustive = bounds.path_bound_exhaustive(n, m, 2)
                ok = structured.value <= exhaustive
                failures += 0 if ok else 1
                line = {
                    "name": "ref3count",
                    "n": n,
                    "m": m,
                    "structured": str(structured.value),
                    "exhaustive": str(exhaustive),
                    "truncated": structured.truncated,
                    "ok": ok,
                }
                if fmt == "table":
                    if not ok:
                        print(f"ref3count n={n} m={m}: VIOLATED")
                else:
                    print(json.dumps(line, sort_keys=True))
        if fmt == "table":
            print(f"ref3count: structured <= exhaustive sweep done, {failures} failures")

    if asserted and failures:
        print(f"verify {name}: {failures} failed checks", file=sys.stderr)
        return CHECK_FAILED
    return 0
