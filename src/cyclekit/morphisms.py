"""Subgraph containment and canonical labeling.

Containment is non-induced: an injective map of H's vertices into G sending
every H-edge to a G-edge, found by backtracking with degree pruning.  The
search is rooted at a vertex r of H and orders H's vertices outward from r,
each touching the already-ordered prefix where it can, so that in a
connected H every image after r's lies in the neighbourhood of an earlier
one.  Without ``require_vertex`` one root is tried at every vertex of G.
With ``require_vertex=m``, the test of a graph grown by a new vertex m, r
is fixed at m, so from the second slot on the images lie in N(m), and one
root is taken from each orbit of Aut(H).  That stays exact: an embedding
phi whose image holds m maps some vertex v of H to m, an automorphism a of
H carries v's orbit root r onto v, and phi after a is an embedding with r
at m.  Only the rooted test labels H, once per H.

Isomorphism is equality of canonical forms.  :func:`canonical_orbits` tries
every vertex ordering inside each refinement-color class and keeps the first
one whose adjacency rows are lexicographically largest.  Two prunings leave
that result unchanged.  A prefix whose rows already fall below the best
ordering is abandoned.  At each position a candidate that is a twin of one
tried there before is skipped: swapping twins is an automorphism that fixes
every placed vertex, so it maps the skipped subtree onto the tried one with
the same rows, and the first maximal ordering never has an earlier twin at
any position.  Twin-rich graphs (isolated vertices, complete multipartite
graphs) thus cost about one branch per twin class instead of factorially
many; twin-free symmetric graphs such as cycles stay exponential, so this is
meant for n <= ~10.  Cached search results, extremal graph6 strings and
recorded digests depend on the exact labeling, which the tests compare bit
for bit with the unpruned search.

The same search returns generators of Aut(g) and its orbits; see
:func:`canonical_orbits`.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, _relabeled_rows, _unchecked_graph, twin_classes


# per position of a search: the degree of H's vertex there, and the earlier
# positions adjacent to it
_Slots = tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=64)
def _h_plan(h: Graph, rooted: bool) -> tuple[tuple[_Slots, ...], int]:
    """The searches that test H, one per root, and H's edge count.  A search
    tests one H against every candidate, so the plan is computed once per H
    (``Graph`` is frozen and hashable).

    A search orders H's vertices outward from its root, each touching the
    already-ordered prefix where it can.  A ``rooted`` plan has one root per
    orbit of Aut(H); the other has one root, the lowest vertex of the
    highest degree, and labels nothing.
    """
    if rooted:
        orbits = canonical_orbits(h)[2]
        roots = [v for v in range(h.n) if orbits[v] == v]
    else:
        roots = [max(range(h.n), key=lambda v: (h.degree(v), -v))]
    searches = []
    for root in roots:
        order = [root]
        placed = 1 << root
        while len(order) < h.n:
            best = max(
                (v for v in range(h.n) if not placed >> v & 1),
                key=lambda v: ((h.adj[v] & placed).bit_count(), h.degree(v), -v),
            )
            order.append(best)
            placed |= 1 << best
        searches.append(
            tuple(
                (h.degree(v), tuple(j for j in range(i) if h.has_edge(order[j], v)))
                for i, v in enumerate(order)
            )
        )
    return tuple(searches), h.edge_count


def contains_subgraph(g: Graph, h: Graph, *, require_vertex: int | None = None) -> bool:
    """True iff some (not necessarily induced) subgraph of g is isomorphic to h.

    With ``require_vertex`` set, only embeddings whose image contains that
    g-vertex count (used to test augmented graphs incrementally).
    """
    if require_vertex is not None and not 0 <= require_vertex < g.n:
        raise ValueError(f"require_vertex {require_vertex} is not a vertex of g (0..{g.n - 1})")
    if h.n > g.n:
        return False
    searches, h_edges = _h_plan(h, require_vertex is not None)
    g_adj = g.adj
    g_deg = [row.bit_count() for row in g_adj]
    if h_edges > sum(g_deg) // 2:
        return False
    g_all = (1 << g.n) - 1
    starts = g_all if require_vertex is None else 1 << require_vertex
    hn = h.n
    image = [0] * hn  # image[i]: the g-vertex of H's vertex at position i

    def extend(slots: _Slots, pos: int, used: int) -> bool:
        if pos == hn:
            return True
        need, back = slots[pos]
        candidates = g_all & ~used
        for j in back:
            candidates &= g_adj[image[j]]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            gv = low.bit_length() - 1
            if g_deg[gv] < need:
                continue
            image[pos] = gv
            if extend(slots, pos + 1, used | low):
                return True
        return False

    for slots in searches:
        need = slots[0][0]
        for gv in _bits(starts):
            if g_deg[gv] >= need:
                image[0] = gv
                if extend(slots, 1, 1 << gv):
                    return True
    return False


def refinement_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex colors from iterated neighborhood refinement.

    Color ids are ranks of canonically sorted signatures, so isomorphic
    graphs get identical color multisets (the converse can fail for regular
    graphs, such as C6 and two triangles).
    """
    nbrs = [list(_bits(row)) for row in g.adj]
    colors = [len(nb) for nb in nbrs]
    count = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if len(ranking) == count:
            return tuple(new)
        colors, count = new, len(ranking)


def canonical_orbits(
    g: Graph,
) -> tuple[Graph, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonically relabeled copy of ``g``, the relabeling permutation
    (``perm[old] = new``), the orbits of Aut(g) (``orbits[v]`` is the lowest
    vertex of v's orbit) and automorphisms of ``g`` (``a[v]`` is the image
    of v) that generate Aut(g) together with the twin swaps.

    Two orderings with equal rows differ by an automorphism, so every leaf
    of the search that ties the best one so far gives an automorphism, and
    those are the ones returned.  They generate Aut(g) with the twin swaps,
    which cover what the twin pruning skips.  For an automorphism a,
    replace the vertex at each position of a(best), left to right, by the
    lowest unused vertex of its twin class.  That is a product of twin swaps
    and gives an ordering the search visits after the best one, with the
    best rows, so a is a tying leaf's automorphism times twin swaps.  The
    orbits unite each twin class and each automorphism's cycles, and are
    therefore exactly the orbits of Aut(g).  An empty or complete graph is
    its own canonical form and returns no automorphism: its one twin class
    generates Aut(g).
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    if not any(adj) or all(row | 1 << v == full for v, row in enumerate(adj)):
        return g, tuple(range(n)), (0,) * n, ()
    colors = refinement_colors(g)
    class_of: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        class_of.setdefault(c, []).append(v)
    slots: list[list[int]] = [class_of[c] for c in sorted(class_of)]
    boundaries = []
    acc = 0
    for s in slots:
        acc += len(s)
        boundaries.append(acc)

    # union-find over vertices; a root is the lowest vertex of its set
    link = list(range(n))

    def find(v: int) -> int:
        while link[v] != v:
            link[v] = v = link[link[v]]
        return v

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            link[max(ru, rv)] = min(ru, rv)

    twins = [0] * n
    for cls in twin_classes(g):
        mask = sum(1 << v for v in cls)
        for v in cls:
            twins[v] = mask
            union(cls[0], v)

    best_rows: list[int] | None = None
    best_order: list[int] | None = None
    order: list[int] = []
    rows: list[int] = []
    autos: list[tuple[int, ...]] = []

    def visit(cls_idx: int, used: int) -> None:
        nonlocal best_rows, best_order
        if cls_idx == len(slots):
            if best_rows is None or rows > best_rows:
                best_rows = rows.copy()
                best_order = order.copy()
            elif rows == best_rows:
                # equal rows: mapping one ordering onto the other is an automorphism
                a = [0] * n
                for u, v in zip(best_order, order):
                    a[u] = v
                    union(u, v)
                autos.append(tuple(a))
            return
        pos = len(order)
        nxt = cls_idx + (1 if pos + 1 == boundaries[cls_idx] else 0)
        tried = 0
        for v in slots[cls_idx]:
            if (used | tried) >> v & 1:
                continue
            tried |= twins[v]
            row_v = adj[v]
            row_bits = 0
            for i, u in enumerate(order):
                if row_v >> u & 1:
                    row_bits |= 1 << i
            if best_rows is not None and row_bits < best_rows[pos] and rows == best_rows[:pos]:
                continue
            rows.append(row_bits)
            order.append(v)
            visit(nxt, used | (1 << v))
            order.pop()
            rows.pop()

    visit(0, 0)
    if best_order is None:
        raise RuntimeError("canonical labeling completed no vertex ordering")
    perm = [0] * n
    for new, old in enumerate(best_order):
        perm[old] = new
    # perm is a permutation, so the relabeled rows need no check
    canon = _unchecked_graph(n, _relabeled_rows(adj, perm))
    return canon, tuple(perm), tuple(find(v) for v in range(n)), tuple(autos)


def canonical_label(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Canonically relabeled copy of ``g`` plus the relabeling permutation
    (``perm[old] = new``): :func:`canonical_orbits` without the orbits and
    automorphisms."""
    canon, perm, _, _ = canonical_orbits(g)
    return canon, perm


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: equal canonical forms."""
    return g.n == h.n and g.edge_count == h.edge_count and canonical_label(g)[0] == canonical_label(h)[0]
