"""Subgraph containment and canonical labeling.

Containment is non-induced: an injective map of H's vertices into G sending
every H-edge to a G-edge, found by backtracking with degree pruning.

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

from .graphs import Graph, _bits, twin_classes


def _h_vertex_order(h: Graph) -> list[int]:
    """Order H's vertices so each one touches the already-ordered prefix."""
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
    return order


def contains_subgraph(g: Graph, h: Graph, *, require_vertex: int | None = None) -> bool:
    """True iff some (not necessarily induced) subgraph of g is isomorphic to h.

    With ``require_vertex`` set, only embeddings whose image contains that
    g-vertex count (used to test augmented graphs incrementally).
    """
    if h.n > g.n or h.edge_count > g.edge_count:
        return False
    order = _h_vertex_order(h)
    g_deg = [g.degree(v) for v in range(g.n)]
    h_deg = [h.degree(v) for v in range(h.n)]
    image = [-1] * h.n
    g_all = (1 << g.n) - 1

    def extend(pos: int, used: int, hit: bool) -> bool:
        if pos == h.n:
            return hit
        hv = order[pos]
        candidates = g_all & ~used
        for u in _bits(h.adj[hv]):
            if image[u] >= 0:
                candidates &= g.adj[image[u]]
        if not hit and pos == h.n - 1:
            candidates &= 1 << require_vertex  # last slot must cover it
        for gv in _bits(candidates):
            if g_deg[gv] < h_deg[hv]:
                continue
            image[hv] = gv
            if extend(pos + 1, used | (1 << gv), hit or gv == require_vertex):
                return True
            image[hv] = -1
        return False

    return extend(0, 0, require_vertex is None)


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
    e = g.edge_count
    if e == 0 or e == n * (n - 1) // 2:
        return g, tuple(range(n)), (0,) * n, ()
    adj = g.adj
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
    return g.relabel(perm), tuple(perm), tuple(find(v) for v in range(n)), tuple(autos)


def canonical_label(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Canonically relabeled copy of ``g`` plus the relabeling permutation
    (``perm[old] = new``): :func:`canonical_orbits` without the orbits and
    automorphisms."""
    canon, perm, _, _ = canonical_orbits(g)
    return canon, perm


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    cg, _ = canonical_label(g)
    return (cg.n, cg.adj)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: equal canonical forms."""
    return g.n == h.n and g.edge_count == h.edge_count and canonical_key(g) == canonical_key(h)
