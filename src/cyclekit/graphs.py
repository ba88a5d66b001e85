"""Simple undirected graphs on at most 64 vertices, with bitset adjacency.

Vertices are integers ``0..n-1`` and each adjacency row is an int bitmask so
that the subset dynamic programming elsewhere stays in machine words.  All
values are immutable after construction and safe to share across threads.

Validation happens at the public boundary: ``Graph(n, adj)``, ``make_graph``,
graph6 parsing, ``Graph.with_edge`` and ``Graph.relabel`` with a caller's
permutation check the vertex count, the row range, self-loops and symmetry,
and raise ``ValueError``.  Rows that are valid by construction, such as a
valid graph with symmetric pairs of bits cleared (``Graph.without_edges``) or
a complete multipartite graph, skip those checks through
``_unchecked_graph``.  On a 2-core x86 VM the checks cost 3 to 5 us per
graph with at most 10 vertices and ``_unchecked_graph`` about 0.4 us, and
``verify turanbest`` and the searches build tens of thousands of such graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64
CHROMATIC_CAP = 16


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of ``v``."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions vertices >= {n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            bit = 1 << v
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loop")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def without_edges(self, drop: Iterable[tuple[int, int]]) -> "Graph":
        """The graph with the edges ``drop`` removed.  Clearing both bits of
        a pair keeps the rows symmetric, so the result is not checked."""
        adj = list(self.adj)
        for u, v in drop:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return _unchecked_graph(self.n, tuple(adj))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``perm[v]``."""
        return Graph(self.n, _relabeled_rows(self.adj, perm))


def _unchecked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """``Graph(n, adj)`` without the checks of ``Graph.__post_init__``, for
    rows that form a valid graph by construction."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def _relabeled_rows(adj: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The rows ``adj`` with vertex ``v`` renamed to ``perm[v]``."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        new = 0
        while row:
            low = row & -row
            new |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[v]] = new
    return tuple(out)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates are merged.

    Raises ValueError on out-of-range endpoints or self-loops.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def twin_classes(g: Graph) -> list[list[int]]:
    """Sorted twin classes of ``g``, ordered by lowest vertex.

    u and v are twins when N(u) - {v} == N(v) - {u}, that is open
    (non-adjacent) or closed (adjacent) twins.  No vertex has twins of both
    kinds, so the classes partition the vertices, and every permutation
    inside a class is an automorphism of ``g``.
    """
    open_size = Counter(g.adj)
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(g.adj):
        # keys of the two kinds never collide: row_u == row_v | 1 << v would
        # put v in N(u), hence u in N[v] = N(u)
        key = row if open_size[row] > 1 else row | 1 << v
        classes.setdefault(key, []).append(v)
    return list(classes.values())


def class_sizes(c: Iterable[int]) -> tuple[int, ...]:
    """The class sizes ``c`` of a complete multipartite graph as a tuple of
    ints.  Raises ``ValueError`` unless there is at least one class, every
    size is positive and they total at most ``MAX_VERTICES``, and
    ``TypeError`` on a size that is not an integer, such as 2.5."""
    sizes = tuple(map(index, c))
    if not sizes:
        raise ValueError("at least one class required")
    if min(sizes) < 1:
        raise ValueError("class sizes must be positive")
    if sum(sizes) > MAX_VERTICES:
        raise ValueError(f"total size exceeds {MAX_VERTICES}")
    return sizes


def turan_class_sizes(n: int, k: int) -> tuple[int, ...]:
    """Class sizes of the Turán graph T_k(n), nonincreasing."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    q, r = divmod(n, k)
    return tuple([q + 1] * r + [q] * (k - r))


def complete_multipartite(c: Sequence[int]) -> Graph:
    """Complete multipartite graph: classes of sizes ``c``, edges across classes."""
    sizes = class_sizes(c)
    n = sum(sizes)
    cls_of = []
    for i, size in enumerate(sizes):
        cls_of.extend([i] * size)
    class_mask = [0] * len(sizes)
    for v, i in enumerate(cls_of):
        class_mask[i] |= 1 << v
    full = (1 << n) - 1
    adj = tuple(full & ~class_mask[cls_of[v]] for v in range(n))
    return _unchecked_graph(n, adj)


def turan_graph(n: int, k: int) -> Graph:
    return complete_multipartite(turan_class_sizes(n, k))


def turan_edge_count(n: int, k: int) -> int:
    """Number of edges of T_k(n)."""
    sizes = turan_class_sizes(n, k)
    return (n * n - sum(s * s for s in sizes)) // 2


# ---------------------------------------------------------------------------
# Chromatic diagnostics
# ---------------------------------------------------------------------------


def _independent_set_counts(g: Graph) -> list[int]:
    """ind[S] = number of independent subsets of S (including the empty set)."""
    n = g.n
    ind = [0] * (1 << n)
    ind[0] = 1
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        ind[mask] = ind[rest] + ind[rest & ~g.adj[v]]
    return ind


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by inclusion-exclusion over independent sets.

    Capped at 16 vertices; the table has 2^n entries.
    """
    if g.n > CHROMATIC_CAP:
        raise ValueError(f"chromatic_number capped at {CHROMATIC_CAP} vertices")
    n = g.n
    if g.edge_count == 0:
        return 1
    ind = _independent_set_counts(g)
    full = (1 << n) - 1
    for t in range(2, n + 1):
        total = 0
        for mask in range(1 << n):
            term = ind[mask] ** t
            if (full ^ mask).bit_count() & 1:
                total -= term
            else:
                total += term
        if total > 0:
            return t
    return n


def has_critical_edge(g: Graph, chi: int | None = None) -> bool:
    """True iff removing some edge lowers the chromatic number.  A caller
    that already knows χ(g) passes it as ``chi``."""
    if chi is None:
        chi = chromatic_number(g)
    if chi <= 1:
        return False
    for u, v in g.edges():
        if chromatic_number(g.without_edges([(u, v)])) == chi - 1:
            return True
    return False
