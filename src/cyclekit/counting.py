"""Exact cycle and path counting by anchored subset dynamic programming.

Cycles are counted up to rotation and reflection.  Each cycle is charged to
its lowest-indexed vertex s: a DP over (subset of vertices above s, endpoint)
counts simple paths starting at s, a path closes to a cycle through the edge
back to s, and the two traversal directions are merged by halving.  Path
counts from x run the same DP over the vertices other than x.

The DP for one anchor runs over its m allowed vertices in one of two forms,
chosen from m:

- a ``dict[(mask, v)] -> int`` frontier of Python ints, for small m and for
  m above the int64 bound.  Its cost follows the reachable states exactly
  and it has no per-layer fixed cost, which is what the many calls on
  graphs of ten or fewer vertices (the extremal searches) need;
- a numpy kernel (``_layer_sums``) for ``_KERNEL_MIN_M <= m <= _KERNEL_MAX_M``.
  Layer p holds the paths through p allowed vertices as the sorted reachable
  vertex sets and an int64 matrix of counts per (set, end vertex).  One
  matrix product with the adjacency extends every path by one vertex.  Only
  reachable sets are stored, so sparse graphs stay cheap.

Every count the kernel forms (a matrix entry, a product entry, a column sum)
is at most m! (ordered paths through at most m vertices), so int64 is exact
while m! < 2^63, that is for m <= 20; the kernel checks this and the dict
DP takes every larger m.  Per-layer column sums leave the kernel as Python
ints, so all reported counts are Python ints, exact at any size; the caps
below only bound runtime.

The kernel pays a fixed cost of about a dozen numpy calls per layer, while
the dict DP costs in proportion to the reachable states.  Timed per anchor
on a 2-core x86 VM (numpy 2.4): at m = 11 the kernel is 2x faster at edge
density 0.35, 4x at 0.5 and 19x on K_12, and at most 0.3 ms slower on
sparser graphs; at m = 9 it is 4-12x slower on graphs of density 0.25 and
below.  Hence ``_KERNEL_MIN_M = 11``: graphs on ten or fewer vertices, which
is every graph the extremal searches count, keep the dict DP.

The cycle spectrum has a third form, ``_quotient_spectrum``, which runs the
anchored dict DP over twin classes instead of vertices (twins have equal
neighbourhoods apart from each other; see ``graphs.twin_classes``).  Vertices
of one class are interchangeable, so a state is (how many vertices of each
class the path has used, end class), stepping into class w multiplies the
count by the |w| - used_w vertices left there, and a step inside w is allowed
only when w is a clique.  Anchor class a starts with weight |a| and uses
only classes >= a.  A directed closed walk from class a that meets class a j
times is one of the 2j rootings and directions of its cycle, so the sums are
kept per (length, j) and each is divided by 2j; the division must be exact,
and a remainder raises ``ArithmeticError``.  The paper's extremal graphs T_k(n)
have k classes: T_3(24) costs about 1 ms and T_8(24) about 0.4 s, where the
vertex forms walk 2^23 vertex sets from one anchor.

``cycle_spectrum`` takes the quotient when n >= ``_KERNEL_MIN_M`` and the graph
has fewer than ``_KERNEL_MIN_M`` twin classes; every other graph takes the
vertex forms.  Timed on the same VM, on seeded random blow-ups with n = 11,
13 and 15 (15 graphs per class count, quotient over vertex forms, median):
0.12 at 6 classes, 0.31 at 8, 0.78 at 10, 1.04 at 11 and 1.80 at 12.  Graphs
on ten or fewer vertices, and twin-free graphs such as G(n, m), never compute
the quotient.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .graphs import Graph, PartitionInfo, twin_classes

DEFAULT_CYCLE_CAP = 24
DEFAULT_PATH_CAP = 22
DEFAULT_SPLIT_CAP = 20

# Anchors with fewer allowed vertices run the dict DP, and graphs with at
# least this many vertices but fewer twin classes the quotient DP (see the
# module docstring).
_KERNEL_MIN_M = 11


def _fits_int64(m: int) -> bool:
    """Whether every count formed over m allowed vertices (at most m!) fits int64."""
    return factorial(m) < 1 << 63


_KERNEL_MAX_M = max(m for m in range(64) if _fits_int64(m))


def _adjacency_matrix(g: Graph) -> np.ndarray:
    cols = np.arange(g.n, dtype=np.int64)
    return (np.array(g.adj, dtype=np.int64)[:, None] >> cols) & 1


def _layer_sums(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Count simple paths from a start vertex outside the allowed set.

    ``adj`` is the 0/1 int64 adjacency among the m allowed vertices and
    ``start`` the 0/1 vector of the start vertex's neighbours among them.
    Returns ``sums[p, v]``: the number of paths through exactly p allowed
    vertices that end at v.
    """
    m = len(adj)
    if not _fits_int64(m):
        raise OverflowError(f"int64 path counts are exact only up to m = {_KERNEL_MAX_M} (m={m})")
    # vertex sets below 2^20 fit int32, which sorts faster than int64
    bits = np.int32(1) << np.arange(m, dtype=np.int32)
    sums = np.zeros((m + 1, m), dtype=np.int64)
    (first,) = np.nonzero(start)
    masks = bits[first]
    rows = np.zeros((len(first), m), dtype=np.int64)
    rows[np.arange(len(first)), first] = 1
    p = 1
    while len(masks):
        sums[p] = rows.sum(axis=0)
        ext = rows @ adj
        ext *= (masks[:, None] & bits) == 0
        flat = np.flatnonzero(ext)
        i, w = np.divmod(flat, m)
        # (mask | w, w) has the single predecessor mask, so assignment suffices
        masks, where = np.unique(masks[i] | bits[w], return_inverse=True)
        rows = np.zeros((len(masks), m), dtype=np.int64)
        rows[where, w] = ext.ravel()[flat]
        p += 1
    return sums


def cycle_spectrum(g: Graph, *, max_n: int = DEFAULT_CYCLE_CAP) -> dict[int, int]:
    """Per-length cycle counts {r: count, 3 <= r <= n}; zero entries omitted."""
    n = g.n
    if n > max_n:
        raise ValueError(f"cycle counting capped at {max_n} vertices (n={n})")
    if n >= _KERNEL_MIN_M:
        classes = twin_classes(g)
        if len(classes) < _KERNEL_MIN_M:
            return _quotient_spectrum(g, classes)
    return _vertex_spectrum(g)


def _vertex_spectrum(g: Graph) -> dict[int, int]:
    """The cycle spectrum from the anchored DP over single vertices."""
    n = g.n
    doubled = [0] * (n + 1)
    full = None
    for s in range(n - 2):
        above = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)
        if (g.adj[s] & above).bit_count() < 2:
            continue
        m = n - 1 - s
        if _KERNEL_MIN_M <= m <= _KERNEL_MAX_M:
            if full is None:
                full = _adjacency_matrix(g)
            closing = full[s, s + 1:]
            sums = _layer_sums(full[s + 1:, s + 1:], closing)
            for p in range(2, m + 1):
                doubled[p + 1] += int(sums[p] @ closing)
            continue
        frontier = {(0, s): 1}
        size = 1
        while frontier:
            nxt: dict[tuple[int, int], int] = {}
            for (mask, v), cnt in frontier.items():
                if size >= 3 and g.adj[v] >> s & 1:
                    doubled[size] += cnt
                ext = g.adj[v] & above & ~mask
                while ext:
                    b = ext & -ext
                    ext ^= b
                    key = (mask | b, b.bit_length() - 1)
                    nxt[key] = nxt.get(key, 0) + cnt
            frontier = nxt
            size += 1
    if any(c % 2 for c in doubled):
        raise ArithmeticError("directed cycle counts are not all even: implementation bug")
    return {r: doubled[r] // 2 for r in range(3, n + 1) if doubled[r]}


def _quotient_spectrum(g: Graph, classes: list[list[int]]) -> dict[int, int]:
    """The cycle spectrum from the anchored DP over the twin ``classes`` of g
    (see the module docstring).  The frontier maps each vector of used
    vertices per class, packed in mixed radix, to its counts per end class.
    """
    t = len(classes)
    size = [len(cls) for cls in classes]
    rep = [cls[0] for cls in classes]
    # sees[w]: the classes adjacent to class w, w itself when it is a clique
    # (its lowest vertex is then a neighbour of its second)
    sees = []
    for cls in classes:
        row = g.adj[cls[0]] | (g.adj[cls[1]] if len(cls) > 1 else 0)
        sees.append([u for u, v in enumerate(rep) if row >> v & 1])
    place = [1]
    for s in size[:-1]:
        place.append(place[-1] * (s + 1))
    # rooted[(r, j)]: closed walks of length r that start in the anchor class
    # and meet it j times; they count each of their cycles 2j times
    rooted: dict[tuple[int, int], int] = {}
    for a in range(t):
        pa, radix = place[a], size[a] + 1
        # walks from anchor class a stay in the classes >= a
        steps = [(w, place[w], size[w], [u for u in sees[w] if u >= a]) for w in range(a, t)]
        closing = steps[0][3]  # the end classes that see the anchor class
        start = [0] * t
        start[a] = size[a]
        frontier = {pa: start}
        length = 1
        while frontier:
            nxt: dict[int, list[int]] = {}
            for used, ends in frontier.items():
                if length >= 3:
                    cnt = 0
                    for u in closing:
                        cnt += ends[u]
                    if cnt:
                        key = (length, used // pa % radix)
                        rooted[key] = rooted.get(key, 0) + cnt
                for w, pw, sw, into in steps:
                    left = sw - used // pw % (sw + 1)
                    if not left:
                        continue
                    cnt = 0
                    for u in into:
                        cnt += ends[u]
                    if cnt:
                        row = nxt.get(used + pw)
                        if row is None:
                            row = nxt[used + pw] = [0] * t
                        # (used + pw, w) has the single predecessor vector used
                        row[w] = cnt * left
            frontier = nxt
            length += 1
    return _divide_rootings(rooted)


def _divide_rootings(rooted: dict[tuple[int, int], int]) -> dict[int, int]:
    """Cycle counts per length from the rooted counts keyed (length r, j):
    each sum counts its cycles 2j times, and the division must be exact."""
    spectrum: dict[int, int] = {}
    for (r, j), total in sorted(rooted.items()):
        count, rem = divmod(total, 2 * j)
        if rem:
            raise ArithmeticError(
                f"closed walks of length {r} meeting the anchor class {j} times "
                f"not divisible by {2 * j}: implementation bug"
            )
        spectrum[r] = spectrum.get(r, 0) + count
    return spectrum


def count_cycles(g: Graph, *, max_n: int = DEFAULT_CYCLE_CAP) -> int:
    """Total number of cycles in g."""
    return sum(cycle_spectrum(g, max_n=max_n).values())


def count_hamilton(g: Graph, *, max_n: int = DEFAULT_CYCLE_CAP) -> int:
    """Number of Hamilton cycles (spanning cycles) in g."""
    return cycle_spectrum(g, max_n=max_n).get(g.n, 0)


def count_paths_from(g: Graph, x: int, *, max_n: int = DEFAULT_PATH_CAP) -> dict[int, int]:
    """Map y -> number of simple x-y paths with at least one edge, for y != x."""
    n = g.n
    if n > max_n:
        raise ValueError(f"path counting capped at {max_n} vertices (n={n})")
    if not 0 <= x < n:
        raise ValueError(f"vertex {x} out of range")
    if _KERNEL_MIN_M <= n - 1 <= _KERNEL_MAX_M:
        full = _adjacency_matrix(g)
        others = [v for v in range(n) if v != x]
        sums = _layer_sums(full[np.ix_(others, others)], full[x, others])
        totals = [sum(col) for col in sums.T.tolist()]
        return {v: t for v, t in zip(others, totals) if t}
    result: dict[int, int] = {}
    frontier = {(1 << x, x): 1}
    while frontier:
        nxt: dict[tuple[int, int], int] = {}
        for (mask, v), cnt in frontier.items():
            ext = g.adj[v] & ~mask
            while ext:
                b = ext & -ext
                ext ^= b
                w = b.bit_length() - 1
                result[w] = result.get(w, 0) + cnt
                key = (mask | b, w)
                nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
    return result


def count_paths(g: Graph, x: int, y: int, *, max_n: int = DEFAULT_PATH_CAP) -> int:
    """Number of simple paths between distinct vertices x and y."""
    if x == y:
        raise ValueError("path endpoints must differ")
    return count_paths_from(g, x, max_n=max_n).get(y, 0)


def count_regular_and_irregular_cycles(
    g: Graph, part: PartitionInfo, *, max_n: int = DEFAULT_SPLIT_CAP
) -> tuple[int, int]:
    """(cycles using only between-class edges, cycles using a within-class edge).

    The partition must describe g exactly: every vertex assigned, and its
    irregular edge list equal to the within-class edges of g.
    """
    if len(part.assignment) != g.n:
        raise ValueError("partition does not assign every vertex")
    derived = {
        (u, v) for u, v in g.edges() if part.assignment[u] == part.assignment[v]
    }
    if derived != {tuple(sorted(e)) for e in part.irregular_edges}:
        raise ValueError("partition irregular edges inconsistent with graph")
    total = count_cycles(g, max_n=max_n)
    regular_only = count_cycles(g.without_edges(derived), max_n=max_n)
    return regular_only, total - regular_only


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def spectrum_to_csv(spectrum: dict[int, int]) -> str:
    lines = ["r,count"]
    lines += [f"{r},{spectrum[r]}" for r in sorted(spectrum)]
    return "\n".join(lines) + "\n"
