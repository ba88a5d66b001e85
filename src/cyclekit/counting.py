"""Exact cycle and path counting by anchored subset dynamic programming.

Cycles are counted up to rotation and reflection.  Each cycle is charged to
its lowest-indexed vertex s, its anchor: a DP over (vertex set, end vertex)
counts the simple paths that start at s and visit only vertices above s, a
path closes to a cycle through the edge back to s, and the two traversal
directions are merged by halving.  Path counts from x run the same DP with x
as the only anchor and every other vertex above it.

The DP runs in one of two forms:

- a ``dict[(mask, v)] -> int`` frontier of Python ints, one anchor at a
  time, for graphs on fewer than ``_KERNEL_MIN_M`` = 11 vertices and for
  anchors with more than ``_KERNEL_MAX_M`` = 20 vertices above them (n >= 22;
  for path counts, every x of such a graph).  Its cost follows the reachable
  states exactly and it has no per-layer fixed cost, which is what the many
  calls on graphs of ten or fewer vertices (the extremal searches) need;
- a numpy kernel (``_path_layers``) for every other anchor.  Layer p holds
  the paths through p vertices as their vertex sets and an int64 matrix of
  counts per (set, end vertex); the anchor of a set is its lowest vertex.
  One matrix product with the adjacency extends every path by one vertex.
  The product's entry in the anchor's column is the closing count, read
  before the set and the vertices below the anchor (``set | (low - 1)``)
  are masked out.  Only reachable sets are stored, so sparse graphs stay
  cheap.

The kernel runs twice per graph: once for the lowest anchor it takes, alone,
then once for all higher anchors together, so a graph pays the kernel's
fixed cost per layer twice instead of once per anchor.  The lowest anchor
has about as many reachable sets as all higher anchors together, and
running the two apart halves the peak memory of one pass over all anchors.
Each layer's new sets are deduplicated by direct addressing (``_dedup``):
every set is scattered into a 2^n slot table, one writer per set wins, and
reading the table back gives each path its row.  That replaces a sort
(``np.unique``); exact counts do not depend on the order of the rows.

A row belongs to one anchor, and every count in it (a matrix entry or a
product entry) is at most m! for an anchor with m vertices above it
(ordered paths through at most m vertices).  A column or closing sum adds
the rows of several anchors.  A kernel call is given the n' vertices from
its lowest anchor up, so its anchors have distinct m <= n' - 1 and such a
sum is at most sum_{m < n'} m! <= 2 (n' - 1)!.  So int64 is exact while
2 m! < 2^63 for m = n' - 1, that is for m <= 20; the kernel checks this and
raises ``OverflowError`` past it, and the dict DP takes every larger m.
Per-layer sums leave the kernel as Python ints, so all reported counts are
Python ints, exact at any size; the caps below only bound runtime.

The kernel pays a fixed cost of about fifteen numpy calls per layer, while
the dict DP costs in proportion to the reachable states.  Timed per graph on
a 2-core x86 VM (numpy 2.4, seeded G(n, p), kernel over dict DP, median of
8 graphs): at n = 10 the two kernel passes take 0.76x the dict DP's time at
p = 0.5 and 0.21x at p = 0.8, but 17x at p = 0.25 (0.18 ms against
0.011 ms); at n = 11 they take 6x at p = 0.25 (0.24 ms against 0.04 ms),
0.22x at p = 0.5 and 0.10x at p = 0.8.  Hence ``_KERNEL_MIN_M = 11``:
graphs on ten or fewer vertices, which is every graph the extremal searches
count, keep the dict DP.

Timed on the same VM against the previous design, which made one kernel
call per anchor with 11 to 20 vertices above it, deduplicated with
``np.unique`` and ran the dict DP for the other anchors.  Seeded twin-free
G(n, p), two processes per side; time is the best of 3 calls in either
process, peak RSS the higher of the two (about 28 MB of it the interpreter
and numpy):

===  ================================  ================================
n    p = 0.5: ms      peak RSS MB      p = 0.75: ms     peak RSS MB
===  ================================  ================================
11   0.835 -> 0.507   29 -> 29         5.1 -> 0.723     29 -> 29
12   2.78 -> 0.96     30 -> 29         5.72 -> 1.18     30 -> 29
13   5.25 -> 1.84     30 -> 29         5.74 -> 1.98     30 -> 30
14   4.77 -> 3.17     30 -> 30         10.7 -> 4.46     31 -> 30
15   8.98 -> 6.02     31 -> 30         16.8 -> 9.67     32 -> 31
16   22.5 -> 17.3     35 -> 34         31.4 -> 20.7     36 -> 35
17   39.7 -> 34.4     40 -> 38         57.2 -> 44.1     42 -> 41
18   96.7 -> 81.8     53 -> 49         121 -> 98.3      55 -> 52
19   209 -> 181       79 -> 74         245 -> 202       79 -> 73
20   429 -> 366       128 -> 111       536 -> 430       123 -> 115
===  ================================  ================================

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
vertex forms.  Against the two-pass kernel the crossover depends on n:
timed on the same VM on seeded random blow-ups (up to 6 per cell, quotient
over vertex forms, median), the ratio is 0.69 at 7 classes and 1.41 at 8
for n = 11, 0.95 at 8 and 1.33 at 9 for n = 13, 0.81 at 9 and 1.17 at 10
for n = 15, and still 0.83 at 11 for n = 17.  Graphs on ten or fewer
vertices, and twin-free graphs such as G(n, m), never compute the quotient.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .graphs import Graph, PartitionInfo, twin_classes

DEFAULT_CYCLE_CAP = 24
DEFAULT_PATH_CAP = 22
DEFAULT_SPLIT_CAP = 20

# Graphs with fewer vertices run the dict DP, and graphs with at least this
# many vertices but fewer twin classes the quotient DP (see the module
# docstring).
_KERNEL_MIN_M = 11


def _fits_int64(m: int) -> bool:
    """Whether the kernel's counts fit int64 when its lowest anchor has m
    vertices above it: they are at most 2 m! (see the module docstring)."""
    return 2 * factorial(m) < 1 << 63


_KERNEL_MAX_M = max(m for m in range(64) if _fits_int64(m))


def _adjacency_matrix(g: Graph) -> np.ndarray:
    cols = np.arange(g.n, dtype=np.int64)
    return (np.array(g.adj, dtype=np.int64)[:, None] >> cols) & 1


def _path_layers(
    adj: np.ndarray, anchors: list[int], *, end_sums: bool = True
) -> tuple[list[int], np.ndarray | None]:
    """Count the simple paths that start at one of the ``anchors`` and then
    visit only vertices above their anchor, in one layered pass.

    ``adj`` is the 0/1 int64 adjacency of the graph.  Returns
    ``(closed, sums)``: ``closed[p]`` is the number of paths through p
    vertices whose end vertex is adjacent to their anchor, and ``sums[p, v]``
    the number of paths through p vertices that end at v.  The cycle
    spectrum needs only ``closed``; with ``end_sums`` false ``sums`` is None
    and the per-layer column sums are skipped.
    """
    n = len(adj)
    if not _fits_int64(n - 1):
        raise OverflowError(f"int64 path counts are exact only up to m = {_KERNEL_MAX_M} (m={n - 1})")
    bits = 1 << np.arange(n)
    slot = np.empty(1 << n, dtype=np.intp)  # scratch for _dedup, indexed by vertex set
    closed = [0] * (n + 1)
    sums = np.zeros((n + 1, n), dtype=np.int64) if end_sums else None
    masks = bits[anchors]
    rows = np.zeros((len(anchors), n), dtype=np.int64)
    rows[np.arange(len(anchors)), anchors] = 1
    p = 1
    while len(masks):
        if end_sums:
            sums[p] = rows.sum(axis=0)
        ext = rows @ adj
        del rows  # each large array goes once used, to lower the peak memory
        low = masks & -masks  # the anchor of each set
        closed[p] = int(ext[np.arange(len(ext)), np.searchsorted(bits, low)].sum())
        # a path may not revisit its set or step below its anchor
        free = _bit_rows(~(masks | (low - 1)), n)
        free &= ext.astype(bool)
        flat = np.flatnonzero(free)
        del free
        counts = ext.ravel()[flat]
        del ext
        w = flat % n
        masks, where = _dedup(masks[flat // n] | bits[w], slot)
        del flat
        rows = np.zeros(len(masks) * n, dtype=np.int64)
        # (mask | w, w) has the single predecessor mask, so assignment suffices
        rows[where * n + w] = counts
        rows = rows.reshape(-1, n)
        p += 1
    return closed, sums


def _bit_rows(values: np.ndarray, n: int) -> np.ndarray:
    """The n low bits of each int64 in ``values``, bit v in column v, as a
    0/1 uint8 matrix (one byte per bit, where ``values[:, None] & bits``
    would take eight)."""
    octets = values.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def _dedup(keys: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for nonnegative int ``keys``
    by direct addressing instead of a sort, with ``slot`` as scratch indexed
    by key; the distinct keys come in no particular order.
    """
    at = np.arange(len(keys))
    # each key's slot keeps the position of one of its copies, and that copy
    # stands for the key
    slot[keys] = at
    distinct = keys[slot[keys] == at]
    slot[distinct] = np.arange(len(distinct))
    return distinct, slot[keys]


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
    # anchors with at least two neighbours above them
    anchors = [s for s in range(n - 2) if (g.adj[s] >> (s + 1)).bit_count() >= 2]
    if n >= _KERNEL_MIN_M:
        # the kernel takes every anchor with at most _KERNEL_MAX_M vertices
        # above it: the lowest on its own, then the rest in one pass
        first = n - 1 - _KERNEL_MAX_M
        kernel = [s for s in anchors if s >= first]
        anchors = [s for s in anchors if s < first]
        full = _adjacency_matrix(g)
        for part in (kernel[:1], kernel[1:]):
            if part:
                a = part[0]
                closed, _ = _path_layers(full[a:, a:], [s - a for s in part], end_sums=False)
                for p in range(3, len(closed)):
                    doubled[p] += closed[p]
    for s in anchors:
        above = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)
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
    if _KERNEL_MIN_M <= n <= _KERNEL_MAX_M + 1:
        # x first, so that every other vertex lies above the one anchor
        order = [x] + [v for v in range(n) if v != x]
        _, sums = _path_layers(_adjacency_matrix(g)[np.ix_(order, order)], [0])
        totals = [sum(col) for col in sums[2:].T.tolist()]
        return {v: t for v, t in zip(order[1:], totals[1:]) if t}
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
