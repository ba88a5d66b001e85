"""Exact cycle and path counting by anchored subset dynamic programming.

Cycles are counted up to rotation and reflection.  Each cycle is charged to
its lowest-indexed vertex s, its anchor: a DP over (vertex set, end vertex)
counts the simple paths that start at s and visit only vertices above s, a
path closes to a cycle through the edge back to s, and the two traversal
directions are merged by halving.  Path counts from x swap x with vertex 0
and run the same DP with 0 as the only anchor.

The DP has two interchangeable forms.  Both take the graph's rows as bit
masks and a list of anchors, and return ``(closed, ends)``: ``closed[p]``
counts the paths through p vertices whose end is adjacent to their anchor,
and ``ends[v]`` the paths with at least one edge that end at v.

- ``_dict_layers``: a ``dict[(mask, v)] -> int`` frontier of Python ints,
  one anchor at a time.  Its cost follows the reachable states exactly and
  it has no per-layer fixed cost, which is what the many calls on graphs of
  ten or fewer vertices (the extremal searches) need.
- ``_path_layers``: a numpy kernel.  Layer p holds the paths through p
  vertices as their vertex sets and a matrix of counts per (set, end
  vertex); the anchor of a set is its lowest vertex.  One matrix product
  with the adjacency extends every path by one vertex.  The product's entry
  in the anchor's column is the closing count, read before the set and the
  vertices below the anchor (``set | (low - 1)``) are masked out.  Only
  reachable sets are stored, so sparse graphs stay cheap.

Path counts need ``ends``, cycles only ``closed``.  With ``end_sums`` false
both forms skip the ``ends`` bookkeeping and return None for it: the kernel
leaves out its per-layer column sums, and the dict DP its per-state end sum,
and it also stops extending a path once the path has visited every
neighbour of its anchor, since no extension of such a path closes.  The
cycle spectrum and the cycle totals always run with ``end_sums`` false.  For
graphs with fewer than ``_KERNEL_MIN_M`` vertices, ``count_cycles`` sums the
closing counts directly instead of building the spectrum dict, with the same
check that every doubled count is even; the searches and ``verify
turanbest`` make tens of thousands of such calls.

One rule routes both the cycle spectrum and the path counts over single
vertices (``_layers``): the kernel runs when n >= ``_KERNEL_MIN_M`` = 11, the
dict DP below that and for no anchor.  The vertex forms count graphs with at
most ``VERTEX_CAP`` = 24 vertices.  That limit is the kernel's: its slot
table has 2^n entries, 128 MB at n = 24.

The kernel runs twice per graph: once for the lowest anchor alone, then
once for all higher anchors together, so a graph pays the kernel's fixed
cost per layer twice instead of once per anchor.  The lowest anchor has
about as many reachable sets as all higher anchors together, and running
the two apart halves the peak memory of one pass over all anchors.  Each
layer's new sets are deduplicated by direct addressing (``_dedup``): every
set is scattered into a 2^n slot table, one writer per set wins, and
reading the table back gives each path its row.  That replaces a sort
(``np.unique``); exact counts do not depend on the order of the rows.

The kernel is exact at any n, by a bound per layer.  A row at layer p counts
the paths through p vertices with one vertex set and one end, at most
(p - 2)! (the orders of the inner vertices), and an entry of the product at
most (p - 1)!.  Rows and the adjacency matrix are float64 while
(p - 1)! < 2^53, that is up to layer p = 19, so that ``rows @ matrix`` runs
on numpy's float64 BLAS product; numpy has none for integer types, and its
own int64 loop took 7 to 12 times as long on a block of 2000 rows by 13
columns.  The float product is exact: every term is a nonnegative integer
and every partial sum lies between 0 and the entry, so every partial sum is
an integer below 2^53 and exactly representable, whatever the order of
summation, the use of FMA or the split across threads.  That needs a BLAS
that sums plain products, as OpenBLAS, MKL and Accelerate do, not a
Strassen-type one.  From layer 20 on the rows go through int64 to object
dtype (Python ints) and the matrix to int64; at n = 24 those layers hold at
most C(23, 19) + C(23, 20) + ... + 1 = 10,903 vertex sets per pass.

A closing or end sum adds one layer's counts over every anchor of a pass,
in int64: float64 counts are cast as they are summed.  The anchors have
distinct numbers m <= n - 1 of vertices above them, so such a sum is at most
sum_{m < n} m! <= 2 (n - 1)!, which fits int64 for n <= 21; larger passes
take each sum as the sums of the counts' high and low 32-bit halves, split
exactly in float64 and summed in int64, joined as Python ints.  All
reported counts are Python ints; ``VERTEX_CAP`` and ``QUOTIENT_STATE_CAP``
bound runtime and memory, not exactness.

The kernel pays a fixed cost of about fifteen numpy calls per layer, while
the dict DP costs in proportion to the reachable states.  Timed per graph on
a 2-core x86 VM (numpy 2.4 with one OpenBLAS thread, seeded G(n, p), kernel
over dict DP, median of 8 graphs): at n = 10 the two kernel passes take
1.7x the dict DP's time at p = 0.5 and 0.19x at p = 0.8, but 10x at
p = 0.25 (0.44 ms against 0.045 ms); at n = 11 they take 8x at p = 0.25
(0.67 ms against 0.094 ms), 0.38x at p = 0.5 and 0.10x at p = 0.8
(``BENCH_float_product.json``).  Hence ``_KERNEL_MIN_M = 11``:
graphs on ten or fewer vertices, which is every graph the extremal searches
count, keep the dict DP.

Near ``VERTEX_CAP`` the kernel is the only practical vertex form.  On the
same VM a dense twin-free G(22, 0.75) takes 3.8 to 5.1 s and about 390 MB
peak RSS, where the dict DP taking the anchor with 21 vertices above it took
171 to 201 s and 1.3 GB (``BENCH_exact_kernel.json``); K_24 over single
vertices takes 20 to 23 s and 1.1 GB (``BENCH_float_product.json``).

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

``cycle_spectrum`` routes by n.  Graphs on ten or fewer vertices take the
vertex forms.  Up to ``VERTEX_CAP`` a graph takes the quotient when it has
fewer than ``_KERNEL_MIN_M`` twin classes, and the vertex forms otherwise.
Against the two-pass kernel the crossover depends on n: timed on the same VM
on seeded random blow-ups (6 per cell, quotient over vertex forms, median),
the ratio is 0.66 at 7 classes and 1.18 at 8 for n = 11, 0.67 at 7 and 1.29
at 8 for n = 13, 0.59 at 8 and 1.32 at 9 for n = 15, and 0.97 at 10 and 1.43
at 11 for n = 17.

Above ``VERTEX_CAP`` only the quotient runs, whatever the class count.  Its
frontier from one anchor class holds at most prod(|w| + 1) vectors of used
vertices, over the twin classes w, and a graph whose product exceeds
``QUOTIENT_STATE_CAP`` = 2^21 raises ``ValueError`` before any counting.  The
cap admits about the work that K_24 costs the kernel (20 s, 1.1 GB): on the
same VM T_6(48), with 3^12 = 531,441 states, takes about 3 s, and T_9(36),
with 5^9 = 1,953,125, about 20 s and 190 MB, while T_3(45), T_4(40) and
T_5(30) less one edge take 0.03 to 0.24 s.  Up to ``VERTEX_CAP`` no state cap is
needed: a graph with at most 24 vertices and at most ten classes has a
product of at most 4^4 3^6 = 186,624.  A twin-poor graph above 24 vertices,
such as G(25, m), is refused.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Sequence

import numpy as np

from .graphs import Graph, twin_classes

# The most vertices the vertex forms count (the kernel's slot table has 2^n
# entries), and the most states, prod(|w| + 1) over the twin classes w, that
# the quotient may take on above that (see the module docstring).
VERTEX_CAP = 24
QUOTIENT_STATE_CAP = 1 << 21

# Graphs with fewer vertices run the dict DP, and graphs with at least this
# many vertices but fewer twin classes the quotient DP (see the module
# docstring).
_KERNEL_MIN_M = 11


def _layers(
    adj: Sequence[int], anchors: list[int], *, end_sums: bool = True
) -> tuple[list[int], list[int] | None]:
    """``(closed, ends)`` for the ``anchors`` of the graph with bit rows
    ``adj``, n <= ``VERTEX_CAP``: the kernel when n >= 11, the lowest anchor
    alone and then the rest in one pass, and the dict DP otherwise (also for
    no anchor).  With ``end_sums`` false ``ends`` is None."""
    if not anchors or len(adj) < _KERNEL_MIN_M:
        return _dict_layers(adj, anchors, end_sums=end_sums)
    closed, ends = _path_layers(adj, anchors[:1], end_sums=end_sums)
    if len(anchors) > 1:
        more_closed, more_ends = _path_layers(adj, anchors[1:], end_sums=end_sums)
        closed = [a + b for a, b in zip(closed, more_closed)]
        if end_sums:
            ends = [a + b for a, b in zip(ends, more_ends)]
    return closed, ends


def _dict_layers(
    adj: Sequence[int], anchors: list[int], *, end_sums: bool = True
) -> tuple[list[int], list[int] | None]:
    """Count the simple paths that start at one of the ``anchors`` and then
    visit only vertices above their anchor, one anchor at a time.

    ``adj`` holds the graph's rows as bit masks.  Returns ``(closed, ends)``:
    ``closed[p]`` is the number of paths through p vertices whose end vertex
    is adjacent to their anchor, and ``ends[v]`` the number of paths with at
    least one edge that end at v.  With ``end_sums`` false ``ends`` is None,
    and a path that has visited every neighbour of its anchor is not
    extended, since no extension of it can close.
    """
    n = len(adj)
    closed = [0] * (n + 1)
    ends = [0] * n if end_sums else None
    for s in anchors:
        above = ((1 << n) - 1) >> s << s  # s and the vertices above it
        sees = adj[s] & above  # the ends that close a path
        # a path with no vertex of ``live`` left unvisited is dropped; -1 keeps all
        live = -1 if end_sums else sees
        frontier = {(1 << s, s): 1}
        if end_sums:
            ends[s] -= 1  # the one-vertex path, counted with the states below
        size = 1
        while frontier:
            nxt: dict[tuple[int, int], int] = {}
            shut = 0
            for (mask, v), cnt in frontier.items():
                if end_sums:
                    ends[v] += cnt
                if sees >> v & 1:
                    shut += cnt
                if not live & ~mask:
                    continue
                ext = adj[v] & above & ~mask
                while ext:
                    b = ext & -ext
                    ext ^= b
                    key = (mask | b, b.bit_length() - 1)
                    nxt[key] = nxt.get(key, 0) + cnt
            closed[size] += shut
            frontier = nxt
            size += 1
    return closed, ends


def _path_layers(
    adj: Sequence[int], anchors: list[int], *, end_sums: bool = True
) -> tuple[list[int], list[int] | None]:
    """``_dict_layers`` in one layered pass of the numpy kernel over every
    anchor, of which there must be one at least (see the module docstring).
    The cycle spectrum needs only ``closed``; with ``end_sums`` false
    ``ends`` is None and the per-layer column sums, about 7% of the
    kernel's time, are skipped."""
    size = len(adj)
    closed = [0] * (size + 1)
    ends = [0] * size if end_sums else None
    # only the vertices from the lowest anchor up take part
    first = min(anchors)
    n = size - first
    split = 2 * factorial(n - 1) >= 1 << 63  # a sum may pass int64
    cols = np.arange(n)
    matrix = (np.array([row >> first for row in adj[first:]], dtype=np.int64)[:, None] >> cols) & 1
    matrix = matrix.astype(np.float64)
    bits = 1 << cols
    slot = np.empty(1 << n, dtype=np.intp)  # scratch for _dedup, indexed by vertex set
    starts = [s - first for s in anchors]
    masks = bits[starts]
    rows = np.eye(n)[starts]
    p = 1
    while len(masks):
        if end_sums and p > 1:  # one-vertex paths have no edge
            layer = _exact_sum(rows, split, axis=0).tolist()
            ends[first:] = [a + b for a, b in zip(ends[first:], layer)]
        if rows.dtype != object and factorial(p - 1) >= 1 << 53:
            # the product's entries may pass 2^53: Python ints from here on
            rows = rows.astype(np.int64).astype(object)
            matrix = matrix.astype(np.int64)
        ext = rows @ matrix
        del rows  # each large array goes once used, to lower the peak memory
        low = masks & -masks  # the anchor of each set
        closed[p] = int(_exact_sum(ext[np.arange(len(ext)), np.searchsorted(bits, low)], split))
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
        rows = np.zeros(len(masks) * n, dtype=counts.dtype)
        # (mask | w, w) has the single predecessor mask, so assignment suffices
        rows[where * n + w] = counts
        rows = rows.reshape(-1, n)
        p += 1
    return closed, ends


def _exact_sum(values: np.ndarray, split: bool, axis: int | None = None) -> int | np.ndarray:
    """``values.sum(axis)`` for nonnegative integer counts held as float64
    (below 2^53) or as Python ints.  Float64 counts are summed in int64,
    with no converted copy of ``values``; with ``split`` the sum is taken as
    the sums of the counts' high and low 32-bit halves, which fit int64,
    joined as Python ints.  Object arrays sum as Python ints already."""
    if values.dtype == object:
        return values.sum(axis=axis)
    if not split:
        return values.sum(axis=axis, dtype=np.int64)
    half = values * 2.0 ** -32
    np.floor(half, out=half)  # the high halves, exact in float64
    high = half.sum(axis=axis, dtype=np.int64).astype(object)
    half *= 2.0 ** 32
    np.subtract(values, half, out=half)  # the low halves
    low = half.sum(axis=axis, dtype=np.int64).astype(object)
    return (high << 32) + low


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


def cycle_spectrum(g: Graph) -> dict[int, int]:
    """Per-length cycle counts {r: count, 3 <= r <= n}; zero entries omitted.
    Raises ``ValueError`` when g has more than ``VERTEX_CAP`` vertices and
    its twin classes bound the quotient above ``QUOTIENT_STATE_CAP`` states."""
    n = g.n
    if n < _KERNEL_MIN_M:
        return _vertex_spectrum(g)
    classes = twin_classes(g)
    if n <= VERTEX_CAP:
        if len(classes) < _KERNEL_MIN_M:
            return _quotient_spectrum(g, classes)
        return _vertex_spectrum(g)
    states = prod(len(cls) + 1 for cls in classes)
    if states > QUOTIENT_STATE_CAP:
        raise ValueError(
            f"cycle counting refused: n={n} is above the vertex cap {VERTEX_CAP}, and its "
            f"{len(classes)} twin classes bound the quotient at {states} states, above the "
            f"state cap {QUOTIENT_STATE_CAP}"
        )
    return _quotient_spectrum(g, classes)


def _vertex_spectrum(g: Graph) -> dict[int, int]:
    """The cycle spectrum from the anchored DP over single vertices."""
    doubled = _doubled_cycles(g.adj)
    return {r: c // 2 for r, c in enumerate(doubled) if c}


def _doubled_cycles(adj: Sequence[int]) -> list[int]:
    """Twice the number of cycles of each length r (entry r; entries 0 to 2
    are 0) of the graph with bit rows ``adj``, from the anchored DP over
    single vertices.  Raises ``ArithmeticError`` when a count is odd."""
    n = len(adj)
    # anchors with at least two neighbours above them
    anchors = [s for s in range(n - 2) if (adj[s] >> (s + 1)).bit_count() >= 2]
    closed, _ = _layers(adj, anchors, end_sums=False)
    doubled = [0, 0, 0] + closed[3:]  # closed[2] counts edges, not cycles
    if any(c % 2 for c in doubled):
        raise ArithmeticError("directed cycle counts are not all even: implementation bug")
    return doubled


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


def count_cycles(g: Graph) -> int:
    """Total number of cycles in g, under the caps of ``cycle_spectrum``."""
    if g.n < _KERNEL_MIN_M:
        # cycle_spectrum takes the vertex DP too; skip building the dict
        return sum(_doubled_cycles(g.adj)) // 2
    return sum(cycle_spectrum(g).values())


def count_paths_from(g: Graph, x: int) -> dict[int, int]:
    """Map y -> number of simple x-y paths with at least one edge, for y != x,
    in a graph with at most ``VERTEX_CAP`` vertices."""
    n = g.n
    if n > VERTEX_CAP:
        raise ValueError(f"path counting capped at {VERTEX_CAP} vertices (n={n})")
    if not 0 <= x < n:
        raise ValueError(f"vertex {x} out of range")
    # swap x with vertex 0, so that every other vertex lies above the one
    # anchor: flip bits 0 and x of each row where they differ, then swap rows
    adj = [row ^ ((row ^ row >> x) & 1) * (1 | 1 << x) for row in g.adj]
    adj[0], adj[x] = adj[x], adj[0]
    _, ends = _layers(adj, [0])
    ends[0], ends[x] = ends[x], ends[0]
    return {y: c for y, c in enumerate(ends) if c}
