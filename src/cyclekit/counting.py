"""Exact cycle and path counting by anchored subset dynamic programming.

Cycles are counted up to rotation and reflection.  Each cycle is charged to
its lowest-indexed vertex s, its anchor, and counted from the simple paths
that start at s and visit only vertices above s; a path closes to a cycle
through the edge from its end back to s.  Path counts from x swap x with
vertex 0 and count the paths from 0.  Each form returns only what its caller
reads: per-length cycle counts, or path ends per vertex.  The forms over
single vertices count graphs with at most ``VERTEX_CAP`` = 24 vertices, the
kernel's limit: its slot table has 2^n entries, 128 MB at 24.

- The dict DP (``_dict_cycles``, ``_dict_ends``) keeps a frontier of Python
  ints per (vertex set, end).  Its cost follows the reachable states, with
  no fixed cost per layer, and it counts each cycle once.
- ``_path_layers``, the sparse numpy kernel, holds layer p, the paths
  through p vertices, as their vertex sets and a matrix of counts per (set,
  end); one matrix product with the adjacency extends every path by one
  vertex.  For cycles the product's entry in the anchor's column is the
  closing count, read before the set and the vertices below the anchor are
  masked out.  Every cycle closes in both directions, so ``_vertex_cycles``
  halves the counts and an odd count raises ``ArithmeticError``.  Cycles
  take two passes, the lowest anchor alone and then every higher anchor
  together, which halves the peak memory of one pass over all anchors.
- ``_dense_layers``, the kernel's dense form up to ``_DENSE_MAX_N`` = 14
  vertices, holds every vertex set of each size in a fixed order, so each
  layer is one product, one gather by a precomputed plan (``_dense_plan``)
  and one closing sum, with every anchor in one pass.  The gathers run in
  numpy's "clip" mode, since under "raise" numpy copies each gather through
  a buffer of its own, and ``_check_plan`` raises ``IndexError`` on any
  index that clipping would hide.  Plan indices fit 2 bytes: the largest,
  at n = 14, is 3432 * 14 = 48,048.  A stack of graphs with the same n
  runs in one pass, each a row of every stacked product and gather, so
  ``subgraph_cycle_totals`` counts the subgraphs that ``verify turanbest
  --samples`` draws in batches.  A batch's two buffers take at most
  ``_DENSE_CHUNK_BYTES`` = 256 KB, the largest budget that kept the
  ``census`` peak RSS within 6% of counting each subgraph alone
  (``BENCH_batched_subgraphs.json``); a float32 batch (see below) holds
  twice the graphs of a float64 one (``BENCH_float32_dense.json``).

``_kernel_pays`` routes over single vertices: the kernel, in p passes (two
for cycles, one for paths), when m >= max(22, n + 3 + 6p, 3n - 34 + 3p) for
a graph with n vertices and m edges, and the dict DP otherwise.  The dict
DP's work is bounded by a function of m, which falls as n grows and the
edges spread thinner; the kernel pays a fixed cost per layer and pass.  The
floor of 22 edges is one more than K_7 has, so every graph on seven or fewer
vertices takes the dict DP; n + 3 + 6p follows the measured crossovers from
8 to 20 vertices within about 2 edges; and 3n - 34 + 3p takes over from 21
vertices for paths and 22 for cycles, where the slot table dominates the
kernel's cost (``BENCH_cycle_routing.json``, ``BENCH_verify_suites.json``).
The kernel is the dense form up to 14 vertices, where it was ahead of the
sparse kernel on every graph timed, and the sparse kernel above, which was
ahead on sparse graphs at 15 and 16 (``BENCH_dense_layers.json``).  Near
``VERTEX_CAP`` the kernel is the only practical vertex form, as the dict DP
keeps every state in a Python dict (``BENCH_float_product.json``).
``count_cycles`` on at most ten vertices sums the vertex counts without
building a spectrum dict; the searches make thousands of such calls.

The kernel is exact at any n, by a bound per layer.  A row at layer p counts
the paths through p vertices with one vertex set and one end, at most
(p - 2)! (the orders of the inner vertices), and an entry of the product at
most (p - 1)!.  Rows and the adjacency matrix are float64 while
(p - 1)! < 2^53, that is up to layer p = 19, so that ``rows @ matrix`` runs
on numpy's float64 BLAS product; numpy has none for integer types, and its
own int64 loop is several times slower (``BENCH_float_product.json``).  The
float product is exact: every term is a nonnegative integer and every
partial sum lies between 0 and the entry, so every partial sum is an
integer below 2^53 and exactly representable, whatever the order of
summation, the use of FMA or the split across threads.  That needs a BLAS
that sums plain products, as OpenBLAS, MKL and Accelerate do, not a
Strassen-type one.  From layer 20 on the rows go through int64 to object
dtype (Python ints) and the matrix to int64; at n = 24 those layers hold at
most C(23, 19) + C(23, 20) + ... + 1 = 10,903 vertex sets per pass.  The
dense form runs each pass wholly in one float type, ``_dense_dtype(n)``, by
the same argument: over n vertices a product entry is at most (n - 1)!,
the closing sum of layer p at most C(n, p) (p - 1)! <= n! / (n - 1), and
the path ends summed over every layer at most sum_{j <= n - 2} (n - 2)! /
(n - 2 - j)! <= e (n - 2)!.  Up to ``_DENSE_FLOAT32_MAX_N`` = 11 vertices
all three are below 2^24 (10! = 3,628,800, 11! / 10 = 3,991,680 and
986,410), so the pass runs in float32, whose products move half the bytes
of float64 ones; at n = 12, 11! is above 2^24, and up to n = 14 every bound
is below 2^53, so the pass runs in float64.

In the sparse kernel a closing or end sum adds one layer's counts over every
anchor of a pass in int64.  The anchors have distinct numbers j <= n - 1 of
vertices above them, so such a sum is at most sum_{j < n} j! <= 2 (n - 1)!,
which fits int64 for n <= 21; larger passes sum the counts' high and low
32-bit halves apart (``_exact_sum``).  All reported counts are Python
ints; the caps bound runtime and memory, not exactness.

The cycle spectrum has a third form, ``_quotient_spectrum``, the anchored
dict DP over twin classes (see ``graphs.twin_classes``).  A state is (how
many vertices of each class the path has used, end class); stepping into
class w multiplies the count by the |w| - used_w vertices left there, and a
step inside w is allowed only when w is a clique.  Anchor class a starts
with weight |a| and uses only classes >= a.  A directed closed walk from
class a that meets class a j times is one of the 2j rootings and directions
of its cycle, so the sums are kept per (length, j) and divided by 2j
exactly (``_divide_rootings``).  Swapping two peer classes
(``_class_graph``) above a fixes the start and the closings and maps each
step to one of the same weight, so the frontier keeps one state per orbit:
within each group of peers the used counts are nonincreasing in class
order, and a step into class w goes to the lowest peer of w with the same
used count.  The k classes of T_k(n) are all peers, so the paper's extremal
graphs are cheap (``BENCH_quotient_orbits.json``).

``cycle_spectrum`` routes by n before ``_kernel_pays`` does, with t twin
classes and S = ``_quotient_states``, the quotient's bound on its states
from one anchor class:

- up to ten vertices, the vertex forms;
- from 11 to 14, the quotient when 8 t S < 2^n, its states and end classes
  against the dense form's vertex sets.  Two singleton peers would be
  twins, so S is computed only when two twin classes share a size >= 2 and
  is prod(|w| + 1) otherwise.  On 344 twin-rich graphs the factors 6 to 10
  picked about equally well and better than 3; the quotient's cost per state
  grows with its classes, so graphs with many small classes can still take
  the slower form (``BENCH_batched_subgraphs.json``);
- from 15 to 24, the quotient when the graph has fewer than
  ``_QUOTIENT_MIN_N`` = 11 twin classes, about where it fell behind the
  two-pass sparse kernel at n = 17 (``BENCH_float_product.json``);
- above 24, the quotient alone.  A graph whose largest S exceeds
  ``QUOTIENT_STATE_CAP`` = 2^21 raises ``ValueError`` before any counting,
  as a twin-poor G(25, m) does.  The cap admits about the work that K_24
  costs the kernel: the 5^9 vectors of used vertices of T_9(36), counted
  one state each, took about as long (``CHANGES.md``).  Up to 24 vertices
  no cap is needed: with at most ten classes, prod(|w| + 1) <= 4^4 3^6 =
  186,624.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import comb, factorial, prod
from operator import index
from typing import Sequence

import numpy as np

from .graphs import Graph, _bits, twin_classes

# The most vertices the vertex forms count (the kernel's slot table has 2^n
# entries), and the most states from one anchor class, ``_quotient_states``,
# that the quotient may take on above that (see the module docstring).
VERTEX_CAP = 24
QUOTIENT_STATE_CAP = 1 << 21

# Graphs with at least this many vertices but fewer twin classes take the
# quotient DP (see the module docstring).
_QUOTIENT_MIN_N = 11

# Graphs with at most this many vertices that the kernel counts take its
# dense form (see the module docstring).
_DENSE_MAX_N = 14

# Dense passes over at most this many vertices run in float32, where every
# product entry, at most (n - 1)!, stays below 2^24 (see the module
# docstring).
_DENSE_FLOAT32_MAX_N = 11

# The bytes that the two buffers of one batched dense pass may take, which
# sets how many subgraphs ``subgraph_cycle_totals`` counts in one pass (see
# the module docstring).
_DENSE_CHUNK_BYTES = 256 << 10

_ODD = "directed cycle counts are not all even: implementation bug"


def _kernel_pays(n: int, m: int, passes: int) -> bool:
    """Whether the numpy kernel in ``passes`` passes, rather than the dict
    DP, counts over the single vertices of a graph with n vertices and m
    edges: when m >= max(22, n + 3 + 6 passes, 3n - 34 + 3 passes), which
    no graph on seven or fewer vertices reaches (see the module docstring)."""
    return m >= max(22, n + 3 + 6 * passes, 3 * n - 34 + 3 * passes)


def _vertex_cycles(adj: Sequence[int]) -> list[int]:
    """The cycles of each length r (entry r) of the graph with bit rows
    ``adj``, from the anchored DP over single vertices: the dict DP or the
    kernel, as ``_kernel_pays`` picks, and the kernel in its dense form up to
    ``_DENSE_MAX_N`` vertices.  Both kernel forms count every cycle in both
    directions, so an odd count from them raises ``ArithmeticError``."""
    n = len(adj)
    if not _kernel_pays(n, sum(row.bit_count() for row in adj) // 2, 2):
        return _dict_cycles(adj)
    if n <= _DENSE_MAX_N:
        doubled = _dense_layers(_stack(adj))[0].tolist()
    else:
        # anchors with at least two neighbours above them; the lowest runs
        # alone, then every higher one in one pass
        anchors = [s for s in range(n - 2) if (adj[s] >> (s + 1)).bit_count() >= 2]
        doubled = [0] * (n + 1)
        for part in (anchors[:1], anchors[1:]):
            if part:
                doubled = [a + b for a, b in zip(doubled, _path_layers(adj, part))]
    if any(c % 2 for c in doubled):
        raise ArithmeticError(_ODD)
    return [c // 2 for c in doubled]


def _dict_cycles(adj: Sequence[int]) -> list[int]:
    """The cycles of each length r (entry r) of the graph with bit rows
    ``adj``, each counted once by a ``dict[(mask, v)] -> int`` frontier of
    Python ints.

    A cycle with lowest vertex s and cycle neighbours a < b of s is counted
    by the run from the path s, a, which closes only at the neighbours of s
    above a.  A run stops extending a path once the path has visited all of
    them, so the highest neighbour of s starts no run.
    """
    n = len(adj)
    counts = [0] * (n + 1)
    full = (1 << n) - 1
    for s in range(n - 2):
        above = full >> (s + 1) << (s + 1)  # the vertices above s
        later = adj[s] & above
        if not later & (later - 1):
            continue  # fewer than two neighbours above s: no cycle
        rows = [row & above for row in adj]
        while later & (later - 1):
            b = later & -later
            later ^= b  # the neighbours above a = b, the ends that close
            frontier = {(b, b.bit_length() - 1): 1}  # s is left out of the masks
            size = 3  # of the paths that the frontier's extensions make
            while frontier:
                nxt: dict[tuple[int, int], int] = {}
                shut = 0
                for (mask, v), cnt in frontier.items():
                    ext = rows[v] & ~mask
                    while ext:
                        bit = ext & -ext
                        ext ^= bit
                        new = mask | bit
                        if bit & later:
                            shut += cnt
                            if not later & ~new:
                                continue  # no closing end left to visit
                        key = (new, bit.bit_length() - 1)
                        nxt[key] = nxt.get(key, 0) + cnt
                counts[size] += shut
                frontier = nxt
                size += 1
    return counts


def _dict_ends(adj: Sequence[int]) -> list[int]:
    """The simple paths from vertex 0 with at least one edge, per end vertex
    (entry v), of the graph with bit rows ``adj``, by a
    ``dict[(mask, v)] -> int`` frontier of Python ints."""
    ends = [0] * len(adj)
    frontier = {(1, 0): 1}
    while frontier:
        nxt: dict[tuple[int, int], int] = {}
        for (mask, v), cnt in frontier.items():
            ends[v] += cnt
            ext = adj[v] & ~mask
            while ext:
                bit = ext & -ext
                ext ^= bit
                key = (mask | bit, bit.bit_length() - 1)
                nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
    ends[0] = 0  # the one-vertex path, the only one that ends at 0, has no edge
    return ends


def _path_layers(adj: Sequence[int], anchors: list[int], *, ends: bool = False) -> list[int]:
    """The numpy kernel in one layered pass over every anchor, of which there
    must be one at least (see the module docstring).  It counts the simple
    paths that start at an anchor and then visit only vertices above it, and
    returns twice the cycles of each length r (entry r) whose lowest vertex
    is an anchor, or with ``ends`` the paths with at least one edge per end
    vertex (entry v)."""
    size = len(adj)
    out = [0] * (size if ends else size + 1)
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
        if ends and p > 1:  # one-vertex paths have no edge
            layer = _exact_sum(rows, split, axis=0).tolist()
            out[first:] = [a + b for a, b in zip(out[first:], layer)]
        if rows.dtype != object and factorial(p - 1) >= 1 << 53:
            # the product's entries may pass 2^53: Python ints from here on
            rows = rows.astype(np.int64).astype(object)
            matrix = matrix.astype(np.int64)
        ext = rows @ matrix
        del rows  # each large array goes once used, to lower the peak memory
        low = masks & -masks  # the anchor of each set
        if not ends and p >= 3:  # a closing path through p vertices is a p-cycle
            out[p] = int(_exact_sum(ext[np.arange(len(ext)), np.searchsorted(bits, low)], split))
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
    return out


def _dense_layers(matrices: np.ndarray, *, ends: bool = False) -> np.ndarray:
    """The dense form of the kernel over a stack of graphs with the same
    n <= ``_DENSE_MAX_N`` vertices, given as their 0/1 adjacency matrices of
    shape (B, n, n) in ``_dense_dtype(n)`` (see the module docstring).  Row
    b holds, for graph b, twice the cycles of each length r (entry r) over
    every anchor in one pass, or with ``ends`` the paths from vertex 0 with
    at least one edge per end vertex (entry v), as int64."""
    batch, n = matrices.shape[:2]
    layers = _dense_views(n, ends, batch)
    out = np.zeros((batch, n if ends else n + 1), dtype=np.int64)
    if ends:
        total = np.zeros((batch, n), dtype=_dense_dtype(n))
    # layer 1 holds the sets {s} in rank order s for cycles, and the set {0}
    # for paths, each with the one path through its vertex
    layers[0][3][:] = np.eye(1 if ends else n, n)
    for p, (gather, closing, kn, rows, flat, product, gathered, ones) in enumerate(layers, 1):
        if ends and p > 1:  # one-vertex paths have no edge
            total += ones @ rows
        np.matmul(rows, matrices, out=product)
        flat[:, kn] = 0.0  # the zero entry that every missing predecessor reads
        if not ends and p >= 3:
            out[:, p] = np.add.reduce(flat.take(closing, axis=1), axis=1)
        if p == n:
            break
        # "clip" spares numpy the copy it makes of every gather into ``out``
        # under the default "raise"; _dense_plan checked every index
        flat.take(gather, axis=1, out=gathered, mode="clip")
    if ends:
        out[:] = total
    return out


# Each thread's scratch bytes for the dense form, and its per-layer views.
_scratch = threading.local()


def _dense_views(n: int, ends: bool, batch: int) -> list[tuple]:
    """Per layer of ``_dense_plan(n, not ends)`` for a stack of ``batch``
    graphs: the layer's gather and closing indices, the k n entries of its
    product per graph, and views in ``_dense_dtype(n)`` into this thread's
    scratch bytes of the (B, k, n) rows, the (B, k n + 1) product with its
    (B, k, n) part that the matmul fills, the next layer's rows as the
    gather fills them, and a row of k ones.  The rows and the product take
    two regions of the bytes, each as wide as the widest layer, at the
    dtype's bytes per entry: 4 up to ``_DENSE_FLOAT32_MAX_N`` vertices and 8
    above.  The bytes are kept and grow to the largest pass the thread has
    run, and the views are kept per (n, ends, batch) while they do not grow,
    at most 16 sets of them, so a pass allocates no buffer and makes no view
    per layer."""
    views = getattr(_scratch, "views", {})
    key = (n, ends, batch)
    if key in views:
        return views[key]
    dtype = _dense_dtype(n)
    plan = _dense_plan(n, not ends)
    width = max(len(closing) for _, closing in plan)  # the widest layer's sets
    half = batch * width * n * dtype.itemsize  # the rows' bytes
    size = 2 * half + batch * dtype.itemsize
    space = getattr(_scratch, "space", None)
    if space is None or len(space) < size:
        space = _scratch.space = np.empty(size, dtype=np.uint8)
        views = _scratch.views = {}
    elif len(views) >= 16:
        views.clear()
    row_buffer = space[:half].view(dtype)
    product_buffer = space[half:size].view(dtype)
    layers = []
    for p, (gather, closing) in enumerate(plan, 1):
        k, kn = len(closing), len(closing) * n
        flat = product_buffer[: batch * (kn + 1)].reshape(batch, kn + 1)
        gathered = row_buffer[: batch * len(gather)].reshape(batch, -1)
        layers.append((gather, closing, kn, row_buffer[: batch * kn].reshape(batch, k, n), flat,
                       flat[:, :kn].reshape(batch, k, n), gathered, np.ones(k, dtype)))
    views[key] = layers
    return layers


def _stack(adj: Sequence[int]) -> np.ndarray:
    """The graph with bit rows ``adj`` as a stack of one 0/1 adjacency
    matrix, of shape (1, n, n), in ``_dense_dtype(n)``."""
    return _bit_rows(np.array(adj, dtype=np.int64), len(adj))[None].astype(_dense_dtype(len(adj)))


def _dense_dtype(n: int) -> np.dtype:
    """The float type of every matrix of a dense pass over n vertices:
    float32 up to ``_DENSE_FLOAT32_MAX_N`` vertices and float64 above (see
    the module docstring)."""
    return np.dtype(np.float32 if n <= _DENSE_FLOAT32_MAX_N else np.float64)


@lru_cache(maxsize=2 * _DENSE_MAX_N)
def _dense_plan(n: int, cycles: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """The index arrays of the dense form over n vertices, for cycles (every
    vertex set) or for paths (the sets that hold vertex 0), one pair per
    layer p = 1..n, of which the last has no ``gather``.  Layer p holds its
    sets by size and then by mask, a row each.  ``gather`` maps each flat
    (set T of layer p + 1, vertex u) to the flat (T - u, u) of layer p's
    product, or, when u is not in T or is T's anchor, to the zero entry one
    past that product's last.  ``closing`` maps each set S of layer p to its
    flat (S, anchor of S).  The arrays are read-only, as every caller shares
    them, 2-byte where their indices fit, and checked by ``_check_plan``."""
    size = 1 << n
    weight = np.zeros(size, dtype=np.int32)  # the number of vertices per set
    for b in range(n):
        weight[1 << b: 2 << b] = weight[: 1 << b] + 1
    masks = np.arange(size, dtype=np.int32)
    if not cycles:
        masks = masks[1::2]  # the sets that hold vertex 0
    masks = masks[np.argsort(weight[masks], kind="stable")]
    sizes = np.bincount(weight[masks], minlength=n + 1).tolist()
    dtype = np.uint16 if max(sizes) * n < 1 << 16 else np.int32
    rank = np.zeros(size, dtype=np.int32)  # each set's row in its layer
    layers = np.split(masks, np.cumsum(sizes)[:-1])
    for sets in layers:
        rank[sets] = np.arange(len(sets))
    cols = np.arange(n, dtype=np.int32)
    bits = np.int32(1) << cols
    plan = []
    for p in range(1, n + 1):
        low = layers[p] & -layers[p]
        closing = np.arange(sizes[p]) * n + weight[low - 1]
        gather = np.empty(0)
        if p < n:
            sets = layers[p + 1][:, None]
            gather = rank[sets & ~bits] * n + cols
            gather[((sets & bits) == 0) | (bits <= (sets & -sets))] = sizes[p] * n
        plan.append((_frozen(gather.ravel(), dtype), _frozen(closing, dtype)))
    _check_plan(plan, n)
    return plan


def _check_plan(plan: list[tuple[np.ndarray, np.ndarray]], n: int) -> None:
    """Raise ``IndexError`` unless every index of the dense ``plan`` over n
    vertices reads its own layer's product: each closing index lies inside
    the layer, each gather index at most at its zero entry.  The dense form
    gathers in numpy's "clip" mode, which would read a bad index as another
    entry instead of raising."""
    for p, (gather, closing) in enumerate(plan, 1):
        zero = len(closing) * n  # the zero entry, one past the layer's product
        for name, index, top in (("closing", closing, zero - 1), ("gather", gather, zero)):
            if len(index) and not 0 <= int(index.min()) <= int(index.max()) <= top:
                raise IndexError(f"dense plan over {n} vertices: a {name} index of layer {p} "
                                 f"lies outside 0..{top}")


def _frozen(values: np.ndarray, dtype: type) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``."""
    out = values.astype(dtype)
    out.flags.writeable = False
    return out


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
    if n < _QUOTIENT_MIN_N:
        return _vertex_spectrum(g)
    classes = twin_classes(g)
    if n <= _DENSE_MAX_N:
        # the quotient's states and end classes against the dense form's
        # sets; only classes of one size >= 2 can be peers, as two singleton
        # peers would be twins
        sizes = [len(cls) for cls in classes if len(cls) > 1]
        if len(set(sizes)) < len(sizes):
            states = _quotient_states(g, classes)
        else:
            states = prod(len(cls) + 1 for cls in classes)
        if 8 * states * len(classes) >= 1 << n:
            return _vertex_spectrum(g)
    elif n <= VERTEX_CAP:
        if len(classes) >= _QUOTIENT_MIN_N:
            return _vertex_spectrum(g)
    elif (states := _quotient_states(g, classes)) > QUOTIENT_STATE_CAP:
        raise ValueError(
            f"cycle counting refused: n={n} is above the vertex cap {VERTEX_CAP}, and its "
            f"{len(classes)} twin classes bound the quotient at {states} states, above the "
            f"state cap {QUOTIENT_STATE_CAP}"
        )
    return _quotient_spectrum(g, classes)


def _vertex_spectrum(g: Graph) -> dict[int, int]:
    """The cycle spectrum from the anchored DP over single vertices."""
    return {r: c for r, c in enumerate(_vertex_cycles(g.adj)) if c}


def _quotient_spectrum(g: Graph, classes: list[list[int]]) -> dict[int, int]:
    """The cycle spectrum from the anchored DP over the twin ``classes`` of g,
    with one state per orbit of interchangeable classes (see the module
    docstring).  The frontier maps each vector of used vertices per class,
    packed in mixed radix and nonincreasing in class order within each group
    of peers, to its counts per end class.
    """
    t = len(classes)
    size = [len(cls) for cls in classes]
    sees, groups = _class_graph(g, classes)
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
        # the classes of a group with two or more above a step as one run,
        # in class order, and each run scans the frontier on its own, so an
        # anchor with no run pays nothing for runs per state
        runs = [[steps[w - a] for w in group if w > a] for group in groups if group[-2] > a]
        singles = steps
        if runs:
            taken = {step[0] for run in runs for step in run}
            singles = [step for step in steps if step[0] not in taken]
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
                for w, pw, sw, into in singles:
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
            for run in runs:
                for used, ends in frontier.items():
                    last = -1
                    for w, pw, sw, into in run:
                        have = used // pw % (sw + 1)
                        if have != last:
                            # the lowest peer with this count takes the steps
                            # into every peer with it, at the same weight
                            last, to, pto = have, w, pw
                        if have == sw:
                            continue
                        cnt = 0
                        for u in into:
                            cnt += ends[u]
                        if cnt:
                            row = nxt.get(used + pto)
                            if row is None:
                                row = nxt[used + pto] = [0] * t
                            # (used + pto, to) has the single predecessor
                            # vector used, but the peers step there together
                            row[to] += cnt * (sw - have)
            frontier = nxt
            length += 1
    return _divide_rootings(rooted)


def _class_graph(g: Graph, classes: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """The twin ``classes`` of g as a graph: ``sees[w]`` lists the classes
    that class w sees, w itself when it is a clique, and ``groups`` lists
    each group of two or more interchangeable classes in class order.
    Classes are interchangeable when they have equal sizes, are both cliques
    or both independent, and see the same other classes, so that swapping
    them is an automorphism of g."""
    rep = [cls[0] for cls in classes]
    sees = []
    for cls in classes:
        # a clique's lowest vertex is a neighbour of its second
        row = g.adj[cls[0]] | (g.adj[cls[1]] if len(cls) > 1 else 0)
        sees.append([u for u, v in enumerate(rep) if row >> v & 1])
    if len({len(cls) for cls in classes}) == len(classes):
        return sees, []  # peers have equal sizes
    peers: dict[tuple[int, int], list[int]] = {}
    for w, cls in enumerate(classes):
        # the classes seen with w toggled, set for an independent class and
        # cleared for a clique: independent peers see each other and clique
        # peers do not, so peers of either kind get equal keys
        key = 1 << w
        for u in sees[w]:
            key ^= 1 << u
        peers.setdefault((len(cls), key), []).append(w)
    return sees, [group for group in peers.values() if len(group) > 1]


def _quotient_states(g: Graph, classes: list[list[int]]) -> int:
    """The most vectors of used vertices that the quotient DP keeps from one
    anchor class a: |a| + 1 times, over each group of m interchangeable
    classes of size s above a, the C(m + s, m) nonincreasing vectors (a
    class with no peer is a group of one)."""
    t = len(classes)
    size = [len(cls) for cls in classes]
    groups = _class_graph(g, classes)[1]
    grouped = {w for group in groups for w in group}
    most = 0
    for a in range(t):
        states = (size[a] + 1) * prod(size[w] + 1 for w in range(a + 1, t) if w not in grouped)
        for group in groups:
            m = sum(w > a for w in group)
            states *= comb(m + size[group[0]], m)
        most = max(most, states)
    return most


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
    if g.n < _QUOTIENT_MIN_N:
        # cycle_spectrum takes the vertex forms too; skip building the dict
        return sum(_vertex_cycles(g.adj))
    return sum(cycle_spectrum(g).values())


def subgraph_cycle_totals(host: Graph, drops: Sequence[int]) -> list[int]:
    """For each mask in ``drops``, the total number of cycles of ``host``
    less the edges whose indices in ``host.edges()`` order are set in the
    mask.  Up to ``_DENSE_MAX_N`` vertices the subgraphs are counted in
    batches through the dense form, each batch in one pass over its plan;
    above that each is counted by ``count_cycles``, under its caps.  A mask
    outside [0, 2^E), E the edges of ``host``, raises ``ValueError``, and one
    that is not an integer ``TypeError``."""
    edges = list(host.edges())
    drops = [index(mask) for mask in drops]
    for mask in drops:
        if not 0 <= mask < 1 << len(edges):
            raise ValueError(f"edge mask {mask} outside 0 .. 2^{len(edges)} - 1, "
                             f"for a host with {len(edges)} edges")
    n = host.n
    if n > _DENSE_MAX_N:
        return [count_cycles(host.without_edges(edges[i] for i in _bits(mask))) for mask in drops]
    us, vs = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    octets = len(edges) // 8 + 1
    chunk = _dense_chunk(n)
    totals: list[int] = []
    for start in range(0, len(drops), chunk):
        part = drops[start: start + chunk]
        packed = np.frombuffer(b"".join(mask.to_bytes(octets, "little") for mask in part), dtype=np.uint8)
        kept = 1 - np.unpackbits(packed.reshape(len(part), octets), axis=1, count=len(edges), bitorder="little")
        matrices = np.zeros((len(part), n, n), dtype=_dense_dtype(n))
        matrices[:, us, vs] = kept
        matrices[:, vs, us] = kept
        doubled = _dense_layers(matrices)
        if (doubled % 2).any():
            raise ArithmeticError(_ODD)
        totals += (doubled.sum(axis=1) // 2).tolist()
    return totals


def _dense_chunk(n: int) -> int:
    """How many graphs on n vertices one batched dense pass for cycles
    counts: as many as fit their two buffers, (2 C(n, n / 2) n + 1) entries
    each at the bytes per entry of ``_dense_dtype(n)``, into
    ``_DENSE_CHUNK_BYTES``, and one at least."""
    entries = 2 * comb(n, n // 2) * n + 1
    return max(1, _DENSE_CHUNK_BYTES // (_dense_dtype(n).itemsize * entries))


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
    if not _kernel_pays(n, g.edge_count, 1):
        ends = _dict_ends(adj)
    elif n <= _DENSE_MAX_N:
        ends = _dense_layers(_stack(adj), ends=True)[0].tolist()
    else:
        ends = _path_layers(adj, [0], ends=True)
    ends[0], ends[x] = ends[x], ends[0]
    return {y: c for y, c in enumerate(ends) if c}
