"""Exact cycle and path counting by anchored subset dynamic programming.

Cycles are counted up to rotation and reflection.  Each cycle is charged to
its lowest-indexed vertex s, its anchor, and counted from the simple paths
that start at s and visit only vertices above s; a path closes to a cycle
through the edge from its end back to s.  Path counts from x swap x with
vertex 0 and count the paths from 0.

Over single vertices there are three forms, and each returns only what
its caller reads: per-length cycle counts for the cycle spectrum, per-vertex
path ends for ``count_paths_from``.

- The dict DP keeps a ``dict[(mask, v)] -> int`` frontier of Python ints.
  Its cost follows the reachable states exactly and it has no per-layer
  fixed cost.  ``_dict_cycles`` counts each cycle once: for anchor s it
  runs one frontier per second vertex a, a neighbour of s above s.  That
  frontier closes only at the neighbours of s above a, and it drops a path
  once the path has visited all of them, so the highest neighbour of s
  starts no run.  A cycle whose neighbours of s are a < b is counted by the
  run from a alone.  ``_dict_ends`` is the one frontier from vertex 0 over
  every vertex, and serves path counts only.
- ``_path_layers`` is the sparse numpy kernel.  Layer p holds the paths through p
  vertices as their vertex sets and a matrix of counts per (set, end
  vertex); the anchor of a set is its lowest vertex.  One matrix product
  with the adjacency extends every path by one vertex.  For cycles, the
  product's entry in the anchor's column is the closing count, read before
  the set and the vertices below the anchor (``set | (low - 1)``) are
  masked out.  Every cycle closes in both of its directions, so the kernel
  returns doubled counts, and ``_vertex_cycles`` halves them.  An odd count
  raises ``ArithmeticError``.  For paths, the kernel sums each layer's rows
  per end vertex and takes no closing sum.  Only reachable sets are stored,
  so sparse graphs stay cheap.
- ``_dense_layers`` is the kernel's dense form, for graphs with at most
  ``_DENSE_MAX_N`` = 14 vertices.  Layer p is a float64 table of every
  vertex set of size p by the n end vertices, with the sets in a fixed
  order, so no set needs to be found.  For cycles every anchor runs in one
  pass, and for paths the table holds only the sets that hold vertex 0.  A
  plan, built once per (n, cycles or paths) and kept in a bounded
  ``lru_cache``, holds for each (set T of layer p + 1, vertex u) the flat
  position of (T - u, u) in layer p's product, or of a zero entry just past
  the product when u is not in T or is T's anchor, and for each set its
  closing entry (set, anchor).  A pass uses two buffers, each as wide as
  the widest layer: the rows, and the product with one entry more, as the
  entry just past each layer's product is set to 0 as its zero entry.  Both
  are regions of one scratch buffer per thread, kept with the views of each
  layer into it (``_dense_views``), so that a pass allocates nothing but its
  counts and makes no view per layer.  Each layer is then one product into
  the one buffer, one gather back into the other and, for cycles, one
  gather-sum of the closings; for paths a row of ones times the layer sums
  its path ends on the BLAS.  The sparse
  kernel pays about 25 numpy calls per layer on its masks, bit rows and
  dedup.  The gathers run in numpy's "clip" mode, since under the default
  "raise" numpy copies every gather into ``out`` through a buffer of its
  own.  So that clipping never hides a bad index, ``_dense_plan`` checks
  once per plan that every gather index is at most its layer's zero entry
  and every closing index lies inside its layer, and raises ``IndexError``
  otherwise.  The plan's indices take 2 bytes each (the largest, at
  n = 14, is 3432 * 14 = 48,048), and the plans for every n up to 14 take
  1.4 MB; numpy gathers by them in "clip" mode about as fast as by intp
  indices.

The dense form counts a stack of graphs with the same n in one pass: it
takes their 0/1 float64 adjacency matrices with shape (B, n, n), and every
layer is one stacked ``matmul`` into (B, k, n) rows, one ``take`` along
axis 1 of the (B, k n + 1) product, each graph's zero entry at the end of
its own row, and for cycles one ``take`` along axis 1 summed per graph.
The B graphs share the one plan, and the rows of different graphs never
mix, so each graph is exact by the bound below and an odd count in any of
them raises ``ArithmeticError``.  A single graph is a stack of one.
``subgraph_cycle_totals`` counts many edge subsets of one host this way,
which is what ``verify turanbest --samples`` asks for: it builds the stack
from the edge masks with ``unpackbits`` and no ``Graph`` per subgraph.  Its
chunks hold as many graphs as fit their two buffers, 8 (2 C(n, n/2) n + 1)
bytes each, into ``_DENSE_CHUNK_BYTES`` = 256 KB: 29 graphs at n = 8, six
at n = 10 and one from n = 12 to 14.  On the benchmark's ``census``
workload (2-core x86 VM, ``BENCH_batched_subgraphs.json``) budgets of
64 KB, 256 KB, 512 KB, 1 MB and no chunking gave a peak RSS of 36.5, 36.75,
36.9, 37.5 and 38.4 MB, against 34.87 MB when every subgraph was counted
alone, and a ``wall_s`` of 1.03, 0.78, 0.74, 0.74 and 0.74 s, against
1.07 s.  At 64 KB a pass holds one graph of ten vertices, and a stack of
one on the dense form costs about what the dict DP that sparse subgraphs
take alone does.  256 KB is the largest budget that kept the peak within 6%
of the per-graph count in paired runs: 512 KB read 36.99 MB there, 6.1%
above it.

``_kernel_pays`` picks the form from n, the edge count m and the number p
of kernel passes the count takes, two for cycles and one for paths: the
kernel when m >= max(22, n + 3 + 6p, 3n - 34 + 3p), the dict DP
otherwise.  The dict DP's states are paths, so its work is bounded by a
function of m alone, and at a fixed m it falls as n grows and the edges
spread thinner.
The kernel pays a fixed cost of about fifteen numpy calls per layer and
pass, so its cost grows with n and p.  Timed per graph on a 2-core x86 VM
(numpy 2.4 with one OpenBLAS thread, seeded G(n, m), medians of 3 to 6
graphs; ``BENCH_cycle_routing.json``, ``BENCH_verify_suites.json``), the
two kernel passes overtake the once-counting dict DP at about 22, 24.5, 25,
26, 29, 31, 32, 37.5, 41 and 47 edges for n = 8, 10, 12, 14, 16, 19, 20,
22, 23 and 24, and the one path pass overtakes the dict DP's path ends at
about 21 to 23 edges for n = 8 to 14, 24.5 for n = 16, 27.5 for n = 19, 29
for n = 20 and 21, and 36, 38.5 and 40 for n = 22, 23 and 24.  So:

- the floor of 22 edges is one more than K_7 has, so every graph on seven
  or fewer vertices takes the dict DP: at n = 7 the kernel takes 0.19 to
  0.85 ms, the dict DP 0.01 to 0.24 ms;
- n + 3 + 6p, that is n + 15 for cycles and n + 9 for paths, follows the
  crossovers from 8 to 20 vertices within about 2 edges: sparse graphs take
  the dict DP (G(11, 0.2) and G(12, 0.2) take 0.05 and 0.04 ms on it, and
  0.92 and 0.54 ms on the kernel), and dense graphs from eight vertices up
  the kernel (G(10, 0.8) takes 9.0 ms on the dict DP and 1.4 ms on the
  kernel);
- 3n - 34 + 3p takes over from 21 vertices for paths and 22 for cycles,
  where the kernel's 2^n slot table dominates its cost: each vertex more
  moves the crossover by about three edges, and a second pass by about
  three more.  At n = 21 the path rule asks for 32 edges against a
  crossover near 29.

The kernel is the dense form up to ``_DENSE_MAX_N`` vertices and the
sparse kernel above.  The dense form does the same work at every edge
count, about 2^n n^2 multiply-adds, where the sparse kernel's work follows
the reachable sets.  Timed the same way (``BENCH_dense_layers.json``,
``BENCH_dense_buffers.json``), it is ahead of the sparse kernel on every
graph timed at n = 8 to 14, over the kernel's whole range of edge counts:
0.33 ms for cycles at n = 13 against 1.0 to 2.2 ms, and 0.7 ms at n = 14
against 1.0 ms at 29 edges and 4.1 ms at 56.  The sparse kernel was ahead
at n = 15 up to about 40 edges and at n = 16 up to about 48
(``BENCH_dense_layers.json``), so the cap is 14.  The dense form overtakes
the dict DP below the rule, at about 16 to 20 edges for n = 8 to 12, but
the rule stays as the sparse kernel's timings set it.

The dict DP's once-counting pays on sparse graphs, where dropping a path
once it can no longer close cuts most states, and loses on dense ones,
where every run from a second vertex walks nearly all the sets above s;
the rule sends those to the kernel.

``count_cycles`` on graphs with ten or fewer vertices sums the vertex
counts directly instead of building the spectrum dict; the searches make
thousands of such calls.

The vertex forms count graphs with at most ``VERTEX_CAP`` = 24 vertices.
That limit is the kernel's: its slot table has 2^n entries, 128 MB at
n = 24.

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

The dense form is exact by the same bound, and takes its sums in float64
too.  Up to n = 14 every entry of a product is at most 13! < 2^53, so the
whole pass runs in float64.  A closing sum is twice the cycles of one
length, at most C(14, 13) 12! <= 2 * 13!, and the path ends summed over
every layer are at most the paths from vertex 0 to one end vertex,
sum_{j <= 12} 12! / (12 - j)! <= e * 12!, about 1.3 * 10^9.  Every term is
a nonnegative integer, so every partial sum lies between 0 and the total,
below 2^53, and is exact in any order of summation.

In the sparse kernel a closing or end sum adds one layer's counts over every
anchor of a pass in int64: float64 counts are cast as they are summed.  The
anchors have distinct numbers j <= n - 1 of vertices above them, so such a
sum is at most sum_{j < n} j! <= 2 (n - 1)!, which fits int64 for n <= 21;
larger passes take each sum as the sums of the counts' high and low 32-bit
halves, split exactly in float64 and summed in int64, joined as Python ints.
All reported counts are Python ints; ``VERTEX_CAP`` and
``QUOTIENT_STATE_CAP`` bound runtime and memory, not exactness.

Near ``VERTEX_CAP`` the kernel is the only practical vertex form, as the
dict DP keeps each of its (set, end) states in a Python dict.  On the same
VM a dense twin-free G(22, 0.75) takes 3.8 to 5.1 s and about 390 MB peak
RSS on the kernel (``BENCH_exact_kernel.json``), and K_24 over single
vertices 20 to 23 s and 1.1 GB (``BENCH_float_product.json``).

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
and a remainder raises ``ArithmeticError``.

Classes can be interchangeable in turn.  Two classes are peers when they
have equal sizes, are both cliques or both independent, and see the same
other classes, so that swapping them is an automorphism; ``_class_graph``
groups them once per graph, and the k classes of T_k(n) are all peers.  A
swap of two peers above the anchor class fixes the start and the closings
and maps each step to one of the same weight, so the frontier keeps one
state per orbit of the peers above a.  Within each group the used counts are
nonincreasing in class order, and a step into class w goes to the lowest
peer of w with the same used count, at the same weight |w| - used_w; that
peer is then the highest with its new count, so each orbit has one
representative.  The rooted (length, j) sums, their exact division by 2j
and the Python-int counts are those above.  A class with no peer above a
steps without any scan for peers, and the groups scan the frontier apart
from it, so an anchor with no group above it pays nothing for them.  The
paper's extremal graphs T_k(n) have k classes.  Timed on a 2-core x86 VM
(``BENCH_quotient_orbits.json``), T_3(24) costs 0.42 ms and T_8(24)
5.6 ms, where the vertex forms walk 2^23 vertex sets from one anchor.

``cycle_spectrum`` routes by n before ``_kernel_pays`` does.  Graphs on ten
or fewer vertices take the vertex forms.  From 11 to ``_DENSE_MAX_N``
vertices a graph with t twin classes takes the quotient when 8 t S < 2^n,
its states and end classes against the dense form's vertex sets, and the
vertex forms otherwise.  S is the quotient's bound on its states from one
anchor class, ``_quotient_states`` below.  Only classes of one size >= 2
can be peers, as two singleton peers would be twins, so S is computed only
when two twin classes share such a size; otherwise it is prod(|w| + 1), and
twin-poor graphs such as G(13, 44) pay nothing for it.  Timed on 344
seeded graphs with 11 to 14 vertices and some twins (168 random blow-ups,
96 blow-ups with interchangeable classes and 80 complete multipartite
graphs; ``BENCH_batched_subgraphs.json``), the picks of 8 t S take 63.5 ms
in total, against 67.3 ms for 3 t S and 55.4 ms for the faster form of
each graph; every factor from 6 to 10 gives 63.5 to 64.5 ms.  T_7(14)
takes the quotient, 0.43 ms against 0.50 ms on the dense form, but
(2, 2, 2, 2, 2, 2, 1) takes it too, 0.53 ms against 0.26 ms: the
quotient's cost per state grows with the classes and with their order.
From ``_DENSE_MAX_N`` + 1 to ``VERTEX_CAP`` vertices a graph takes the
quotient when it has fewer than ``_QUOTIENT_MIN_N`` = 11 twin classes.
Against the two-pass sparse kernel that crossover depends on n: timed on
the same VM on seeded random blow-ups (6 per cell, quotient over vertex
forms, median), the ratio is 0.59 at 8 classes and 1.32 at 9 for n = 15,
and 0.97 at 10 and 1.43 at 11 for n = 17.  Those blow-ups were timed with
one state per vector of used vertices, without the orbit states, which
make the quotient cheaper wherever classes have peers.

Above ``VERTEX_CAP`` only the quotient runs, whatever the class count.  Its
frontier from anchor class a holds at most |a| + 1 times, over each group
of m peers of size s above a, C(m + s, m) vectors of used vertices, a class
with no peer being a group of one (``_quotient_states``).  With no peers
that is prod(|w| + 1) over the twin classes w.  A graph whose largest such
bound over its anchor classes exceeds ``QUOTIENT_STATE_CAP`` = 2^21 raises
``ValueError`` before any counting.  The cap admits about the work that
K_24 costs the kernel (20 s, 1.1 GB): 5^9 = 1,953,125 states, one per
vector of used vertices of T_9(36), took about 20 s and 190 MB.  On the
same VM T_9(36), bounded at 2,475 states, takes 0.023 s and T_6(48)
0.048 s; T_10(40) and T_8(64), bounded at 3,575 and 57,915 states, take
0.044 and 0.50 s, and T_3(45), T_4(40) and T_5(30) less one edge 0.015 to
0.06 s.
Up to ``VERTEX_CAP`` no state cap is needed: a graph with at most 24
vertices and at most ten classes has a product of at most
4^4 3^6 = 186,624.  A twin-poor graph above 24 vertices, such as G(25, m),
is refused.
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
    n <= ``_DENSE_MAX_N`` vertices, given as their 0/1 float64 adjacency
    matrices of shape (B, n, n) (see the module docstring).  Row b holds, for
    graph b, twice the cycles of each length r (entry r) over every anchor in
    one pass, or with ``ends`` the paths from vertex 0 with at least one edge
    per end vertex (entry v), as int64."""
    batch, n = matrices.shape[:2]
    layers = _dense_views(n, ends, batch)
    out = np.zeros((batch, n if ends else n + 1), dtype=np.int64)
    if ends:
        total = np.zeros((batch, n))
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


# Each thread's scratch buffer for the dense form, and its per-layer views.
_scratch = threading.local()


def _dense_views(n: int, ends: bool, batch: int) -> list[tuple]:
    """Per layer of ``_dense_plan(n, not ends)`` for a stack of ``batch``
    graphs: the layer's gather and closing indices, the k n entries of its
    product per graph, and views into this thread's scratch buffer of the
    (B, k, n) rows, the (B, k n + 1) product with its (B, k, n) part that
    the matmul fills, the next layer's rows as the gather fills them, and a
    row of k ones.  The rows and the product take two regions of the buffer,
    each as wide as the widest layer.  The buffer is kept and grows to the
    largest pass the thread has run, and the views are kept per
    (n, ends, batch) while it does not grow, at most 16 sets of them, so a
    pass allocates no buffer and makes no view per layer."""
    views = getattr(_scratch, "views", {})
    key = (n, ends, batch)
    if key in views:
        return views[key]
    plan = _dense_plan(n, not ends)
    width = max(len(closing) for _, closing in plan)  # the widest layer's sets
    size = batch * (2 * width * n + 1)
    space = getattr(_scratch, "space", None)
    if space is None or len(space) < size:
        space = _scratch.space = np.empty(size)
        views = _scratch.views = {}
    elif len(views) >= 16:
        views.clear()
    row_buffer = space[: batch * width * n]
    product_buffer = space[batch * width * n:]
    layers = []
    for p, (gather, closing) in enumerate(plan, 1):
        k, kn = len(closing), len(closing) * n
        flat = product_buffer[: batch * (kn + 1)].reshape(batch, kn + 1)
        gathered = row_buffer[: batch * len(gather)].reshape(batch, -1)
        layers.append((gather, closing, kn, row_buffer[: batch * kn].reshape(batch, k, n), flat,
                       flat[:, :kn].reshape(batch, k, n), gathered, np.ones(k)))
    views[key] = layers
    return layers


def _stack(adj: Sequence[int]) -> np.ndarray:
    """The graph with bit rows ``adj`` as a stack of one 0/1 float64
    adjacency matrix, of shape (1, n, n)."""
    return _bit_rows(np.array(adj, dtype=np.int64), len(adj))[None].astype(np.float64)


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
        matrices = np.zeros((len(part), n, n))
        matrices[:, us, vs] = kept
        matrices[:, vs, us] = kept
        doubled = _dense_layers(matrices)
        if (doubled % 2).any():
            raise ArithmeticError(_ODD)
        totals += (doubled.sum(axis=1) // 2).tolist()
    return totals


def _dense_chunk(n: int) -> int:
    """How many graphs on n vertices one batched dense pass for cycles
    counts: as many as fit their two buffers, 8 (2 C(n, n / 2) n + 1) bytes
    each, into ``_DENSE_CHUNK_BYTES``, and one at least."""
    return max(1, _DENSE_CHUNK_BYTES // (8 * (2 * comb(n, n // 2) * n + 1)))


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
