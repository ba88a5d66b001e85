"""Exhaustive desk-scale search and verification.

Enumeration yields one canonical form per isomorphism class by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  Every graph on m+1 vertices arises from one on m vertices by attaching
a new vertex, and forbidden-subgraph freeness is hereditary, so each class
grows from the class of any of its one-vertex deletions.  Swapping twins of
the parent is an automorphism, so a child is fixed up to isomorphism by how
many vertices of each twin class T the new vertex sees: a parent gets
prod(|T| + 1) children, each adjacent to the lowest vertices of each class.

A child is kept only when its new vertex is a canonical deletion, a vertex
that the child itself singles out up to automorphism.  The candidates are
the vertices with the least key (degree, sum of neighbour degrees), a cheap
invariant tested before any containment test or labelling; among tied
candidates the canonical deletion is the one with the highest canonical
position, and the new vertex passes when it lies in that vertex's orbit under
Aut(child), which the labelling returns.  The rule depends on the child's
isomorphism class only, so an accepted child determines the class of its
parent: accepted children of different parents are never isomorphic, and
each class is accepted from the class of its canonical deletion.

Two accepted children of one parent are isomorphic exactly when an
automorphism of the parent maps one neighbourhood onto the other: an
isomorphism can be taken to fix the new vertex, since it lies in the
canonical deletion's orbit in both.  The labelling of the parent returns
automorphisms that generate Aut(parent) together with the twin swaps, so
the children are taken up to Aut(parent) by keeping, of each orbit of the
twin-count vectors under the permutations those automorphisms induce on the
twin classes, the least vector, before any containment test.  Accepted
children of one parent are then pairwise non-isomorphic, and no set of
graphs is kept at all; the enumeration streams depth first.

Graphs above the last level are labelled, to get the next level's
automorphisms.  At the last level a child is labelled only when its
deletion is in doubt.  When the new vertex m is the only least-key vertex,
it is the canonical deletion; when it is a twin of every tied vertex, a
twin swap maps it onto the canonical deletion.  Either way m passes without
a labelling, and only the remaining tied children are labelled.  At K3-free
n = 6 that leaves 12 last-level labellings where every one of 43
candidates was labelled before, and 1809 where 8442 were at K4-free n = 8.
``enumerate_graphs`` labels what the last level yields, so it returns
canonical forms; ``max_cycles_h_free`` labels only its extremal classes.

The maximum-cycle search counts a last-level child from its parent: a cycle
through the new vertex m is m, a u-w path of the parent and m again, so
c(child) = c(parent) + sum over u < w in N(m) of p_parent(u, w).  The
parent's path counts come from ``count_paths_from``, once per vertex that
some child needs.  Against recounting every child, timed on a 2-core x86 VM
over the last levels alone: K4-free n = 8 (6431 children of 685 parents)
1.00 s -> 0.11 s, all graphs n = 8 (12346 of 1044) 2.79 s -> 0.31 s, K3-free
n = 9 0.20 s -> 0.034 s, and K3-free n = 6 0.87 ms -> 0.21 ms.  Path counts
from every vertex of each parent instead took 0.21, 0.51, 0.094 s and
0.52 ms.

The verify_* suites check the counting inequalities exactly, in integer or
rational arithmetic, across every composition in range.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Iterator

from .analytic import (
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    prob_Q_given_P,
    rooted_hamilton_permutations_general,
)
from .counting import count_cycles, count_paths_from
from .graphs import (
    Graph,
    _bits,
    _unchecked_graph,
    chromatic_number,
    complete_multipartite,
    has_critical_edge,
    turan_class_sizes,
    twin_classes,
)
from .morphisms import canonical_label, canonical_orbits, contains_subgraph
from .graph_io import graph_from_graph6, graph_to_graph6

ENUM_CAP = 10
# Stored in every cache file; a file with another value is recomputed.
CACHE_SCHEMA = 2


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------


def partitions_at_most(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive ints summing to n, at most k parts."""

    def rec(remaining: int, parts_left: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if parts_left == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, parts_left - 1, first, prefix + (first,))

    yield from rec(n, k, n, ())


def compositions_exact(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of k positive ints summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions_exact(n - first, k - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration
# ---------------------------------------------------------------------------


def _degree_sum(row: int, deg: list[int]) -> int:
    """The sum of ``deg`` over the set bits of ``row``."""
    total = 0
    while row:
        low = row & -row
        row ^= low
        total += deg[low.bit_length() - 1]
    return total


def _deletion_ties(adj: list[int], deg: list[int]) -> list[int] | None:
    """The vertices of minimum degree whose sum of neighbour degrees equals
    the last vertex's, when that sum is the least among them; else None.
    The last vertex must have the minimum degree."""
    m = len(adj) - 1
    key = _degree_sum(adj[m], deg)
    ties = [m]
    for v in range(m):
        if deg[v] == deg[m]:
            other = _degree_sum(adj[v], deg)
            if other < key:
                return None
            if other == key:
                ties.append(v)
    return ties


def _class_maps(classes: list[list[int]], auts: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """The non-identity permutations that the automorphisms ``auts`` induce
    on the twin ``classes``: class i goes to ``s[i]``."""
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    maps = {tuple(class_of[a[cls[0]]] for cls in classes) for a in auts}
    maps.discard(tuple(range(len(classes))))
    return maps


def _candidates(
    parent: Graph, auts: tuple[tuple[int, ...], ...], forbid: Graph | None
) -> Iterator[tuple[Graph, list[int]]]:
    """The forbid-free children of ``parent`` whose new vertex m has the least
    key, one per orbit of Aut(parent), with the vertices tied with m for the
    least key (m first).  ``auts`` and the twin swaps generate Aut(parent).
    A child keeps the parent's labels and is adjacent to the lowest vertices
    of each twin class; of each orbit the least vector of counts per class
    comes, the first in product order."""
    m = parent.n
    classes = twin_classes(parent)
    maps = _class_maps(classes, auts)
    marked: set[tuple[int, ...]] = set()
    # per twin class T: the masks of its lowest 0, 1, ..., |T| vertices
    prefixes = [[sum(1 << v for v in cls[:k]) for k in range(len(cls) + 1)] for cls in classes]
    deg = [row.bit_count() for row in parent.adj]
    # below[t]: the parent's vertices of degree < t
    below = [sum(1 << v for v in range(m) if deg[v] < t) for t in range(m + 1)]
    for picks in product(*prefixes):
        nb = sum(picks)
        d = nb.bit_count()
        # the new vertex must have the minimum degree; a parent vertex inside
        # nb gains one (for d = 0, nb is empty, so below[-1] & nb is 0)
        if below[d] & ~nb or below[d - 1] & nb:
            continue
        if maps:
            # the degree test holds on the whole orbit, so its first vector
            # in product order reaches this point first
            counts = tuple(p.bit_count() for p in picks)
            if counts in marked:
                continue
            marked.add(counts)
            stack = [counts]
            while stack:
                c = stack.pop()
                for s in maps:
                    image = tuple(c[i] for i in s)
                    if image not in marked:
                        marked.add(image)
                        stack.append(image)
        adj = [row | ((nb >> v & 1) << m) for v, row in enumerate(parent.adj)]
        adj.append(nb)
        ties = _deletion_ties(adj, [x + (nb >> v & 1) for v, x in enumerate(deg)] + [d])
        if ties is None:
            continue
        # nb is a set of the parent's vertices, so the rows stay valid
        child = _unchecked_graph(m + 1, tuple(adj))
        if forbid is not None and contains_subgraph(child, forbid, require_vertex=m):
            continue
        yield child, ties


def _evident_deletion(child: Graph, ties: list[int]) -> bool:
    """Whether the new vertex m = ties[0] is a canonical deletion without
    labelling: it is the only least-key vertex, or a twin of every tied
    vertex, so every tied vertex lies in its orbit."""
    adj = child.adj
    m = ties[0]
    return all(adj[v] & ~(1 << m) == adj[m] & ~(1 << v) for v in ties[1:])


def _canonical_child(
    child: Graph, ties: list[int]
) -> tuple[Graph, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    """``canonical_orbits(child)``, or None when the new vertex is not a
    canonical deletion: among the tied vertices, the one with the highest
    canonical position, and the new vertex must lie in its orbit."""
    labelled = canonical_orbits(child)
    _, perm, orbits, _ = labelled
    if len(ties) > 1 and orbits[max(ties, key=perm.__getitem__)] != orbits[ties[0]]:
        return None
    return labelled


def _canonical_auts(
    perm: tuple[int, ...], auts: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """The automorphisms ``auts`` rewritten in the labelling ``perm``
    (``perm[old] = new``)."""
    relabeled = []
    for a in auts:
        b = [0] * len(a)
        for v, w in enumerate(a):
            b[perm[v]] = perm[w]
        relabeled.append(tuple(b))
    return tuple(relabeled)


def _last_level(n: int, forbid: Graph | None) -> Iterator[tuple[Graph, list[int]]]:
    """Each graph on n - 1 >= 1 vertices of the search tree with the
    neighbourhoods of its accepted children, the new vertex being n - 1.

    Graphs above the last level are canonical forms.  A last-level child is
    labelled only when its deletion is not evident, and the children of one
    parent are pairwise non-isomorphic."""

    def grow(g: Graph, auts: tuple[tuple[int, ...], ...]) -> Iterator[tuple[Graph, list[int]]]:
        if g.n == n - 1:
            yield g, [child.adj[-1] for child, ties in _candidates(g, auts, forbid)
                      if _evident_deletion(child, ties) or _canonical_child(child, ties) is not None]
            return
        for child, ties in _candidates(g, auts, forbid):
            labelled = _canonical_child(child, ties)
            if labelled is not None:
                canon, perm, _, child_auts = labelled
                yield from grow(canon, _canonical_auts(perm, child_auts))

    yield from grow(Graph(1, (0,)), ())


def _check_enumeration(n: int, forbid: Graph | None) -> None:
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration needs 1..{ENUM_CAP} vertices (n={n})")
    if forbid is not None and forbid.n <= 1:
        raise ValueError("forbidden graph needs at least 2 vertices")


def _attach(parent: Graph, nb: int) -> Graph:
    """``parent`` with a new vertex adjacent to the vertices of ``nb``, a
    subset of the parent's vertices."""
    m = parent.n
    return _unchecked_graph(m + 1, tuple(row | ((nb >> v & 1) << m) for v, row in enumerate(parent.adj)) + (nb,))


def enumerate_graphs(n: int, forbid: Graph | None = None) -> Iterator[Graph]:
    """The canonical form of each isomorphism class of forbid-free graphs on
    n vertices, once, depth first."""
    _check_enumeration(n, forbid)
    if n == 1:
        yield Graph(1, (0,))
        return
    for parent, nbs in _last_level(n, forbid):
        for nb in nbs:
            yield canonical_label(_attach(parent, nb))[0]


# ---------------------------------------------------------------------------
# Maximum-cycle search
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    n: int
    forbidden: str
    max_cycles: int
    extremal_graphs: tuple[str, ...]
    unique: bool
    graphs_examined: int
    forbidden_chi: int
    forbidden_has_critical_edge: bool
    elapsed: float
    from_cache: bool = False

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "forbidden": self.forbidden,
            "max_cycles": str(self.max_cycles),
            "extremal_graphs": list(self.extremal_graphs),
            "unique": self.unique,
            "graphs_examined": self.graphs_examined,
            "forbidden_chi": self.forbidden_chi,
            "forbidden_has_critical_edge": self.forbidden_has_critical_edge,
            "elapsed": self.elapsed,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SearchResult":
        graphs = raw["extremal_graphs"]
        if not isinstance(graphs, list) or not all(isinstance(g, str) for g in graphs):
            raise TypeError("extremal_graphs must be a list of graph6 strings")
        for key in ("unique", "forbidden_has_critical_edge"):
            if not isinstance(raw[key], bool):
                raise TypeError(f"{key} must be a boolean")
        if not isinstance(raw["forbidden"], str):
            raise TypeError("forbidden must be a string")
        return cls(
            n=int(raw["n"]),
            forbidden=raw["forbidden"],
            max_cycles=int(raw["max_cycles"]),
            extremal_graphs=tuple(graphs),
            unique=raw["unique"],
            graphs_examined=int(raw["graphs_examined"]),
            forbidden_chi=int(raw["forbidden_chi"]),
            forbidden_has_critical_edge=raw["forbidden_has_critical_edge"],
            elapsed=float(raw["elapsed"]),
            from_cache=bool(raw.get("from_cache", False)),
        )


def _cache_path(cache_dir: Path, n: int, h_canonical_g6: str) -> Path:
    digest = hashlib.sha256(h_canonical_g6.encode()).hexdigest()[:16]
    return cache_dir / f"maxcycles_n{n}_{digest}.json"


def _read_cache(path: Path, n: int, chi: int) -> SearchResult | None:
    """The result for n vertices cached at ``path``, or None on a miss.  A
    file that cannot be used (unreadable, not a result, another schema, a
    result or an extremal graph for another n, a forbidden graph of another
    chromatic number than ``chi``) is a miss too, reported in one line on
    stderr; the caller then recomputes and overwrites it."""
    if not path.exists():
        return None
    try:
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict) or raw.get("schema") != CACHE_SCHEMA:
            raise ValueError(f"not a schema {CACHE_SCHEMA} search result")
        result = SearchResult.from_dict(raw)
        if result.n != n or any(graph_from_graph6(g6).n != n for g6 in result.extremal_graphs):
            raise ValueError(f"not a result for n={n}")
        if result.forbidden_chi != chi:
            raise ValueError(f"not a result for a forbidden graph with chi={chi}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: recomputing unusable cache file {path}: {exc!r}", file=sys.stderr)
        return None
    result.from_cache = True
    return result


def _write_cache(path: Path, result: SearchResult) -> None:
    """Write through a temporary file and a rename, so that an interrupted
    write never leaves a partial file at ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps({**result.to_dict(), "schema": CACHE_SCHEMA}, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _child_cycle_counts(parent: Graph, nbs: list[int]) -> list[int]:
    """The cycle count of ``parent`` plus a new vertex adjacent to the
    vertices of nb, for each nb in ``nbs``.  A cycle through the new vertex
    m is m, a u-w path of the parent and m again, for u < w in N(m), so
    c(child) = c(parent) + sum over u < w in N(m) of p_parent(u, w).  The
    parent's path counts from u are computed once, and only for the u that
    some N(m) needs, which is every vertex of N(m) but the highest."""
    if not nbs:
        return []
    base = count_cycles(parent)
    paths: dict[int, dict[int, int]] = {}
    counts = []
    for nb in nbs:
        ends = list(_bits(nb))
        total = base
        for i, u in enumerate(ends[:-1]):
            if u not in paths:
                paths[u] = count_paths_from(parent, u)
            from_u = paths[u]
            total += sum(from_u.get(w, 0) for w in ends[i + 1:])
        counts.append(total)
    return counts


def _most_cycles(n: int, forbid: Graph | None) -> tuple[int, list[Graph], int]:
    """(maximum cycle count, one graph per extremal class, classes examined)
    over the forbid-free graphs on n >= 2 vertices."""
    best = 0
    extremal: list[tuple[Graph, int]] = []
    examined = 0
    for parent, nbs in _last_level(n, forbid):
        examined += len(nbs)
        for nb, c in zip(nbs, _child_cycle_counts(parent, nbs)):
            if c > best or not extremal:
                best = c
                extremal = [(parent, nb)]
            elif c == best:
                extremal.append((parent, nb))
    return best, [_attach(parent, nb) for parent, nb in extremal], examined


def max_cycles_h_free(
    n: int,
    forbid: Graph,
    *,
    forbid_label: str | None = None,
    cache_dir: str | Path | None = None,
) -> SearchResult:
    """Exact maximum cycle count over forbid-free graphs on n vertices, with
    all extremal isomorphism classes as canonical graph6 strings, and the
    forbidden graph's chromatic number and critical-edge flag.

    Results are cached per (n, canonical form of the forbidden graph) when a
    cache directory is given; rerunning serves the stored report under this
    call's label, and a cache file that cannot be read back is replaced by a
    fresh result.  The chromatic number comes first, so that a forbidden
    graph over its cap fails at once and leaves no cache file; the
    critical-edge flag, one chromatic number per edge, is computed only when
    the cache misses.
    """
    chi = chromatic_number(forbid)
    _check_enumeration(n, forbid)
    canon_h, _ = canonical_label(forbid)
    canon_g6 = graph_to_graph6(canon_h)
    label = forbid_label if forbid_label is not None else canon_g6
    path = None
    if cache_dir is not None:
        path = _cache_path(Path(cache_dir), n, canon_g6)
        cached = _read_cache(path, n, chi)
        if cached is not None:
            cached.forbidden = label
            return cached
    critical = has_critical_edge(forbid)
    t0 = time.perf_counter()
    if n == 1:
        best, extremal, examined = 0, [Graph(1, (0,))], 1
    else:
        best, extremal, examined = _most_cycles(n, forbid)
    g6s = tuple(sorted(graph_to_graph6(canonical_label(g)[0]) for g in extremal))
    result = SearchResult(
        n=n,
        forbidden=label,
        max_cycles=best,
        extremal_graphs=g6s,
        unique=len(g6s) == 1,
        graphs_examined=examined,
        forbidden_chi=chi,
        forbidden_has_critical_edge=critical,
        elapsed=time.perf_counter() - t0,
        from_cache=False,
    )
    if path is not None:
        _write_cache(path, result)
    return result


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    name: str
    params: dict
    cases: list[dict] = field(default_factory=list)
    failures: int = 0
    passed: bool | None = None  # None: findings only, nothing asserted


def verify_turan_dominance(
    n: int, k: int, sample_subgraphs: int = 0, seed: int = 0
) -> VerifyReport:
    """Balanced class sizes dominate: per-length cycle counts of T_k(n) are
    pointwise maximal over all complete multipartite graphs with at most k
    classes, strictly in total for unbalanced ones once n >= 5; sampled proper
    spanning subgraphs stay strictly below as well."""
    if sample_subgraphs < 0:
        raise ValueError(f"sample_subgraphs must be >= 0, got {sample_subgraphs}")
    report = VerifyReport(
        name="turanbest",
        params={"n": n, "k": k, "sample_subgraphs": sample_subgraphs, "seed": seed},
    )
    balanced = turan_class_sizes(n, k)
    t_spec = cycle_spectrum_multipartite(balanced)
    t_total = sum(t_spec.values())
    rng = random.Random(seed)
    for comp in partitions_at_most(n, k):
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
        kg = complete_multipartite(comp)
        edges = list(kg.edges())
        if sample_subgraphs and edges:
            for _ in range(sample_subgraphs):
                mask = rng.randrange(1, 1 << len(edges))
                drop = []
                while mask:
                    low = mask & -mask
                    mask ^= low
                    drop.append(edges[low.bit_length() - 1])
                sub_total = count_cycles(kg.without_edges(drop))
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


def verify_balanced_code_probability(n: int, k: int) -> VerifyReport:
    """Among words with fixed letter content, balanced content maximizes the
    probability of being cyclically adjacent-distinct (exact rationals).

    Contents with empty letters reduce to fewer-letter instances, so ranging
    over partitions into at most k positive parts covers every content.
    """
    report = VerifyReport(name="major", params={"n": n, "k": k})
    if k < 2:
        report.passed = True
        report.cases.append({"note": "k=1 is degenerate; nothing to compare"})
        return report
    kk = min(k, n)  # empty letters reduce k > n to the all-distinct content
    p_balanced = prob_Q_given_P(turan_class_sizes(n, kk))
    for comp in partitions_at_most(n, kk):
        p = prob_Q_given_P(comp)
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


def _move(comp: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    out = list(comp)
    out[i - 1] += 1
    out[j - 1] -= 1
    return tuple(out)


def verify_rooted_move_inequality(n: int, k: int) -> VerifyReport:
    """Exact check that moving one vertex from a larger class j to a smaller
    class i (c_i <= c_j - 2) cannot shrink the rooted Hamilton count by more
    than the factor (c_i+1)c_j / (c_i(c_j-1)); all ordered compositions."""
    if k < 3:
        raise ValueError("k must be >= 3")
    report = VerifyReport(name="stepcount", params={"n": n, "k": k})
    # every composition is a base once and the moved one of many others
    rooted: dict[tuple[int, ...], int] = {}

    def rooted_count(c: tuple[int, ...]) -> int:
        if c not in rooted:
            rooted[c] = rooted_hamilton_permutations_general(c, 1, 2)
        return rooted[c]

    for comp in compositions_exact(n, k):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j or comp[i - 1] > comp[j - 1] - 2:
                    continue
                base = rooted_count(comp)
                other = rooted_count(_move(comp, i, j))
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


def _matched_balanced(comp: tuple[int, ...]) -> tuple[int, ...] | None:
    """Balanced sizes arranged so b_i >= b_j exactly when c_i >= c_j, or None
    when no arrangement satisfies that (ties in c against unequal sizes)."""
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


def verify_rooted_turan_envelope(n: int, k: int) -> VerifyReport:
    """Exact check that the rooted Hamilton count of any composition is at
    most the matched Turán one times prod max(b_i/c_i, c_i/b_i).

    The comparison factor exp|log(b_i/c_i)| is exactly that rational maximum,
    so no rounding is involved.  Compositions admitting no order-matched
    balanced vector are reported as skipped.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    report = VerifyReport(name="close", params={"n": n, "k": k})
    for comp in compositions_exact(n, k):
        b = _matched_balanced(comp)
        if b is None:
            report.cases.append(
                {"composition": list(comp), "skipped": "no order-matched balanced vector"}
            )
            continue
        lhs = rooted_hamilton_permutations_general(comp, 1, 2)
        rhs = Fraction(rooted_hamilton_permutations_general(b, 1, 2))
        for ci, bi in zip(comp, b):
            rhs *= Fraction(max(bi, ci), min(bi, ci))
        ok = lhs <= rhs
        report.cases.append(
            {
                "composition": list(comp),
                "matched_balanced": list(b),
                "lhs": str(lhs),
                "rhs": str(rhs),
                "ok": ok,
            }
        )
        if not ok:
            report.failures += 1
    report.passed = report.failures == 0
    return report


def report_rooted_class_share(n: int, k: int) -> VerifyReport:
    """For every ordered pair of Turán classes, compare the rooted Hamilton
    count against (2/3k) of the total Hamilton count.  Findings only: the
    inequality is claimed for large n, so failures are recorded, not asserted.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    report = VerifyReport(name="turancount", params={"n": n, "k": k})
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
