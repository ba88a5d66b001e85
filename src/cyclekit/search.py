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
automorphisms, and grown as built, not relabelled.  At the last level a
child is labelled only when its deletion is in doubt.  When the new vertex
m is the only least-key vertex, it is the canonical deletion; when it is a
twin of every tied vertex, a twin swap maps it onto the canonical deletion.
Either way m passes without a labelling, and only the remaining tied
children are labelled (counts in ``BENCH_last_level.json``).
``enumerate_graphs`` labels what the last level yields, so it returns
canonical forms; ``max_cycles_h_free`` labels only its extremal classes.

The maximum-cycle search counts a last-level child from its parent: a cycle
through the new vertex m is m, a u-w path of the parent and m again, so
c(child) = c(parent) + sum over u < w in N(m) of p_parent(u, w).  The
parent's path counts come from ``count_paths_from``, once per vertex that
some child needs, which was no slower than recounting every child or
counting paths from every vertex of the parent on every search timed
(``BENCH_last_level.json``).

A child is tested for the forbidden graph through its new vertex m only,
by the containment search rooted at m (see ``morphisms``), which was faster
than embedding H anywhere with m forced into H's last slot
(``BENCH_rooted_containment.json``).

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
    _reduced_prob,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    reduced_prob_Q_given_P,
    rooted_hamilton_permutations_general,
)
from .counting import count_cycles, count_paths_from, subgraph_cycle_totals
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
    """Nonincreasing tuples of positive ints summing to n, at most k parts,
    largest first part first and depth first (reverse lexicographic order).
    A prefix is extended only by first parts that leave a completable rest:
    at least the remainder over the parts left, at most the last part."""
    stack = [(n, n, ())]
    while stack:
        remaining, cap, prefix = stack.pop()
        if remaining == 0:
            yield prefix
            continue
        slots = k - len(prefix)
        if slots <= 0:
            continue
        # pushed smallest first, so the largest first part pops first
        least = max(1, -(-remaining // slots))
        for first in range(least, min(cap, remaining) + 1):
            stack.append((remaining - first, first, prefix + (first,)))


def compositions_exact(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of k >= 1 positive ints summing to n, in lexicographic
    order; a prefix is extended only by first parts that leave each later
    part at least 1."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    stack = [((), n)]
    while stack:
        prefix, remaining = stack.pop()
        slots = k - len(prefix)
        if slots == 1:
            yield prefix + (remaining,)
            continue
        # pushed largest first, so the smallest first part pops first
        for first in range(remaining - slots + 1, 0, -1):
            stack.append((prefix + (first,), remaining - first))


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


def _canonical_child(child: Graph, ties: list[int]) -> tuple[tuple[int, ...], ...] | None:
    """The automorphisms of ``child`` that ``canonical_orbits`` returns, or
    None when the new vertex is not a canonical deletion: among the tied
    vertices, the one with the highest canonical position, and the new
    vertex must lie in its orbit."""
    _, perm, orbits, auts = canonical_orbits(child)
    if len(ties) > 1 and orbits[max(ties, key=perm.__getitem__)] != orbits[ties[0]]:
        return None
    return auts


def _last_level(n: int, forbid: Graph | None) -> Iterator[tuple[Graph, list[int]]]:
    """Each graph on n - 1 >= 1 vertices of the search tree with the
    neighbourhoods of its accepted children, the new vertex being n - 1.

    Graphs above the last level are grown as built, with the automorphisms
    their labelling returns in their own vertex numbers: the deletion rule
    and the orbit pruning depend only on the isomorphism class.  A last-level child is labelled only when its
    deletion is not evident, and the children of one parent are pairwise
    non-isomorphic."""

    def grow(g: Graph, auts: tuple[tuple[int, ...], ...]) -> Iterator[tuple[Graph, list[int]]]:
        if g.n == n - 1:
            yield g, [child.adj[-1] for child, ties in _candidates(g, auts, forbid)
                      if _evident_deletion(child, ties) or _canonical_child(child, ties) is not None]
            return
        for child, ties in _candidates(g, auts, forbid):
            child_auts = _canonical_child(child, ties)
            if child_auts is not None:
                yield from grow(child, child_auts)

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
        for key in ("n", "graphs_examined", "forbidden_chi"):
            if type(raw[key]) is not int:  # a bool is an int too
                raise TypeError(f"{key} must be an integer")
        digits = raw["max_cycles"]
        if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
            raise TypeError("max_cycles must be a string of decimal digits")
        if raw["unique"] != (len(graphs) == 1):
            raise ValueError("unique must say whether there is one extremal graph")
        if not (type(raw["elapsed"]) is float and 0 <= raw["elapsed"] < float("inf")):
            raise TypeError("elapsed must be a finite nonnegative number of seconds")
        return cls(
            n=raw["n"],
            forbidden=raw["forbidden"],
            max_cycles=int(digits),
            extremal_graphs=tuple(graphs),
            unique=raw["unique"],
            graphs_examined=raw["graphs_examined"],
            forbidden_chi=raw["forbidden_chi"],
            forbidden_has_critical_edge=raw["forbidden_has_critical_edge"],
            elapsed=raw["elapsed"],
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
    critical-edge flag, which reuses that χ(H) and adds one chromatic number
    per edge, is computed only when the cache misses.
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
    critical = has_critical_edge(forbid, chi)
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
        edges = kg.edge_count
        if sample_subgraphs and edges:
            drops = [rng.randrange(1, 1 << edges) for _ in range(sample_subgraphs)]
            for sub_total in subgraph_cycle_totals(kg, drops):
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
    Each probability is a reduced fraction with a positive denominator,
    memoized per content across reports, and the two are compared by
    cross-multiplication.
    """
    report = VerifyReport(name="major", params={"n": n, "k": k})
    if k < 2:
        report.passed = True
        report.cases.append({"note": "k=1 is degenerate; nothing to compare"})
        return report
    kk = min(k, n)  # empty letters reduce k > n to the all-distinct content
    top, bottom = reduced_prob_Q_given_P(turan_class_sizes(n, kk))
    balanced = f"{top}/{bottom}"
    # the checked balanced call bounds n, so the compositions of n skip the check
    for comp in partitions_at_most(n, kk):
        num, den = _reduced_prob(comp)
        ok = top * den >= num * bottom
        report.cases.append(
            {"composition": list(comp), "prob": f"{num}/{den}", "balanced_prob": balanced, "ok": ok}
        )
        if not ok:
            report.failures += 1
    report.passed = report.failures == 0
    return report


def verify_rooted_move_inequality(n: int, k: int) -> VerifyReport:
    """Exact check that moving one vertex from a larger class j to a smaller
    class i (c_i <= c_j - 2) cannot shrink the rooted Hamilton count by more
    than the factor (c_i+1)c_j / (c_i(c_j-1)); all ordered compositions."""
    if k < 3:
        raise ValueError("k must be >= 3")
    report = VerifyReport(name="stepcount", params={"n": n, "k": k})
    # every composition is a base once and the moved one of many others
    rooted: dict[tuple[int, ...], int] = {}
    for comp in compositions_exact(n, k):
        base = None
        for i, ci in enumerate(comp, 1):
            for j, cj in enumerate(comp, 1):
                # i == j fails this test too
                if ci > cj - 2:
                    continue
                if base is None:
                    if comp not in rooted:
                        rooted[comp] = rooted_hamilton_permutations_general(comp, 1, 2)
                    base = rooted[comp]
                    lhs = str(base)
                moved = list(comp)
                moved[i - 1] = ci + 1
                moved[j - 1] = cj - 1
                key = tuple(moved)
                if key not in rooted:
                    rooted[key] = rooted_hamilton_permutations_general(key, 1, 2)
                other = rooted[key]
                ok = base * ci * (cj - 1) <= (ci + 1) * cj * other
                report.cases.append(
                    {"composition": list(comp), "move": [i, j], "lhs": lhs, "rhs_count": str(other), "ok": ok}
                )
                if not ok:
                    report.failures += 1
    report.passed = report.failures == 0
    return report


def _matched_balanced(comp: tuple[int, ...]) -> tuple[int, ...] | None:
    """Balanced sizes arranged so b_i >= b_j exactly when c_i >= c_j, or None
    when no arrangement satisfies that (ties in c against unequal sizes).

    With n = qk + r, 0 <= r < k, the balanced sizes are r copies of q + 1
    and k - r of q.  The condition says that c and b order the indices the
    same way, ties included, so c has as many distinct values as b, with as
    many indices on each level.  So when k divides n, b is constant and a
    match exists only when c is constant, and it is c itself.  Otherwise
    c takes exactly two values, the larger exactly r times, and b is q + 1
    where c has the larger value and q elsewhere.  Conversely such a b
    matches, so this takes O(k).
    """
    k = len(comp)
    q, r = divmod(sum(comp), k)
    high = max(comp)
    if r == 0:
        return comp if comp.count(high) == k else None
    if comp.count(high) != r or comp.count(min(comp)) != k - r:
        return None
    return tuple(q + 1 if c == high else q for c in comp)


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
    # the rooted count depends on the two classes' sizes alone
    rooted: dict[tuple[int, int], int] = {}
    for r in range(1, k + 1):
        for s in range(1, k + 1):
            if r == s:
                continue
            pair = (sizes[r - 1], sizes[s - 1])
            if pair not in rooted:
                rooted[pair] = rooted_hamilton_permutations_general(sizes, r, s)
            hv = rooted[pair]
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
