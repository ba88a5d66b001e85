"""Exactness gate: decides, job by job, whether a pass's outputs are right.

Wherever a closed form or an independent count exists, it is computed here
with the standard library.  Where the only reference is another part of the
package (Turán spectra against ``analytic.cycle_spectrum_multipartite``, path
counts against the same graph's spectrum), the two sides use different
algorithms.  For the default seed every output must also match the digest
recorded at the commit that introduced this benchmark.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod, sqrt

# Keys whose values legitimately differ from run to run.
VOLATILE = {"elapsed", "from_cache"}
# OEIS A000088 (all graphs) and A006785 (triangle-free graphs), by order.
ALL_GRAPHS = {5: 34, 6: 156, 7: 1044, 8: 12346}
TRIANGLE_FREE = {5: 14, 6: 38, 7: 107, 8: 410, 9: 1897}


def normalized(output: str) -> str:
    lines = []
    for line in output.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(obj, dict):
            obj = {k: v for k, v in obj.items() if k not in VOLATILE}
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines)


def digest(output: str) -> str:
    return hashlib.sha256(normalized(output).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return n, {pair for pair, bit in zip(pairs, bits) if bit == "1"}


def short_cycle_counts(n: int, edges: set[tuple[int, int]]) -> tuple[int, int]:
    """(triangles, 4-cycles) from codegrees."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    triangles = sum((adj[u] & adj[v]).bit_count() for u, v in edges) // 3
    squares = sum(comb((adj[u] & adj[v]).bit_count(), 2) for u, v in combinations(range(n), 2)) // 2
    return triangles, squares


def complete_graph_cycles(n: int) -> int:
    return sum(comb(n, r) * factorial(r - 1) // 2 for r in range(3, n + 1))


def complete_bipartite_cycles(a: int, b: int) -> int:
    return sum(comb(a, r) * comb(b, r) * factorial(r) * factorial(r - 1) // 2 for r in range(2, min(a, b) + 1))


def cyclic_word_count(parts) -> int:
    """Words with letter content ``parts`` whose cyclically adjacent letters
    differ, by inclusion-exclusion over forced-equal adjacencies: a cycle of n
    positions cut into J monochrome arcs contributes
    (-1)^(n-J) n (J-1)! [t^J] prod_i sum_j C(c_i-1, j-1) t^j / j!."""
    parts = [c for c in parts if c]
    n = sum(parts)
    if len(parts) < 2:
        return int(n == 0)
    poly = [Fraction(1)]
    for c in parts:
        factor = [Fraction(0)] + [Fraction(comb(c - 1, j - 1), factorial(j)) for j in range(1, c + 1)]
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for a, x in enumerate(poly):
            if x:
                for b, y in enumerate(factor):
                    out[a + b] += x * y
        poly = out
    total = sum((-1) ** (n - J) * n * factorial(J - 1) * poly[J] for J in range(1, len(poly)))
    if total.denominator != 1:
        raise ArithmeticError("non-integral word count")
    return int(total)


def event_probability(n: int, k: int, event: str, content) -> Fraction:
    if event == "Q":
        return Fraction((k - 1) ** n + (-1) ** n * (k - 1), k**n)
    ways = factorial(n)
    for c in content:
        ways //= factorial(c)
    return Fraction(ways, k**n)


# ---------------------------------------------------------------------------
# Per-job checks; each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def _lines(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines() if line.strip()]


def _spectrum(raw: dict) -> dict[int, int]:
    return {int(r): int(c) for r, c in raw.items()}


def check_spectrum(job: dict, output: str, ctx: dict) -> str | None:
    records = _lines(output)
    if len(records) != len(job["check"]["graph6"]):
        return "one output line per input graph expected"
    for g6, rec in zip(job["check"]["graph6"], records):
        n, edges = decode_graph6(g6)
        spec = _spectrum(rec["spectrum"])
        if (rec["graph6"], rec["n"], rec["edges"]) != (g6, n, len(edges)):
            return "graph echo differs from input"
        if sum(spec.values()) != rec["total"] or spec.get(n, 0) != rec["hamilton"]:
            return "total or hamilton inconsistent with spectrum"
        if any(not 3 <= r <= n or c <= 0 for r, c in spec.items()):
            return "spectrum entry out of range"
        if (spec.get(3, 0), spec.get(4, 0)) != short_cycle_counts(n, edges):
            return "triangle or 4-cycle count wrong"
    if "paths_graph" in job["check"]:
        ctx.setdefault("path_spectra", {})[job["check"]["paths_graph"]] = spec
    return None


def check_multipartite(job: dict, output: str, ctx: dict) -> str | None:
    from cyclekit.analytic import cycle_spectrum_multipartite

    parts = job["check"]["parts"]
    (rec,) = _lines(output)
    want = cycle_spectrum_multipartite(parts)
    spec = _spectrum(rec["spectrum"])
    edges = sum(a * b for a, b in combinations(parts, 2))
    if spec != want:
        return "spectrum differs from analytic.cycle_spectrum_multipartite"
    if (rec["n"], rec["edges"], rec["total"]) != (sum(parts), edges, sum(spec.values())):
        return "n, edges or total wrong"
    return None


def check_paths_identities(spec: dict, outputs: list[str | None], spectra: dict[int, dict]) -> set[int]:
    """Graphs whose path counts break symmetry or the edge identity
    sum over edges uv of paths(u, v) = sum_r r c_r + e."""
    found: dict[int, dict[int, dict[int, int]]] = {}
    for job, out in zip(spec["jobs"], outputs):
        if job["kind"] == "paths" and out is not None:
            found.setdefault(job["graph"], {})[job["x"]] = {int(y): c for y, c in json.loads(out).items()}
    bad = set()
    for gidx, g6 in enumerate(spec["graphs"]):
        n, edges = decode_graph6(g6)
        rows = found.get(gidx, {})
        if len(rows) != n or gidx not in spectra:
            bad.add(gidx)
            continue
        symmetric = all(rows[u].get(v, 0) == rows[v].get(u, 0) for u, v in combinations(range(n), 2))
        lhs = sum(rows[u].get(v, 0) for u, v in edges)
        rhs = sum(r * c for r, c in spectra[gidx].items()) + len(edges)
        if not symmetric or lhs != rhs:
            bad.add(gidx)
    return bad


def check_search(job: dict, output: str, ctx: dict) -> str | None:
    (rec,) = _lines(output)
    n, family = job["check"]["n"], job["check"]["family"]
    if rec["n"] != n or rec["unique"] != (len(rec["extremal_graphs"]) == 1):
        return "n or unique flag wrong"
    if any(decode_graph6(g6)[0] != n for g6 in rec["extremal_graphs"]):
        return "extremal graph has the wrong order"
    if family == "all":
        want = (ALL_GRAPHS[n], complete_graph_cycles(n))
    elif family == "K3":
        want = (TRIANGLE_FREE[n], complete_bipartite_cycles(n // 2, n - n // 2))
    else:
        want = None
    if want is not None and (rec["graphs_examined"], int(rec["max_cycles"])) != want:
        return f"graphs_examined/max_cycles {rec['graphs_examined']}/{rec['max_cycles']}, expected {want}"
    role = job["check"].get("cache")
    if role == "write":
        if rec["from_cache"]:
            return "fresh cache dir served a cached result"
        ctx["cached"] = normalized(output)
    elif role == "read":
        if not rec["from_cache"] or normalized(output) != ctx.get("cached"):
            return "cached result missing or different from the fresh one"
    return None


def check_verify(job: dict, output: str, ctx: dict) -> str | None:
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        return "no report"
    if job["check"]["asserted"]:
        bad = [line for line in lines
               if not (line.endswith(" 0 failures [pass]") or line.endswith(": holds")
                       or line.endswith(" 0 failures"))]
        if bad:
            return f"failed check: {bad[0]}"
    return None


def check_analytic(job: dict, output: str, ctx: dict) -> str | None:
    parts = job["check"]["parts"]
    (rec,) = _lines(output)
    n = sum(parts)
    words = cyclic_word_count(parts)
    arrangements = factorial(n) // prod(factorial(c) for c in parts)
    prob = Fraction(words, arrangements)
    if (rec["c"], rec["n"], rec["code_cycle_count"]) != (parts, n, words):
        return "word count differs from inclusion-exclusion"
    if rec["prob_q_given_p"] != f"{prob.numerator}/{prob.denominator}":
        return "prob_q_given_p wrong"
    h = words * prod(factorial(c) for c in parts) // (2 * n)
    spec = _spectrum(rec["spectrum"])
    if rec["h"] != h or spec.get(n, 0) != h:
        return "Hamilton count wrong"
    e3 = sum(a * b * c for a, b, c in combinations(parts, 3))
    if spec.get(3, 0) != e3:
        return "triangle count wrong"
    if "rooted" in rec:
        i, j = rec["rooted"]
        orderings = factorial(parts[i - 1] - 1) * prod(factorial(c) for x, c in enumerate(parts) if x != i - 1)
        if rec["rooted_permutations"] != rec["rooted_code_count"] * orderings:
            return "rooted permutations inconsistent with rooted word count"
    return None


def check_estimate(job: dict, output: str, ctx: dict) -> str | None:
    (rec,) = _lines(output)
    argv = job["argv"]
    arg = {argv[i]: argv[i + 1] for i in range(0, len(argv) - 1) if argv[i].startswith("--")}
    n, k, event = int(arg["--n"]), int(arg["--k"]), arg["--event"]
    content = [int(c) for c in arg["--content"].split(",")] if "--content" in arg else None
    exact = event_probability(n, k, event, content)
    samples = int(arg["--samples"])
    if rec["exact"] != f"{exact.numerator}/{exact.denominator}" or rec["samples"] != samples:
        return "exact value or sample count wrong"
    sigma = sqrt(float(exact) * (1 - float(exact)) / samples)
    if abs(rec["estimate"] - float(exact)) > 5 * sigma or rec["hits"] != round(rec["estimate"] * samples):
        return f"estimate {rec['estimate']} more than 5 sigma from {float(exact)}"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "multipartite": check_multipartite,
    "search": check_search,
    "verify": check_verify,
    "analytic": check_analytic,
    "estimate": check_estimate,
    "paths": lambda job, output, ctx: None,  # checked per graph once all paths are in
}


def check_pass(spec: dict, results: list[dict], digests: list[str] | None) -> list[str | None]:
    """Reason each job failed, or None, for one pass's results."""
    ctx: dict = {}
    reasons: list[str | None] = []
    for idx, (job, res) in enumerate(zip(spec["jobs"], results)):
        reason = None
        if res["rc"] != 0:
            reason = f"exit code {res['rc']}: {res['out'][-300:]}"
        else:
            try:
                reason = CHECKS[job["check"]["type"]](job, res["out"], ctx)
            except Exception as exc:  # output the check cannot read is a wrong output
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is None and digests is not None and digest(res["out"]) != digests[idx]:
            reason = "output differs from the digest recorded for the default seed"
        reasons.append(reason)
    outputs = [r["out"] if r["rc"] == 0 else None for r in results]
    bad_graphs = check_paths_identities(spec, outputs, ctx.get("path_spectra", {}))
    for idx, job in enumerate(spec["jobs"]):
        if reasons[idx] is None and job["kind"] == "paths" and job["graph"] in bad_graphs:
            reasons[idx] = "path counts break symmetry or the edge identity"
    return reasons
