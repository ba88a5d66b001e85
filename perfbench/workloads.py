"""Seeded job lists for the three benchmark workloads.

A job is a dict.  ``{"kind": "cli", "argv": [...]}`` runs ``cyclekit.cli.main``
on the argv; ``{"kind": "paths", "graph": i, "x": v}`` calls
``cyclekit.counting.count_paths_from`` on graph ``i`` of the workload's graph
table.  Every job also carries a ``check`` dict that tells ``checks.py`` what
the output must satisfy.

Only the standard library is used here: the generator never asks the program
under test for its inputs, so a bug in the program cannot bend them.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

WORKLOADS = ("oracle", "census", "sweep")
DEFAULT_SEED = 0


def graph6(n: int, edges) -> str:
    """graph6 encoding of a simple graph with fewer than 63 vertices."""
    present = set(edges)
    bits = [int((i, j) in present) for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(out)


def gnm(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return rng.sample(list(combinations(range(n), 2)), m)


def turan_sizes(n: int, k: int) -> list[int]:
    return [n // k + (i < n % k) for i in range(k)]


def near_balanced(rng: random.Random, n: int, k: int) -> list[int]:
    """Turán class sizes of n into k classes with one vertex moved between two
    seeded classes, in seeded order."""
    parts = turan_sizes(n, k)
    i, j = rng.sample(range(k), 2)
    if parts[j] > 1:
        parts[i] += 1
        parts[j] -= 1
    rng.shuffle(parts)
    return parts


def relabeled(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted((perm[u], perm[v]))) for u, v in edges]


# ---------------------------------------------------------------------------
# oracle: cycle spectra of single graphs near the practical cap
# ---------------------------------------------------------------------------

# (n, m) of the G(n, m) graphs counted through --graph6-file, one per job.
# A fixed edge count keeps the DP's cost from swinging with the seed.
ORACLE_GNM = [(13, 44)] * 4 + [(14, 48)] * 5
# G(n, m) graphs whose paths are counted from every vertex.  They are drawn
# once, from a fixed generator, and the seed picks only their labelings:
# count_paths_from does the same work on every labeling of a graph, so
# job_p50_s (the latency of a path job) does not swing with the seed.
ORACLE_PATHS = [(13, 39)] * 4
_PATH_BASES = [gnm(random.Random(f"oracle-paths:{i}"), n, m) for i, (n, m) in enumerate(ORACLE_PATHS)]
# (n, k) of the multipartite jobs.  The first five Turán graphs and the five
# --parts graphs are the ten costliest jobs in any part order; then come three
# copies of K_{8,8}, and every G(n, m) job costs less.  job_tail_s, the
# latency with ten jobs beyond it, is therefore that of K_{8,8} whatever the
# seed, and does not depend on how the seed orders the parts.
ORACLE_TURAN = [(16, 3), (15, 4), (15, 5), (15, 3), (14, 5)] + [(16, 2)] * 3
ORACLE_PARTS = [(15, 3), (15, 3), (15, 4), (15, 4), (15, 5)]


def _oracle(rng: random.Random, inputs: Path) -> tuple[list[dict], list[str]]:
    jobs: list[dict] = []
    graphs: list[str] = []

    def file_job(name: str, lines: list[str], check: dict) -> None:
        path = inputs / f"{name}.g6"
        path.write_text("".join(line + "\n" for line in lines))
        jobs.append({"kind": "cli", "argv": ["count", "--graph6-file", str(path), "--format", "json"],
                     "check": {**check, "graph6": lines}})

    for idx, (n, m) in enumerate(ORACLE_GNM):
        file_job(f"gnm{idx}", [graph6(n, gnm(rng, n, m))], {"type": "spectrum"})
    file_job("gnm_multi", [graph6(13, gnm(rng, 13, 39)) for _ in range(4)], {"type": "spectrum"})
    for gidx, ((n, _), base) in enumerate(zip(ORACLE_PATHS, _PATH_BASES)):
        g6 = graph6(n, relabeled(rng, n, base))
        graphs.append(g6)
        file_job(f"paths{gidx}", [g6], {"type": "spectrum", "paths_graph": gidx})
        for x in range(n):
            jobs.append({"kind": "paths", "graph": gidx, "x": x, "check": {"type": "paths"}})
    for n, k in ORACLE_TURAN:
        jobs.append({"kind": "cli", "argv": ["count", "--turan", str(n), str(k), "--format", "json"],
                     "check": {"type": "multipartite", "parts": turan_sizes(n, k)}})
    for n, k in ORACLE_PARTS:
        parts = near_balanced(rng, n, k)
        jobs.append({"kind": "cli",
                     "argv": ["count", "--parts", ",".join(map(str, parts)), "--format", "json"],
                     "check": {"type": "multipartite", "parts": parts}})
    rng.shuffle(jobs)
    return jobs, graphs


# ---------------------------------------------------------------------------
# census: many small graphs (enumeration, containment, isomorphism)
# ---------------------------------------------------------------------------

# Forbidden graphs with their edges; every search below finishes well under
# a second at its n.
_H = {
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "P5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "C6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    "K4": (4, [(i, j) for i, j in combinations(range(4), 2)]),
    "star3": (4, [(0, 1), (0, 2), (0, 3)]),
}
# (n, H) searches run in every pass.  The grid is fixed so that the amount
# of work does not swing with the seed; the seed picks how each H is given
# (catalog name, or a seeded relabeling as graph6) and the job order.  A
# labeling can change a search's cost, but not when H is complete, as every
# labeling of K3 or K4 is the same graph.  Six n = 6 searches for K3 sit
# around the median job and four for K4 around the job with ten jobs beyond
# it, so job_p50_s and job_tail_s do not swing with the labelings.
CENSUS_SEARCHES = ([(5, h) for h in ("K3", "C4", "C5", "P4", "P5", "K4", "star3")] * 2
                   + [(6, h) for h in ("K3", "C4", "C5", "P4", "P5", "C6", "K4", "star3")] * 2
                   + [(6, "K3")] * 4 + [(6, "K4")] * 2
                   + [(7, h) for h in ("K3", "C4", "P4", "P5")])
# (n_max, k_max, samples) of the turanbest sweeps; the seed picks --seed
CENSUS_TURANBEST = [(7, 3, 50), (7, 4, 50), (8, 3, 50), (8, 3, 100), (8, 4, 50),
                    (9, 3, 50), (9, 3, 50), (9, 4, 50), (10, 3, 50)]

def _census(rng: random.Random, inputs: Path) -> tuple[list[dict], list[str]]:
    jobs: list[dict] = []

    def search(n: int, forbid: str, family: str, extra=()) -> dict:
        check = {"type": "search", "n": n, "family": family}
        return {"kind": "cli", "argv": ["search", "--n", str(n), "--forbid", forbid, *extra, "--format", "json"],
                "check": check}

    for n, name in CENSUS_SEARCHES:
        h_n, h_edges = _H[name]
        if name != "star3" and rng.random() < 0.5:
            forbid = name
        else:
            forbid = graph6(h_n, relabeled(rng, h_n, h_edges))
        jobs.append(search(n, forbid, "K3" if name == "K3" else "other"))
    for n in (5, 6):  # all graphs: no graph on n vertices contains K_(n+1)
        jobs.append(search(n, f"K{n + 1}", "all"))
    for n_max, k_max, samples in CENSUS_TURANBEST:
        jobs.append({"kind": "cli",
                     "argv": ["verify", "turanbest", "--n-max", str(n_max), "--k-max", str(k_max),
                              "--samples", str(samples), "--seed", str(rng.randrange(1 << 30))],
                     "check": {"type": "verify", "asserted": True}})
    rng.shuffle(jobs)
    # the largest search, written to a fresh cache and then read back
    write, read = (search(8, "K3", "K3", ["--cache-dir", "{work}/cache"]) for _ in range(2))
    write["check"]["cache"] = "write"
    read["check"]["cache"] = "read"
    first = rng.randrange(len(jobs) + 1)
    jobs.insert(first, write)
    jobs.insert(rng.randrange(first + 1, len(jobs) + 1), read)
    return jobs, []


# ---------------------------------------------------------------------------
# sweep: exact word counts, bounds and Monte Carlo; no graph is built
# ---------------------------------------------------------------------------

# (n, k) of the analytic jobs; the seed perturbs the balanced class sizes.
# Fixed orders and class counts keep each slot's cost from swinging with the seed.
SWEEP_ANALYTIC = [(21, 3), (24, 3), (27, 3), (30, 3), (33, 3), (36, 3), (39, 3),
                  (20, 4), (24, 4), (28, 4), (32, 4), (36, 4),
                  (20, 5), (25, 5), (30, 5), (18, 6), (24, 6), (30, 2), (40, 2)] * 2
# verify suites with their ranges, run in this order on a fresh memo so that
# each costs the same whatever the seed; every one runs for 0.1 s or more
SWEEP_VERIFY = [
    ["secondcount", "--n-max", "33", "--k-max", "6"],
    ["recursion", "--n-max", "44", "--k-max", "7", "--i-max", "6"],
    ["turancount", "--n-max", "44", "--k-max", "7"],
    ["stepcount", "--n-max", "16", "--k-max", "5"],
    ["close", "--n-max", "19", "--k-max", "5"],
    ["major", "--n-max", "30", "--k-max", "5"],
    ["second2count", "--n-max", "110", "--i-max", "6"],
    ["kkmain", "--n-max", "46", "--k-max", "6"],
    ["ref3count", "--n-max", "14", "--n0", "5"],
]
NOT_ASSERTED = {"turancount", "kkmain"}
# (n, k, event) of the estimates; the seed picks --seed and the P contents.
# The first has the largest arrays; it runs first, on a fresh heap, and alone
# sets the peak RSS.
SWEEP_ESTIMATES = [(12, 3, "Q"), (11, 3, "P"), (10, 4, "Q"), (10, 3, "P")]
ESTIMATE_SAMPLES = 1_000_000


def _sweep(rng: random.Random, inputs: Path) -> tuple[list[dict], list[str]]:
    jobs: list[dict] = []
    for n, k, event in SWEEP_ESTIMATES:
        argv = ["estimate", "--n", str(n), "--k", str(k), "--samples", str(ESTIMATE_SAMPLES),
                "--seed", str(rng.randrange(1 << 30)), "--event", event, "--format", "json"]
        if event == "P":
            argv += ["--content", ",".join(map(str, near_balanced(rng, n, k)))]
        jobs.append({"kind": "cli", "argv": argv, "check": {"type": "estimate"}})
    for argv in SWEEP_VERIFY:
        jobs.append({"kind": "cli", "argv": ["verify", *argv],
                     "check": {"type": "verify", "asserted": argv[0] not in NOT_ASSERTED}})
    analytic = []
    for idx, (n, k) in enumerate(SWEEP_ANALYTIC):
        parts = near_balanced(rng, n, k)
        argv = ["analytic", "--parts", ",".join(map(str, parts)), "--format", "json"]
        if idx % 3 == 0:
            i, j = rng.sample(range(1, len(parts) + 1), 2)
            argv[3:3] = ["--rooted", f"{i},{j}"]
        analytic.append({"kind": "cli", "argv": argv, "check": {"type": "analytic", "parts": parts}})
    rng.shuffle(analytic)
    return jobs + analytic, []


_JOB_LISTS = {"oracle": _oracle, "census": _census, "sweep": _sweep}


def build(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's input files under ``inputs`` and return its jobs."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs, graphs = _JOB_LISTS[workload](rng, inputs)
    return {"workload": workload, "seed": seed, "jobs": jobs, "graphs": graphs}
