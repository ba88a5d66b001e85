"""Command-line interface: counting, analytic reports, verification sweeps,
and extremal search with a persistent cache.

Every setting comes from its flag alone: argparse holds each default and
checks each value, and each command, and each ``verify`` suite, registers
only the flags it reads, so any other flag exits 2.

Exit codes: 0 on success (and when every asserted check holds), 1 when an
asserted inequality is violated (an implementation-bug signal, since those
are theorems) or stdout was closed before all output was written, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import analytic, bounds, randcodes, search
from .counting import cycle_spectrum
from .graphs import MAX_VERTICES, Graph, complete_multipartite, turan_graph
from .graph_io import (
    GraphFormatError,
    graph_from_edge_list,
    graph_from_graph6,
    graph_to_graph6,
    parse_graph_argument,
)

USAGE_ERROR = 2
CHECK_FAILED = 1

FORMATS = ("table", "json")


# the verify flags beyond --n-max, --k and --k-max, with their defaults
SUITE_FLAGS = {"i_max": 3, "n0": 5, "samples": 0, "seed": 0}


@dataclass(frozen=True)
class Suite:
    """One ``verify`` suite.  ``reports(args, k_values)`` yields its
    reports over the parsed ranges; ``k_min`` is the least k it accepts (and
    where the default k range starts), or None when it reads no k, ``flags``
    the keys of ``SUITE_FLAGS`` it reads, ``n_cap`` the largest ``--n-max``
    (by default the vertex limit of the class vectors the suites build, so
    that a run past it fails before printing anything), and a failed check
    of an ``asserted`` suite exits 1.  The suite's parser takes
    ``--format``, ``--n-max``, ``--k`` and ``--k-max`` when it has a
    ``k_min``, and ``flags``.  A sweep's table form prints the
    ``violation`` line of each failed case, then ``summary`` with the
    failure total.  The rows call the suite functions through their
    modules, so a patched module attribute takes effect."""

    k_min: int | None
    asserted: bool
    reports: Callable[[argparse.Namespace, Sequence[int]], Iterator]
    flags: tuple[str, ...] = ()
    n_cap: int | None = MAX_VERTICES
    violation: str | None = None
    summary: str | None = None


SUITES: dict[str, Suite] = {
    "turanbest": Suite(2, True, lambda a, ks: (
        search.verify_turan_dominance(n, k, a.samples, a.seed) for k in ks for n in range(max(3, k), a.n_max + 1)),
        flags=("samples", "seed")),
    "major": Suite(2, True, lambda a, ks: (
        search.verify_balanced_code_probability(n, k) for k in ks for n in range(2, a.n_max + 1))),
    "stepcount": Suite(3, True, lambda a, ks: (
        search.verify_rooted_move_inequality(n, k) for k in ks for n in range(k, a.n_max + 1))),
    "close": Suite(3, True, lambda a, ks: (
        search.verify_rooted_turan_envelope(n, k) for k in ks for n in range(k, a.n_max + 1))),
    "turancount": Suite(3, False, lambda a, ks: (
        search.report_rooted_class_share(n, k) for k in ks for n in range(max(3, k), a.n_max + 1))),
    "recursion": Suite(3, True, lambda a, ks: (
        bounds.check_recursion(n, k, i)
        for k in ks for n in range(4, a.n_max + 1) for i in range(min(a.i_max, n - 3) + 1)),
        flags=("i_max",)),
    "secondcount": Suite(3, True, lambda a, ks: (
        bounds.check_total_to_hamilton(n, k) for k in ks for n in range(3, a.n_max + 1))),
    "second2count": Suite(None, True, lambda a, ks: (
        bounds.check_bipartite_decay(n, i) for n in range(4, a.n_max + 1) for i in range(min(a.i_max, n - 4) + 1)),
        flags=("i_max",), n_cap=None),  # a closed form, built from no class vector
    # k = 2 is the bipartite ratio, reported before every k >= 3
    "kkmain": Suite(3, False, lambda a, ks: (
        bounds.report_asymptotic_ratio(n, k) for k in (2, *ks) for n in range(4, a.n_max + 1))),
    "ref3count": Suite(
        None, True,
        lambda a, ks: (bounds.verify_path_bound(n, a.n0) for n in range(a.n0 + 1, a.n_max + 1)),
        flags=("n0",),
        n_cap=bounds.PATH_BOUND_CAP,
        violation="ref3count n={n} m={m}: VIOLATED",
        summary="ref3count: structured <= exhaustive sweep done, {failures} failures",
    ),
}


def _parse_parts(text: str, flag: str) -> tuple[int, ...]:
    """The class sizes given to ``flag`` as comma-separated integers."""
    try:
        parts = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise GraphFormatError(f"{flag} needs comma-separated class sizes, got {text!r}") from exc
    if not parts:
        raise GraphFormatError(f"{flag} needs at least one class size, got {text!r}")
    return parts


def _input_graphs(args: argparse.Namespace) -> list[Graph]:
    sources = [
        args.graph6,
        args.graph6_file,
        args.edge_list,
        args.turan,
        args.parts,
    ]
    if sum(s is not None for s in sources) != 1:
        raise GraphFormatError(
            "give exactly one of --graph6, --graph6-file, --edge-list, --turan, --parts"
        )
    if args.graph6 is not None:
        return [graph_from_graph6(args.graph6)]
    if args.graph6_file is not None:
        lines = [ln for ln in Path(args.graph6_file).read_text().splitlines() if ln.strip()]
        if not lines:
            raise GraphFormatError("empty graph6 file")
        return [graph_from_graph6(ln) for ln in lines]
    if args.edge_list is not None:
        return [graph_from_edge_list(Path(args.edge_list).read_text())]
    if args.turan is not None:
        n, k = args.turan
        return [turan_graph(n, k)]
    return [complete_multipartite(_parse_parts(args.parts, "--parts"))]


def cmd_count(args: argparse.Namespace) -> int:
    for g in _input_graphs(args):
        spectrum = cycle_spectrum(g)
        total = sum(spectrum.values())
        ham = spectrum.get(g.n, 0)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "n": g.n,
                        "edges": g.edge_count,
                        "graph6": graph_to_graph6(g),
                        "spectrum": {str(r): c for r, c in sorted(spectrum.items())},
                        "total": total,
                        "hamilton": ham,
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"graph: n={g.n}, edges={g.edge_count}, graph6={graph_to_graph6(g)}")
            for r in sorted(spectrum):
                print(f"  cycles of length {r}: {spectrum[r]}")
            print(f"total cycles: {total}")
            print(f"hamilton cycles: {ham}")
    return 0


def cmd_analytic(args: argparse.Namespace) -> int:
    parts = _parse_parts(args.parts, "--parts")
    n = sum(parts)
    prob = analytic.prob_Q_given_P(parts)
    out: dict = {
        "c": list(parts),
        "n": n,
        "code_cycle_count": analytic.code_cycle_count(parts),
        "prob_q_given_p": f"{prob.numerator}/{prob.denominator}",
    }
    if n >= 3:
        out["h"] = analytic.hamilton_multipartite(parts)
        out["spectrum"] = {
            str(r): c
            for r, c in analytic.cycle_spectrum_multipartite(parts).items()
        }
    if args.rooted:
        try:
            i, j = (int(tok) for tok in args.rooted.split(","))
        except ValueError as exc:
            raise GraphFormatError(f"--rooted needs two class indices I,J, got {args.rooted!r}") from exc
        out["rooted"] = [i, j]
        out["rooted_code_count"] = analytic.code_cycle_count(parts, rooted=(i, j))
        out["rooted_permutations"] = analytic.rooted_hamilton_permutations_general(
            parts, i, j
        )
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        for key in sorted(out):
            print(f"{key}: {out[key]}")
    return 0


def _emit(report: search.VerifyReport | bounds.BoundReport, fmt: str, violation: str | None = None) -> int:
    """Print ``report`` in ``fmt`` and return its failure count.  Given a
    ``violation`` line, a case list's table form is its failed cases alone."""
    if isinstance(report, bounds.BoundReport):
        if fmt == "table":
            verdict = "report" if report.holds is None else ("holds" if report.holds else "VIOLATED")
            print(f"{report.name} {report.params}: {verdict}")
        else:
            print(report.to_json())
        return int(report.holds is False)
    if fmt != "table":
        for case in report.cases:
            print(json.dumps({"name": report.name, **report.params, **case}, sort_keys=True))
    elif violation:
        for case in report.cases:
            if not case["ok"]:
                print(violation.format(**report.params, **case))
    else:
        status = "report" if report.passed is None else ("pass" if report.passed else "FAIL")
        print(f"{report.name} {report.params}: {len(report.cases)} cases, {report.failures} failures [{status}]")
    return report.failures


def cmd_verify(args: argparse.Namespace) -> int:
    name, fmt = args.lemma, args.format
    suite = SUITES[name]
    k_values: Sequence[int] = ()
    if suite.k_min is not None:
        if args.k is not None and args.k < suite.k_min:
            raise ValueError(f"verify {name} needs --k >= {suite.k_min}, got {args.k}")
        k_values = [args.k] if args.k is not None else range(suite.k_min, args.k_max + 1)
    if suite.n_cap is not None and args.n_max > suite.n_cap:
        raise ValueError(f"verify {name} is capped at --n-max {suite.n_cap}, got {args.n_max}")
    reports = suite.reports(args, k_values)
    first = next(reports, None)
    if first is None:
        raise ValueError(f"verify {name}: the given ranges hold no case")
    failures = sum(_emit(rep, fmt, suite.violation) for rep in itertools.chain([first], reports))
    if fmt == "table" and suite.summary:
        print(suite.summary.format(failures=failures))
    if suite.asserted and failures:
        print(f"verify {name}: {failures} failed checks", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    try:
        forbid = parse_graph_argument(args.forbid)
    except GraphFormatError as exc:
        print(f"bad --forbid argument: {exc}", file=sys.stderr)
        return USAGE_ERROR
    result = search.max_cycles_h_free(
        args.n,
        forbid,
        forbid_label=args.forbid,
        cache_dir=args.cache_dir or None,  # --cache-dir '' caches nothing
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        print(f"max cycles over {args.forbid}-free graphs on {result.n} vertices: {result.max_cycles}")
        print(f"extremal classes (graph6): {', '.join(result.extremal_graphs)}")
        print(f"unique: {result.unique}, examined: {result.graphs_examined}, "
              f"elapsed: {result.elapsed:.3f}s, from_cache: {result.from_cache}")
        print(f"forbidden graph: chi={result.forbidden_chi}, "
              f"critical_edge={result.forbidden_has_critical_edge}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    content = _parse_parts(args.content, "--content") if args.content is not None else None
    est = randcodes.estimate_prob(
        args.n, args.k, args.event, args.samples, args.seed, content=content
    )
    exact = randcodes.exact_prob(args.n, args.k, args.event, content)
    out = {
        "event": args.event,
        "n": args.n,
        "k": args.k,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "hits": est.hits,
        "samples": est.samples,
        "exact": f"{exact.numerator}/{exact.denominator}",
    }
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        for key in ("event", "n", "k", "estimate", "stderr", "hits", "samples", "exact"):
            print(f"{key}: {out[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclekit",
        description="Exact cycle counting and Turán-graph verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="table")

    p_count = sub.add_parser("count", parents=[fmt], help="cycle spectrum of one or more graphs")
    p_count.add_argument("--graph6", default=None)
    p_count.add_argument("--graph6-file", default=None, help="file with one graph6 string per line")
    p_count.add_argument("--edge-list", default=None, help="file: first line n, then 'u v' lines")
    p_count.add_argument("--turan", nargs=2, type=int, metavar=("N", "K"), default=None)
    p_count.add_argument("--parts", default=None, help="complete multipartite class sizes, e.g. 2,2,2")
    p_count.set_defaults(func=cmd_count)

    p_analytic = sub.add_parser("analytic", parents=[fmt], help="multipartite counts without building the graph")
    p_analytic.add_argument("--parts", required=True)
    p_analytic.add_argument("--rooted", default=None, metavar="I,J")
    p_analytic.set_defaults(func=cmd_analytic)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    suites = p_verify.add_subparsers(dest="lemma", required=True)
    for name, suite in SUITES.items():
        p_suite = suites.add_parser(name, parents=[fmt])
        p_suite.add_argument("--n-max", type=int, default=10)
        if suite.k_min is not None:
            p_suite.add_argument("--k", type=int, default=None)
            p_suite.add_argument("--k-max", type=int, default=3)
        for flag in suite.flags:
            p_suite.add_argument("--" + flag.replace("_", "-"), type=int, default=SUITE_FLAGS[flag])
        p_suite.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", parents=[fmt], help="maximum cycles over H-free graphs")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--forbid", required=True, help="catalog name (K3, C5, ...) or graph6")
    p_search.add_argument("--cache-dir", default=None, help="directory of cached results; none by default")
    p_search.set_defaults(func=cmd_search)

    p_est = sub.add_parser("estimate", parents=[fmt], help="Monte Carlo word-event probabilities")
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--k", type=int, required=True)
    p_est.add_argument("--event", choices=randcodes.EVENTS, required=True)
    p_est.add_argument("--samples", type=int, default=100000)
    p_est.add_argument("--content", default=None)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.set_defaults(func=cmd_estimate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` uses, built on its first call.  Parsing leaves
    a parser unchanged, so every later call in the process shares it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if [] in vars(args).values():
            # argparse (as of Python 3.11) reads ``--flag=--`` as an empty list
            raise ValueError("'--' is not a flag value")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``); as in the SIGPIPE note of
        # the Python docs, point stdout at devnull so that the flush at
        # exit cannot raise again, and say nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CHECK_FAILED
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
