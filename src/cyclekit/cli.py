"""Command-line interface: counting, analytic reports, verification sweeps,
and extremal search with a persistent cache.

Exit codes: 0 on success (and when every asserted check holds), 1 when an
asserted inequality is violated (an implementation-bug signal, since those
are theorems), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analytic, bounds, randcodes, search
from .counting import cycle_spectrum, spectrum_to_csv
from .graphs import Graph, chromatic_number, complete_multipartite, has_critical_edge, turan_edge_count, turan_graph
from .graph_io import (
    GraphFormatError,
    graph_from_edge_list,
    graph_from_graph6,
    graph_to_graph6,
    parse_graph_argument,
)

USAGE_ERROR = 2
CHECK_FAILED = 1

VERIFY_NAMES = (
    "turanbest",
    "major",
    "stepcount",
    "close",
    "turancount",
    "recursion",
    "secondcount",
    "second2count",
    "kkmain",
    "ref3count",
)


@dataclass
class RunConfig:
    output_format: str = "table"
    cache_dir: Path | None = None
    seed: int = 0
    cycle_cap: int = 24


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config lines must be key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_conf: dict[str, str] = {}
    if getattr(args, "config", None):
        file_conf = _load_config_file(args.config)
    env_cache = os.environ.get("CYCLEKIT_CACHE_DIR")
    cache = getattr(args, "cache_dir", None) or file_conf.get("cache_dir") or env_cache
    cfg.cache_dir = Path(cache) if cache else None
    cfg.output_format = getattr(args, "format", None) or file_conf.get("format", "table")
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(file_conf.get("seed", 0))
    cfg.seed = seed
    if getattr(args, "cycle_cap", None):
        cfg.cycle_cap = args.cycle_cap
    return cfg


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise GraphFormatError(f"bad class sizes {text!r}") from exc
    if not parts:
        raise GraphFormatError("empty class sizes")
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
    return [complete_multipartite(_parse_parts(args.parts))]


def cmd_count(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    for g in _input_graphs(args):
        spectrum = cycle_spectrum(g, max_n=cfg.cycle_cap)
        total = sum(spectrum.values())
        ham = spectrum.get(g.n, 0)
        if cfg.output_format == "json":
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
        elif cfg.output_format == "csv":
            sys.stdout.write(spectrum_to_csv(spectrum))
        else:
            print(f"graph: n={g.n}, edges={g.edge_count}, graph6={graph_to_graph6(g)}")
            for r in sorted(spectrum):
                print(f"  cycles of length {r}: {spectrum[r]}")
            print(f"total cycles: {total}")
            print(f"hamilton cycles: {ham}")
    return 0


def cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    parts = _parse_parts(args.parts)
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
        i, j = (int(t) for t in args.rooted.split(","))
        spec = analytic.CodeClassSpec(content=parts, rooted=(i, j))
        out["rooted"] = [i, j]
        out["rooted_code_count"] = analytic.code_cycle_count(spec)
        out["rooted_permutations"] = analytic.rooted_hamilton_permutations_general(
            parts, i, j
        )
    if cfg.output_format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        for key in sorted(out):
            print(f"{key}: {out[key]}")
    return 0


def _emit_report(report: search.VerifyReport, fmt: str) -> None:
    if fmt == "table":
        status = "report" if report.passed is None else ("pass" if report.passed else "FAIL")
        print(
            f"{report.name} {report.params}: {len(report.cases)} cases, "
            f"{report.failures} failures [{status}]"
        )
    else:
        for case in report.cases:
            line = {"name": report.name, **report.params, **case}
            print(json.dumps(line, sort_keys=True))


def _emit_bound(report: bounds.BoundReport, fmt: str) -> None:
    if fmt == "csv":
        print(report.to_csv_row())
    elif fmt == "table":
        verdict = "report" if report.holds is None else ("holds" if report.holds else "VIOLATED")
        print(f"{report.name} {report.params}: {verdict}")
    else:
        print(report.to_json())


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    name = args.lemma
    if name not in VERIFY_NAMES:
        print(f"unknown lemma identifier {name!r}; choose from {', '.join(VERIFY_NAMES)}", file=sys.stderr)
        return USAGE_ERROR
    fmt = cfg.output_format
    n_max = args.n_max
    k_values = [args.k] if args.k else list(range(2 if name in ("turanbest", "major") else 3, args.k_max + 1))
    failures = 0
    asserted = True
    if fmt == "csv" and name in ("recursion", "secondcount", "second2count", "kkmain"):
        print(bounds.BoundReport.CSV_HEADER)

    if name == "turanbest":
        for k in k_values:
            for n in range(3, n_max + 1):
                if k > n:
                    continue
                rep = search.verify_turan_dominance(n, k, args.samples, cfg.seed)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "major":
        for k in k_values:
            for n in range(2, n_max + 1):
                rep = search.verify_balanced_code_probability(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "stepcount":
        for k in k_values:
            for n in range(k, n_max + 1):
                rep = search.verify_rooted_move_inequality(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "close":
        for k in k_values:
            for n in range(k, n_max + 1):
                rep = search.verify_rooted_turan_envelope(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "turancount":
        asserted = False
        for k in k_values:
            for n in range(max(3, k), n_max + 1):
                rep = search.report_rooted_class_share(n, k)
                failures += rep.failures
                _emit_report(rep, fmt)
    elif name == "recursion":
        for k in k_values:
            for n in range(4, n_max + 1):
                for i in range(0, args.i_max + 1):
                    if n - i < 3:
                        continue
                    rep = bounds.check_recursion(n, k, i)
                    failures += 0 if rep.holds else 1
                    _emit_bound(rep, fmt)
    elif name == "secondcount":
        for k in k_values:
            for n in range(3, n_max + 1):
                rep = bounds.check_total_to_hamilton(n, k)
                failures += 0 if rep.holds else 1
                _emit_bound(rep, fmt)
    elif name == "second2count":
        for n in range(4, n_max + 1):
            for i in range(0, args.i_max + 1):
                if n - i < 4:
                    continue
                rep = bounds.check_bipartite_decay(n, i)
                failures += 0 if rep.holds else 1
                _emit_bound(rep, fmt)
    elif name == "kkmain":
        asserted = False
        for n in range(4, n_max + 1):
            _emit_bound(bounds.report_asymptotic_ratio(n, 2), fmt)
        for k in [kv for kv in k_values if kv >= 3]:
            for n in range(4, n_max + 1):
                _emit_bound(bounds.report_asymptotic_ratio(n, k), fmt)
    elif name == "ref3count":
        exf_max = min(args.n_max, bounds.PATH_BOUND_CAP)
        n0 = args.n0
        for n in range(n0 + 1, exf_max + 1):
            exf = bounds.ExtremalFunction.turan_formula(2, n)
            for m in range(0, turan_edge_count(n, 2) + 1):
                structured = bounds.path_bound_structured(n, m, 2, n0)
                exhaustive = bounds.path_bound_exhaustive(n, m, exf)
                ok = structured.value <= exhaustive
                failures += 0 if ok else 1
                line = {
                    "name": "ref3count",
                    "n": n,
                    "m": m,
                    "structured": str(structured.value),
                    "exhaustive": str(exhaustive),
                    "truncated": structured.truncated,
                    "ok": ok,
                }
                if fmt == "table":
                    if not ok:
                        print(f"ref3count n={n} m={m}: VIOLATED")
                else:
                    print(json.dumps(line, sort_keys=True))
        if fmt == "table":
            print(f"ref3count: structured <= exhaustive sweep done, {failures} failures")

    if asserted and failures:
        print(f"verify {name}: {failures} failed checks", file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        forbid = parse_graph_argument(args.forbid)
    except GraphFormatError as exc:
        print(f"bad --forbid argument: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # before the search, so that a forbidden graph over the chromatic cap
    # fails at once and leaves no cache file
    chi = chromatic_number(forbid)
    critical = has_critical_edge(forbid)
    result = search.max_cycles_h_free(
        args.n,
        forbid,
        forbid_label=args.forbid,
        cache_dir=cfg.cache_dir,
    )
    out = result.to_dict()
    out["forbidden_chi"] = chi
    out["forbidden_has_critical_edge"] = critical
    if cfg.output_format == "json":
        print(json.dumps(out, sort_keys=True))
    elif cfg.output_format == "csv":
        print("n,forbidden,max_cycles,unique,graphs_examined,elapsed,from_cache,extremal")
        print(
            f"{result.n},{result.forbidden},{result.max_cycles},{str(result.unique).lower()},"
            f"{result.graphs_examined},{result.elapsed!r},{str(result.from_cache).lower()},"
            + ";".join(result.extremal_graphs)
        )
    else:
        print(f"max cycles over {args.forbid}-free graphs on {result.n} vertices: {result.max_cycles}")
        print(f"extremal classes (graph6): {', '.join(result.extremal_graphs)}")
        print(f"unique: {result.unique}, examined: {result.graphs_examined}, "
              f"elapsed: {result.elapsed:.3f}s, from_cache: {result.from_cache}")
        print(f"forbidden graph: chi={out['forbidden_chi']}, "
              f"critical_edge={out['forbidden_has_critical_edge']}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    content = _parse_parts(args.content) if args.content else None
    est = randcodes.estimate_prob(
        args.n, args.k, args.event, args.samples, cfg.seed, content=content
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
    if cfg.output_format == "json":
        print(json.dumps(out, sort_keys=True))
    elif cfg.output_format == "csv":
        print("event,n,k,estimate,stderr,exact_value_if_known")
        print(
            f"{args.event},{args.n},{args.k},{est.estimate!r},{est.stderr!r},"
            f"{exact.numerator}/{exact.denominator}"
        )
    else:
        for key in ("event", "n", "k", "estimate", "stderr", "hits", "samples", "exact"):
            print(f"{key}: {out[key]}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"), default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclekit",
        description="Exact cycle counting and Turán-graph verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="cycle spectrum of one or more graphs")
    p_count.add_argument("--graph6", default=None)
    p_count.add_argument("--graph6-file", default=None, help="file with one graph6 string per line")
    p_count.add_argument("--edge-list", default=None, help="file: first line n, then 'u v' lines")
    p_count.add_argument("--turan", nargs=2, type=int, metavar=("N", "K"), default=None)
    p_count.add_argument("--parts", default=None, help="complete multipartite class sizes, e.g. 2,2,2")
    p_count.add_argument("--cycle-cap", type=int, default=None)
    _add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_analytic = sub.add_parser("analytic", help="multipartite counts without building the graph")
    p_analytic.add_argument("--parts", required=True)
    p_analytic.add_argument("--rooted", default=None, metavar="I,J")
    _add_common(p_analytic)
    p_analytic.set_defaults(func=cmd_analytic)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("lemma")
    p_verify.add_argument("--n-max", type=int, default=10)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=3)
    p_verify.add_argument("--i-max", type=int, default=3)
    p_verify.add_argument("--n0", type=int, default=5)
    p_verify.add_argument("--samples", type=int, default=0)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="maximum cycles over H-free graphs")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--forbid", required=True, help="catalog name (K3, C5, ...) or graph6")
    _add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_est = sub.add_parser("estimate", help="Monte Carlo word-event probabilities")
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--k", type=int, required=True)
    p_est.add_argument("--event", choices=randcodes.EVENTS, required=True)
    p_est.add_argument("--samples", type=int, default=100000)
    p_est.add_argument("--content", default=None)
    _add_common(p_est)
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
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
