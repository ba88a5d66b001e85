"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py OUT.json JOBS.json WORKDIR [--trace]
    python3 perfbench/worker.py OUT.json --import-only

Times ``import cyclekit.cli`` first, then runs every job once, one at a time,
and writes per-job latencies, outputs, exit codes and the process's peak RSS
to OUT.json.  A short calibration loop runs before the import, after it and
between jobs; ``run.py`` scales each timing by the calibrations around it, so
that a stretch in which the shared host runs slowly does not read as a slower
program.  A fresh interpreter per pass keeps the package's memo caches
from carrying over between passes.  Run from the root of a cyclekit checkout;
the package is imported from its ``src`` directory.
"""

import sys
import time
from pathlib import Path

CAL_LOOPS = 25_000  # about 5 ms of dict updates on a 2-core x86-64 VM


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; it slows down when the host does."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CAL_LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))
calibrate()  # warm-up: the first call runs unspecialized bytecode
_cal0 = calibrate()
_t0 = time.perf_counter()
import cyclekit.cli  # noqa: E402  (timed: this is the set-up a CLI user pays)
IMPORT_S = time.perf_counter() - _t0
IMPORT_CAL = (_cal0 + calibrate()) / 2

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from cyclekit import counting, graph_io  # noqa: E402


def _run_cli(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue() + err.getvalue() * (rc != 0)


def run_pass(spec: dict, workdir: str, tracer=None) -> dict:
    graphs = [graph_io.graph_from_graph6(g6) for g6 in spec["graphs"]]
    main, paths_from = cyclekit.cli.main, counting.count_paths_from
    if tracer is not None:
        main = tracer.span("cli", main)
        paths_from = tracer.span("counting", paths_from)
    results = []
    cal = calibrate()
    for job in spec["jobs"]:
        found = None
        start = time.perf_counter()
        try:
            if job["kind"] == "paths":
                found, rc = paths_from(graphs[job["graph"]], job["x"]), 0
            else:
                rc, output = _run_cli(main, [arg.replace("{work}", workdir) for arg in job["argv"]])
        except Exception as exc:  # a job that raises is a failed job; keep going
            rc, output = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        cal_after = calibrate()
        if found is not None:
            output = json.dumps({str(y): c for y, c in sorted(found.items())})
        results.append({"s": elapsed, "cal": (cal + cal_after) / 2, "rc": rc, "out": output})
        cal = cal_after
    return {
        "import_s": IMPORT_S,
        "import_cal": IMPORT_CAL,
        "wall_s": sum(r["s"] for r in results),
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cyclekit_file": cyclekit.cli.__file__,
    }


def main(argv: list[str]) -> None:
    out_file = argv[0]
    if argv[1] == "--import-only":
        Path(out_file).write_text(json.dumps({"import_s": IMPORT_S, "import_cal": IMPORT_CAL,
                                             "cyclekit_file": cyclekit.cli.__file__}))
        return
    jobs_file, workdir = argv[1:3]
    spec = json.loads(Path(jobs_file).read_text())
    tracer = None
    if "--trace" in argv[3:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(SRC)
    result = run_pass(spec, workdir, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"])
    Path(out_file).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
