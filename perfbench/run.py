"""cyclekit benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload oracle|census|sweep --seed N --seconds S --trace 0|1

Run from the root of a cyclekit checkout.  Inputs come from the seed alone.
Each pass runs the workload's whole job list once, in a fresh interpreter
(``worker.py``), one job at a time: a closed loop with one client.  Passes
repeat until the next one would overrun ``--seconds``; every metric is the
median over passes.  The first pass is checked job by job (``checks.py``)
and every later pass must reproduce its outputs exactly.

Every timing is corrected for the host's speed: the worker times a fixed
calibration loop before and after each job (and around the import), and the
timing is scaled by ``CAL_NOMINAL_S`` over the mean of those two
calibrations.  Times are therefore seconds on a host where the loop takes
``CAL_NOMINAL_S``; the summary lines also print the raw pass times.

With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
passes alternate untraced and traced, and the result holds the per-layer
metrics of the traced passes plus the tracing overhead.  The last line of
standard output is the result object; lines before it summarise the run.
Without a checkout (no ``src/cyclekit``) it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7  # import-only interpreters per run, beside the one each pass starts
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
HARD_LIMIT_S = 160  # a run that cannot finish by then is abandoned
# The calibration loop's time (worker.CAL_LOOPS dict updates) on a calm
# 2-core x86-64 VM with Python 3.11.  On a shared host the speed of all
# pure-Python work drifts by up to 2x within a minute, and a job's time over
# the loop's time next to it drifts far less, so each timing is reported as
# that ratio times this constant.
CAL_NOMINAL_S = 0.005


def corrected(seconds: float, cal_s: float) -> float:
    return seconds * CAL_NOMINAL_S / cal_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    idx = len(ordered) - 1 - TAIL_BEYOND
    if idx < 0:
        raise ValueError(f"a pass needs more than {TAIL_BEYOND} jobs")
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Runner:
    def __init__(self, root: Path, scratch: Path, deadline: float) -> None:
        self.root, self.scratch, self.deadline = root, scratch, deadline
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("PYTHONPATH", None)
        self.count = 0

    def worker(self, *args: str) -> dict:
        self.count += 1
        out = self.scratch / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(out), *args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run exceeded its hard limit")
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(out.read_text())
        expected = self.root / "src" / "cyclekit"
        if Path(result["cyclekit_file"]).resolve().parent != expected.resolve():
            raise RuntimeError(f"imported cyclekit from {result['cyclekit_file']}, not {expected}")
        return result


def run(args: argparse.Namespace, root: Path, scratch: Path) -> int:
    runner = Runner(root, scratch, time.monotonic() + HARD_LIMIT_S)
    spec = workloads.build(args.workload, args.seed, Path(os.path.relpath(scratch, root), "inputs"))
    jobs_file = scratch / "jobs.json"
    jobs_file.write_text(json.dumps(spec))

    digests = json.loads(DIGESTS.read_text())[args.workload] if args.seed == workloads.DEFAULT_SEED else None

    runner.worker("--import-only")  # compiles bytecode once, so no pass pays for it
    setup = []
    for _ in range(SETUP_SAMPLES):
        result = runner.worker("--import-only")
        setup.append(corrected(result["import_s"], result["import_cal"]))

    budget_start = time.monotonic()
    passes: list[tuple[bool, dict]] = []
    reference: list[str] | None = None
    attempted = failed = 0
    reasons_seen: list[str] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        workdir = scratch / f"pass{len(passes)}"
        workdir.mkdir()
        result = runner.worker(str(jobs_file), os.path.relpath(workdir, root), *(["--trace"] if traced else []))
        jobs = result["jobs"]
        if reference is None:
            reasons = checks.check_pass(spec, jobs, digests)
            reference = [checks.normalized(j["out"]) for j in jobs]
        else:
            reasons = [None if j["rc"] == 0 and checks.normalized(j["out"]) == ref
                       else "output differs from the first pass" for j, ref in zip(jobs, reference)]
        attempted += len(jobs)
        for idx, reason in enumerate(reasons):
            if reason is not None:
                failed += 1
                reasons_seen.append(f"job {idx} {spec['jobs'][idx].get('argv', spec['jobs'][idx])}: {reason}")
        setup.append(corrected(result["import_s"], result["import_cal"]))
        result["latencies"] = [corrected(j["s"], j["cal"]) for j in jobs]
        result["corrected_wall_s"] = sum(result["latencies"])
        passes.append((traced, result))
        elapsed = time.monotonic() - budget_start
        per_pass = elapsed / len(passes)
        needs_traced = args.trace and len(passes) < 2
        if not needs_traced and elapsed + per_pass > args.seconds:
            break

    plain = [r for t, r in passes if not t]
    n_jobs = len(spec["jobs"])
    # each job's latency is its median over the passes
    latencies = [statistics.median(r["latencies"][idx] for r in plain) for idx in range(n_jobs)]
    tail_s, tail_pct = tail(latencies)
    e2e = {
        "wall_s": (statistics.median(r["corrected_wall_s"] for r in plain), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    fail_frac = failed / attempted
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of {n_jobs} jobs "
          f"({sum(t for t, _ in passes)} traced), {len(setup)} set-up samples")
    print("  raw pass wall_s: " + " ".join(f"{r['wall_s']:.3f}{'T' if t else ''}" for t, r in passes))
    print("  corrected pass wall_s: " + " ".join(f"{r['corrected_wall_s']:.3f}{'T' if t else ''}"
                                                 for t, r in passes))
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  job_tail_s is the p{tail_pct:.1f} latency of {n_jobs} jobs per pass "
          f"({TAIL_BEYOND} jobs beyond it)")
    print(f"  fail_frac = {fail_frac:.6g} ({failed} of {attempted} jobs)")
    for line in reasons_seen[:10]:
        print(f"  FAILED {line}", file=sys.stderr)

    if args.trace:
        traced_runs = [r for t, r in passes if t]
        layers = {name: statistics.median(r["layers"][name] for r in traced_runs)
                  for name in traced_runs[0]["layers"]}
        layers["trace.overhead"] = (statistics.median(r["corrected_wall_s"] for r in traced_runs)
                                    / e2e["wall_s"][0] - 1)
        shares = {name.removesuffix(".share"): v for name, v in layers.items() if name.endswith(".share")}
        top = max(shares, key=shares.get)
        print(f"  largest self share: {top} ({shares[top]:.1%}); trace.overhead = {layers['trace.overhead']:.3f}")
        metrics = {name: {"value": value, "unit": UNITS[name.rpartition('.')[2]]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "ms_per_call": "ms", "iso_dup_ratio": "ratio",
         "forbid_hit_ratio": "ratio", "graphs_per_s": "1/s", "draws_per_s": "1/s", "overhead": "ratio"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cyclekit" / "cli.py").is_file():
        print("error: run from the root of a cyclekit checkout (src/cyclekit not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the checks compare against cyclekit.analytic
    base = root / ".perfbench_run"
    scratch = base / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return run(args, root, scratch)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
