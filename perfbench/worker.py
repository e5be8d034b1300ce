"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --dir D [--trace]

Run by perfbench/run.py; each run is its own process so that in-process
caches start cold and peak RSS belongs to this workload alone. The run works
inside D, writes its outputs under D/out and its result to D/result.json.
`ready_at` (time.monotonic, which is system-wide) marks the end of set-up:
imports done and inputs generated; the parent measures set-up from the
moment it started this process.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    """What sets the run's parallelism; the benchmark changes none of it."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "python": sys.version.split()[0],
    }


def output_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    work = Path(args.dir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    prepared = workloads.prepare(args.workload, args.seed, Path("."))
    result = {"ready_at": time.monotonic()}
    out = Path("out")
    out.mkdir()
    outcome = workloads.Outcome()
    probe = None
    if args.trace:
        from tracer import LayerProbe, Tracer

        probe = LayerProbe(Tracer(f"{args.workload}-{args.seed}-{work.name}"))
        probe.install()
    t0 = time.perf_counter()
    workloads.RUNNERS[args.workload](prepared, out, outcome)
    wall = time.perf_counter() - t0
    if probe is not None:
        probe.uninstall()
        probe.tracer.write(work / "spans.jsonl")
        result["layers"] = probe.metrics()
        result["top_self"] = top_self(probe, wall)
    result.update(
        wall_s=wall,
        unit_s=outcome.unit_s,
        unit_failures=outcome.unit_failures,
        checks=outcome.checks,
        check_failures=outcome.check_failures,
        scores=outcome.scores,
        hashes=output_hashes(out),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    (work / "result.json").write_text(json.dumps(result))
    return 0


def top_self(probe, wall: float, n: int = 3) -> list[list]:
    """The n span names with the most self time, with their share of the
    traced wall time; time outside every span is listed as '(unwrapped)'."""
    from tracer import self_time_by_name

    totals = self_time_by_name(probe.tracer.spans)
    roots = sum(s.duration for s in probe.tracer.spans if s.parent is None)
    totals["(unwrapped)"] = wall - roots
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:n]
    return [[name, secs, secs / wall] for name, secs in ranked]


if __name__ == "__main__":
    sys.exit(main())
