"""Seeded benchmark of tabtext's ingest -> embed -> select -> models -> evaluate loop.

    python3 perfbench/run.py --workload grid-ridge --seed 0 --seconds 60 --trace 0

Load model: a closed loop with one caller and jobs=1. Each timed run of the
workload is a fresh interpreter (perfbench/worker.py), so the program's
in-process caches start cold, as they do for a CLI user. Runs repeat while
the next one should end within --seconds (at least one runs); each gives one
sample of every metric, set-up included, and every metric is the median over
its samples.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs and prints the per-layer metrics. Every run checks its outputs:
unit failures, the workload's own checks, byte-identical outputs across the
runs of this invocation (traced runs included), and fold scores against
perfbench/reference.json, within score_tolerance (CPUs round
differently, so a reference does not hold to the bit on another machine).
The last line of standard output is one JSON object; the exit code is 0
only if every check passed.

--record stores this invocation's scores as the reference for (workload, seed).
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("grid-ridge", "cls-boost", "ingest-cli", "break-vet")
HARD_LIMIT_S = 165.0  # the whole invocation must end well inside 180 s


class BenchError(Exception):
    pass


def spawn(args, directory: Path, trace: bool = False, deadline: float = math.inf) -> dict:
    """Run one fresh worker process to completion and return its result."""
    directory.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(directory)]
    if trace:
        cmd.append("--trace")
    log = directory / "worker.log"
    with log.open("wb") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker in {directory.name} overran the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker in {directory.name} exited {code}:\n{tail}")
    result = json.loads((directory / "result.json").read_text())
    result["setup_s"] = result["ready_at"] - spawned
    result["traced"] = trace
    return result


def collect(args, work: Path) -> list[dict]:
    """Timed runs (untraced, or untraced/traced pairs) while --seconds allows."""
    started = time.monotonic()
    hard_end = started + HARD_LIMIT_S
    cycle = (False, True) if args.trace else (False,)
    runs: list[dict] = []
    while True:
        cycle_start = time.monotonic()
        for traced in cycle:
            runs.append(spawn(args, work / f"run{len(runs)}", trace=traced, deadline=hard_end))
        now = time.monotonic()
        cost = now - cycle_start
        # start another cycle only if it should end within --seconds
        if now + cost > started + args.seconds or now + 1.5 * cost > hard_end:
            break
    return runs


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under `kind`; the
    final JSON line carries exactly these."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


class Checks:
    """Attempted and failed operations of one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def score_tolerance(key: str) -> float:
    """How far a score may sit from its reference before the check fails.

    A reference recorded on one CPU does not hold to the bit on another:
    numpy and OpenBLAS pick kernels by CPU feature (AVX-512, AVX2, ...) and
    those round differently. With numpy's AVX-512 kernels switched off
    (NPY_DISABLE_CPU_FEATURES), r² moved by 1-2 ulps and one test row of a
    200-row cls-boost fold flipped (0.005) on 7 seeds of 10. An accuracy
    moves in whole test rows, so those scores may move by two rows; the
    coverage values are fixture ratios and must match exactly.
    """
    ulps = 1e-9
    if key.startswith("coverage/"):
        return 0.0
    if key.startswith("break/"):
        return 2 * 100.0 / 20 + ulps  # accuracy x100, 20 test rows
    if key.split(":", 1)[-1].startswith(("gbdt/", "logistic/")):
        return 2 / 199 + ulps  # accuracy, 199-201 test rows
    return ulps  # r²


def check_runs(runs: list[dict], reference: dict | None) -> tuple[Checks, float | None]:
    """Checks every run's own results, that all runs wrote the same bytes, and
    (given a reference) that every score is within its tolerance of it; also
    returns the score drift, or None without a reference."""
    checks = Checks()
    for i, r in enumerate(runs):
        checks.attempted += len(r["unit_s"]) + r["checks"]
        checks.failures += [f"run {i}: {m}" for m in r["unit_failures"] + r["check_failures"]]
        checks.add(all(math.isfinite(v) for v in r["scores"].values()),
                   f"run {i}: non-finite score")
    first = runs[0]
    for i, r in enumerate(runs[1:], start=1):
        kind = "traced" if r["traced"] else "untraced"
        checks.add(r["hashes"] == first["hashes"],
                   f"run {i} ({kind}): outputs differ from run 0: "
                   f"{sorted(k for k in r['hashes'] if r['hashes'][k] != first['hashes'].get(k))}")
    if reference is None:
        return checks, None
    drift = 0.0
    for i, r in enumerate(runs):
        scores = r["scores"]
        same_keys = scores.keys() == reference["scores"].keys()
        checks.add(same_keys, f"run {i}: scored cells differ from the reference")
        for key in sorted(scores.keys() & reference["scores"].keys()):
            off = abs(scores[key] - reference["scores"][key])
            drift = max(drift, off)
            checks.add(off <= score_tolerance(key),
                       f"run {i}: {key} is {scores[key]!r}, reference {reference['scores'][key]!r}")
    return checks, drift


def overhead_resolved(traced: list[float], untraced: list[float]) -> bool:
    """Whether traced and untraced wall times are told apart: two or more
    runs of each kind, and their ranges do not overlap."""
    if min(len(traced), len(untraced)) < 2:
        return False
    return min(traced) > max(untraced) or max(traced) < min(untraced)


def summarize(name: str, values: list[float], unit: str) -> str:
    lo, hi = min(values), max(values)
    return (f"  {name:<30} {statistics.median(values):>14.6g} {unit:<8}"
            f" n={len(values):<3} min={lo:.6g} max={hi:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's scores and output hashes as the reference")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its worker (see spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tabtext" / "__init__.py").is_file():
        print(f"perfbench: no tabtext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runs = collect(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        spans = sorted(work.glob("run*/spans.jsonl"))
        if spans:
            shutil.copyfile(spans[-1], work.parent / f"{work.name}.spans.jsonl")
        shutil.rmtree(work, ignore_errors=True)

    all_refs = load_reference()
    ref = all_refs.get(args.workload, {}).get(str(args.seed))
    if args.record:
        ref = {"scores": runs[0]["scores"]}
    checks, drift = check_runs(runs, ref)
    if args.record and not checks.failures:
        all_refs.setdefault(args.workload, {})[str(args.seed)] = ref
        REFERENCE.write_text(json.dumps(all_refs, indent=1, sort_keys=True) + "\n")

    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    env = runs[0]["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced run(s)")
    print(f"  load: closed loop, 1 caller, jobs=1, fresh process per run; nproc={env['nproc']}"
          f" affinity={env['affinity']}; python {env['python']}, numpy {env['numpy']},"
          f" {env['blas']}; thread settings untouched: "
          + " ".join(f"{k}={v}" for k, v in env["thread_env"].items()))

    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "cell_max_s": [max(r["unit_s"]) for r in plain],
    }
    end_to_end = declared_metrics("end_to_end")
    for name, values in samples.items():
        print(summarize(name, values, end_to_end[name]))
    fail_ratio = len(checks.failures) / checks.attempted
    print(f"  {'fail_ratio':<30} {fail_ratio:>14.6g} {'ratio':<8}"
          f" {len(checks.failures)} failed of {checks.attempted} attempted")
    if drift is None:
        print(f"  {'score_drift':<30} {'n/a':>14} {'score':<8}"
              f" no reference recorded for seed {args.seed}")
    else:
        print(f"  {'score_drift':<30} {drift:>14.6g} {'score':<8}"
              f" max |fold score - reference| over {len(runs)} run(s)")

    metrics = {}
    if args.trace:
        layers: dict[str, list[float]] = {}
        for r in traced:
            for name, value in r["layers"].items():
                layers.setdefault(name, []).append(value)
        traced_wall = [r["wall_s"] for r in traced]
        layers["trace.overhead_s"] = [statistics.median(traced_wall)
                                      - statistics.median(samples["wall_s"])]
        identical = all(r["hashes"] == plain[0]["hashes"] for r in traced)
        print("  per-layer metrics, traced runs (outputs byte-identical to untraced: "
              f"{'yes' if identical else 'NO'})")
        per_layer = declared_metrics("per_layer")
        for name, values in layers.items():
            print(summarize(name, values, per_layer[name]))
        if not overhead_resolved(traced_wall, samples["wall_s"]):
            print("    trace.overhead_s is unresolved: it is within the run-to-run spread"
                  " of wall_s (needs 2+ runs of each kind whose ranges do not overlap)")
        for name, unit in per_layer.items():
            metrics[name] = {"value": statistics.median(layers[name]), "unit": unit}
        print("  top self time (traced run):")
        for name, secs, share in traced[-1]["top_self"]:
            print(f"    {name:<28} {secs:10.4f} s  {100 * share:5.1f}% of traced wall")
    else:
        for name, unit in end_to_end.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    correct = not checks.failures
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
