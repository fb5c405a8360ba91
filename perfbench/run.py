"""veridyn benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload sweep-logistic --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

One client drives `veridyn.cli.main` in a closed loop at concurrency 1: each
operation starts after the previous one has returned and written its
artifacts.  The operations run in a fresh worker process (worker.py), so
peak RSS is the workload's own.  Before that, `setup_s` times fresh
interpreters importing `veridyn.cli`.  After it, the warm-up operation's
artifacts go through the workload's reference check (workloads.py).

With --trace 0 the result carries the end-to-end metrics; run_rel and
cpu_rel divide each operation's wall and CPU time by the CPU time of a
fixed reference loop timed around it (worker.py), which cancels the
host's changes of speed.  With --trace 1, half the time runs traced and
the result carries the per-layer metrics of tracer.PER_LAYER.  The last
line of stdout is the JSON result; the lines before it are the same
numbers for people, plus the machine context.
--tiny shrinks every workload for selfcheck.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import reference_loop, scenario_paths
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 150.0
# largest share by which summed span self times may miss the traced run time
COVERAGE_TOL = 0.02


def machine_context() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh
                          if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "python": platform.python_version()}


def setup_times(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing veridyn.cli (numpy included).

    No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    would quantise the measurement.
    """
    cmd = [sys.executable, "-c", "import veridyn.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # timed at the start and end of every run: if both move with run_s, the
    # host changed speed, not the code
    calib_start = reference_loop()[0]
    try:
        work.mkdir(parents=True, exist_ok=True)
        generated = [workload.generate(seed * workload.copies + i, tiny)
                     for i in range(workload.copies)]
        for path, (doc, _) in zip(scenario_paths(work, workload.copies), generated):
            path.write_text(json.dumps(doc), encoding="utf-8")
        setup = setup_times(env)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", name,
             "--dir", str(work), "--seconds", str(seconds), "--trace", str(int(trace))],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker for {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        problems = [p for i, (_, expect) in enumerate(generated)
                    for p in workload.verify(
                        expect, {cmd: work / "ref" / str(i) / cmd for cmd, _ in workload.commands},
                        res["warmup_codes"][i])]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    calib_end = reference_loop()[0]

    ops, traced = res["ops"], res["traced_ops"]
    attempted = 1 + len(ops) + len(traced)
    failed = attempted if problems else (
        (not res["warmup_ok"]) + sum(not r["ok"] for r in ops + traced))
    walls = [r["wall"] for r in ops]
    cpus = [r["cpu"] for r in ops]
    run_rel = statistics.median(r["rel_wall"] for r in ops)
    cpu_rel = statistics.median(r["rel_cpu"] for r in ops)
    context = {**machine_context(), **res["context"], "workload": name, "seed": seed,
               "seconds": seconds, "trace": int(trace), "tiny": tiny,
               "calibration_start_s": calib_start, "calibration_end_s": calib_end}
    print(f"context {json.dumps(context, sort_keys=True)}")
    for p in problems:
        print(f"reference check failed: {p}")
    q1, _, q3 = statistics.quantiles(walls, n=4)
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile has 10 samples above it"
    print(f"{name}: setup_s {statistics.median(setup):.4f} s (median of {len(setup)} launches)")
    print(f"{name}: run_s {statistics.median(walls):.4f} s (median of {len(walls)} ops; "
          f"q1 {q1:.4f}, q3 {q3:.4f}; {tail_text})")
    print(f"{name}: cpu_s {statistics.median(cpus):.4f} s (median of {len(cpus)} ops)")
    print(f"{name}: run_rel {run_rel:.4f} ratio (median over {len(ops)} ops of wall time "
          f"over the reference loop's CPU time)")
    print(f"{name}: cpu_rel {cpu_rel:.4f} ratio (median over {len(ops)} ops of CPU time "
          f"over the reference loop's CPU time)")
    print(f"{name}: peak_rss_mb {res['peak_rss_mb']:.1f} MB (worker process)")
    print(f"{name}: failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    if trace:
        metrics = {m: {"value": res["layers"][m], "unit": unit} for m, unit, _ in PER_LAYER}
        for m, v in metrics.items():
            print(f"{name}: {m} {v['value']:.6g} {v['unit']}")
        print(f"{name}: trace coverage error {res['coverage_error']:.4f} "
              f"(limit {COVERAGE_TOL})")
        if res["coverage_error"] > COVERAGE_TOL:
            raise RuntimeError(
                f"span self times miss the traced run time by {res['coverage_error']:.2%}, "
                f"more than {COVERAGE_TOL:.0%}: the trace does not cover the run")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_rel": {"value": run_rel, "unit": "ratio"},
            "cpu_rel": {"value": cpu_rel, "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "veridyn" / "cli.py").is_file():
        print(f"error: veridyn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny)
                   for n in names}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
