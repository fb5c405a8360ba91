"""One workload's closed loop, in a fresh process so its peak RSS is its own.

    python3 perfbench/worker.py --workload NAME --dir DIR --seconds S --trace 0|1

Reads DIR/scenario-<i>.json, runs one warm-up operation into DIR/ref (kept
for the reference check), then operations into DIR/op back to back until S
seconds have passed and at least MIN_OPS ran.  An operation calls
`veridyn.cli.main` once per command of the workload and scenario, writing
into <out>/<i>/<command>.  It fails on a wrong exit code or on artifacts
that differ from the warm-up's (run_manifest.json excepted).  With --trace 1 the second half of the time
runs traced.  Prints one JSON object on stdout.

The commands run in blocks of at least BLOCK_S seconds, with the fixed
reference loop timed between blocks.  Each command's wall and CPU time is
divided by the mean CPU time of the two reference loops around its block,
so that it is read relative to how fast the host's CPU ran just then; an
operation's relative time is the sum over its commands.  The loop's CPU
time, unlike its wall time, does not count the moments the loop waited for
a CPU, so a preemption during one loop does not move the ratio of the
commands around it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

MIN_OPS = 3
BLOCK_S = 1.0
REF_ITERS = 1_000_000
SETTLE_MAX_S = 1.0


def settle() -> None:
    """Sleep, up to SETTLE_MAX_S, until the process uses no CPU.

    OpenBLAS's pool spins for about 0.1 s after each call; settling keeps
    that spin out of the reference loop and its CPU time.
    """
    deadline = time.perf_counter() + SETTLE_MAX_S
    while time.perf_counter() < deadline:
        c0 = time.process_time()
        time.sleep(0.025)
        if time.process_time() - c0 < 0.002:
            break


def reference_loop() -> tuple[float, float]:
    """Wall and CPU time of a fixed mix of pure-Python and small-numpy work.

    It runs no veridyn code, so only the host's speed moves it.
    """
    settle()
    c0, t0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(REF_ITERS // 100):
        v = np.sqrt(v * v + 1.0) - 0.5
    return time.perf_counter() - t0, time.process_time() - c0


def scenario_paths(work: Path, copies: int) -> list[Path]:
    return [work / f"scenario-{i}.json" for i in range(copies)]


def run_op(cli, commands, scenario: Path, out: Path) -> dict[str, object]:
    codes: dict[str, object] = {}
    for cmd, _ in commands:
        try:
            codes[cmd] = cli.main([cmd, "--scenario", str(scenario),
                                   "--out", str(out / cmd)])
        except Exception as exc:  # a crash is a failed operation, not a dead run
            codes[cmd] = f"{type(exc).__name__}: {exc}"
    return codes


def artifact_digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def blas_context() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                threads = getattr(lib, sym)()
    with open("/proc/self/status", encoding="utf-8") as fh:
        os_threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "process_threads": os_threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    commands = workload.commands
    scenarios = scenario_paths(args.dir, workload.copies)
    from veridyn import cli

    ref, op = args.dir / "ref", args.dir / "op"
    warm = [run_op(cli, commands, s, ref / str(i)) for i, s in enumerate(scenarios)]
    want = [{cmd: code for cmd, code in commands}] * len(scenarios)
    baseline = artifact_digests(ref)

    def measure(seconds: float, tracer: Tracer | None) -> list[dict]:
        records: list[dict] = []
        block: list[dict] = []  # commands timed since the last reference loop
        before = reference_loop()

        def close_block():
            nonlocal before
            after = reference_loop()
            for part in block:
                part["ref_cpu"] = (before[1] + after[1]) / 2
            block.clear()
            before = after

        start = time.perf_counter()
        while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
            shutil.rmtree(op, ignore_errors=True)
            if tracer:
                tracer.reset()
            codes, parts = [], []
            for i, scenario in enumerate(scenarios):
                codes.append({})
                for command in commands:
                    c0, t0 = time.process_time(), time.perf_counter()
                    codes[-1].update(run_op(cli, [command], scenario, op / str(i)))
                    parts.append({"wall": time.perf_counter() - t0,
                                  "cpu": time.process_time() - c0})
                    block.append(parts[-1])
                    if sum(p["wall"] for p in block) >= BLOCK_S:
                        close_block()
            records.append({"ok": codes == want and artifact_digests(op) == baseline,
                            "parts": parts})
            if tracer:
                records[-1]["layers"], records[-1]["self_total"] = tracer.summary()
        if block:
            close_block()
        for r in records:
            parts = r.pop("parts")
            r["wall"] = sum(p["wall"] for p in parts)
            r["cpu"] = sum(p["cpu"] for p in parts)
            r["rel_wall"] = sum(p["wall"] / p["ref_cpu"] for p in parts)
            r["rel_cpu"] = sum(p["cpu"] / p["ref_cpu"] for p in parts)
        return records

    untraced = measure(args.seconds / 2 if args.trace else args.seconds, None)
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    result = {
        "warmup_codes": warm,
        "warmup_ok": warm == want,
        "ops": untraced,
        "traced_ops": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": blas_context(),
    }
    if traced:
        result["coverage_error"] = max(abs(r["self_total"] - r["wall"]) / r["wall"]
                                       for r in traced)
        layers = {m: statistics.median(r["layers"][m] for r in traced)
                  for m in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in untraced))
        result["layers"] = layers
        for r in traced:
            del r["layers"]
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
