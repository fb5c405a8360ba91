"""Time each work-cap calibration shape at the cap, through the CLI.

    python scripts/work_cap_runs.py simulate|sweep|scan|entropy|pairing [--grid N] [--runs N]

For each shape of tests/conftest.py it finds the largest step count (or,
with --grid 0, grid size) that WORK_CAP accepts, writes that scenario to a
temporary directory, runs `python -m veridyn.cli` on it --runs times, and
prints the count, the median and range of wall times (interpreter start
included) and the largest peak RSS.  --grid sets the sweep's grid size
(default 2).  `scan` times a sweep of conftest's scan_scenario instead, at
the largest count of zero terms that WORK_CAP accepts, `entropy` the
entropy trace of each of conftest's ENTROPY_CAP_SHAPES, and `pairing` the
`entropy` command on conftest's pairing_scenario, a carrier whose elements
all share one phase, at the largest carrier size that WORK_CAP accepts.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import (  # noqa: E402
    ENTROPY_CAP_SHAPES,
    WORK_CAP_SHAPES,
    entropy_cap_scenario,
    pairing_scenario,
    scan_scenario,
    work_cap_scenario,
)

from veridyn.errors import ScenarioParseError  # noqa: E402
from veridyn.scenario import (  # noqa: E402
    parse_entropy_settings,
    parse_simulate_settings,
    parse_sweep_settings,
)


def largest_accepted(accepts) -> int:
    """The largest n >= 1 with accepts(n), for accepts false from some n on."""
    lo, hi = 1, 2
    while accepts(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return lo


def run_cli(command: str, scenario: Path, out: Path) -> tuple[float, float, int]:
    """Wall time, peak RSS in MB and exit code of one CLI run."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "veridyn.cli", command, "--scenario", str(scenario),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return (time.perf_counter() - start, usage.ru_maxrss / 1024,
            os.waitstatus_to_exitcode(status))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command",
                        choices=("simulate", "sweep", "scan", "entropy", "pairing"))
    parser.add_argument("--grid", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    command = {"scan": "sweep", "pairing": "entropy"}.get(args.command, args.command)
    parse = {"simulate": parse_simulate_settings, "sweep": parse_sweep_settings,
             "entropy": parse_entropy_settings}[command]
    if args.command == "scan":
        cases = {"polynomial scan": scan_scenario}
    elif args.command == "pairing":
        cases = {"one phase": pairing_scenario}
    elif command == "entropy":
        cases = {name: functools.partial(entropy_cap_scenario, name)
                 for name in ENTROPY_CAP_SHAPES}
    else:
        cases = {name: functools.partial(work_cap_scenario, command, name, grid=args.grid)
                 for name in WORK_CAP_SHAPES}

    def accepts(case, n):
        try:
            parse(case(n))
        except ScenarioParseError:
            return False
        return True

    with tempfile.TemporaryDirectory() as tmp:
        for name, case in cases.items():
            if not accepts(case, 1):
                print(f"{name:15s} rejected at n = 1")
                continue
            n = largest_accepted(lambda k: accepts(case, k))
            scenario = Path(tmp, "scenario.json")
            scenario.write_text(json.dumps(case(n)))
            runs = [run_cli(command, scenario, Path(tmp, "out")) for _ in range(args.runs)]
            times = sorted(t for t, _, _ in runs)
            print(f"{name:15s} n {n:7d}  median {times[len(times) // 2]:.2f} s "
                  f"({times[0]:.2f}-{times[-1]:.2f})  "
                  f"peak RSS {max(r for _, r, _ in runs):.0f} MB  "
                  f"exit {sorted({c for _, _, c in runs})}", flush=True)


if __name__ == "__main__":
    main()
