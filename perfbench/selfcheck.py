"""Self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

1. Runs every workload at tiny size through run.py, with and without
   tracing, and asserts that the result line is correct and names exactly
   the metrics and units of BENCHMARK.json.
2. Shows that each reference check fails on a corrupted artifact and on a
   wrong exit code, and that the worker's artifact comparison sees a change.
3. Reports whether the known veridyn defects of README.md still reproduce.
   These are findings, not assertions: a fixed defect prints "fixed".

Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, _short_cycle_perm  # noqa: E402
from worker import artifact_digests, run_op  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def metric_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0.3", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            check(proc.returncode == 0, f"{name} trace={trace}: run.py exits 0")
            res = json.loads(proc.stdout.splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace}: result is correct with no failed ops")
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            check(got == want, f"{name} trace={trace}: emits every {section} metric "
                               f"with its unit")
            for m in want:
                check(f"{name}: {m} " in proc.stdout, f"{name} trace={trace}: prints {m}")


# one corruption per artifact the checks read: (command, file, edit)
def _edit_json(fn):
    def edit(path: Path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        fn(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return edit


def _edit_csv(column: str, row: int = 3):
    def edit(path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        cells = lines[row].split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) * (1 + 1e-6) + 1e-6)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edit


def _bump(key):
    def fn(doc):
        doc[key] += 1e-3
    return fn


def _drop_violation(doc):
    for entry in doc["squares"]:
        if entry["status"] == "checked" and entry["report"]["violations"]:
            entry["report"]["violations"].pop()
            return


CORRUPTIONS = {
    "sweep-logistic": [
        ("sweep", "critical_report.json", _edit_json(_bump("r_c_flip"))),
        ("sweep", "diagram.csv", _edit_csv("pt0_x0", row=1)),
    ],
    "simulate-ledger": [
        ("simulate", "trajectory.csv", _edit_csv("x1")),
        ("simulate", "trajectory.csv", _edit_csv("o0", row=4)),
        ("simulate", "trajectory.csv", _edit_csv("L")),
    ],
    "cascade-64": [
        ("cascade", "cascade_report.json",
         _edit_json(lambda d: d["spectrum"]["eigenvalues"][0].update(re=1.5))),
        ("cascade", "cascade_report.json",
         _edit_json(lambda d: d["spectrum"]["residuals"].__setitem__(0, 1e-3))),
    ],
    "universe-3200": [
        ("check-axioms", "axioms_report.json", _edit_json(_drop_violation)),
        ("theta", "theta_result.json",
         _edit_json(lambda d: d.__setitem__("iterations", d["iterations"] + 1))),
        ("theta", "theta_chain.csv", _edit_csv("carrier_size", row=2)),
        ("entropy", "phase_report.json", _edit_json(lambda d: d["pairing"].pop())),
        ("entropy", "phase_report.json",
         _edit_json(lambda d: d.__setitem__("lock_space", d["lock_space"][1:] + ["x"]))),
        ("entropy", "entropy_trace.csv", _edit_csv("H_O", row=2)),
    ],
}


def reference_checks(cli, work: Path) -> None:
    for name, workload in WORKLOADS.items():
        doc, expect = workload.generate(11, True)
        scenario = work / f"{name}.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = work / name
        codes = run_op(cli, workload.commands, scenario, out)
        outs = {cmd: out / cmd for cmd, _ in workload.commands}
        check(workload.verify(expect, outs, codes) == [], f"{name}: clean artifacts pass")
        first = workload.commands[0][0]
        check(workload.verify(expect, outs, {**codes, first: 3}) != [],
              f"{name}: wrong exit code of {first} fails")
        before = artifact_digests(out)
        for cmd, fname, edit in CORRUPTIONS[name]:
            path = outs[cmd] / fname
            saved = path.read_bytes()
            edit(path)
            check(artifact_digests(out) != before, f"{name}: edit of {fname} is a drift")
            check(workload.verify(expect, outs, codes) != [],
                  f"{name}: corrupted {fname} fails")
            path.write_bytes(saved)


def known_defects(cli, work: Path) -> None:
    sweep, _ = WORKLOADS["sweep-logistic"].generate(1, True)
    for coords in sweep["observer"]["coords"][0]:
        coords["coeff"] *= 0.98
    perm = _short_cycle_perm(random.Random(0), 64)
    probes = {
        "find_critical_r lets NoConvergenceError escape (observer scale c = 0.98)":
            ("sweep", sweep),
        "eigensolver stalls on a permutation of short cycles (dim 64)":
            ("cascade", {"cascade": {"stages": [
                {"lambda": 0.5, "theta": {"kind": "permutation", "perm": perm}}]}}),
    }
    for what, (cmd, doc) in probes.items():
        scenario = work / "defect.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = run_op(cli, ((cmd, 0),), scenario, work / "defect")[cmd]
        print(f"known defect, {'still present' if code == 3 else 'fixed'}: "
              f"{what}: {cmd} exits {code}")


def main() -> int:
    from veridyn import cli
    work = ROOT / ".perfbench_tmp" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metric_contract()
        reference_checks(cli, work)
        known_defects(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
