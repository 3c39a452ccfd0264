#!/usr/bin/env python3
"""sshent benchmark: whole CLI scans, timed end to end, with a traced variant.

    python3 perfbench/run.py --workload scan-std400 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Closed loop, one client: the scans of a run execute one after another, each
in a fresh child process (``child.py``) that imports the checkout's ``src/``
and calls ``sshent.cli.main``, as every CLI user does.  The child pins
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1 and clears SSHENT_THREADS: with
more BLAS threads a fresh process can stall about a second in its first
``eigh``, and the CSV bytes change with the thread count.

A run first imports the package once untimed, so that bytecode is compiled
and cached under the work directory (never in ``src/``).  It then imports it
``PROBES`` times for set-up time, and starts scans until ``--seconds`` have
passed since the first scan began (at least one scan).  Every scan is
checked: exit code 0, the CLI's lattice-vs-closed-form gate within its
tolerance, the expected row count in the CSV (and JSON), and a CSV SHA-256
equal to the other scans of the run.  ``--workload all`` runs the three
workloads in turn, each printing its own result line.

Times are rescaled to a reference host speed.  Other tenants of a shared
host slow every layer alike, by up to 1.8x, for stretches from seconds to
minutes.  So every child also times ``child.calibrate``, a fixed piece of
interpreted work that does not touch sshent: a probe right after its
import, a scan before and after ``cli.main``.  A time t measured where R
calibration rounds took c seconds is reported as t * R * CAL_REF_S / c: what
it would read at the speed that runs one round in CAL_REF_S.  A change to
sshent moves these times as much as the wall times, while the host's speed
largely cancels (README.md gives the measured spreads).  A workload with
``cal_rounds = 0`` reports its scan times as measured.  ``scan_s`` is the
median scan and ``setup_s`` the median probe; the text output also gives
the wall times as measured.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced scans and prints the per-layer metrics of the
fastest traced scan (see ``tracing.py``).  The last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

PROBES = 20
PROBE_ROUNDS = 6  # calibration rounds after each probe's import, about 0.1 s
# Seconds one calibration round (child.calibrate) took on the baseline host
# at its quietest; times are rescaled to this speed.
CAL_REF_S = 0.012
CHILD_TIMEOUT_S = 120
GATE = re.compile(r"max \|lattice - asymptotic\| = (\S+) \(tol (\S+)\)")
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SPAN_FILES = (f"spans-{i}.json" for i in itertools.count(1))  # one per traced scan


def child_env() -> dict:
    drop = ("SSHENT_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(CHILD_ENV)
    # cache bytecode in the work directory, as an installed package has it
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def at_reference(seconds: float, cal_s: float, rounds: int) -> float:
    """``seconds`` measured where ``rounds`` calibration rounds took ``cal_s``,
    rescaled to the host speed at which they take ``rounds * CAL_REF_S``;
    as measured when ``rounds`` is 0."""
    if rounds == 0:
        return seconds
    return seconds * rounds * CAL_REF_S / cal_s


def spawn(*args: str) -> tuple[dict | None, subprocess.CompletedProcess | None]:
    """Run child.py; return its report (with ``setup_s``) and the finished process."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), *args],
            cwd=WORK, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("PERFBENCH "):
        return None, proc
    report = json.loads(lines[-1][len("PERFBENCH "):])
    report["setup_s"] = report["ready"] - start
    return report, proc


class Scan:
    """One checked scan of a workload."""

    def __init__(self, workload, traced: bool):
        self.workload = workload
        self.traced = traced
        self.problems: list[str] = []
        self.digest = None
        self.max_dev = None
        self.spans_path = WORK / next(SPAN_FILES) if traced else None
        for name in ("out.csv", "out.json"):
            (WORK / name).unlink(missing_ok=True)
        extra = [self.spans_path.name] if traced else []
        rounds = workload.cal_rounds
        self.report, proc = spawn("scan", workload.command, "config.json", str(rounds), *extra)
        if self.report is None:
            tail = proc.stderr.strip().splitlines()[-3:] if proc else ["timed out"]
            self.problems.append(f"no report from child ({' | '.join(tail)})")
            return
        self.scan_s = at_reference(self.report["scan_s"], statistics.fmean(self.report["cal_s"]), rounds)
        if self.report["rc"] != 0:
            self.problems.append(f"exit code {self.report['rc']}: {proc.stderr.strip()[-300:]}")
        self._check_gate(proc.stdout)
        self._check_outputs()

    def _check_gate(self, stdout: str) -> None:
        gate = GATE.search(stdout)
        if gate is None:
            self.problems.append("no gate line in CLI output")
            return
        self.max_dev, tol = float(gate.group(1)), float(gate.group(2))
        if not self.max_dev <= tol:
            self.problems.append(f"gate {self.max_dev:.3e} above tolerance {tol:g}")

    def _check_outputs(self) -> None:
        want = self.workload.rows
        try:
            data = (WORK / "out.csv").read_bytes()
        except OSError as err:
            self.problems.append(f"no CSV: {err}")
            return
        self.digest = hashlib.sha256(data).hexdigest()
        rows = data.count(b"\n") - 2  # schema comment and header
        if rows != want:
            self.problems.append(f"CSV has {rows} rows, expected {want}")
        if self.workload.writes_json:
            try:
                json_rows = len(json.loads((WORK / "out.json").read_text())["rows"])
            except (OSError, ValueError, KeyError) as err:
                self.problems.append(f"bad JSON output: {err}")
                return
            if json_rows != want:
                self.problems.append(f"JSON has {json_rows} rows, expected {want}")

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self, i: int) -> str:
        tag = "traced" if self.traced else "scan"
        if self.report is None:
            return f"{tag} {i}: FAILED {'; '.join(self.problems)}"
        verdict = "ok" if self.ok else "FAILED " + "; ".join(self.problems)
        dev = f"{self.max_dev:.4e}" if self.max_dev is not None else "-"
        cal = "/".join(f"{c:.4f}" for c in self.report["cal_s"])
        return (f"{tag} {i}: scan_s {self.scan_s:.4f} s (wall {self.report['scan_s']:.4f} s, "
                f"calibration {cal} s), setup_s {self.report['setup_s']:.4f} s as measured, "
                f"peak_rss {self.report['peak_rss_mb']:.1f} MB, "
                f"max_dev {dev}, sha256 {(self.digest or '-')[:16]} [{verdict}]")


def summary(values: list[float]) -> str:
    """Median, and the highest whole percentile (nearest rank) with at least
    ten samples above it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} s, best {min(values):.4f} s"
    if n < 11:
        return f"{text} (n={n}, too few samples for a tail percentile)"
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return f"{text}, p{p} {sorted(values)[rank - 1]:.4f} s (n={n}, {n - rank} above)"


def mark_digests(scans: list[Scan], recorded: str | None) -> None:
    """Fail scans whose CSV differs from the run's first; report the baseline match."""
    digests = [s.digest for s in scans if s.digest]
    if not digests:
        return
    for s in scans:
        if s.digest and s.digest != digests[0]:
            s.problems.append("CSV SHA-256 differs from the run's first scan")
    if recorded is None:
        verdict = "no baseline digest recorded for this workload and seed"
    elif digests[0] == recorded:
        verdict = "matches the baseline digest"
    else:
        verdict = "DIFFERS from the baseline digest (informational)"
    print(f"csv sha256 {digests[0]}: {verdict}")


def run_loop(make, begin: float, seconds: float) -> list:
    """Closed loop: call ``make()`` until ``seconds`` have passed since ``begin`` (at least once)."""
    out = [make()]
    while time.monotonic() - begin < seconds:
        out.append(make())
    return out


def measure(w, seed: int, seconds: float, trace: bool) -> dict | None:
    """One run of workload ``w``: print its report and return the JSON result,
    or None when nothing could be measured."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    config = w.config(seed)
    config["outputs"] = {"csv_path": "out.csv"}
    if w.writes_json:
        config["outputs"]["json_path"] = "out.json"
    (WORK / "config.json").write_text(json.dumps(config, indent=2))

    warm, proc = spawn("probe", "1")  # compiles bytecode; not timed
    if warm is None:
        print(f"error: cannot import sshent: {proc.stderr.strip()[-500:] if proc else 'timed out'}",
              file=sys.stderr)
        return None
    print(f"workload {w.name} seed {seed}: ring offset {w.offset(seed)} cells, "
          f"{w.rows} rows per scan; closed loop, 1 client, fresh process per scan")
    print("env: " + json.dumps(warm["env"], sort_keys=True))

    setup = []
    for _ in range(PROBES):
        probe, _ = spawn("probe", str(PROBE_ROUNDS))
        if probe is not None:
            setup.append(at_reference(probe["setup_s"], probe["cal_s"][0], PROBE_ROUNDS))
    if not setup:
        print("error: no set-up probe produced a report", file=sys.stderr)
        return None
    begin = time.monotonic()
    if trace:
        pairs = run_loop(lambda: (Scan(w, False), Scan(w, True)), begin, seconds)
        scans = [s for pair in pairs for s in pair]
    else:
        scans = run_loop(lambda: Scan(w, False), begin, seconds)

    recorded = json.loads(BASELINE.read_text())["digests"].get(w.name, {})
    mark_digests(scans, recorded.get(str(seed)))
    for i, s in enumerate(scans, 1):
        print(s.describe(i))
    failed = sum(not s.ok for s in scans)
    timed = [s for s in scans if s.report is not None]
    if not timed:
        print("error: no scan produced a report", file=sys.stderr)
        return None
    correct = failed == 0

    if trace:
        metrics, ok = traced_metrics(w, timed)
        correct = correct and ok
    else:
        scan_times = [s.scan_s for s in timed]
        scan_s = statistics.median(scan_times)
        devs = [s.max_dev for s in timed if s.max_dev is not None]
        metrics = {
            "scan_s": (scan_s, "s"),
            "rows_per_s": (w.rows / scan_s, "rows/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(s.report["peak_rss_mb"] for s in timed), "MB"),
            # 1.0 (far above any tolerance) when no scan reported its gate
            "max_dev": (statistics.median(devs) if devs else 1.0, "abs"),
        }
        print(f"{'scan_s':<12} at reference speed: {summary(scan_times)}")
        print(f"{'wall':<12} as measured: {summary([s.report['scan_s'] for s in timed])}")
        print(f"{'setup_s':<12} at reference speed: median of {len(setup)} fresh imports of sshent.cli")
        for name, (value, unit) in metrics.items():
            print(f"{name:<12} {value:.6g} {unit}")
        print(f"{'failed_frac':<12} {failed / len(scans):.6g} ratio ({failed} of {len(scans)} scans)")

    return {
        "correct": correct,
        "attempted": len(scans),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sshent" / "cli.py").is_file():
        print(f"error: no sshent sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


def traced_metrics(w, timed: list[Scan]) -> tuple[dict, bool]:
    """Per-layer metrics from the fastest traced scan, and whether its trace adds up."""
    traced = [s for s in timed if s.traced and s.spans_path.is_file()]
    if not traced:
        print("error: no traced scan produced spans", file=sys.stderr)
        return {}, False
    pick = min(traced, key=lambda s: s.report["scan_s"])
    dump = json.loads(pick.spans_path.read_text())
    for target in dump["missing"]:
        print(f"trace: {target} not found; its metrics read 0")
    metrics, selfs = tracing.layer_metrics(dump)
    root = [s for s in dump["spans"] if s[3] < 0]
    root_s = root[0][2] - root[0][1] if len(root) == 1 else math.nan
    accounted = sum(selfs.values())
    ok = len(root) == 1 and abs(accounted - root_s) <= 1e-6
    print(f"fastest of {len(traced)} traced scans: cli.main span {root_s:.4f} s; "
          f"self times sum to {accounted:.4f} s [{'ok' if ok else 'MISMATCH'}]")
    for name, self_s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:<36} {self_s:9.4f} s")
    overhead = (statistics.median(s.scan_s for s in timed if s.traced)
                - statistics.median(s.scan_s for s in timed if not s.traced))
    metrics["cli.rows"] = (w.rows, "count")
    metrics["trace.scan_s"] = (pick.report["scan_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:.6g} {unit}")
    return metrics, ok


if __name__ == "__main__":
    sys.exit(main())
