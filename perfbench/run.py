"""Benchmark of the kantorov CLI: cube sweeps, simplex L^2 errors, shape scans.

    python3 perfbench/run.py --workload cube-sweep --seed 1 --seconds 40 --trace 0

Runs whole passes over the workload's operations, each pass in a fresh
interpreter (``worker.py``) with the BLAS thread count fixed, for as
many passes as fit in ``--seconds`` (at least ``MIN_PASSES``).  Every
pass's outputs are checked against ``oracles`` and proven properties.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics from traced passes that alternate with untraced
ones (``--trace 1``).  Run outputs go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("accuracy_digits", "digits"))


class PassError(RuntimeError):
    """A worker process ended without a result."""


def run_pass(workload: str, seed: int, out: Path, traced: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--started", repr(started),
           "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_pass(ops: list, result: dict, out: Path) -> tuple[list, list, list]:
    """(failed operations, wrong outputs, accuracy digits) of one pass.

    An operation fails when it raised, or ended without writing its CSV;
    one that wrote its CSV is checked, and a CLI exit code of 1 (a check
    of its own did not hold) counts as a wrong output.
    """
    failed, wrong, digits = [], [], []
    for op, res in zip(ops, result["ops"], strict=True):
        csv_path = out / f"{op.name}.csv"
        if res["code"] not in (0, 1) or not csv_path.is_file():
            failed.append(f"{op.name}: failed (exit {res['code']}) {res['log'][-300:]}")
            continue
        report = op.check(op, workloads.read_rows(csv_path))
        if res["code"] == 1:
            report.holds(f"{op.name}: the CLI reported a failed check", False)
        wrong += report.failures
        digits += report.digits
    return failed, wrong, digits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and waits for its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "kantorov" / "__init__.py").is_file():
        print(f"perfbench: no kantorov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = workloads.WORKLOADS[args.workload]
    out = HERE / "out" / args.workload
    modes = (False, True) if args.trace else (False,)
    passes = []  # (traced, worker result)
    failed, wrong, digits = [], [], []
    start = time.monotonic()
    longest = 0.0  # the longest round so far; no round starts that would end past --seconds
    try:
        while (len(passes) < MIN_PASSES * len(modes)
               or time.monotonic() - start + longest <= args.seconds):
            round_start = time.monotonic()
            for traced in modes:
                result = run_pass(args.workload, args.seed, out, traced)
                f, w, d = check_pass(ops, result, out)
                failed, wrong, digits = failed + f, wrong + w, digits + d
                passes.append((traced, result))
            longest = max(longest, time.monotonic() - round_start)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [r for traced, r in passes if not traced]
    if args.trace:
        traced = [r for t, r in passes if t]
        absent = sorted(set().union(*(r["absent"] for r in traced)))
        values = {name: statistics.median(r["trace"][name] for r in traced)
                  for name, _ in PER_LAYER if name in traced[0]["trace"] and name not in absent}
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER if name in values}
        if absent:
            print(f"perfbench: absent per-layer metrics: {', '.join(absent)}")
    else:
        values = {key: statistics.median(r[key] for r in plain)
                  for key in ("setup_s", "run_s", "peak_rss_mb")}
        values["accuracy_digits"] = min(digits, default=0.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for msg in (failed + wrong)[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    summary = {
        "correct": not wrong,
        "attempted": len(ops) * len(passes),
        "failed": len(failed),
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(
        {"summary": summary, "seed": args.seed, "blas_threads": BLAS_THREADS,
         "passes": [{"traced": t, **r} for t, r in passes]}, indent=1) + "\n",
        encoding="utf-8")
    print(f"perfbench: workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"blas_threads={BLAS_THREADS} results={out / 'result.json'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
