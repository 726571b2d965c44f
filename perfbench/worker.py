"""One pass over a workload in a fresh interpreter (started by ``run.py``).

Set-up is timed from the moment the parent started this process (both
read the system-wide monotonic clock) to the first operation: importing
kantorov, writing the configs and parsing them with the CLI's own
parser.  The pass then runs every operation through ``kantorov.cli.main``
in this process, one after another, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from kantorov import cli

    import workloads

    out = Path(args.out)
    ops = workloads.WORKLOADS[args.workload]
    paths = []
    for op in ops:
        path = out / f"{op.name}.config.json"
        config = workloads.cli_config(op, str(out / f"{op.name}.csv"),
                                      str(out / f"{op.name}.out.json"))
        path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        cli.parse_config(cli.load_config(str(path)), op.command, args.seed)
        paths.append(path)
    setup_s = time.monotonic() - args.started

    tracer = None
    run_cli = cli.main
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run_cli = tracer.wrap("cli", "main", cli.main)

    results = []
    start = time.perf_counter()
    for op, path in zip(ops, paths):
        op_start = time.perf_counter()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = run_cli([op.command, "--config", str(path), "--seed", str(args.seed)])
        except Exception:  # a crash is one failed operation; the pass goes on
            code = None
            sink.write(traceback.format_exc())
        results.append({"name": op.name, "code": code, "s": time.perf_counter() - op_start,
                        "log": sink.getvalue()[-2000:] if code != 0 else ""})
    run_s = time.perf_counter() - start

    doc = {
        "setup_s": setup_s,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        doc["trace"], doc["absent"] = tracer.metrics(run_s)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
