"""The measuring process: one client, one thread, tasks back to back.

Started by `run.py`, never by hand.  It imports `defpair` from the checkout's
`src`, builds the workload (set-up), runs whole passes over the task list and
prints one JSON line per task run (latency, output digest, and the output
itself the first time a task id appears), then a summary line with set-up
time and peak memory.  Outputs are streamed rather than kept, and the oracle
runs in the parent, so neither counts in this process's memory.

Modes:
  setup  build the workload, report set-up time and exit
  run    whole passes until --seconds have elapsed, then an untimed repeat
         of pass 0 for the determinism check
  pass   exactly one untraced pass (the reference for tracing overhead)
  trace  exactly one pass with span tracing on; spans go to --spans-out
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "pass", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    import defpair  # noqa: F401  (set-up includes importing the library)
    import workloads
    make_tasks = workloads.build(args.workload, args.seed)
    tasks = make_tasks(0)
    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer().install()
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reported = set()

    def run_task(task, index):
        """Time one task; emit its record (output text only the first time)."""
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = task.run()
            error = None
        except Exception as e:  # a failed task is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        record = {"id": task.id, "pass": index, "latency_s": latency, "error": error}
        if error is None:
            try:
                text = task.canon(out)
            except Exception as e:
                record["error"] = f"canonical form failed: {type(e).__name__}: {e}"
            else:
                record["digest"] = hashlib.sha256(text.encode()).hexdigest()
                if task.id not in reported:
                    reported.add(task.id)
                    record["text"], record["spec"] = text, task.spec
        print(json.dumps(record))
        return latency

    seconds = args.seconds if args.mode == "run" else 0.0
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        index = len(passes)
        if index:
            tasks = make_tasks(index)
        passes.append(sum(run_task(task, index) for task in tasks))
    if args.mode == "run":
        # untimed repeat of pass 0: its outputs must come out identical
        for task in make_tasks(0):
            run_task(task, -1)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_busy_s": passes,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["absent"] = tracer.absent
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
