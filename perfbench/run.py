"""defpair benchmark: seeded closed-loop workloads over the library's public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ideal-gb --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  ideal-gb     groebner_basis under grevlex: cyclic-4, katsura-3, katsura-4
               and seeded sparse random ideals in QQ[x,y,z]
  artin-gauge  gauge action, BCH, exp/log and det/exp/trace identities over
               a ring tensored with an Artin algebra
  p1-script    seeded `defpair run` scripts (Cech cohomology on P1, T-spaces,
               first-order bridge, module and DGLA commands), in-process
               through cli.parse_script -> cli.run -> cli.render_json

One client runs tasks back to back in one process and one thread (the
measuring process, `measure.py`), in whole passes over the workload's task
list; each pass draws fresh inputs from the seed's stream (`workloads.py`).
This process only starts it, checks every output with the oracles
(`oracles.py`) and prints the metrics; its last output line is one JSON
object.  Measuring processes run with PYTHONHASHSEED=0, so set and dict
orders, and with them the traced counts, repeat from run to run.

--trace 0 reports the end-to-end metrics:
  tasks_per_s   verified tasks per second of task time
  task_p50_ms   median task latency
  task_tail_ms  latency at the highest percentile with at least ten tasks
                beyond it (the percentile and the task count are printed)
  setup_s       process start to the first timed task, median of several
                fresh processes started before, for and after the timed run
                (import, inputs from the seed, fixtures)
  peak_rss_mb   peak resident memory of the measuring process
failed_ratio (failed over attempted tasks) is printed beside them and is the
`failed`/`attempted` pair of the result.  A task fails if it raises, if the
oracle rejects its output, or if a repeat of it gives different output.

--trace 1 runs one untraced and one traced pass in two fresh processes and
reports the per-layer metrics of the traced pass (`spans.py`), the tracing
overhead as the ratio of their pass times, and writes the spans to
perfbench/out/.  It measures exactly one pass, whatever --seconds says, so
that its counts are counts per pass and repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import OracleUnavailable, verdicts  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9        # fresh processes whose set-up time is the median
CHILD_TIMEOUT_S = 170.0  # a measuring process that runs longer is killed

END_TO_END = [("tasks_per_s", "1/s"), ("task_p50_ms", "ms"), ("task_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def _child(mode, workload, seed, seconds=0.0, spans_out=None) -> dict:
    """Run measure.py; returns its summary with the task records under "runs"."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"measuring process ({mode}) exceeded {CHILD_TIMEOUT_S:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"measuring process ({mode}) exited with {proc.returncode}:\n"
                         + proc.stderr.strip())
    *records, summary = [json.loads(line) for line in proc.stdout.splitlines()]
    summary["runs"] = records
    return summary


def _judge(workload, results) -> list:
    """Per process, per task run: None if the run passed, else why it failed.

    Every task id is judged once by the oracle on its first output; a run
    with a different output digest fails as non-deterministic.
    """
    outputs, specs = {}, {}
    for res in results:
        for r in res["runs"]:
            if "text" in r and r["id"] not in outputs:
                outputs[r["id"]], specs[r["id"]] = r["text"], r["spec"]
    verdict = verdicts(workload, outputs, specs)
    first_digest = {}
    judged = []
    for res in results:
        reasons = []
        for r in res["runs"]:
            reason = r["error"] or verdict.get(r["id"])
            if reason is None and first_digest.setdefault(r["id"], r["digest"]) != r["digest"]:
                reason = "output differs from an earlier run of the same task"
            reasons.append(None if reason is None else f"{r['id']}: {reason}")
        judged.append(reasons)
    return judged


def _counts(judged) -> tuple:
    """(attempted, failed, failure reasons)."""
    flat = [r for reasons in judged for r in reasons]
    failures = [r for r in flat if r is not None]
    return len(flat), len(failures), failures


def _tail(latencies) -> tuple:
    """(value, percentile): the highest percentile with >= 10 tasks beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds) -> dict:
    # set-up samples bracket the timed run, so that their median sees the
    # same stretch of host speed as the task metrics
    before = (SETUP_SAMPLES - 1) // 2
    setups = [_child("setup", workload, seed)["setup_s"] for _ in range(before)]
    res = _child("run", workload, seed, seconds)
    setups.append(res["setup_s"])
    setups += [_child("setup", workload, seed)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1 - before)]
    judged = _judge(workload, [res])
    attempted, failed, reasons = _counts(judged)
    timed = [(r, reason) for r, reason in zip(res["runs"], judged[0]) if r["pass"] >= 0]
    verified = sum(reason is None for _, reason in timed)
    latencies = [r["latency_s"] for r, _ in timed]
    busy = sum(latencies)
    tail, pct = _tail(latencies)
    metrics = {
        "tasks_per_s": verified / busy,
        "task_p50_ms": statistics.median(latencies) * 1000.0,
        "task_tail_ms": tail * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"passes: {len(res['pass_busy_s'])}, {verified} of {len(latencies)} timed tasks "
        f"verified, {busy:.2f} s of task time",
        f"task_tail_ms is p{pct:.1f} of {len(latencies)} tasks",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} task runs, "
        f"{attempted - len(latencies)} of them the untimed determinism repeat)",
    ]
    return {"metrics": metrics, "units": dict(END_TO_END), "attempted": attempted,
            "failed": failed, "reasons": reasons, "notes": notes}


def per_layer(workload, seed) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"spans-{workload}-seed{seed}.tsv"
    plain = _child("pass", workload, seed)
    traced = _child("trace", workload, seed, spans_out=spans_out)
    attempted, failed, reasons = _counts(_judge(workload, [plain, traced]))
    traced_s, plain_s = traced["pass_busy_s"][0], plain["pass_busy_s"][0]
    summary = dict(traced["trace"], **{"trace.overhead_ratio": traced_s / plain_s})
    metrics = {name: summary[name] for name, _ in PER_LAYER}
    notes = [f"spans: {summary['spans']} written to {spans_out.relative_to(ROOT)}",
             f"trace.overhead_ratio: traced {traced_s:.3f} s / untraced {plain_s:.3f} s "
             "for the same pass in fresh processes",
             "ratio bases (a ratio with base 0 reads 0): "
             f"spair_zero_ratio over {summary['groebner.spair_reduced']} S-pair "
             f"reductions, nf.noop_ratio over {summary['rings.nf.calls']} nf calls, "
             f"mat_inverse.distinct_ratio over {summary['matrices.mat_inverse.calls']} calls",
             f"absent targets: {', '.join(traced['absent']) or 'none'}",
             f"failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} task runs)"]
    return {"metrics": metrics, "units": dict(PER_LAYER), "attempted": attempted,
            "failed": failed, "reasons": reasons, "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "defpair" / "__init__.py").is_file():
        print(f"error: no defpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            report = per_layer(args.workload, args.seed)
        else:
            report = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, OracleUnavailable) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, value in report["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {report['units'][name]}")
    for note in report["notes"]:
        print(f"{args.workload} {note}")
    for reason in report["reasons"][:20]:
        print(f"{args.workload} FAILED {reason}")
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {name: {"value": value, "unit": report["units"][name]}
                          for name, value in report["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
