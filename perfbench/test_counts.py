"""Traced counts and ratios repeat exactly for the same seed, so they may be
cited as counts; and the benchmark's declared metrics match what it emits.

Run with:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

# Timings (`self_s`, the overhead ratio) vary; everything else must repeat.
DETERMINISTIC = [name for name, unit in PER_LAYER
                 if unit in ("count", "ratio") and name != "trace.overhead_ratio"]

# A cheap slice of each workload's pass that still reaches its layers.
SLICES = {
    "ideal-gb": lambda tasks: [t for t in tasks if t.id != "katsura-4"][:5],
    "artin-gauge": lambda tasks: tasks[:24],
    "p1-script": lambda tasks: tasks[:6],
}


def traced_counts(workload, seed):
    tasks = SLICES[workload](workloads.build(workload, seed)(0))
    tracer = Tracer().install()
    try:
        for task in tasks:
            tracer.enabled = True
            try:
                task.run()
            finally:
                tracer.enabled = False
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    return {name: summary[name] for name in DETERMINISTIC}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_same_seed(workload):
    first = traced_counts(workload, 7)
    assert first == traced_counts(workload, 7)
    assert first["poly.order_key.calls"] > 0


def test_ideal_gb_bypasses_quotient_rings_and_modules():
    counts = traced_counts("ideal-gb", 7)
    assert counts["groebner.groebner_basis.calls"] > 0
    assert counts["rings.nf.calls"] == 0
    assert counts["groebner.ModuleBasis.calls"] == 0


def test_install_wraps_every_binding_and_uninstall_restores_it():
    from defpair import groebner, mc, pairs, rings
    before = (groebner.poly_reduce, rings.poly_reduce, pairs.exp_pair, mc.exp_pair)
    tracer = Tracer().install()
    try:
        assert rings.poly_reduce is groebner.poly_reduce is not before[0]
        assert mc.exp_pair is pairs.exp_pair is not before[2]
    finally:
        tracer.uninstall()
    assert (groebner.poly_reduce, rings.poly_reduce, pairs.exp_pair, mc.exp_pair) == before


def test_absent_target_is_reported_not_fatal(monkeypatch):
    import spans
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + [
        ("pairs.merged_away", "pairs", "merged_away"),
        ("gone.function", "gone", "function")])
    tracer = Tracer().install()
    tracer.uninstall()
    assert tracer.absent == ["gone.function", "pairs.merged_away"]
    assert tracer.summary()["pairs.merged_away.calls"] == 0


def test_benchmark_json_declares_emitted_metrics():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
