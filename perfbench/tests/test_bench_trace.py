"""Self-time arithmetic, instrumentation clean-up and the metric catalogue."""

import json
from pathlib import Path

import pytest

from perfbench import tracing
from perfbench.tracing import Span, SpanRecorder, self_times

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def tree():
    # root [0, 10] with children a [1, 4] and b [3, 6], which overlap;
    # a has a child [2, 3]; c [8, 12] overruns the root and is clipped.
    return [
        Span("cli.run", 0.0, 10.0, None, 0),
        Span("optimize.member", 1.0, 4.0, 0, 0),
        Span("solver.solve_obstacle", 3.0, 6.0, 0, 0),
        Span("fem.assemble_load", 2.0, 3.0, 1, 0),
        Span("series.green_value", 8.0, 12.0, 0, 0),
    ]


def test_self_time_subtracts_union_of_children():
    assert self_times(tree()) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_self_time_rollup():
    rec = SpanRecorder()
    rec.spans = tree()
    metrics = tracing.layer_metrics(rec, n_batches=2)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["optimize.self_s"] == pytest.approx(1.0)
    assert metrics["fem.assemble_load.s"] == pytest.approx(0.5)
    assert metrics["fem.assemble_load.calls"] == pytest.approx(0.5)
    assert metrics["optimize.member_s.p50"] == pytest.approx(3.0)


def test_recorder_nests_spans_and_counts_failures():
    rec = SpanRecorder()
    inner = rec.wrap("fem.inner", lambda: 1)

    def boom():
        inner()
        raise ValueError("x")

    outer = rec.wrap("solver.outer", boom)
    with pytest.raises(ValueError):
        outer()
    assert [s.name for s in rec.spans] == ["solver.outer", "fem.inner"]
    assert rec.spans[1].parent == 0
    assert rec.counts["solver.outer.raised"] == 1


def test_instrumentation_restores_every_name():
    from hingedplate import cli, optimize, solver
    before = (cli.worst_gap_force, optimize.solve_obstacle, solver.spla,
              solver.PlateOperator.__dict__["build"],
              solver.PlateOperator.solve_pinned)
    with tracing.instrumented(SpanRecorder()):
        assert cli.worst_gap_force is not before[0]
        assert solver.spla is not before[2]
    after = (cli.worst_gap_force, optimize.solve_obstacle, solver.spla,
             solver.PlateOperator.__dict__["build"],
             solver.PlateOperator.solve_pinned)
    assert after == before


def test_traced_run_counts_layers(tmp_path):
    from hingedplate import cli
    from perfbench.workloads import config
    rec = SpanRecorder()
    cfg = config("vi-solve", {"load": {"density": 1.0},
                              "obstacles": {"kind": "bounds", "lower": -1.0,
                                            "upper": 0.26, "region": "full"}},
                 mesh=(16, 4))
    with tracing.instrumented(rec):
        code, summary = rec.wrap("cli.run", cli.run)(dict(cfg, output_dir=str(tmp_path)))
    assert code == 0
    m = tracing.layer_metrics(rec, 1)
    assert set(m) | {"trace.wall_s", "trace.overhead"} == set(tracing.PER_LAYER_UNITS)
    assert m["cli.solve_obstacle.calls"] == 1
    assert m["solver.iterations"] == summary["result"]["iterations"]
    assert m["solver.factorizations"] >= m["solver.iterations"]
    assert m["solver.factor_nnz"] > 0
    assert m["fem.assemble_bilinear.calls"] == 1
    assert m["cli.output_s"] > 0.0


def test_benchmark_json_matches_emitted_metrics():
    from perfbench import run
    from perfbench.workloads import WORKLOADS
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
