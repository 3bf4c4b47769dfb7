"""The correctness gate counts tampered, non-strict and wrong outputs as failed."""

import json
import math

import pytest

from perfbench import gate
from perfbench.workloads import (M_THRESHOLD, WORKLOADS, Op, config,
                                 make_batch)


def write_summary(outdir, payload):
    outdir.mkdir(parents=True, exist_ok=True)
    # allow_nan: reproduce what a non-strict writer puts on disk
    (outdir / "summary.json").write_text(json.dumps(payload, allow_nan=True))


def regime_op(case, gamma):
    return Op("regime", config("regime", {"gamma": gamma}),
              {"case": case, "gamma": gamma})


def regime_summary(case, gamma, scanned_gap):
    return {"problem": "regime",
            "result": {"case": case, "gamma": gamma, "threshold": M_THRESHOLD,
                       "threshold_tail": 1e-9, "scanned_gap": scanned_gap}}


class TestStrictJson:
    def test_infinity_residual_fails(self, tmp_path):
        op = Op("vi", config("vi-solve", {}), {"lower": -1.0, "upper": 0.01})
        write_summary(tmp_path, {"problem": "vi-solve", "error": "no settle",
                                 "residual": math.inf})
        reason = gate.check(op, 3, tmp_path, {})
        assert reason is not None and "Infinity" in reason

    def test_nan_fails_even_with_exit_zero(self, tmp_path):
        gamma = 0.6 * M_THRESHOLD
        write_summary(tmp_path, regime_summary("(ii)", gamma, math.nan))
        assert "NaN" in gate.check(regime_op("(ii)", gamma), 0, tmp_path, {})

    def test_missing_summary_fails(self, tmp_path):
        assert gate.check(regime_op("(ii)", 0.01), 0, tmp_path, {}) is not None


class TestRegime:
    def test_binding_case_passes(self, tmp_path):
        gamma = 0.6 * M_THRESHOLD
        write_summary(tmp_path, regime_summary("(ii)", gamma, 2.0 * gamma))
        assert gate.check(regime_op("(ii)", gamma), 0, tmp_path, {}) is None

    def test_wrong_case_fails(self, tmp_path):
        gamma = 0.6 * M_THRESHOLD
        write_summary(tmp_path, regime_summary("(i)", gamma, 2.0 * gamma))
        assert "regime case" in gate.check(regime_op("(ii)", gamma), 0, tmp_path, {})

    def test_binding_gap_off_ceiling_fails(self, tmp_path):
        gamma = 0.6 * M_THRESHOLD
        write_summary(tmp_path, regime_summary("(ii)", gamma, 2.0 * gamma * (1 + 1e-7)))
        assert gate.check(regime_op("(ii)", gamma), 0, tmp_path, {}) is not None

    def test_inert_guides_reaching_ceiling_fail(self, tmp_path):
        gamma = 1.4 * M_THRESHOLD
        write_summary(tmp_path, regime_summary("(i)", gamma, 2.0 * gamma))
        assert "case (i)" in gate.check(regime_op("(i)", gamma), 0, tmp_path, {})

    def test_nonzero_exit_fails(self, tmp_path):
        gamma = 0.6 * M_THRESHOLD
        write_summary(tmp_path, regime_summary("(ii)", gamma, 2.0 * gamma))
        assert "exit code 3" in gate.check(regime_op("(ii)", gamma), 3, tmp_path, {})


class TestRealOutputs:
    """Outputs written by the CLI pass; the same outputs tampered with fail."""

    @pytest.fixture
    def vi_run(self, tmp_path):
        from hingedplate.cli import run
        upper = 0.2 * 1.32
        op = Op("vi", config("vi-solve", {
            "load": {"density": 1.0},
            "obstacles": {"kind": "bounds", "lower": -1.0, "upper": upper,
                          "region": "full"}}, mesh=(16, 4)),
            {"lower": -1.0, "upper": upper})
        code, _ = run(dict(op.config, output_dir=str(tmp_path)))
        return op, code, tmp_path

    def test_untouched_outputs_pass(self, vi_run):
        op, code, outdir = vi_run
        assert gate.check(op, code, outdir, {}) is None

    def test_tampered_kkt_fails(self, vi_run):
        op, code, outdir = vi_run
        summary = json.loads((outdir / "summary.json").read_text())
        summary["result"]["kkt"]["stationarity"] = 1e-6
        write_summary(outdir, summary)
        assert "stationarity" in gate.check(op, code, outdir, {})

    def test_node_above_obstacle_fails(self, vi_run):
        op, code, outdir = vi_run
        lines = (outdir / "field.csv").read_text().splitlines()
        cells = lines[1 + 10].split(",")
        cells[2] = repr(op.expect["upper"] * (1 + 1e-15) + 1e-15)
        lines[1 + 10] = ",".join(cells)
        (outdir / "field.csv").write_text("\n".join(lines) + "\n")
        assert "leave the box" in gate.check(op, code, outdir, {})

    def test_dropped_contact_fails(self, vi_run):
        op, code, outdir = vi_run
        summary = json.loads((outdir / "summary.json").read_text())
        summary["result"]["contact_upper"] = []
        write_summary(outdir, summary)
        assert gate.check(op, code, outdir, {}) is not None


class TestReinforcement:
    def op_and_summary(self, value, index=2, n_elements=64):
        op = Op("E2", config("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.5, "variant": "E2"}, mesh=(32, 8)),
            {"reference": "E2/0"})
        elements = [[c < n_elements // 8 for c in range(32)] for _ in range(8)]
        summary = {"problem": "optimize-reinforcement",
                   "result": {"value": value, "argopt": {"index": index},
                              "argopt_mask": {"elements": elements}}}
        return op, summary

    reference = {"reinforce": {"E2/0": {"value": 1.0, "argopt_index": 2,
                                        "weighted_bounds": [2.0] * 5}}}

    def test_reference_value_passes(self, tmp_path):
        op, summary = self.op_and_summary(1.0)
        write_summary(tmp_path, summary)
        assert gate.check(op, 0, tmp_path, self.reference) is None

    def test_tampered_value_fails(self, tmp_path):
        op, summary = self.op_and_summary(1.0 + 1e-8)
        write_summary(tmp_path, summary)
        assert "reference" in gate.check(op, 0, tmp_path, self.reference)

    def test_other_argmax_fails(self, tmp_path):
        op, summary = self.op_and_summary(1.0, index=3)
        write_summary(tmp_path, summary)
        assert "argmax" in gate.check(op, 0, tmp_path, self.reference)

    def test_area_imbalance_fails(self, tmp_path):
        op, summary = self.op_and_summary(1.0, n_elements=80)
        write_summary(tmp_path, summary)
        assert "area balance" in gate.check(op, 0, tmp_path, self.reference)


def test_seed_fixes_the_inputs():
    for workload in WORKLOADS.values():
        assert make_batch(workload, 7) == make_batch(workload, 7)
        assert make_batch(workload, 7) != make_batch(workload, 8)
