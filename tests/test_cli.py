"""Batch front door: validation diagnostics, runs, exports, idempotence."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hingedplate import cli, solver
from hingedplate.cli import (default_config, load_config, main, merge_config,
                             run, validate)
from hingedplate.fem import LoadSpec, Mesh, assemble_bilinear, assemble_load
from hingedplate.optimize import ForceClass, ReinforcementFamily
from hingedplate.params import MaterialParams


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def config_for(problem, problem_params, nx=16, ny=4, m_max=100, outdir="out"):
    cfg = default_config()
    cfg["material"] = {"sigma": 0.2, "half_width": 0.1}
    cfg["mesh"] = {"nx": nx, "ny": ny}
    cfg["series"] = {"m_max": m_max}
    cfg["problem"] = problem
    cfg["params"] = problem_params
    cfg["output_dir"] = str(outdir)
    return cfg


class TestValidate:
    def test_sigma_out_of_range(self):
        cfg = config_for("regime", {"gamma": 0.01})
        cfg["material"]["sigma"] = 1.2
        diags = validate(cfg)
        assert any("sigma outside (0,1)" in d for d in diags)

    def test_degenerate_two_material_densities(self):
        cfg = config_for("vi-solve", {"variant": "E1", "alpha": 1.0, "beta": 2.0,
                                      "load": {"density": 1.0},
                                      "obstacles": {"gamma": 1.0}})
        diags = validate(cfg)
        assert any("alpha < 1 < beta" in d for d in diags)

    def test_area_infeasible_family(self):
        cfg = config_for("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.0,
            "family": {"kind": "cross", "mu": 0.001, "centers_per_axis": 3},
        })
        diags = validate(cfg)
        assert any("|D|" in d or "area balance" in d for d in diags)

    def test_unknown_fields_rejected(self):
        cfg = config_for("regime", {"gamma": 0.01})
        cfg["surprise"] = 1
        diags = validate(cfg)
        assert any("unknown top-level fields" in d for d in diags)

    def test_threads_is_an_unknown_field(self, tmp_path):
        cfg = config_for("regime", {"gamma": 0.01}, outdir=tmp_path / "t")
        cfg["threads"] = 2
        assert validate(cfg) == ["unknown top-level fields: ['threads']"]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == ["unknown top-level fields: ['threads']"]

    def test_reinforcement_problem_needs_densities(self):
        cfg = config_for("optimize-reinforcement", {})
        diags = validate(cfg)
        assert any("alpha < 1 < beta" in d for d in diags)

    def test_clean_config_passes(self):
        cfg = config_for("regime", {"gamma": 0.01})
        assert validate(cfg) == []


class TestRun:
    def test_green_eval_zero_on_short_edge(self, tmp_path):
        cfg = config_for("green-eval",
                         {"source": [1.0, 0.05],
                          "points": [[0.0, 0.03], [1.5, 0.0]]},
                         outdir=tmp_path / "g")
        code, summary = run(cfg)
        assert code == 0
        rows = (tmp_path / "g" / "green_eval.csv").read_text().splitlines()
        assert rows[0] == "x,y,value"
        assert float(rows[1].split(",")[2]) == 0.0
        assert float(rows[2].split(",")[2]) > 0.0
        assert summary["result"]["tail_bound"] > 0.0

    def test_validation_failure_exits_2(self, tmp_path):
        cfg = config_for("regime", {"gamma": -1.0}, outdir=tmp_path)
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"]

    def test_missing_problem_parameter_exits_2(self, tmp_path):
        cfg = config_for("green-eval", {}, outdir=tmp_path)
        code, summary = run(cfg)
        assert code == 2
        assert any("points" in d for d in summary["diagnostics"])

    def test_regime_binding_case(self, tmp_path):
        from hingedplate import MaterialParams, gap_threshold_M
        m_val, _ = gap_threshold_M(MaterialParams(0.2, 0.1), m_max=10_001)
        cfg = config_for("regime",
                         {"gamma": 0.5 * m_val,
                          "force_class": {"nxi": 9, "neta": 5}},
                         outdir=tmp_path / "r")
        code, summary = run(cfg)
        assert code == 0
        res = summary["result"]
        assert res["case"] == "(ii)"
        assert res["scanned_gap"] == pytest.approx(m_val, rel=1e-9)

    def test_vi_solve_empty_contact_with_certified_margin(self, tmp_path):
        cfg = config_for(
            "vi-solve",
            {"load": {"density": {"kind": "sin_x"}},
             "obstacles": {"kind": "bounds", "lower": -7.0, "upper": 7.0,
                           "region": "full"}},
            outdir=tmp_path / "v")
        code, summary = run(cfg)
        assert code == 0
        res = summary["result"]
        assert res["contact_lower"] == [] and res["contact_upper"] == []
        assert res["kkt"]["stationarity"] <= 1e-8
        assert (tmp_path / "v" / "field.csv").exists()
        assert (tmp_path / "v" / "gap.csv").exists()

    def test_vi_solve_energy_is_exact_to_round_off(self, tmp_path):
        """The reported energy matches an extended-precision recomputation
        from field.csv; a float64 K x loses ~1e-8 to cancellation at 64x16."""
        cfg = config_for(
            "vi-solve",
            {"load": {"density": 1.0},
             "obstacles": {"kind": "bounds", "lower": -1.0, "upper": 1.0,
                           "region": "full"}},
            nx=64, ny=16, outdir=tmp_path / "e")
        code, summary = run(cfg)
        assert code == 0 and summary["result"]["contact_upper"]
        rows = np.loadtxt(tmp_path / "e" / "field.csv", delimiter=",", skiprows=1)
        x = rows[:, 2:].ravel().astype(np.longdouble)
        mesh = Mesh(64, 16, 0.1)
        form = assemble_bilinear(mesh, MaterialParams(sigma=0.2, half_width=0.1))
        b = assemble_load(mesh, LoadSpec(density=1.0)).astype(np.longdouble)
        exact = float(0.5 * np.dot(x, form.matvec_extended(x)) - np.dot(b, x))
        assert summary["result"]["energy"] == pytest.approx(exact, rel=1e-12)

    def test_non_converged_solve_writes_strict_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
        cfg = config_for(
            "vi-solve",
            {"load": {"density": {"kind": "sin_x"}},
             "obstacles": {"kind": "bounds", "lower": -1.0, "upper": 0.05,
                           "region": "full"}},
            outdir=tmp_path / "n")
        code, _ = run(cfg)
        assert code == 3
        stored = json.loads((tmp_path / "n" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert np.isfinite(stored["residual"]) and stored["residual"] > 0.0

    def test_non_finite_config_is_a_diagnostic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"problem": "vi-solve", "params": {"load": {"density": 1.0}, '
            '"obstacles": {"kind": "bounds", "lower": -Infinity, '
            '"upper": 0.05, "region": "full"}}}')
        cfg = merge_config(default_config(), load_config(cfg_path))
        cfg["output_dir"] = str(tmp_path / "f")
        code, summary = run(cfg)
        assert code == 2
        assert any("finite" in d for d in summary["diagnostics"])
        stored = json.loads((tmp_path / "f" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["config"]["params"]["obstacles"]["lower"] == "-Infinity"

    @pytest.mark.parametrize("section, key, value", [
        ("mesh", "nx", "16"),
        ("material", "sigma", "0.2"),
        ("material", None, [1]),
        ("mesh", "nx", 16.0),
        ("series", "m_max", 200.0),
    ], ids=["nx-string", "sigma-string", "material-list", "nx-float",
            "m_max-float"])
    def test_wrongly_typed_config_is_a_diagnostic(self, tmp_path, section, key,
                                                  value):
        cfg = config_for("green-eval", {"source": [1.0, 0.05],
                                        "points": [[1.5, 0.0]]},
                         outdir=tmp_path / "w")
        if key is None:
            cfg[section] = value
        else:
            cfg[section][key] = value
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"]
        stored = json.loads((tmp_path / "w" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["diagnostics"] == summary["diagnostics"]

    @pytest.mark.parametrize("energy, expected", [
        ({"variant": "E9"}, "variant must be base, E1 or E2"),
        ({"variant": "E1"}, "alpha < 1 < beta"),
        ({"variant": "E2"}, "alpha < 1 < beta"),
    ], ids=["unknown", "E1-without-densities", "E2-without-densities"])
    def test_vi_solve_names_a_known_energy(self, tmp_path, energy, expected):
        cfg = config_for("vi-solve", {"load": {"density": 1.0},
                                      "obstacles": {"gamma": 1.0}, **energy},
                         outdir=tmp_path / "v")
        code, summary = run(cfg)
        assert code == 2
        assert any(expected in d for d in summary["diagnostics"])

    @pytest.mark.parametrize("family, expected", [
        ({"kind": "cross"}, "missing required problem parameter: 'mu'"),
        ({"kind": "cross", "mu": [1]}, "mu must be a number: [1]"),
        ("cross", "family must be an object"),
    ], ids=["cross-without-mu", "list-mu", "string-family"])
    def test_malformed_family_is_a_diagnostic(self, tmp_path, family, expected):
        cfg = config_for("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.5, "family": family,
        }, outdir=tmp_path / "r")
        code, summary = run(cfg)
        assert code == 2
        assert len(summary["diagnostics"]) == 1
        assert summary["diagnostics"][0].startswith(expected)
        stored = json.loads((tmp_path / "r" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["diagnostics"] == summary["diagnostics"]

    @pytest.mark.parametrize("load, expected", [
        ({"density": "x"}, "load density must be a number or an object: 'x'"),
        ({"density": [1, 2]}, "load density must be a number or an object: [1, 2]"),
        (5, "load must be an object"),
    ], ids=["string-density", "list-density", "number-load"])
    def test_malformed_load_is_a_diagnostic(self, tmp_path, load, expected):
        cfg = config_for("vi-solve", {"load": load, "obstacles": {"gamma": 1.0}},
                         outdir=tmp_path / "v")
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == [expected]
        stored = json.loads((tmp_path / "v" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["diagnostics"] == summary["diagnostics"]

    @pytest.mark.parametrize("problem, params", [
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": "x"}),
        ("gap-scan", {"force_class": 5}),
        ("vi-solve", {"load": {"point_masses": 3}, "obstacles": {"gamma": 1.0}}),
        ("optimize-obstacle", {"levels": 0.01}),
        ("green-eval", {"points": 5}),
        ("green-eval", {"source": 3, "points": [[1.0, 0.0]]}),
        ("solve", {"load": {"antisym_delta": 3}}),
        ("regime", {"gamma": 0.01, "force_class": [9, 5]}),
        ("green-eval", {}),
        ("vi-solve", {"load": {"density": {"kind": "cosh"}},
                      "obstacles": {"gamma": 1.0}}),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"kind": "wall"}}),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 1.0},
                      "variant": "E1", "alpha": 0.5, "beta": 2.0}),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "hex"}}),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross", "mu": "x"}}),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross",
                                               "mu": float(np.pi / 8),
                                               "centers_per_axis": 3},
                                    "force_class": {"kind": "signed-delta",
                                                    "nxi": 3, "neta": 3}}),
        ("gap-scan", {"obstacles": {"kind": "bounds", "lower": 0.5, "upper": 1.0}}),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross",
                                               "mu": float(np.pi / 8),
                                               "centers_per_axis": 3},
                                    "obstacles": {"kind": "bounds", "lower": 0.5,
                                                  "upper": 1.0}}),
    ], ids=["string-obstacles", "number-force_class", "number-point_masses",
            "number-levels", "number-points", "number-source",
            "number-antisym_delta", "list-force_class", "missing-points",
            "unknown-density-kind", "unknown-obstacle-kind", "E1-without-mask",
            "unknown-family-kind", "string-mu", "E2-point-loads",
            "gap-scan-positive-lower", "reinforcement-positive-lower"])
    def test_validate_reports_what_run_reports(self, tmp_path, problem, params):
        cfg = config_for(problem, params, outdir=tmp_path / "p")
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"]
        stored = json.loads((tmp_path / "p" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["diagnostics"] == summary["diagnostics"]
        assert validate(cfg) == summary["diagnostics"]

    @pytest.mark.parametrize("problem, params, expected", [
        ("green-eval", {"source": [1.0, 0.0], "points": [[10.0, 0.0]]},
         "point (10.0, 0.0) outside the closed plate"),
        ("green-eval", {"points": [[-1.0, 0.0]]},
         "point (-1.0, 0.0) outside the closed plate"),
        ("green-eval", {"source": [1.0, 0.5], "points": [[1.0, 0.0]]},
         "source (1.0, 0.5) outside the closed plate"),
        ("vi-solve", {"load": {"point_masses": [[4.0, 0.0, 1.0]]},
                      "obstacles": {"gamma": 1.0}},
         "point mass at (4.0, 0.0) outside the closed plate"),
    ], ids=["green-point", "uniform-point", "green-source", "point-mass"])
    def test_points_off_the_plate_are_diagnostics(self, tmp_path, problem, params,
                                                  expected):
        cfg = config_for(problem, params, outdir=tmp_path / "o")
        assert validate(cfg) == [expected]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == [expected]

    @pytest.mark.parametrize("problem, params, expected", [
        ("solve", {"load": {"densty": 1.0}}, "unknown load fields: ['densty']"),
        ("solve", {"load": {"density": 1.0, "norm": "sup"}},
         "unknown load fields: ['norm']"),
        ("solve", {"load": {"density": {"kind": "constant", "value": 1.0}}},
         "unknown density fields: ['value']"),
        ("vi-solve", {"load": {"density": 1.0},
                      "obstacles": {"kind": "bounds", "lower": -1.0,
                                    "upper": 1.0, "regoin": "full"}},
         "unknown obstacles fields: ['regoin']"),
        ("gap-scan", {"force_class": {"nix": 5, "neta": 3}},
         "unknown force_class fields: ['nix']"),
        ("gap-scan", {"force_class": {"window": {"z0": 0.1, "w0": 0.1,
                                                 "z1": 0.2}}},
         "unknown window fields: ['z1']"),
        ("optimize-obstacle", {"levels": [0.01], "regoin": "full"},
         "unknown params fields: ['regoin']"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "tiles",
                                               "tile_size": [0.5, 0.05],
                                               "n_tile": 2}},
         "unknown family fields: ['n_tile']"),
        ("optimize-obstacle", {"levels": []}, "obstacle family has no candidates"),
        ("gap-scan", {"force_class": {"nxi": 0}},
         "force class grid needs nxi, neta >= 1, got 0x9"),
        ("gap-scan", {"force_class": {"kind": "bang-bang", "cells": [3]}},
         "bang-bang cells must be two counts >= 1 with at most 4096 sign "
         "patterns: [3]"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross",
                                               "mu": float(np.pi / 8),
                                               "centers_per_axis": 3},
                                    "force_class": {"kind": "bang-bang",
                                                    "cells": [20, 20]}},
         "bang-bang cells must be two counts >= 1 with at most 4096 sign "
         "patterns: [20, 20]"),
        ("gap-scan", {"force_class": {"kind": "bang-bang",
                                      "cells": [10_000_000, 10_000_000]}},
         "bang-bang cells must be two counts >= 1 with at most 4096 sign "
         "patterns: [10000000, 10000000]"),
        ("green-eval", {"points": 5}, "points must be a list: 5"),
        ("green-eval", {"points": [7]}, "point must be a list: 7"),
        ("green-eval", {"source": 3, "points": [[1.0, 0.0]]},
         "source must be a list: 3"),
        ("solve", {"load": {"antisym_delta": 3}}, "antisym_delta must be a list: 3"),
        ("solve", {"load": {"point_masses": 3}}, "point_masses must be a list: 3"),
        ("optimize-obstacle", {"levels": 0.01}, "levels must be a list: 0.01"),
        ("gap-scan", {"force_class": {"kind": "bang-bang", "cells": 5}},
         "cells must be a list: 5"),
        ("gap-scan", {"force_class": {"nxi": 5.9, "neta": 3}},
         "nxi must be an integer: 5.9"),
        ("gap-scan", {"force_class": {"nxi": 5, "neta": True}},
         "neta must be an integer: True"),
        ("gap-scan", {"force_class": {"kind": "bang-bang", "cells": [2, 1.5]}},
         "cells entry must be an integer: 1.5"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross", "mu": 0.3,
                                               "n_xstrips": 1.0}},
         "n_xstrips must be an integer: 1.0"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross", "mu": 0.3,
                                               "n_ystrips": "1"}},
         "n_ystrips must be an integer: '1'"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross", "mu": 0.3,
                                               "centers_per_axis": 3.5}},
         "centers_per_axis must be an integer: 3.5"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "tiles",
                                               "tile_size": [0.5, 0.05],
                                               "n_tiles": 1.5}},
         "n_tiles must be an integer: 1.5"),
        ("regime", {"gamma": 0.01, "scan": "no"}, "scan must be true or false: 'no'"),
        ("gap-scan", {"force_class": {"kind": "bang-bang",
                                      "window": {"z0": 0.1, "w0": 0.01}}},
         "a scan window applies to point-load classes only"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": "0.01"}},
         "gamma must be a number: '0.01'"),
        ("vi-solve", {"load": {"density": 1.0},
                      "obstacles": {"kind": "bounds", "lower": "-1", "upper": 1.0}},
         "lower must be a number: '-1'"),
        ("gap-scan", {"obstacles": {"kind": "bounds", "lower": -1.0, "upper": "1"}},
         "upper must be a number: '1'"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross",
                                               "mu": "0.39269908169872414",
                                               "centers_per_axis": 3}},
         "mu must be a number: '0.39269908169872414'"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "tiles",
                                               "tile_size": [0.5, 0.05],
                                               "eps": "0.01"}},
         "eps must be a number: '0.01'"),
        ("gap-scan", {"force_class": {"window": {"z0": "0.1", "w0": 0.01}}},
         "z0 must be a number: '0.1'"),
        ("gap-scan", {"force_class": {"window": {"z0": 0.1, "w0": "0.01"}}},
         "w0 must be a number: '0.01'"),
        ("optimize-obstacle", {"levels": ["0.01"]},
         "levels entry must be a number: '0.01'"),
        ("green-eval", {"points": [["1.0", "0.0"]]},
         "point must be two numbers: ['1.0', '0.0']"),
        ("green-eval", {"source": ["1.0", 0.0], "points": [[1.0, 0.0]]},
         "source must be two numbers: ['1.0', 0.0]"),
        ("vi-solve", {"load": {"point_masses": [["1.0", 0, 1]]},
                      "obstacles": {"gamma": 1.0}},
         "point_masses entry must be three numbers: ['1.0', 0, 1]"),
        ("solve", {"load": {"antisym_delta": ["1.0", 0.05]}},
         "antisym_delta must be two numbers: ['1.0', 0.05]"),
        ("solve", {"load": {"density": {"kind": "cells", "signs": [["1", "-1"]]}}},
         "signs must be a 2-D grid of numbers"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "tiles", "tile_size": [0.5]}},
         "tile_size must be two numbers: [0.5]"),
        ("solve", {"load": {"density": {"kind": "cells", "signs": [1, -1]}}},
         "signs must be a 2-D grid of numbers"),
        ("gap-scan", {"force_class": {"window": 0}},
         "window must be true, false or an object: 0"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 1.0},
                      "alpha": 0.5, "beta": 2.0, "mask": [[True] * 16] * 4},
         "alpha, beta and mask apply to variants E1 and E2 only"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 1.0},
                      "variant": "base", "alpha": 0.5, "beta": 2.0},
         "alpha, beta and mask apply to variants E1 and E2 only"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 1.0},
                      "variant": "E1", "alpha": 0.5, "beta": 2.0,
                      "mask": [["no"] * 16] * 4},
         "mask must be a grid of booleans"),
        ("vi-solve", {"load": {"density": 1.0},
                      "obstacles": {"gamma": 1.0, "lower": 0.5, "upper": 1.0}},
         "unknown obstacles fields: ['lower', 'upper']"),
        ("vi-solve", {"load": {"density": 1.0},
                      "obstacles": {"kind": "bounds", "lower": -1.0, "upper": 1.0,
                                    "gamma": "x"}},
         "unknown obstacles fields: ['gamma']"),
        ("vi-solve", {"load": {"antisym_delta": [1.0, 0.05], "density": 1.0,
                               "point_masses": [[1.0, 0.0, 1.0]]},
                      "obstacles": {"gamma": 1.0}},
         "unknown load fields: ['density', 'point_masses']"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "cross",
                                               "mu": float(np.pi / 8),
                                               "centers_per_axis": 3,
                                               "tile_size": "x", "n_tiles": 7}},
         "unknown family fields: ['n_tiles', 'tile_size']"),
        ("gap-scan", {"force_class": {"cells": [0, 0]}},
         "unknown force_class fields: ['cells']"),
        ("gap-scan", {"force_class": {"kind": "bang-bang", "nxi": 1000000}},
         "unknown force_class fields: ['nxi']"),
        ("regime", {"gamma": 0.01, "scan": False,
                    "force_class": {"kind": "nope"}},
         "unknown params fields: ['force_class']"),
    ], ids=["load-typo", "load-norm", "constant-density", "obstacles-typo",
            "force_class-typo", "window-typo", "params-typo", "family-typo",
            "no-levels", "no-grid", "one-cell-count", "too-many-patterns",
            "huge-patterns",
            "list-points", "list-point", "list-source", "list-antisym_delta",
            "list-point_masses", "list-levels", "list-cells", "float-nxi",
            "bool-neta", "float-cells", "float-n_xstrips", "string-n_ystrips",
            "float-centers_per_axis", "float-n_tiles", "string-scan",
            "bang-bang-window", "string-gamma", "string-lower", "string-upper",
            "string-mu", "string-eps", "string-z0", "string-w0",
            "string-levels-entry", "string-point", "string-source",
            "string-point_masses-entry", "string-antisym_delta",
            "string-signs", "short-tile_size", "flat-signs", "number-window",
            "base-with-densities", "explicit-base-with-densities",
            "string-mask", "level-obstacle-with-bounds",
            "bounds-obstacle-with-gamma", "antisym-load-with-density",
            "cross-family-with-tiles", "antisym-class-with-cells",
            "bang-bang-class-with-grid", "unscanned-regime-with-force_class"])
    def test_malformed_params_are_diagnostics(self, tmp_path, problem, params,
                                              expected):
        # unknown fields, empty or oversized scans, non-list and non-integer
        # values are found before solving, and each diagnostic names its key
        cfg = config_for(problem, params, outdir=tmp_path / "d")
        assert validate(cfg) == [expected]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == [expected]

    def test_output_dir_must_be_a_string(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = config_for("green-eval", {"points": [[1.0, 0.0]]})
        cfg["output_dir"] = 5
        assert validate(cfg) == ["output_dir must be a string: 5"]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == ["output_dir must be a string: 5"]
        assert list(tmp_path.iterdir()) == []

    def test_cells_load_matches_bang_bang_member(self):
        params = MaterialParams(0.2, 0.1)
        mesh = Mesh(16, 4, params.half_width)
        members = ForceClass(kind="bang-bang", cells=(3, 2)).members(params)
        bits = 0b101101
        signs = np.array([1.0 if bits >> c & 1 else -1.0
                          for c in range(6)]).reshape(2, 3)
        load = cli._build_load({"density": {"kind": "cells",
                                            "signs": signs.tolist()}},
                               params.half_width)
        expected = assemble_load(mesh, members[bits].load)
        assert np.array_equal(assemble_load(mesh, load), expected)

    def test_gap_scan_and_obstacle_optimization(self, tmp_path):
        cfg = config_for("gap-scan",
                         {"force_class": {"nxi": 9, "neta": 5}},
                         outdir=tmp_path / "s")
        code, summary = run(cfg)
        assert code == 0
        assert summary["result"]["value"] > 0.0
        assert (tmp_path / "s" / "gap.csv").read_text().startswith("x,gap")

        cfg2 = config_for("optimize-obstacle",
                          {"levels": [0.01, 0.02],
                           "force_class": {"nxi": 9, "neta": 5}},
                          outdir=tmp_path / "o")
        code2, summary2 = run(cfg2)
        assert code2 == 0
        assert summary2["result"]["argopt"]["index"] == 0

    def test_optimize_reinforcement(self, tmp_path):
        cfg = config_for("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.5,
            "family": {"kind": "cross", "mu": float(np.pi / 8),
                       "centers_per_axis": 3},
            "force_class": {"kind": "bang-bang", "cells": [2, 1]},
        }, outdir=tmp_path / "d")
        code, summary = run(cfg)
        assert code == 0
        result = summary["result"]
        assert result["candidates"]
        masks = ReinforcementFamily(kind="cross", alpha=0.5, beta=2.5,
                                    mu=float(np.pi / 8), centers_per_axis=3
                                    ).candidates(Mesh(16, 4, 0.1))
        argopt = masks[result["argopt"]["index"]]
        assert result["argopt_mask"]["elements"] == argopt.elements.tolist()

    def test_idempotent_outputs(self, tmp_path):
        cfg = config_for("green-eval",
                         {"points": [[1.0, 0.0], [2.0, 0.05]]},
                         outdir=tmp_path / "i")
        run(cfg)
        first = (tmp_path / "i" / "summary.json").read_bytes()
        first_csv = (tmp_path / "i" / "green_eval.csv").read_bytes()
        run(cfg)
        assert (tmp_path / "i" / "summary.json").read_bytes() == first
        assert (tmp_path / "i" / "green_eval.csv").read_bytes() == first_csv

    def test_summary_embeds_config(self, tmp_path):
        cfg = config_for("green-eval", {"points": [[1.0, 0.0]]},
                         outdir=tmp_path / "e")
        _, summary = run(cfg)
        stored = json.loads((tmp_path / "e" / "summary.json").read_text())
        assert stored["config"]["material"]["sigma"] == 0.2
        assert stored["config"]["problem"] == "green-eval"


class TestMain:
    def test_cli_validate_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        cfg = config_for("regime", {"gamma": 0.01})
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 0
        cfg["material"]["sigma"] = 1.2
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "sigma outside (0,1)" in out

    def test_cli_flags_override_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_for(
            "green-eval", {"points": [[1.0, 0.0]]})))
        code = main(["green-eval", "--config", str(path),
                     "--out", str(tmp_path / "flagged"),
                     "--mesh", "8x2", "--m-max", "50"])
        assert code == 0
        stored = json.loads((tmp_path / "flagged" / "summary.json").read_text())
        assert stored["config"]["mesh"] == {"nx": 8, "ny": 2}
        assert stored["config"]["series"]["m_max"] == 50

    @pytest.mark.parametrize("text, expected", [
        (None, "No such file"),
        ('{"problem": "regime",', "Expecting"),
        ('[{"problem": "regime"}]', "config must be an object"),
    ], ids=["missing-file", "invalid-json", "top-level-list"])
    @pytest.mark.parametrize("command", ["validate", "regime"])
    def test_unreadable_config_is_a_violation(self, tmp_path, capsys, command,
                                              text, expected):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "u")]) == 2
        captured = capsys.readouterr()
        lines = (captured.out if command == "validate" else captured.err).splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("violation: ") and expected in lines[0]

    def test_merge_config_nested(self):
        base = default_config()
        merged = merge_config(base, {"mesh": {"nx": 8}})
        assert merged["mesh"]["nx"] == 8
        assert merged["mesh"]["ny"] == base["mesh"]["ny"]

    def test_module_runner(self, tmp_path):
        import subprocess
        import sys
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_for(
            "green-eval", {"points": [[1.0, 0.0]]}, outdir=tmp_path / "m")))
        proc = subprocess.run(
            [sys.executable, "-m", "hingedplate", "green-eval",
             "--config", str(path)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "m" / "summary.json").exists()


def _readme_params_keys():
    """{problem: keys} from the README "Command line" list of ``params`` keys:
    the backticked names of each problem bullet, outside parentheses."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("Each problem reads these `params` keys", 1)[1]
    section = section.split("The nested objects:", 1)[0]
    bullets = re.split(r"^\* ", section, flags=re.M)[1:]
    out = {}
    for bullet in bullets:
        problem, body = re.match(r"`([a-z-]+)`:(.*)", " ".join(bullet.split())).groups()
        while re.search(r"\([^()]*\)", body):
            body = re.sub(r"\([^()]*\)", "", body)
        out[problem] = set(re.findall(r"`([a-z_]+)`", body))
    return out


def test_readme_params_keys_match_the_readers():
    assert _readme_params_keys() == cli._PARAMS_KEYS
