"""Batch front door: validation diagnostics, runs, exports, idempotence."""

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from hingedplate import cli, optimize, solver
from hingedplate.cli import (default_config, load_config, main, merge_config,
                             run, validate)
from hingedplate.fem import LoadSpec, Mesh, assemble_bilinear, assemble_load
from hingedplate.optimize import ForceClass, ReinforcementFamily
from hingedplate.params import MaterialParams
from hingedplate.series import analytic_bound_C

#: the one-axis elements of MIRRORS that generate an orbit basis
X_PLUS, X_MINUS = (True, False, 1), (True, False, -1)
Y_PLUS, Y_MINUS = (False, True, 1), (False, True, -1)


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

    @pytest.mark.parametrize("family, expected", [
        ({"kind": "tiles", "tile_size": [0.3, 0.02], "n_tiles": 10,
          "centers_per_axis": 9},
         "tiles family enumerates more than 4096 layouts: centers_per_axis 9, "
         "n_tiles 10"),
        ({"kind": "cross", "mu": 0.001, "n_xstrips": 2, "centers_per_axis": 200000},
         "cross family enumerates more than 4096 layouts: centers_per_axis 200000, "
         "n_xstrips 2, n_ystrips 0"),
        ({"kind": "tiles", "tile_size": [0.3, 0.02], "n_tiles": -1},
         "n_tiles must be at least 1: -1"),
        ({"kind": "cross", "mu": 0.3, "centers_per_axis": -1},
         "centers_per_axis must be at least 1: -1"),
    ], ids=["many-tiles", "many-strip-centers", "negative-n_tiles",
            "negative-centers_per_axis"])
    def test_family_counts_are_bounded(self, tmp_path, capsys, family, expected):
        """A family's layouts are counted, not enumerated, before any is
        built, so an oversized one is a diagnostic at once."""
        path = tmp_path / "family.json"
        path.write_text(json.dumps(config_for("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.5, "family": family}, nx=32, ny=8)))
        start = time.perf_counter()
        assert main(["validate", "--config", str(path)]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().out == f"violation: {expected}\n"

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
        # the error's iteration and contact counts: those of the reduced run
        assert stored["iterations"] == 2 and stored["contacts"] == 2

    def test_exit_3_summary_carries_the_reduced_solver_state(self, tmp_path,
                                                             monkeypatch):
        """A budget of one iteration: the summary holds the error's state,
        which for a solve reduced by both mirrors is the reduced run's, one
        orbit coordinate on the bound where the direct run stops at two
        nodes."""
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
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
        mesh = Mesh(16, 4, 0.1)
        op = solver.PlateOperator.build(mesh, MaterialParams(0.2, 0.1))
        rhs = assemble_load(mesh, cli._build_load(cfg["params"]["load"]))
        box = solver.BoxConstraints.from_obstacle(
            mesh, cli._build_obstacle(cfg["params"]["obstacles"]))
        errors = []
        for flips in (((True, False), (False, True)), ()):
            with pytest.raises(solver.IterationLimitError) as err:
                solver.solve_obstacle(op, rhs, box, flips)
            errors.append(err.value)
        reduced, direct = errors
        assert (stored["iterations"], stored["contacts"]) == (1, 1)
        assert (reduced.iterations, reduced.contacts) == (1, 1)
        assert stored["residual"] == reduced.residual
        assert stored["error"] == str(reduced)
        assert (direct.iterations, direct.contacts) == (1, 2)

    @pytest.mark.parametrize("problem, load, obstacles, error", [
        # the field is NaN, and NaN passes every comparison of a certificate
        ("vi-solve", {"point_masses": [[1.0, 0.0, 1e307]]}, "box",
         "stationarity residual nan or its scale nan is not finite"),
        # a finite field whose residual scale overflows reads any residual as 0
        ("vi-solve", {"point_masses": [[1.0, 0.0, 1e305]]}, "box",
         "stationarity residual 0.000e+00 or its scale inf is not finite"),
        ("solve", {"point_masses": [[1.0, 0.0, 1e305]]}, None,
         "stationarity residual 0.000e+00 or its scale inf is not finite"),
        # certified, but its energy overflows
        ("vi-solve", {"density": 1e200}, {"gamma": 0.01},
         "the energy of the certified field is nan"),
    ], ids=["nan-field", "inf-scale", "inf-scale-linear", "nan-energy"])
    def test_overflowing_load_exits_3_with_strict_json(self, tmp_path, problem,
                                                       load, obstacles, error):
        """Loads that overflow float64 certify nothing: exit 3, a strict JSON
        summary naming the cause, and no data file."""
        params = {"load": load}
        if obstacles is not None:
            params["obstacles"] = obstacles if obstacles != "box" else {
                "kind": "bounds", "lower": -1e308, "upper": 1e308, "region": "full"}
        cfg = config_for(problem, params, nx=8, ny=2, outdir=tmp_path / "o")
        assert validate(cfg) == []
        code, summary = run(cfg)
        assert code == 3 and summary["error"] == error
        stored = json.loads((tmp_path / "o" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["error"] == error and "result" not in stored
        assert [f.name for f in (tmp_path / "o").iterdir()] == ["summary.json"]

    def test_full_plate_contact_limit_settles(self, tmp_path):
        """The full-plate box at 0.05 z_max: hundreds of contacts, solved on
        the mirror-invariant subspace and certified in the full space."""
        upper = 0.05 * 1.3217633217236697
        cfg = config_for(
            "vi-solve",
            {"load": {"density": 1.0},
             "obstacles": {"kind": "bounds", "lower": -1.0, "upper": upper,
                           "region": "full"}},
            nx=64, ny=16, outdir=tmp_path / "c")
        code, summary = run(cfg)
        assert code == 0
        res = summary["result"]
        assert len(res["contact_upper"]) >= 300 and res["contact_lower"] == []
        assert res["kkt"]["stationarity"] <= 1e-9
        assert res["kkt"]["feasibility"] == 0.0
        u = np.loadtxt(tmp_path / "c" / "field.csv", delimiter=",", skiprows=1)[:, 2]
        assert np.all(u[res["contact_upper"]] == upper) and np.all(u <= upper)

    @pytest.mark.parametrize("params, group", [
        ({"load": {"density": 1.0},
          "obstacles": {"kind": "bounds", "lower": -1.0, "upper": 0.5}},
         (X_PLUS, Y_PLUS)),
        ({"load": {"density": {"kind": "sin_x"}}, "obstacles": {"gamma": 0.3}},
         (X_PLUS, Y_PLUS)),
        ({"load": {"antisym_delta": [1.0, 0.05]}, "obstacles": {"gamma": 0.001}},
         (Y_MINUS,)),
        ({"load": {"antisym_delta": [1.0, 0.05]},
          "obstacles": {"kind": "bounds", "lower": -0.001, "upper": 0.002}}, None),
        ({"load": {"density": {"kind": "cells", "signs": [[1, -1], [1, -1]]}},
          "obstacles": {"gamma": 0.01, "region": "full"}}, (Y_PLUS, X_MINUS)),
        ({"load": {"density": {"kind": "cells", "signs": [[1, -1], [1, 0.5]]}},
          "obstacles": {"gamma": 0.01, "region": "full"}}, None),
        # invariant under the composed mirror (both axes, with negation)
        # alone, which generates no orbit basis
        ({"load": {"density": {"kind": "cells", "signs": [[1, 2], [-2, -1]]}},
          "obstacles": {"gamma": 0.01, "region": "full"}}, None),
        ({"load": {"point_masses": [[1.0, 0.05, 1.0], [np.pi - 1.0, 0.05, 1.0]]},
          "obstacles": {"gamma": 0.001}}, (X_PLUS,)),
        # pi - (pi - 0.4) is not 0.4 in floating point, but the assembled
        # loads of the two masses are mirror images to round-off
        ({"load": {"point_masses": [[0.4, 0.0, 1.0], [np.pi - 0.4, 0.0, 1.0]]},
          "obstacles": {"gamma": 0.001}}, (X_PLUS, Y_PLUS)),
        # a mirrored mass 1e-9 off its image: far above LOAD_RTOL, so no x
        ({"load": {"point_masses": [[0.4, 0.0, 1.0],
                                    [np.pi - 0.4 + 1e-9, 0.0, 1.0]]},
          "obstacles": {"gamma": 0.001}}, (Y_PLUS,)),
        ({"load": {"density": 1.0}, "obstacles": {"gamma": 0.3, "region": "full"},
          "variant": "E1", "alpha": 0.5, "beta": 2.5,
          "mask": [[i < 4 for i in range(16)] for _ in range(4)]}, (Y_PLUS,)),
        ({"load": {"density": 1.0}, "obstacles": {"gamma": 0.3, "region": "full"},
          "variant": "E2", "alpha": 0.5, "beta": 2.5,
          "mask": [[j == 0 for i in range(16)] for j in range(4)]}, (X_PLUS,)),
    ], ids=["uniform", "sin_x", "antisym", "antisym-uneven-box", "cells-x-odd",
            "cells-none", "cells-composed", "masses-x", "masses-y",
            "masses-y-off-by-1e-9", "E1-mask", "E2-mask"])
    def test_vi_solve_reduces_by_the_data_symmetry(self, tmp_path, monkeypatch,
                                                   params, group):
        """``solve_obstacle`` picks the mirrors the box, the mask and the
        assembled load are invariant under, and the certified result is the
        full solve's."""
        chosen = []

        group_of = solver._mirror_group

        def recording(op, rhs, box, flips):
            group = group_of(op, rhs, box, flips)
            chosen.append(group or None)
            return group
        monkeypatch.setattr(solver, "_mirror_group", recording)
        code, summary = run(config_for("vi-solve", params, outdir=tmp_path / "g"))
        assert code == 0 and summary["result"]["contact_upper"]
        assert chosen == [group]
        # the same data solved without the reduction
        monkeypatch.setattr(solver, "_mirror_group", lambda *args: ())
        code, full = run(config_for("vi-solve", params, outdir=tmp_path / "f"))
        assert code == 0
        for key in ("contact_lower", "contact_upper"):
            assert summary["result"][key] == full["result"][key]
        assert summary["result"]["kkt"]["stationarity"] <= 1e-9

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

    @pytest.mark.parametrize("gamma", [{0.01}, object()], ids=["set", "object"])
    def test_value_json_cannot_encode_is_a_diagnostic(self, tmp_path, gamma):
        """A config value that JSON cannot encode is an exit-2 diagnostic of
        ``validate`` and ``run``, not a TypeError, and the summary echoes it
        as a string, so it stays strict JSON."""
        cfg = config_for("regime", {"gamma": gamma}, outdir=tmp_path / "v")
        message = f"config values must be JSON: cannot serialize {type(gamma)}"
        assert validate(cfg) == [message]
        code, summary = run(cfg)
        assert code == 2 and summary["diagnostics"] == [message]
        stored = json.loads((tmp_path / "v" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["config"]["params"]["gamma"] == str(gamma)

    def test_key_json_cannot_encode_is_a_diagnostic(self, tmp_path):
        """A config key that JSON cannot encode is an exit-2 diagnostic, and
        the echoed config leaves it out."""
        cfg = config_for("regime", {"gamma": 0.01}, outdir=tmp_path / "k")
        cfg["params"][(1, 2)] = 1
        code, summary = run(cfg)
        assert code == 2 and summary["diagnostics"][0] == (
            "config values must be JSON: keys must be str, int, float, bool or "
            "None, not tuple")
        stored = json.loads((tmp_path / "k" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["config"]["params"] == {"gamma": 0.01}

    @pytest.mark.parametrize("section", [None, "mesh"], ids=["top", "mesh"])
    def test_unknown_keys_of_mixed_types_are_listed(self, tmp_path, section):
        """Unknown fields are listed sorted by their text, so a string key
        beside a tuple key is diagnosed, not a TypeError of the sort."""
        cfg = config_for("regime", {"gamma": 0.01}, outdir=tmp_path / "m")
        (cfg if section is None else cfg[section]).update({"bogus": 1, (1, 2): 1})
        name = "top-level" if section is None else section
        want = f"unknown {name} fields: [(1, 2), 'bogus']"
        assert want in validate(cfg)
        code, summary = run(cfg)
        assert code == 2 and want in summary["diagnostics"]
        stored = json.loads((tmp_path / "m" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["diagnostics"] == summary["diagnostics"]

    @pytest.mark.parametrize("problem, echo", [
        (float("nan"), "NaN"), ({"kind": "x"}, {"kind": "x"}), (["regime"], ["regime"])],
        ids=["nan", "object", "list"])
    def test_malformed_problem_is_a_diagnostic(self, tmp_path, problem, echo):
        """A problem that is not a string is diagnosed, not raised, and the
        summary echoes it as strict JSON."""
        cfg = config_for("regime", {"gamma": 0.01}, outdir=tmp_path / "p")
        cfg["problem"] = problem
        code, summary = run(cfg)
        assert code == 2
        assert any(d.startswith("problem must be one of") for d in summary["diagnostics"])
        stored = json.loads((tmp_path / "p" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["problem"] == echo and stored["config"]["problem"] == echo

    @pytest.mark.parametrize("half_width, error", [
        (1e-300, "the operator overflows float64"),
        (1e-30, "the factorization failed: Factor is exactly singular"),
    ], ids=["overflow", "singular"])
    def test_plate_too_thin_for_float64_exits_3(self, tmp_path, half_width, error):
        """A plate so thin that its stiffness overflows float64, or is
        singular in it, is a solver failure, not an uncaught exception."""
        cfg = config_for("vi-solve", {"load": {"density": 1.0},
                                      "obstacles": {"gamma": 0.001}},
                         nx=8, ny=2, outdir=tmp_path / "t")
        cfg["material"]["half_width"] = half_width
        assert validate(cfg) == []
        code, summary = run(cfg)
        assert code == 3 and summary["error"] == error
        json.loads((tmp_path / "t" / "summary.json").read_text(),
                   parse_constant=_reject_constant)

    def test_ceiling_violation_exits_3(self, tmp_path, monkeypatch):
        """A scanned gap above the 2*gamma ceiling is a solver failure: exit 3
        and a strict JSON summary, not an uncaught exception.  A negative
        relative slack puts the ceiling at gamma, which binding guides pass."""
        monkeypatch.setattr(optimize, "CEILING_RTOL", -0.5)
        cfg = config_for("optimize-obstacle",
                         {"levels": [0.01], "force_class": {"nxi": 9, "neta": 5}},
                         outdir=tmp_path / "c")
        assert validate(cfg) == []
        code, summary = run(cfg)
        assert code == 3
        assert summary["error"].startswith("scanned gap ")
        assert summary["error"].endswith(" breaks the 2*gamma ceiling 0.02")
        stored = json.loads((tmp_path / "c" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["error"] == summary["error"] and "result" not in stored

    @pytest.mark.parametrize("problem, params, m_max", [
        ("green-eval", {"source": [1.0, 0.05], "points": [[1.5, 0.0]]}, 10 ** 400),
        ("green-eval", {"source": [1.0, 0.05], "points": [[1.5, 0.0]]}, 2 ** 26),
        ("regime", {"gamma": 0.01, "scan": False}, 671_089),
    ], ids=["green-eval-10**400", "green-eval-2**26", "regime-100-m_max"])
    def test_m_max_past_the_index_limit_is_a_diagnostic(self, tmp_path, problem,
                                                        params, m_max):
        # 10**400 crashed both commands with an OverflowError and wrote no
        # summary; 10**20 never finished.  Regime sums to index 100 m_max.
        cfg = config_for(problem, params, m_max=m_max, outdir=tmp_path / "w")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert main([problem, "--config", str(path)]) == 2
        stored = json.loads((tmp_path / "w" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert "2**26" in stored["diagnostics"][0]
        assert stored["config"]["series"]["m_max"] == m_max
        cfg["series"]["m_max"] = (m_max - 1 if m_max < 10 ** 9 else 2 ** 26 - 1)
        assert validate(cfg) == []

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
        ("vi-solve", {"load": {"density": 1.0, "point_masses": [[1.0, 0.0, 1.0]]},
                      "obstacles": {"gamma": 1.0}, "variant": "E2", "alpha": 0.5,
                      "beta": 2.5, "mask": [[i < 4 for i in range(16)]] * 4}),
        ("vi-solve", {"load": {"antisym_delta": [1.0, 0.05]},
                      "obstacles": {"gamma": 1.0}, "variant": "E2", "alpha": 0.5,
                      "beta": 2.5, "mask": [[i < 4 for i in range(16)]] * 4}),
    ], ids=["string-obstacles", "number-force_class", "number-point_masses",
            "number-levels", "number-points", "number-source",
            "number-antisym_delta", "list-force_class", "missing-points",
            "unknown-density-kind", "unknown-obstacle-kind", "E1-without-mask",
            "unknown-family-kind", "string-mu", "E2-point-loads",
            "gap-scan-positive-lower", "reinforcement-positive-lower",
            "vi-solve-E2-point-masses", "vi-solve-E2-antisym-delta"])
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
        ("solve", {"load": {"density": {"kind": "sin_x", "signs": [[1, -1]]}}},
         "unknown density fields: ['signs']"),
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
        # the one eta row of neta = 1 is the midline: no pair is left
        ("gap-scan", {"force_class": {"nxi": 5, "neta": 1}},
         "antisym-delta pairs need neta >= 2, got 1"),
        # counted before any member is built: no scan runs, nothing is
        # allocated for the mesh
        ("gap-scan", {"force_class": {"nxi": 100000}},
         "antisym-delta class 100000x9 has 800000 members, more than 4096"),
        ("gap-scan", {"force_class": {"kind": "signed-delta", "nxi": 10**12}},
         "signed-delta class 1000000000000x9 has 18000000000000 members, "
         "more than 4096"),
        # a window band lies strictly inside the plate: 0 < w0 < half_width = 0.1
        ("gap-scan", {"force_class": {"window": {"z0": 0.5, "w0": 0.0}}},
         "w0 must lie in (0, half_width), got 0.0"),
        ("gap-scan", {"force_class": {"window": {"z0": 0.5, "w0": 0.1}}},
         "w0 must lie in (0, half_width), got 0.1"),
    ], ids=["load-typo", "load-norm", "constant-density", "sin_x-signs",
            "obstacles-typo", "force_class-typo", "window-typo", "params-typo",
            "family-typo", "no-levels", "no-grid", "one-cell-count",
            "too-many-patterns",
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
            "bang-bang-class-with-grid", "unscanned-regime-with-force_class",
            "one-row-antisym", "huge-class", "astronomic-class", "zero-w0",
            "half-width-w0"])
    def test_malformed_params_are_diagnostics(self, tmp_path, problem, params,
                                              expected):
        # unknown fields, empty or oversized scans, non-list and non-integer
        # values are found before solving, and each diagnostic names its key
        cfg = config_for(problem, params, outdir=tmp_path / "d")
        assert validate(cfg) == [expected]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == [expected]

    @pytest.mark.parametrize("family, expected", [
        ({"kind": "cross", "mu": 0.2, "n_xstrips": 3},
         "cross families support up to two strips per axis"),
        ({"kind": "cross", "mu": 2.0},
         "strip half-width mu=2.0 outside (0, pi/2N)"),
        ({"kind": "cross", "mu": 0.2, "n_xstrips": 0, "n_ystrips": 1, "eps": 0.2},
         "strip half-width eps=0.2 outside (0, l/M)"),
        ({"kind": "tiles", "tile_size": [0.5, 0.05], "eps": 0.03},
         "tile inradius 0.025 below eps=0.03"),
    ], ids=["three-strips", "mu-range", "eps-range", "tile-inradius"])
    def test_family_ranges_are_diagnostics(self, tmp_path, family, expected):
        # raised while the layouts are built, before anything is solved
        cfg = config_for("optimize-reinforcement",
                         {"alpha": 0.5, "beta": 2.5, "family": family},
                         outdir=tmp_path / "f")
        assert validate(cfg) == [expected]
        code, summary = run(cfg)
        assert code == 2 and summary["diagnostics"] == [expected]

    def test_output_dir_must_be_a_string(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = config_for("green-eval", {"points": [[1.0, 0.0]]})
        cfg["output_dir"] = 5
        assert validate(cfg) == ["output_dir must be a string: 5"]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == ["output_dir must be a string: 5"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_output_dir_naming_a_file_is_a_diagnostic(self, tmp_path, valid):
        """A directory that cannot be made exits 2 with a diagnostic naming
        ``output_dir``, after the config's own diagnostics."""
        taken = tmp_path / "taken"
        taken.write_text("a file")
        cfg = config_for("green-eval", {"points": [[1.0, 0.0]]}, outdir=taken)
        if not valid:
            cfg["material"]["sigma"] = 1.2
        code, summary = run(cfg)
        assert code == 2
        assert len(summary["diagnostics"]) == (1 if valid else 2)
        assert summary["diagnostics"][-1].startswith(
            f"output_dir {str(taken)!r} cannot be made: ")
        assert taken.read_text() == "a file"
        json.dumps(summary, allow_nan=False)

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_output_dir_with_a_nul_byte_is_a_diagnostic(self, tmp_path,
                                                        monkeypatch, valid):
        monkeypatch.chdir(tmp_path)
        cfg = config_for("green-eval", {"points": [[1.0, 0.0]]}, outdir="a\x00b")
        if not valid:
            cfg["problem"] = "nope"
        code, summary = run(cfg)
        assert code == 2
        assert len(summary["diagnostics"]) == (1 if valid else 2)
        assert summary["diagnostics"][-1] == (
            "output_dir 'a\\x00b' cannot be made: embedded null byte")
        assert validate(cfg) == summary["diagnostics"][:-1]
        assert list(tmp_path.iterdir()) == []
        json.dumps(summary, allow_nan=False)

    def test_output_dir_that_cannot_hold_the_summary_is_a_diagnostic(
            self, tmp_path):
        (tmp_path / "o" / "summary.json").mkdir(parents=True)
        cfg = config_for("green-eval", {"points": [[1.0, 0.0]]},
                         outdir=tmp_path / "o")
        code, summary = run(cfg)
        assert code == 2
        [diag] = summary["diagnostics"]
        assert diag.startswith(f"output_dir {str(tmp_path / 'o')!r} cannot hold "
                               "summary.json: ")
        assert summary["result"]["values"]  # the solved result still returns

    @pytest.mark.parametrize("problem, params, name", [
        ("solve", {"load": {"density": 1.0}}, "field.csv"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 0.01}},
         "gap.csv"),
        ("green-eval", {"points": [[1.0, 0.0]]}, "green_eval.csv"),
    ], ids=["field.csv", "gap.csv", "green_eval.csv"])
    def test_output_dir_that_cannot_hold_a_data_file_is_a_diagnostic(
            self, tmp_path, problem, params, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        cfg = config_for(problem, params, nx=8, ny=2, outdir=out)
        code, summary = run(cfg)
        assert code == 2
        [diag] = summary["diagnostics"]
        assert diag.startswith(f"output_dir {str(out)!r} cannot hold {name}: ")
        written = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                             parse_constant=pytest.fail)
        assert written["diagnostics"] == [diag]

    @pytest.mark.parametrize("problem, params, expected", [
        ("solve", {"load": {"density": {}}},
         "missing required problem parameter: 'kind'"),
        ("solve", {"load": {"density": {"kind": None}}}, "unknown density kind None"),
        ("solve", {"load": {"density": {"kind": ["sin_x"]}}},
         "unknown density kind ['sin_x']"),
        ("solve", {"load": {"density": {"kind": "cells"}}},
         "missing required problem parameter: 'signs'"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {}},
         "missing required problem parameter: 'gamma'"),
        ("vi-solve", {"load": {"density": 1.0},
                      "obstacles": {"kind": "wall", "levle": 1.0}},
         "unknown obstacles fields: ['levle']"),
        ("vi-solve", {"load": {"density": 1.0}, "obstacles": {"kind": "wall"}},
         "unknown obstacle kind 'wall'"),
        ("gap-scan", {"force_class": {"kind": "nope"}},
         "unknown force class kind 'nope'"),
        ("gap-scan", {"force_class": {"kind": "nope", "window": 0}},
         "unknown force class kind 'nope'"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"mu": 0.3}},
         "missing required problem parameter: 'kind'"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5,
                                    "family": {"kind": "hex"}},
         "unknown reinforcement family kind 'hex'"),
        ("optimize-reinforcement", {"alpha": 0.5, "beta": 2.5, "variant": "E3",
                                    "family": {"kind": "cross",
                                               "mu": float(np.pi / 8),
                                               "centers_per_axis": 3}},
         "reinforcement variant must be E1 or E2: 'E3'"),
    ], ids=["density-without-kind", "null-density-kind", "list-density-kind",
            "cells-without-signs", "default-obstacle-without-gamma",
            "unknown-obstacle-kind-and-field", "unknown-obstacle-kind",
            "unknown-force-class-kind", "unknown-force-class-kind-bad-window",
            "family-without-kind", "unknown-family-kind",
            "unknown-reinforcement-variant"])
    def test_kinded_objects_check_fields_then_kind(self, tmp_path, problem,
                                                   params, expected):
        """One reader checks every kinded object: its fields against all its
        kinds' fields, then its kind or default kind, then that kind's."""
        cfg = config_for(problem, params, outdir=tmp_path / "k")
        assert validate(cfg) == [expected]
        code, summary = run(cfg)
        assert code == 2
        assert summary["diagnostics"] == [expected]

    def test_every_problem_has_a_reader(self):
        assert set(cli._READERS) == set(cli.PROBLEMS)
        assert cli.PROBLEMS == tuple(cli._PARAMS_KEYS)

    @pytest.mark.parametrize("variant", ["E2", "E1"])
    def test_tiles_family_reinforcement(self, tmp_path, variant):
        cfg = config_for("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.5, "variant": variant,
            "family": {"kind": "tiles", "tile_size": [np.pi / 2, 0.1],
                       "n_tiles": 1, "centers_per_axis": 3},
        }, outdir=tmp_path / "t")
        code, summary = run(cfg)
        assert code == 0
        result = summary["result"]
        assert len(result["candidates"]) == 6
        assert [row["params"]["elements"] for row in result["candidates"]] == [16] * 6
        assert np.count_nonzero(result["argopt_mask"]["elements"]) == 16

    def test_cells_load_matches_bang_bang_member(self):
        params = MaterialParams(0.2, 0.1)
        mesh = Mesh(16, 4, params.half_width)
        members = ForceClass(kind="bang-bang", cells=(3, 2)).members(params)
        bits = 0b101101
        signs = np.array([1.0 if bits >> c & 1 else -1.0
                          for c in range(6)]).reshape(2, 3)
        load = cli._build_load({"density": {"kind": "cells",
                                            "signs": signs.tolist()}})
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

    @pytest.mark.parametrize("force_class", [
        {}, {"kind": "bang-bang", "cells": [3, 2]},
        {"kind": "signed-delta", "nxi": 9, "neta": 5}],
        ids=["antisym-delta", "bang-bang", "signed-delta"])
    def test_unboxed_gap_scan_is_the_scan_under_guides_beyond_reach(
            self, tmp_path, force_class):
        """Without ``obstacles`` a gap scan runs under no box at all, and
        gives bit for bit what guides at twice the analytic bound C give:
        no member reaches them."""
        level = 2.0 * analytic_bound_C(MaterialParams(0.2, 0.1))
        guides = {"kind": "constant_level", "gamma": level, "region": "long_edges"}
        outputs = []
        for name, params in (("free", {}), ("guided", {"obstacles": guides})):
            cfg = config_for("gap-scan", {**params, "force_class": force_class},
                             outdir=tmp_path / name)
            assert run(cfg)[0] == 0
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            outputs.append((summary["result"],
                            (tmp_path / name / "gap.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        rows = outputs[0][0]["candidates"]
        assert all(r["contact_lower"] == r["contact_upper"] == 0 for r in rows)

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

    def test_out_that_cannot_be_made_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config_for("green-eval", {"points": [[1.0, 0.0]]})))
        taken = tmp_path / "taken"
        taken.write_text("a file")
        assert main(["green-eval", "--config", str(path), "--out", str(taken)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"violation: output_dir {str(taken)!r} cannot be made")

    def test_output_dir_with_a_nul_byte_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config_for("green-eval", {"points": [[1.0, 0.0]]},
                                              outdir="a\x00b")))
        assert "\\u0000" in path.read_text()
        assert main(["green-eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "violation: output_dir 'a\\x00b' cannot be made: embedded null byte\n")
        assert main(["validate", "--config", str(path)]) == 0

    def test_solver_failure_prints_its_error(self, tmp_path, capsys):
        # an energy beyond float range certifies nothing: exit 3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config_for(
            "vi-solve", {"load": {"density": 1e200}, "obstacles": {"gamma": 0.01}},
            nx=8, ny=2, outdir=tmp_path / "o")))
        assert main(["vi-solve", "--config", str(path)]) == 3
        stored = json.loads((tmp_path / "o" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {stored['error']}\n"

    @pytest.mark.parametrize("text", ["64by16", "64x16x2", "x16", "64x"])
    def test_malformed_mesh_flag_is_a_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--mesh", text])
        assert exc.value.code == 2
        assert f"mesh must look like 64x16: {text}" in capsys.readouterr().err

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

    def test_module_runner_validates(self, tmp_path):
        import subprocess
        import sys
        path = tmp_path / "cfg.json"
        cfg = config_for("regime", {"gamma": 0.01}, outdir=tmp_path / "v")
        for sigma, code, out in [(0.2, 0, "config ok\n"),
                                 (1.2, 2, "violation: sigma outside (0,1): 1.2\n")]:
            cfg["material"]["sigma"] = sigma
            path.write_text(json.dumps(cfg))
            proc = subprocess.run(
                [sys.executable, "-m", "hingedplate", "validate", "--config", str(path)],
                capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
        assert not (tmp_path / "v").exists()  # validate writes nothing


@pytest.mark.parametrize("message, expected", [
    ("", "mesh 16x4 does not fit in memory"),
    ("cannot allocate 8 GiB", "mesh 16x4 does not fit in memory: cannot allocate 8 GiB"),
])
def test_memory_error_while_reading_is_a_diagnostic(monkeypatch, tmp_path, message,
                                                    expected):
    """A reader that runs out of memory gives the mesh diagnostic, for
    ``validate`` and as an exit-2 ``run``.  The error is raised, never
    provoked: no test allocates a mesh beyond memory in this process."""
    def exhausted(p, ctx):
        raise MemoryError(message)
    monkeypatch.setitem(cli._READERS, "gap-scan", exhausted)
    cfg = config_for("gap-scan", {}, outdir=tmp_path / "r")
    assert validate(cfg) == [expected]
    code, summary = run(cfg)
    assert code == 2 and summary["diagnostics"] == [expected]


def test_memory_error_while_solving_is_a_diagnostic(monkeypatch, tmp_path):
    """A scan that runs out of memory is an exit-2 diagnostic naming the
    mesh, and ``summary.json`` is still written."""
    def exhausted(*args):
        raise MemoryError("cannot allocate 8 GiB")
    monkeypatch.setattr(cli, "worst_gap_force", exhausted)
    cfg = config_for("gap-scan", {}, outdir=tmp_path / "s")
    assert validate(cfg) == []
    code, summary = run(cfg)
    expected = ["mesh 16x4 does not fit in memory: cannot allocate 8 GiB"]
    assert code == 2 and summary["diagnostics"] == expected
    stored = json.loads((tmp_path / "s" / "summary.json").read_text(),
                        parse_constant=_reject_constant)
    assert stored["diagnostics"] == expected


def test_value_error_while_solving_is_a_diagnostic(monkeypatch, tmp_path):
    """A ValueError raised after the config check is an exit-2 diagnostic
    carrying its message, and ``summary.json`` is still strict JSON."""
    def rejected(*args):
        raise ValueError("scan rejected its data")
    monkeypatch.setattr(cli, "worst_gap_force", rejected)
    cfg = config_for("gap-scan", {}, outdir=tmp_path / "v")
    assert validate(cfg) == []
    code, summary = run(cfg)
    assert code == 2 and summary["diagnostics"] == ["scan rejected its data"]
    stored = json.loads((tmp_path / "v" / "summary.json").read_text(),
                        parse_constant=_reject_constant)
    assert stored["diagnostics"] == ["scan rejected its data"]


def test_numpy_mesh_sizes_run_and_echo_as_integers(tmp_path):
    cfg = config_for("solve", {"load": {"density": 1.0}}, outdir=tmp_path / "n")
    cfg["mesh"] = {"nx": np.int64(16), "ny": np.int64(4)}
    assert validate(cfg) == []
    code, _ = run(cfg)
    stored = json.loads((tmp_path / "n" / "summary.json").read_text())
    assert code == 0 and stored["config"]["mesh"] == {"nx": 16, "ny": 4}
    assert all(type(n) is int for n in stored["config"]["mesh"].values())


def test_array_points_are_a_diagnostic_echoed_as_a_list(tmp_path):
    cfg = config_for("green-eval", {"points": np.array([[1.0, 0.0]])},
                     outdir=tmp_path / "a")
    expected = ["points must be a list: array([[1., 0.]])"]
    assert validate(cfg) == expected
    code, summary = run(cfg)
    assert code == 2 and summary["diagnostics"] == expected
    stored = json.loads((tmp_path / "a" / "summary.json").read_text(),
                        parse_constant=_reject_constant)
    assert stored["config"]["params"]["points"] == [[1.0, 0.0]]
    assert stored["diagnostics"] == expected


@pytest.mark.parametrize("command, problem, params", [
    ("validate", "vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 1.0}}),
    ("vi-solve", "vi-solve", {"load": {"density": 1.0}, "obstacles": {"gamma": 1.0}}),
    ("gap-scan", "gap-scan", {}),
])
def test_mesh_beyond_memory_is_a_diagnostic(tmp_path, command, problem, params):
    """A mesh whose arrays cannot be allocated is an exit-2 diagnostic naming
    it, and a run still writes strict-JSON ``summary.json``.  The child
    process caps its own address space at 1 GiB, so no allocation it tries
    can use more memory than that."""
    import subprocess
    import sys
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_for(problem, params, nx=100_000, ny=100_000,
                                          outdir=tmp_path / "h")))
    child = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from hingedplate.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", child, command, "--config", str(path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    out = proc.stdout if command == "validate" else proc.stderr
    assert out.startswith("violation: mesh 100000x100000 does not fit in memory")
    if command != "validate":
        stored = json.loads((tmp_path / "h" / "summary.json").read_text(),
                            parse_constant=_reject_constant)
        assert stored["diagnostics"][0].startswith("mesh 100000x100000")


def _readme_keys(start, end):
    """{name: keys} from a README "Command line" bullet list between the
    lines ``start`` and ``end``: the backticked names of each bullet, outside
    parentheses."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split(start, 1)[1].split(end, 1)[0]
    bullets = re.split(r"^\* ", section, flags=re.M)[1:]
    out = {}
    for bullet in bullets:
        name, body = re.match(r"`([a-z_-]+)`:(.*)", " ".join(bullet.split())).groups()
        while re.search(r"\([^()]*\)", body):
            body = re.sub(r"\([^()]*\)", "", body)
        out[name] = set(re.findall(r"`([a-z_]+)`", body))
    return out


def test_readme_params_keys_match_the_readers():
    assert _readme_keys("Each problem reads these `params` keys",
                        "The nested objects:") == cli._PARAMS_KEYS
    nested = {"load": cli._LOAD_KEYS, "obstacles": cli._OBSTACLE_KEYS,
              "force_class": cli._FORCE_CLASS_KEYS, "family": cli._FAMILY_KEYS}
    assert _readme_keys("The nested objects:", "As in `material`") == {
        name: set().union(*kinds.values()) for name, kinds in nested.items()}
