"""Batch front door: validate a JSON config, run one problem, export artifacts.

Every run writes ``summary.json`` (always, with the fully resolved config
embedded) plus problem-specific CSV data files.  Exit codes: 0 success,
2 validation error, 3 solver non-convergence.  Identical configs produce
byte-identical outputs.
"""

import argparse
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from .fem import LoadSpec, Mesh, ReinforcementMask, assemble_load, field_to_csv
from .optimize import (ForceClass, ObstacleFamily, ReinforcementFamily,
                       _cell_density, best_obstacle, best_reinforcement,
                       classify_regime, gap_profile, worst_gap_force)
from .params import MaterialParams
from .series import (ObstacleSpec, ScanWindow, SeriesState, analytic_bound_C,
                     green_value, uniform_load_profile)
from .solver import (BoxConstraints, IterationLimitError, PlateOperator,
                     SolverError, solve_linear, solve_obstacle,
                     solution_to_json)

SCHEMA_VERSION = 1

PROBLEMS = ("green-eval", "solve", "vi-solve", "gap-scan",
            "optimize-reinforcement", "optimize-obstacle", "regime")

_TOP_KEYS = {"schema_version", "material", "mesh", "series", "problem",
             "params", "output_dir"}
_MATERIAL_KEYS = {"sigma", "half_width"}
_MESH_KEYS = {"nx", "ny"}
_SERIES_KEYS = {"m_max"}


class ValidationFailure(Exception):
    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def default_config():
    return {
        "schema_version": SCHEMA_VERSION,
        "material": {"sigma": 0.2, "half_width": np.pi / 150},
        "mesh": {"nx": 64, "ny": 16},
        "series": {"m_max": 200},
        "problem": None,
        "params": {},
        "output_dir": "out",
    }


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def merge_config(base, override):
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **val}
        else:
            out[key] = val
    return out


def validate(config):
    """All invariant violations of a config, without running anything."""
    diags = []
    try:
        json.dumps(config, allow_nan=False, default=_json_default)
    except ValueError:
        diags.append("config numbers must be finite: JSON has no NaN or Infinity")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        diags.append(f"unknown top-level fields: {sorted(unknown)}")
    if config.get("schema_version") != SCHEMA_VERSION:
        diags.append(f"schema_version must be {SCHEMA_VERSION}")

    mat = _section(config, "material", diags)
    if set(mat) - _MATERIAL_KEYS:
        diags.append(f"unknown material fields: {sorted(set(mat) - _MATERIAL_KEYS)}")
    sigma = mat.get("sigma")
    half_width = mat.get("half_width")
    if not _is_real(sigma) or not 0.0 < sigma < 1.0:
        diags.append(f"sigma outside (0,1): {sigma!r}")
    if not _is_real(half_width) or half_width <= 0.0 or 2.0 * half_width >= np.pi:
        diags.append(f"half_width must satisfy 0 < 2*half_width < pi: {half_width!r}")
        half_width = None

    mesh = _section(config, "mesh", diags)
    if set(mesh) - _MESH_KEYS:
        diags.append(f"unknown mesh fields: {sorted(set(mesh) - _MESH_KEYS)}")
    nx, ny = mesh.get("nx"), mesh.get("ny")
    mesh_ok = _is_int(nx) and _is_int(ny) and nx >= 4 and ny >= 2
    if not mesh_ok:
        diags.append(f"mesh must be at least 4x2 integer elements: {mesh}")

    series = _section(config, "series", diags)
    if set(series) - _SERIES_KEYS:
        diags.append(f"unknown series fields: {sorted(set(series) - _SERIES_KEYS)}")
    m_max = series.get("m_max")
    if not _is_int(m_max) or m_max < 1:
        diags.append(f"series m_max must be an integer >= 1: {m_max!r}")

    problem = config.get("problem")
    if problem not in PROBLEMS:
        diags.append(f"problem must be one of {PROBLEMS}: {problem}")

    params = _section(config, "params", diags)
    load = params.get("load")
    if load is not None and not isinstance(load, dict):
        diags.append("load must be an object")
    elif load is not None:
        density = load.get("density")
        if not (density is None or _is_real(density) or isinstance(density, dict)):
            diags.append(f"load density must be a number or an object: {density!r}")

    variant = params.get("variant")
    if problem == "vi-solve" and variant not in (None, "base", "E1", "E2"):
        diags.append(f"vi-solve variant must be base, E1 or E2: {variant!r}")
    if (problem == "optimize-reinforcement" or variant in ("E1", "E2")
            or "alpha" in params or "beta" in params):
        alpha = params.get("alpha")
        beta = params.get("beta")
        if not (_is_real(alpha) and _is_real(beta) and 0.0 < alpha < 1.0 < beta):
            diags.append(f"two-material energies require alpha < 1 < beta, "
                         f"got alpha={alpha}, beta={beta}")
        elif half_width is not None and mesh_ok:
            family = params.get("family", {})
            if not isinstance(family, dict):
                diags.append("family must be an object")
            elif family.get("kind") == "cross":
                try:
                    fam = _build_family(params, half_width)
                    m = Mesh(nx, ny, half_width)
                    fam.candidates(m)
                except KeyError as exc:
                    diags.append(f"missing required problem parameter: {exc}")
                except (TypeError, ValueError) as exc:
                    diags.append(str(exc))
    if problem == "regime":
        gamma = params.get("gamma")
        if not _is_real(gamma) or gamma <= 0.0:
            diags.append(f"regime requires a positive gamma: {gamma}")
    return diags


def _section(config, name, diags):
    """The object ``config[name]``, or {} with a diagnostic if it is not one."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        diags.append(f"{name} must be an object")
        return {}
    return section


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

def _build_density(spec, half_width):
    if spec is None:
        return None
    if isinstance(spec, (int, float)):
        return float(spec)
    kind = spec.get("kind")
    if kind == "constant":
        return float(spec["value"])
    if kind == "sin_x":
        return lambda x, y: np.sin(x)
    if kind == "cells":
        return _cell_density(np.asarray(spec["signs"], dtype=float), half_width)
    raise ValidationFailure([f"unknown density kind {kind!r}"])


def _build_load(spec, half_width):
    if "antisym_delta" in spec:
        xi, eta = spec["antisym_delta"]
        return LoadSpec.antisym_pair(float(xi), float(eta))
    density = _build_density(spec.get("density"), half_width)
    masses = tuple((float(x), float(y), float(w))
                   for (x, y, w) in spec.get("point_masses", ()))
    return LoadSpec(density=density, point_masses=masses,
                    norm_tag=spec.get("norm", "dual"))


def _build_obstacle(spec):
    kind = spec.get("kind", "constant_level")
    region = spec.get("region", "long_edges")
    if kind == "constant_level":
        return ObstacleSpec.constant_level(float(spec["gamma"]), region=region)
    if kind == "bounds":
        return ObstacleSpec(lower=float(spec["lower"]), upper=float(spec["upper"]),
                            region=region)
    raise ValidationFailure([f"unknown obstacle kind {kind!r}"])


def _build_forces(spec, params):
    kind = spec.get("kind", "antisym-delta")
    window = None
    if spec.get("window", kind == "antisym-delta"):
        wspec = spec.get("window")
        if isinstance(wspec, dict):
            window = ScanWindow(z0=float(wspec["z0"]), w0=float(wspec["w0"]))
        else:
            window = ScanWindow.default(params)
    return ForceClass(kind=kind, window=window,
                      nxi=int(spec.get("nxi", 33)), neta=int(spec.get("neta", 9)),
                      cells=tuple(spec.get("cells", (3, 2))))


def _build_family(params, half_width):
    family = params["family"]
    kind = family["kind"]
    if kind == "cross":
        return ReinforcementFamily(
            kind="cross", alpha=params["alpha"], beta=params["beta"],
            n_xstrips=int(family.get("n_xstrips", 1)),
            n_ystrips=int(family.get("n_ystrips", 0)),
            mu=float(family["mu"]), eps=float(family.get("eps", 0.01)),
            centers_per_axis=int(family.get("centers_per_axis", 9)))
    if kind == "tiles":
        return ReinforcementFamily(
            kind="tiles", alpha=params["alpha"], beta=params["beta"],
            eps=float(family.get("eps", 0.01)),
            tile_size=tuple(family["tile_size"]),
            n_tiles=int(family.get("n_tiles", 1)),
            centers_per_axis=int(family.get("centers_per_axis", 5)))
    raise ValidationFailure([f"unknown reinforcement family kind {kind!r}"])


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _write_json(path, payload):
    # encoded in full first, so a payload strict JSON rejects leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default,
                      allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, ReinforcementMask):
        return {"elements": obj.elements.tolist(), "alpha": obj.alpha,
                "beta": obj.beta}
    raise TypeError(f"cannot serialize {type(obj)}")


def _run_green_eval(config, ctx, outdir):
    p = config["params"]
    state = ctx["state"]
    source = p.get("source")
    points = [tuple(map(float, q)) for q in p["points"]]
    rows = []
    for (x, y) in points:
        if source is None:
            val = float(uniform_load_profile((x, y), state))
        else:
            val = float(green_value((float(source[0]), float(source[1])),
                                    (x, y), state))
        rows.append((x, y, val))
    with open(outdir / "green_eval.csv", "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for (x, y, v) in rows:
            fh.write(f"{x:.17g},{y:.17g},{v:.17g}\n")
    return {"values": [v for (_, _, v) in rows], "tail_bound": state.tail_bound}


def _run_solve(config, ctx, outdir):
    load = _build_load(config["params"]["load"], ctx["params"].half_width)
    op = PlateOperator.build(ctx["mesh"], ctx["params"])
    rhs = assemble_load(ctx["mesh"], load)
    fld = solve_linear(op, rhs)
    field_to_csv(fld, outdir / "field.csv")
    return {"sup_norm": fld.sup_norm()}


def _run_vi_solve(config, ctx, outdir):
    p = config["params"]
    load = _build_load(p["load"], ctx["params"].half_width)
    obstacle = _build_obstacle(p["obstacles"])
    mask = None
    if "alpha" in p and "beta" in p:
        mask = _mask_from_config(p, ctx["mesh"])
    op = PlateOperator.build(ctx["mesh"], ctx["params"],
                             mask=mask if p.get("variant", "base") == "E1" else None)
    weight = mask if p.get("variant") == "E2" else None
    rhs = assemble_load(ctx["mesh"], load, weight=weight)
    box = BoxConstraints.from_obstacle(ctx["mesh"], obstacle)
    sol = solve_obstacle(op, rhs, box)
    field_to_csv(sol.field, outdir / "field.csv")
    gap_profile(sol).to_csv(outdir / "gap.csv")
    return solution_to_json(sol, op, rhs, box)


def _mask_from_config(p, mesh):
    spec = p.get("mask")
    if spec is None:
        raise ValidationFailure(["two-material run needs a 'mask' element grid"])
    elements = np.asarray(spec, dtype=bool)
    return ReinforcementMask(elements, alpha=p["alpha"], beta=p["beta"])


def _run_gap_scan(config, ctx, outdir):
    p = config["params"]
    obstacle = _build_obstacle(p["obstacles"]) if "obstacles" in p else None
    forces = _build_forces(p.get("force_class", {}), ctx["params"])
    op = PlateOperator.build(ctx["mesh"], ctx["params"])
    if obstacle is None:
        level = 2.0 * analytic_bound_C(ctx["params"])  # beyond reach: contact-free
        obstacle = ObstacleSpec.constant_level(level, region="long_edges")
    scan = worst_gap_force(op, obstacle, forces, ctx["params"])
    scan.argopt_profile.to_csv(outdir / "gap.csv")
    return scan.to_report()


def _run_optimize_reinforcement(config, ctx, outdir):
    p = config["params"]
    family = _build_family(p, ctx["params"].half_width)
    forces = _build_forces(p.get("force_class", {"kind": "bang-bang"}), ctx["params"])
    obstacle = (_build_obstacle(p["obstacles"]) if "obstacles" in p
                else BoxConstraints.unbounded(ctx["mesh"]))
    scan = best_reinforcement(family, ctx["mesh"], ctx["params"], forces, obstacle,
                              variant=p.get("variant", "E2"))
    report = scan.to_report()
    report["argopt_mask"] = _json_default(scan.meta["argopt_mask"])
    return report


def _run_optimize_obstacle(config, ctx, outdir):
    p = config["params"]
    family = ObstacleFamily.constant_levels(
        p["levels"], region=p.get("region", "long_edges"))
    forces = _build_forces(p.get("force_class", {}), ctx["params"])
    op = PlateOperator.build(ctx["mesh"], ctx["params"])
    scan = best_obstacle(family, op, forces, ctx["params"])
    return scan.to_report()


def _run_regime(config, ctx, outdir):
    p = config["params"]
    report = classify_regime(p["gamma"], ctx["params"],
                             m_max=config["series"]["m_max"] * 100)
    if p.get("scan", True):
        gamma = p["gamma"]
        obstacle = ObstacleSpec.constant_level(gamma, region="long_edges")
        forces = _build_forces(p.get("force_class", {}), ctx["params"])
        op = PlateOperator.build(ctx["mesh"], ctx["params"])
        scan = worst_gap_force(op, obstacle, forces, ctx["params"])
        report["scanned_gap"] = scan.value
        report["scan"] = scan.to_report()
    return report


_RUNNERS = {
    "green-eval": _run_green_eval,
    "solve": _run_solve,
    "vi-solve": _run_vi_solve,
    "gap-scan": _run_gap_scan,
    "optimize-reinforcement": _run_optimize_reinforcement,
    "optimize-obstacle": _run_optimize_obstacle,
    "regime": _run_regime,
}


def _try_write_summary(outdir, summary):
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "summary.json", summary)
    except OSError:
        pass  # diagnostics still reach the caller


def run(config):
    """Execute one configured problem; returns (exit_code, summary dict)."""
    outdir = Path(config.get("output_dir") or "out")
    diags = validate(config)
    if diags:
        # non-finite numbers echo as strings, so the summary stays strict JSON
        echo = json.loads(json.dumps(config, default=_json_default),
                          parse_constant=str)
        summary = {"problem": config.get("problem"), "config": echo,
                   "diagnostics": diags}
        _try_write_summary(outdir, summary)
        return 2, summary
    mat = config["material"]
    params = MaterialParams(sigma=mat["sigma"], half_width=mat["half_width"])
    mesh = Mesh(config["mesh"]["nx"], config["mesh"]["ny"], params.half_width)
    state = SeriesState(params=params, m_max=config["series"]["m_max"])
    ctx = {"params": params, "mesh": mesh, "state": state}
    outdir.mkdir(parents=True, exist_ok=True)
    code, failure = 0, None
    try:
        result = _RUNNERS[config["problem"]](config, ctx, outdir)
    except ValidationFailure as exc:
        code, failure = 2, {"diagnostics": exc.diagnostics}
    except KeyError as exc:
        code, failure = 2, {"diagnostics":
                            [f"missing required problem parameter: {exc}"]}
    except ValueError as exc:
        code, failure = 2, {"diagnostics": [str(exc)]}
    except IterationLimitError as exc:
        code, failure = 3, {"error": str(exc), "residual": exc.residual}
    except SolverError as exc:
        code, failure = 3, {"error": str(exc)}
    if failure is not None:
        summary = {"problem": config["problem"], "config": config, **failure}
        _try_write_summary(outdir, summary)
        return code, summary
    summary = {
        "problem": config["problem"],
        "config": config,
        "tolerances": {"series_tail": state.tail_bound},
        "mesh": {"nx": mesh.nx, "ny": mesh.ny},
        "series": {"m_max": state.m_max},
        "result": result,
    }
    _write_json(outdir / "summary.json", summary)
    return 0, summary


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _parse_mesh(text):
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"mesh must look like 64x16: {text}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hingedplate",
        description="obstacle problems and worst-case scans for a partially "
                    "hinged plate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PROBLEMS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override it")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--m-max", type=int, default=None, dest="m_max",
                       help="series truncation order")
        p.add_argument("--mesh", type=_parse_mesh, default=None,
                       help="element grid, e.g. 64x16")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = default_config()
    if args.config:
        config = merge_config(config, load_config(args.config))
    if args.command != "validate":
        config["problem"] = args.command
    if args.out is not None:
        config["output_dir"] = args.out
    if args.m_max is not None:
        config["series"]["m_max"] = args.m_max
    if args.mesh is not None:
        config["mesh"]["nx"], config["mesh"]["ny"] = args.mesh

    if args.command == "validate":
        diags = validate(config)
        for d in diags:
            print(f"violation: {d}")
        if not diags:
            print("config ok")
        return 0 if not diags else 2

    code, summary = run(config)
    if code == 0:
        print(f"ok: wrote {Path(config['output_dir']) / 'summary.json'}")
    else:
        for d in summary.get("diagnostics", []):
            print(f"violation: {d}", file=sys.stderr)
        if "error" in summary:
            print(f"error: {summary['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
