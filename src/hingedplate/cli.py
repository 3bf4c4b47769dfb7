"""Batch front door: read a JSON config once, run one problem, export artifacts.

``_parse`` alone reads a config: it checks the sections, then the problem's
reader builds every object from ``params`` before anything is solved, so
``validate`` and ``run`` report the same diagnostics.  Every run writes
``summary.json`` (always, with the fully resolved config embedded) plus
problem-specific CSV data files.  Exit codes: 0 success, 2 validation error,
3 solver non-convergence.  Identical configs produce byte-identical outputs.
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
_PARAMS_KEYS = {
    "green-eval": {"points", "source"},
    "solve": {"load"},
    "vi-solve": {"load", "obstacles", "variant", "alpha", "beta", "mask"},
    "gap-scan": {"obstacles", "force_class"},
    "optimize-reinforcement": {"alpha", "beta", "family", "variant",
                               "force_class", "obstacles"},
    "optimize-obstacle": {"levels", "region", "force_class"},
    "regime": {"gamma", "scan", "force_class"},
}


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
    return _parse(config)[0]


def _parse(config):
    """(diagnostics, run): a config's violations, and without any a runner
    ``run(outdir) -> summary fields`` over the objects built from it."""
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

    mat = _section(config, "material", _MATERIAL_KEYS, diags)
    sigma = mat.get("sigma")
    half_width = mat.get("half_width")
    if not _is_real(sigma) or not 0.0 < sigma < 1.0:
        diags.append(f"sigma outside (0,1): {sigma!r}")
    if not _is_real(half_width) or half_width <= 0.0 or 2.0 * half_width >= np.pi:
        diags.append(f"half_width must satisfy 0 < 2*half_width < pi: {half_width!r}")

    mesh = _section(config, "mesh", _MESH_KEYS, diags)
    nx, ny = mesh.get("nx"), mesh.get("ny")
    if not (_is_int(nx) and _is_int(ny) and nx >= 4 and ny >= 2):
        diags.append(f"mesh must be at least 4x2 integer elements: {mesh}")

    series = _section(config, "series", _SERIES_KEYS, diags)
    m_max = series.get("m_max")
    if not _is_int(m_max) or m_max < 1:
        diags.append(f"series m_max must be an integer >= 1: {m_max!r}")

    problem = config.get("problem")
    if problem not in PROBLEMS:
        diags.append(f"problem must be one of {PROBLEMS}: {problem}")
    params = _section(config, "params", _PARAMS_KEYS.get(problem), diags)
    if not isinstance(config.get("output_dir") or "out", str):
        diags.append(f"output_dir must be a string: {config['output_dir']!r}")
    if diags:
        return diags, None

    material = MaterialParams(sigma=sigma, half_width=half_width)
    ctx = {"params": material, "mesh": Mesh(nx, ny, material.half_width),
           "state": SeriesState(params=material, m_max=m_max)}
    try:
        solve = _READERS[problem](params, ctx)
    except KeyError as exc:
        return [f"missing required problem parameter: {exc}"], None
    except (TypeError, ValueError) as exc:
        return [str(exc)], None

    def run(outdir):
        return {"tolerances": {"series_tail": ctx["state"].tail_bound},
                "mesh": {"nx": nx, "ny": ny}, "series": {"m_max": m_max},
                "result": solve(outdir)}
    return [], run


def _section(config, name, keys, diags):
    """The object ``config[name]``, else {}; diagnoses that and fields not in keys."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        diags.append(f"{name} must be an object")
        return {}
    if keys is not None and set(section) - keys:
        diags.append(f"unknown {name} fields: {sorted(set(section) - keys)}")
    return section


def _object(value, name, keys=None):
    """``value`` if it is a JSON object with fields in keys, else an error naming it."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object")
    if keys is not None and set(value) - keys:
        raise ValueError(f"unknown {name} fields: {sorted(set(value) - keys)}")
    return value


def _list(value, name):
    """``value`` if it is a JSON list, else a TypeError naming it."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list: {value!r}")
    return value


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
    if _is_real(spec):
        return float(spec)
    if not isinstance(spec, dict):
        raise TypeError(f"load density must be a number or an object: {spec!r}")
    kind = _object(spec, "density", {"kind", "signs"}).get("kind")
    if kind == "sin_x":
        return lambda x, y: np.sin(x)
    if kind == "cells":
        return _cell_density(np.asarray(spec["signs"], dtype=float), half_width)
    raise ValueError(f"unknown density kind {kind!r}")


def _build_load(spec, half_width):
    spec = _object(spec, "load", {"density", "point_masses", "antisym_delta"})
    if "antisym_delta" in spec:
        xi, eta = _list(spec["antisym_delta"], "antisym_delta")
        return LoadSpec.antisym_pair(float(xi), float(eta))
    return LoadSpec(density=_build_density(spec.get("density"), half_width),
                    point_masses=_list(spec.get("point_masses", []), "point_masses"))


def _build_obstacle(spec):
    spec = _object(spec, "obstacles", {"kind", "gamma", "lower", "upper", "region"})
    kind = spec.get("kind", "constant_level")
    region = spec.get("region", "long_edges")
    if kind == "constant_level":
        return ObstacleSpec.constant_level(float(spec["gamma"]), region=region)
    if kind == "bounds":
        return ObstacleSpec(lower=float(spec["lower"]), upper=float(spec["upper"]),
                            region=region)
    raise ValueError(f"unknown obstacle kind {kind!r}")


def _build_forces(spec, params):
    spec = _object(spec, "force_class", {"kind", "nxi", "neta", "cells", "window"})
    kind = spec.get("kind", "antisym-delta")
    wspec = spec.get("window", kind == "antisym-delta")
    window = ScanWindow.default(params) if wspec is True else None
    if wspec and wspec is not True:
        wspec = _object(wspec, "window", {"z0", "w0"})
        window = ScanWindow(z0=float(wspec["z0"]), w0=float(wspec["w0"]))
        window.validate(params)
    cells = _list(spec.get("cells", [3, 2]), "cells")
    return ForceClass(kind=kind, window=window,
                      nxi=int(spec.get("nxi", 33)), neta=int(spec.get("neta", 9)),
                      cells=tuple(map(int, cells)))


def _densities(params):
    """(alpha, beta) of a two-material energy, 0 < alpha < 1 < beta."""
    alpha, beta = params.get("alpha"), params.get("beta")
    if not (_is_real(alpha) and _is_real(beta) and 0.0 < alpha < 1.0 < beta):
        raise ValueError(f"two-material energies require alpha < 1 < beta, "
                         f"got alpha={alpha}, beta={beta}")
    return alpha, beta


def _build_family(params, half_width):
    alpha, beta = _densities(params)
    family = _object(params["family"], "family",
                     {"kind", "mu", "n_xstrips", "n_ystrips", "eps",
                      "centers_per_axis", "tile_size", "n_tiles"})
    kind = family["kind"]
    if kind == "cross":
        return ReinforcementFamily(
            kind="cross", alpha=alpha, beta=beta,
            n_xstrips=int(family.get("n_xstrips", 1)),
            n_ystrips=int(family.get("n_ystrips", 0)),
            mu=float(family["mu"]), eps=float(family.get("eps", 0.01)),
            centers_per_axis=int(family.get("centers_per_axis", 9)))
    if kind == "tiles":
        return ReinforcementFamily(
            kind="tiles", alpha=alpha, beta=beta,
            eps=float(family.get("eps", 0.01)),
            tile_size=tuple(family["tile_size"]),
            n_tiles=int(family.get("n_tiles", 1)),
            centers_per_axis=int(family.get("centers_per_axis", 5)))
    raise ValueError(f"unknown reinforcement family kind {kind!r}")


def _plate_point(q, mesh, name):
    x, y = map(float, _list(q, name))
    if not mesh.contains(x, y):
        raise ValueError(f"{name} ({x}, {y}) outside the closed plate")
    return x, y


# ---------------------------------------------------------------------------
# readers: a problem's params -> a runner over the objects built from them
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


def _read_green_eval(p, ctx):
    state = ctx["state"]
    points = [_plate_point(q, ctx["mesh"], "point")
              for q in _list(p["points"], "points")]
    source = p.get("source")
    if source is not None:
        source = _plate_point(source, ctx["mesh"], "source")

    def run(outdir):
        rows = []
        for (x, y) in points:
            if source is None:
                val = float(uniform_load_profile((x, y), state))
            else:
                val = float(green_value(source, (x, y), state))
            rows.append((x, y, val))
        with open(outdir / "green_eval.csv", "w", encoding="utf-8") as fh:
            fh.write("x,y,value\n")
            for (x, y, v) in rows:
                fh.write(f"{x:.17g},{y:.17g},{v:.17g}\n")
        return {"values": [v for (_, _, v) in rows], "tail_bound": state.tail_bound}
    return run


def _read_solve(p, ctx):
    mesh = ctx["mesh"]
    load = _build_load(p["load"], ctx["params"].half_width)
    load.validate(mesh)

    def run(outdir):
        op = PlateOperator.build(mesh, ctx["params"])
        fld = solve_linear(op, assemble_load(mesh, load))
        field_to_csv(fld, outdir / "field.csv")
        return {"sup_norm": fld.sup_norm()}
    return run


def _read_vi_solve(p, ctx):
    mesh = ctx["mesh"]
    load = _build_load(p["load"], ctx["params"].half_width)
    load.validate(mesh)
    box = BoxConstraints.from_obstacle(mesh, _build_obstacle(p["obstacles"]))
    variant = p.get("variant")
    if variant not in (None, "base", "E1", "E2"):
        raise ValueError(f"vi-solve variant must be base, E1 or E2: {variant!r}")
    mask = None
    if variant in ("E1", "E2") or "alpha" in p or "beta" in p:
        alpha, beta = _densities(p)
        mask = ReinforcementMask(np.asarray(p["mask"], dtype=bool), alpha, beta)
        mask.check_shape(mesh)

    def run(outdir):
        op = PlateOperator.build(mesh, ctx["params"],
                                 mask=mask if variant == "E1" else None)
        rhs = assemble_load(mesh, load, weight=mask if variant == "E2" else None)
        sol = solve_obstacle(op, rhs, box)
        field_to_csv(sol.field, outdir / "field.csv")
        gap_profile(sol).to_csv(outdir / "gap.csv")
        return solution_to_json(sol, op, rhs, box)
    return run


def _read_gap_scan(p, ctx):
    params = ctx["params"]
    level = 2.0 * analytic_bound_C(params)  # beyond reach: contact-free
    obstacle = (_build_obstacle(p["obstacles"]) if "obstacles" in p
                else ObstacleSpec.constant_level(level, region="long_edges"))
    forces = _build_forces(p.get("force_class", {}), params)

    def run(outdir):
        op = PlateOperator.build(ctx["mesh"], params)
        scan = worst_gap_force(op, obstacle, forces, params)
        scan.argopt_profile.to_csv(outdir / "gap.csv")
        return scan.to_report()
    return run


def _read_optimize_reinforcement(p, ctx):
    mesh, params = ctx["mesh"], ctx["params"]
    family = _build_family(p, params.half_width)
    family.candidates(mesh)  # raises when no layout meets the area balance
    forces = _build_forces(p.get("force_class", {"kind": "bang-bang"}), params)
    obstacle = (_build_obstacle(p["obstacles"]) if "obstacles" in p
                else BoxConstraints.unbounded(mesh))
    variant = p.get("variant", "E2")
    if variant not in ("E1", "E2"):
        raise ValueError(f"reinforcement variant must be E1 or E2: {variant!r}")

    def run(outdir):
        scan = best_reinforcement(family, mesh, params, forces, obstacle,
                                  variant=variant)
        report = scan.to_report()
        report["argopt_mask"] = _json_default(scan.meta["argopt_mask"])
        return report
    return run


def _read_optimize_obstacle(p, ctx):
    family = ObstacleFamily.constant_levels(
        _list(p["levels"], "levels"), region=p.get("region", "long_edges"))
    forces = _build_forces(p.get("force_class", {}), ctx["params"])

    def run(outdir):
        op = PlateOperator.build(ctx["mesh"], ctx["params"])
        return best_obstacle(family, op, forces, ctx["params"]).to_report()
    return run


def _read_regime(p, ctx):
    params = ctx["params"]
    gamma = p.get("gamma")
    if not _is_real(gamma) or gamma <= 0.0:
        raise ValueError(f"regime requires a positive gamma: {gamma}")
    scan = p.get("scan", True)
    forces = _build_forces(p.get("force_class", {}), params) if scan else None

    def run(outdir):
        report = classify_regime(gamma, params, m_max=ctx["state"].m_max * 100)
        if scan:
            obstacle = ObstacleSpec.constant_level(gamma, region="long_edges")
            op = PlateOperator.build(ctx["mesh"], params)
            result = worst_gap_force(op, obstacle, forces, params)
            report["scanned_gap"] = result.value
            report["scan"] = result.to_report()
        return report
    return run


_READERS = {
    "green-eval": _read_green_eval,
    "solve": _read_solve,
    "vi-solve": _read_vi_solve,
    "gap-scan": _read_gap_scan,
    "optimize-reinforcement": _read_optimize_reinforcement,
    "optimize-obstacle": _read_optimize_obstacle,
    "regime": _read_regime,
}


def run(config):
    """Execute one configured problem; returns (exit_code, summary dict)."""
    diags, solve = _parse(config)
    summary = {"problem": config.get("problem"), "config": config}
    out = config.get("output_dir") or "out"
    outdir = Path(out) if isinstance(out, str) else None  # else diagnosed
    code = 2
    if diags:
        # non-finite numbers echo as strings, so the summary stays strict JSON
        summary["config"] = json.loads(json.dumps(config, default=_json_default),
                                       parse_constant=str)
        summary["diagnostics"] = diags
    else:
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            summary.update(solve(outdir))
            code = 0
        except ValueError as exc:
            summary["diagnostics"] = [str(exc)]
        except IterationLimitError as exc:
            code = 3
            summary.update(error=str(exc), residual=exc.residual)
        except SolverError as exc:
            code = 3
            summary["error"] = str(exc)
    if code == 0:
        _write_json(outdir / "summary.json", summary)
    elif outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            _write_json(outdir / "summary.json", summary)
        except OSError:
            pass  # diagnostics still reach the caller
    return code, summary


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
    stream = sys.stdout if args.command == "validate" else sys.stderr
    config = default_config()
    if args.config:
        try:
            config = merge_config(config, _object(load_config(args.config), "config"))
        except (OSError, TypeError, ValueError) as exc:
            print(f"violation: cannot read {args.config}: {exc}", file=stream)
            return 2
    if args.command != "validate":
        config["problem"] = args.command
    if args.out is not None:
        config["output_dir"] = args.out
    if args.m_max is not None:
        config = merge_config(config, {"series": {"m_max": args.m_max}})
    if args.mesh is not None:
        nx, ny = args.mesh
        config = merge_config(config, {"mesh": {"nx": nx, "ny": ny}})

    if args.command == "validate":
        diags = validate(config)
        for d in diags:
            print(f"violation: {d}", file=stream)
        if not diags:
            print("config ok")
        return 0 if not diags else 2

    code, summary = run(config)
    if code == 0:
        print(f"ok: wrote {Path(config.get('output_dir') or 'out') / 'summary.json'}")
    else:
        for d in summary.get("diagnostics", []):
            print(f"violation: {d}", file=stream)
        if "error" in summary:
            print(f"error: {summary['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
