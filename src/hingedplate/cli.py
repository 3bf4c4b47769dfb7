"""Batch front door: read a JSON config once, run one problem, export artifacts.

``_parse`` alone reads a config: it checks the sections, then the problem's
reader builds every object from ``params`` before anything is solved, so
``validate`` and ``run`` report the same diagnostics.  Every run writes
``summary.json`` (always, with the fully resolved config embedded) plus
problem-specific CSV data files through ``fem.write_csv``.  Exit codes: 0
success, 2 validation error or an unusable ``output_dir``, 3 solver failure:
non-convergence, or a number that overflows, so nothing is certified.
Identical configs produce byte-identical outputs.
"""

import argparse
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from .fem import (LoadSpec, Mesh, ReinforcementMask, assemble_load, field_to_csv,
                  write_csv)
from .optimize import (ForceClass, ReinforcementFamily, best_obstacle,
                       best_reinforcement, classify_regime, gap_profile,
                       worst_gap_force)
from .params import MaterialParams
from .series import (ObstacleSpec, ScanWindow, SeriesState, green_value,
                     uniform_load_profile)
from .solver import (BoxConstraints, IterationLimitError, PlateOperator,
                     SolverError, solve_linear, solve_obstacle, solution_to_json)
from .summation import INDEX_LIMIT

SCHEMA_VERSION = 1

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
PROBLEMS = tuple(_PARAMS_KEYS)
#: fields of the nested ``params`` objects, per kind
_LOAD_KEYS = {"antisym_delta": {"antisym_delta"},
              "density": {"density", "point_masses"}}
_DENSITY_KEYS = {"sin_x": {"kind"}, "cells": {"kind", "signs"}}
_OBSTACLE_KEYS = {"constant_level": {"kind", "region", "gamma"},
                  "bounds": {"kind", "region", "lower", "upper"}}
_FORCE_CLASS_KEYS = {"bang-bang": {"kind", "cells", "window"},
                     "antisym-delta": {"kind", "nxi", "neta", "window"},
                     "signed-delta": {"kind", "nxi", "neta", "window"}}
_FAMILY_KEYS = {"cross": {"kind", "mu", "n_xstrips", "n_ystrips", "eps",
                          "centers_per_axis"},
                "tiles": {"kind", "tile_size", "n_tiles", "eps", "centers_per_axis"}}


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
    except TypeError as exc:
        diags.append(f"config values must be JSON: {exc}")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        diags.append(f"unknown top-level fields: {sorted(unknown, key=str)}")
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
    # regime sums its threshold series to index 100 m_max
    reach = 100 if config.get("problem") == "regime" else 1
    if not _is_int(m_max) or m_max < 1:
        diags.append(f"series m_max must be an integer >= 1: {m_max!r}")
    elif m_max * reach >= INDEX_LIMIT:
        diags.append(f"series m_max sums past index 2**26"
                     f"{' (regime sums to 100 m_max)' if reach > 1 else ''}, "
                     f"where float index products stop being exact: {m_max!r}")

    problem = config.get("problem")
    if problem not in PROBLEMS:
        diags.append(f"problem must be one of {PROBLEMS}: {problem}")
    params = _section(config, "params",
                      _PARAMS_KEYS[problem] if problem in PROBLEMS else None, diags)
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
    except MemoryError as exc:
        return [_out_of_memory(config, exc)], None

    def run(outdir):
        return {"tolerances": {"series_tail": ctx["state"].tail_bound},
                "mesh": {"nx": nx, "ny": ny}, "series": {"m_max": m_max},
                "result": solve(outdir)}
    return [], run


def _out_of_memory(config, exc):
    """Diagnostic of a run or read that ran out of memory: the mesh sets the size."""
    mesh = config["mesh"]
    return (f"mesh {mesh['nx']}x{mesh['ny']} does not fit in memory"
            + (f": {exc}" if str(exc) else ""))


def _section(config, name, keys, diags):
    """The object ``config[name]``, else {}; diagnoses that and fields not in keys."""
    section = config.get(name, {})
    try:
        _object(section, name, keys)
    except (TypeError, ValueError) as exc:
        diags.append(str(exc))
    return section if isinstance(section, dict) else {}


def _object(value, name, keys=None):
    """``value`` if it is a JSON object with fields in keys, else an error naming it."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object")
    if keys is not None and set(value) - keys:
        raise ValueError(f"unknown {name} fields: {sorted(set(value) - keys, key=str)}")
    return value


def _kinded(value, name, kinds, label, default=None):
    """The kind of a JSON object of one of ``kinds``, a table kind -> its
    fields.  Checked in one order: its fields against every kind's, then its
    kind (``default`` when it has none, else a KeyError), then that kind's
    fields."""
    _object(value, name, set().union(*kinds.values()))
    kind = value["kind"] if "kind" in value or default is None else default
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {label} kind {kind!r}")
    _object(value, name, kinds[kind])
    return kind


def _list(value, name):
    """``value`` if it is a JSON list, else a TypeError naming it."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list: {value!r}")
    return value


def _integer(value, name):
    """``value`` if it is a JSON integer, else a TypeError naming it."""
    if not _is_int(value):
        raise TypeError(f"{name} must be an integer: {value!r}")
    return value


def _real(value, name):
    """``value`` as a float if it is a JSON number, else a TypeError naming it."""
    if not _is_real(value):
        raise TypeError(f"{name} must be a number: {value!r}")
    return float(value)


def _reals(value, name, n=2):
    """``value`` as n floats if it is a list of n JSON numbers, else a
    TypeError naming it."""
    if len(_list(value, name)) != n or not all(map(_is_real, value)):
        raise TypeError(f"{name} must be {'two' if n == 2 else 'three'} numbers: "
                        f"{value!r}")
    return tuple(map(float, value))


def _grid(value, name, entries, is_entry):
    """``value`` if it is a non-empty rectangular list of lists whose entries
    pass ``is_entry``, else a TypeError naming it as ``entries``."""
    if not (isinstance(value, list) and value and all(
            isinstance(row, list) and row and len(row) == len(value[0])
            and all(map(is_entry, row)) for row in value)):
        raise TypeError(f"{name} must be {entries}")
    return value


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

def _build_density(spec):
    if spec is None:
        return None
    if _is_real(spec):
        return float(spec)
    if not isinstance(spec, dict):
        raise TypeError(f"load density must be a number or an object: {spec!r}")
    kind = _kinded(spec, "density", _DENSITY_KEYS, "density")
    if kind == "sin_x":
        return lambda x, y: np.sin(x)
    return np.array(_grid(spec["signs"], "signs", "a 2-D grid of numbers", _is_real),
                    dtype=float)


def _build_load(spec):
    kind = ("antisym_delta" if isinstance(spec, dict) and "antisym_delta" in spec
            else "density")
    spec = _object(spec, "load", _LOAD_KEYS[kind])
    if kind == "antisym_delta":
        return LoadSpec.antisym_pair(*_reals(spec["antisym_delta"], "antisym_delta"))
    masses = _list(spec.get("point_masses", []), "point_masses")
    return LoadSpec(density=_build_density(spec.get("density")),
                    point_masses=[_reals(q, "point_masses entry", 3) for q in masses])


def _build_obstacle(spec):
    kind = _kinded(spec, "obstacles", _OBSTACLE_KEYS, "obstacle", "constant_level")
    region = spec.get("region", "long_edges")
    if kind == "constant_level":
        return ObstacleSpec.constant_level(_real(spec["gamma"], "gamma"), region=region)
    return ObstacleSpec(lower=_real(spec["lower"], "lower"),
                        upper=_real(spec["upper"], "upper"), region=region)


def _build_forces(spec, params):
    kind = _kinded(spec, "force_class", _FORCE_CLASS_KEYS, "force class",
                   "antisym-delta")
    wspec = spec.get("window", kind == "antisym-delta")
    if isinstance(wspec, bool):
        window = ScanWindow.default(params) if wspec else None
    elif isinstance(wspec, dict):
        wspec = _object(wspec, "window", {"z0", "w0"})
        window = ScanWindow(z0=_real(wspec["z0"], "z0"), w0=_real(wspec["w0"], "w0"))
        window.validate(params)
    else:
        raise TypeError(f"window must be true, false or an object: {wspec!r}")
    cells = _list(spec.get("cells", [3, 2]), "cells")
    return ForceClass(kind=kind, window=window,
                      nxi=_integer(spec.get("nxi", 33), "nxi"),
                      neta=_integer(spec.get("neta", 9), "neta"),
                      cells=tuple(_integer(c, "cells entry") for c in cells))


def _densities(params):
    """(alpha, beta) of a two-material energy, 0 < alpha < 1 < beta."""
    alpha, beta = params.get("alpha"), params.get("beta")
    if not (_is_real(alpha) and _is_real(beta) and 0.0 < alpha < 1.0 < beta):
        raise ValueError(f"two-material energies require alpha < 1 < beta, "
                         f"got alpha={alpha}, beta={beta}")
    return alpha, beta


def _build_family(params):
    alpha, beta = _densities(params)
    family = params["family"]
    kind = _kinded(family, "family", _FAMILY_KEYS, "reinforcement family")
    if kind == "cross":
        return ReinforcementFamily(
            kind="cross", alpha=alpha, beta=beta,
            n_xstrips=_integer(family.get("n_xstrips", 1), "n_xstrips"),
            n_ystrips=_integer(family.get("n_ystrips", 0), "n_ystrips"),
            mu=_real(family["mu"], "mu"), eps=_real(family.get("eps", 0.01), "eps"),
            centers_per_axis=_integer(family.get("centers_per_axis", 9),
                                      "centers_per_axis"))
    return ReinforcementFamily(
        kind="tiles", alpha=alpha, beta=beta,
        eps=_real(family.get("eps", 0.01), "eps"),
        tile_size=_reals(family["tile_size"], "tile_size"),
        n_tiles=_integer(family.get("n_tiles", 1), "n_tiles"),
        centers_per_axis=_integer(family.get("centers_per_axis", 5),
                                  "centers_per_axis"))


def _plate_point(q, mesh, name):
    x, y = _reals(q, name)
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


def _json_default(obj, echo=False):
    """The JSON value of a numpy number or array or of a mask; any other
    object is a TypeError, or its string when ``echo``."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, ReinforcementMask):
        return {"elements": obj.elements.tolist(), "alpha": obj.alpha,
                "beta": obj.beta}
    if echo:
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _read_green_eval(p, ctx):
    state = ctx["state"]
    points = [_plate_point(q, ctx["mesh"], "point")
              for q in _list(p["points"], "points")]
    source = p.get("source")
    if source is not None:
        source = _plate_point(source, ctx["mesh"], "source")

    def run(outdir):
        values = [float(uniform_load_profile((x, y), state)) if source is None
                  else float(green_value(source, (x, y), state)) for (x, y) in points]
        write_csv(outdir / "green_eval.csv", "x,y,value",
                  [np.reshape(points, (-1, 2)), values])
        return {"values": values, "tail_bound": state.tail_bound}
    return run


def _read_solve(p, ctx):
    mesh = ctx["mesh"]
    load = _build_load(p["load"])
    load.validate(mesh)

    def run(outdir):
        op = PlateOperator.build(mesh, ctx["params"])
        fld = solve_linear(op, assemble_load(mesh, load))
        field_to_csv(fld, outdir / "field.csv")
        return {"sup_norm": fld.sup_norm()}
    return run


def _read_vi_solve(p, ctx):
    mesh = ctx["mesh"]
    load = _build_load(p["load"])
    obstacle = _build_obstacle(p["obstacles"])
    box = BoxConstraints.from_obstacle(mesh, obstacle)
    variant = p.get("variant")
    if variant not in (None, "base", "E1", "E2"):
        raise ValueError(f"vi-solve variant must be base, E1 or E2: {variant!r}")
    stiffness = weight = None  # where the mask acts: E1 weights the stiffness
    if variant in ("E1", "E2"):
        alpha, beta = _densities(p)
        elements = _grid(p["mask"], "mask", "a grid of booleans",
                         lambda v: isinstance(v, bool))
        mask = ReinforcementMask(np.asarray(elements, dtype=bool), alpha, beta)
        mask.check_shape(mesh)
        stiffness, weight = (mask, None) if variant == "E1" else (None, mask)
    elif {"alpha", "beta", "mask"} & set(p):
        raise ValueError("alpha, beta and mask apply to variants E1 and E2 only")
    load.validate(mesh, weight=weight)

    def run(outdir):
        op = PlateOperator.build(mesh, ctx["params"], mask=stiffness)
        rhs = assemble_load(mesh, load, weight=weight)
        # solved on the invariant fields of the mirrors of x and y that fix the data
        sol = solve_obstacle(op, rhs, box, ((True, False), (False, True)))
        result = solution_to_json(sol, op, rhs, box)  # before any file is written
        field_to_csv(sol.field, outdir / "field.csv")
        gap_profile(sol).to_csv(outdir / "gap.csv")
        return result
    return run


def _read_gap_scan(p, ctx):
    params = ctx["params"]
    obstacle = (_build_obstacle(p["obstacles"]) if "obstacles" in p
                else BoxConstraints.unbounded(ctx["mesh"]))
    forces = _build_forces(p.get("force_class", {}), params)

    def run(outdir):
        op = PlateOperator.build(ctx["mesh"], params)
        scan = worst_gap_force(op, obstacle, forces)
        scan.argopt_profile.to_csv(outdir / "gap.csv")
        return scan.to_report()
    return run


def _read_optimize_reinforcement(p, ctx):
    mesh, params = ctx["mesh"], ctx["params"]
    # raises when no layout meets the area balance
    masks = _build_family(p).candidates(mesh)
    forces = _build_forces(p.get("force_class", {"kind": "bang-bang"}), params)
    obstacle = (_build_obstacle(p["obstacles"]) if "obstacles" in p
                else BoxConstraints.unbounded(mesh))
    variant = p.get("variant", "E2")
    if variant not in ("E1", "E2"):
        raise ValueError(f"reinforcement variant must be E1 or E2: {variant!r}")
    if variant == "E2" and forces.kind != "bang-bang":
        raise ValueError("density-weighted scans need an integrable force class")

    def run(outdir):
        scan = best_reinforcement(masks, mesh, params, forces, obstacle, variant)
        return {**scan.to_report(),
                "argopt_mask": _json_default(masks[scan.argopt_index])}
    return run


def _read_optimize_obstacle(p, ctx):
    levels = [_real(g, "levels entry") for g in _list(p["levels"], "levels")]
    region = p.get("region", "long_edges")
    guides = [ObstacleSpec.constant_level(g, region=region) for g in levels]
    if not guides:
        raise ValueError("obstacle family has no candidates")
    forces = _build_forces(p.get("force_class", {}), ctx["params"])

    def run(outdir):
        op = PlateOperator.build(ctx["mesh"], ctx["params"])
        return best_obstacle(guides, op, forces).to_report()
    return run


def _read_regime(p, ctx):
    params = ctx["params"]
    gamma = p.get("gamma")
    if not _is_real(gamma) or gamma <= 0.0:
        raise ValueError(f"regime requires a positive gamma: {gamma}")
    scan = p.get("scan", True)
    if not isinstance(scan, bool):
        raise TypeError(f"scan must be true or false: {scan!r}")
    if not scan:
        _object(p, "params", _PARAMS_KEYS["regime"] - {"force_class"})
    forces = _build_forces(p.get("force_class", {}), params) if scan else None

    def run(outdir):
        report = classify_regime(gamma, params, m_max=ctx["state"].m_max * 100)
        if scan:
            obstacle = ObstacleSpec.constant_level(gamma, region="long_edges")
            op = PlateOperator.build(ctx["mesh"], params)
            result = worst_gap_force(op, obstacle, forces)
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
    """Execute one configured problem; returns (exit_code, summary dict).
    ``output_dir`` is made before anything is solved and gets the summary at
    every exit code; one that cannot be made, or hold the summary or a data
    file, is an exit-2 diagnostic."""
    diags, solve = _parse(config)
    summary = {"problem": config.get("problem"), "config": config}
    out = config.get("output_dir") or "out"
    outdir = Path(out) if isinstance(out, str) else None  # else diagnosed
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # a NUL byte is a ValueError
            diags, outdir = diags + [f"output_dir {out!r} cannot be made: {exc}"], None
    code = 2
    if diags:
        # non-finite numbers and values JSON cannot encode echo as strings,
        # and keys it cannot encode are left out: the summary is strict JSON
        echo = json.dumps(summary, skipkeys=True,
                          default=lambda obj: _json_default(obj, echo=True))
        summary = json.loads(echo, parse_constant=str)
        summary["diagnostics"] = diags
    else:
        try:
            summary.update(solve(outdir))
            code = 0
        except ValueError as exc:
            summary["diagnostics"] = [str(exc)]
        except OSError as exc:  # a data file the output_dir cannot hold
            name = Path(exc.filename).name if exc.filename else "its data files"
            summary["diagnostics"] = [f"output_dir {out!r} cannot hold {name}: {exc}"]
        except MemoryError as exc:
            summary["diagnostics"] = [_out_of_memory(config, exc)]
        except IterationLimitError as exc:
            code = 3
            summary.update(error=str(exc), residual=exc.residual,
                           iterations=exc.iterations, contacts=exc.contacts)
        except SolverError as exc:
            code = 3
            summary["error"] = str(exc)
    if outdir is not None:
        try:
            _write_json(outdir / "summary.json", summary)
        except OSError as exc:  # the diagnostic still reaches the caller
            code = 2
            summary.setdefault("diagnostics", []).append(
                f"output_dir {out!r} cannot hold summary.json: {exc}")
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
