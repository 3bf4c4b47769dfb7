"""Correctness gate: decides whether one CLI op succeeded.

An op fails on a nonzero exit code, on a ``summary.json`` that is not strict
JSON (NaN or Infinity), or on a failed problem-specific check.  ``check``
returns ``None`` for a passing op and a one-line reason otherwise.
"""

import json
from pathlib import Path

KKT_TOL = 1e-9
REL_TOL = 1e-9


class GateFailure(Exception):
    pass


def _reject_constant(name):
    raise GateFailure(f"summary.json is not strict JSON: contains {name}")


def strict_loads(text):
    """Parse JSON, refusing the NaN/Infinity extensions Python accepts."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GateFailure(f"summary.json does not parse: {exc}") from exc


def point_key(*points):
    """Reference-table key of one or more (x, y) points."""
    return json.dumps([[float(c) for c in p] for p in points])


def _require(cond, message):
    if not cond:
        raise GateFailure(message)


def _close(value, ref, rtol, what):
    _require(abs(value - ref) <= rtol * abs(ref),
             f"{what} {value!r} differs from reference {ref!r} beyond rel {rtol}")


def check(op, code, outdir, reference):
    """None when the op passed, else why it failed."""
    try:
        _check(op, code, Path(outdir), reference)
    except GateFailure as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def _check(op, code, outdir, reference):
    path = outdir / "summary.json"
    _require(path.exists(), "no summary.json written")
    summary = strict_loads(path.read_text(encoding="utf-8"))
    _require(code == 0,
             f"exit code {code}: {summary.get('error', summary.get('diagnostics'))}")
    problem = op.config["problem"]
    _require(summary.get("problem") == problem,
             f"summary is for {summary.get('problem')!r}, not {problem!r}")
    result = summary.get("result")
    _require(isinstance(result, dict), "summary has no result object")
    _CHECKS[problem](op, result, outdir, reference)


def _check_vi_solve(op, result, outdir, reference):
    if not op.expect:
        return
    kkt = result["kkt"]
    _require(kkt["stationarity"] <= KKT_TOL,
             f"KKT stationarity {kkt['stationarity']!r} above {KKT_TOL}")
    _require(kkt["feasibility"] == 0.0, f"reported infeasibility {kkt['feasibility']!r}")
    _require(kkt["complementarity"] <= KKT_TOL,
             f"complementarity {kkt['complementarity']!r} above {KKT_TOL}")
    lower, upper = op.expect["lower"], op.expect["upper"]
    values = _field_values(outdir / "field.csv")
    outside = [n for n, u in enumerate(values) if not lower <= u <= upper]
    _require(not outside, f"{len(outside)} nodes leave the box, first node {outside[:1]}")
    contacts = result["contact_upper"]
    _require(contacts, "obstacle below the free deflection but no upper contact")
    off = [n for n in contacts if values[n] != upper]
    _require(not off, f"{len(off)} upper-contact nodes are not exactly on the obstacle")
    _require(not result["contact_lower"], "unexpected lower contact")


def _field_values(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        col = header.index("u")
        return [float(line.split(",")[col]) for line in fh]


def _check_regime(op, result, outdir, reference):
    if not op.expect:
        return
    gamma = op.expect["gamma"]
    _require(result["case"] == op.expect["case"],
             f"regime case {result['case']!r}, expected {op.expect['case']!r}")
    _require(result["gamma"] == gamma,
             f"gamma {result['gamma']!r} is not the input {gamma!r}")
    if "reference" in op.expect:
        ref = reference["threshold"]
        _require(abs(result["threshold"] - ref["value"]) <= result["threshold_tail"],
                 f"threshold {result['threshold']!r} off reference {ref['value']!r} "
                 f"by more than its tail {result['threshold_tail']!r}")
    if "scanned_gap" not in result:
        return
    gap, ceiling = result["scanned_gap"], 2.0 * gamma
    if result["case"] == "(ii)":
        _close(gap, ceiling, REL_TOL, "case (ii) scanned gap")
    else:
        _require(gap < ceiling,
                 f"case (i) scanned gap {gap!r} reaches 2*gamma {ceiling!r}")


def _check_gap_scan(op, result, outdir, reference):
    ceiling = 2.0 * op.expect["gamma"]
    value = result["value"]
    _require(0.0 < value <= ceiling * (1.0 + REL_TOL),
             f"scanned gap {value!r} outside (0, 2*gamma={ceiling!r}]")


def _check_reinforcement(op, result, outdir, reference):
    if not op.expect:
        return
    ref = reference["reinforce"][op.expect["reference"]]
    _close(result["value"], ref["value"], REL_TOL, "best worst-amplitude")
    index = result["argopt"]["index"]
    _require(index == ref["argopt_index"],
             f"argmax mask {index} is not the reference {ref['argopt_index']}")
    params = op.config["params"]
    mask = result["argopt_mask"]
    nx, ny = op.config["mesh"]["nx"], op.config["mesh"]["ny"]
    alpha, beta = params["alpha"], params["beta"]
    n_elements = sum(map(sum, mask["elements"]))
    target = nx * ny * (1.0 - alpha) / (beta - alpha)
    # one vertical strip snaps by whole element columns: half a column of slack
    _require(abs(n_elements - target) <= 0.5 * ny,
             f"argmax mask has {n_elements} elements, area balance needs {target:.3f}")
    if params["variant"] == "E2":
        bound = ref["weighted_bounds"][index]
        _require(result["value"] <= bound,
                 f"E2 value {result['value']!r} above the placement bound {bound!r}")


def _check_green_eval(op, result, outdir, reference):
    if not op.expect:
        return
    values, tail = result["values"], result["tail_bound"]
    points = op.config["params"]["points"]
    _require(len(values) == len(points), "one value per point expected")
    _require(all(v > 0.0 for v in values), "non-positive deflection value")
    table = reference[op.expect["reference"]]
    _require(op.config["series"]["m_max"] == table["m_max"],
             "reference was computed at another m_max")
    source = op.expect.get("source")
    for p, v in zip(points, values):
        key = point_key(source, p) if source else point_key(p)
        ref = table["values"][key]
        _require(abs(v - ref) <= tail,
                 f"value {v!r} at {p} off reference {ref!r} beyond the tail {tail!r}")
    if source:
        # the last point is the other op's source: G(s, o) against G(o, s)
        swapped = table["values"][point_key(points[-1], source)]
        _require(abs(values[-1] - swapped) <= 2.0 * tail,
                 f"reciprocity broken: {values[-1]!r} vs {swapped!r}")


_CHECKS = {
    "vi-solve": _check_vi_solve,
    "regime": _check_regime,
    "gap-scan": _check_gap_scan,
    "optimize-reinforcement": _check_reinforcement,
    "green-eval": _check_green_eval,
}
