#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: the stored outputs the gate compares to.

    python3 perfbench/make_reference.py

Runs the CLI once over every pool the seeded generator draws from (series
sources and points, reinforcement densities) and stores the values, plus the
certified placement bound of every cross mask for the E2 check.  Run it on
the commit whose outputs are to serve as the reference.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hingedplate import cli  # noqa: E402
from hingedplate.fem import Mesh  # noqa: E402
from hingedplate.optimize import ReinforcementFamily, placement_bound_report  # noqa: E402
from hingedplate.params import MaterialParams  # noqa: E402
from hingedplate.series import SeriesState  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.gate import point_key  # noqa: E402


def _result(cfg, outdir):
    code, summary = cli.run(dict(cfg, output_dir=outdir))
    if code != 0:
        raise SystemExit(f"reference run failed with exit code {code}: {summary}")
    return summary["result"]


def series_reference(outdir):
    green = {}
    for s in wl.SOURCE_POOL:
        points = list(wl.POINT_POOL) + [o for o in wl.SOURCE_POOL if o != s]
        cfg = wl.config("green-eval", {"source": list(s),
                                       "points": [list(p) for p in points]},
                        m_max=wl.GREEN_M_MAX)
        for p, v in zip(points, _result(cfg, outdir)["values"]):
            green[point_key(s, p)] = v
    cfg = wl.config("green-eval", {"points": [list(p) for p in wl.POINT_POOL]},
                    m_max=wl.UNIFORM_M_MAX)
    uniform = {point_key(p): v for p, v in
               zip(wl.POINT_POOL, _result(cfg, outdir)["values"])}
    cfg = wl.config("regime", {"gamma": wl.M_THRESHOLD, "scan": False},
                    m_max=wl.THRESHOLD_M_MAX)
    threshold = _result(cfg, outdir)
    return {
        "green": {"m_max": wl.GREEN_M_MAX, "values": green},
        "uniform": {"m_max": wl.UNIFORM_M_MAX, "values": uniform},
        "threshold": {"m_max": wl.THRESHOLD_M_MAX, "value": threshold["threshold"],
                      "tail": threshold["threshold_tail"]},
    }


def reinforce_reference(outdir):
    params = MaterialParams(wl.SIGMA, wl.HALF_WIDTH)
    cfg0 = wl.reinforce_config("E2", wl.REINFORCE_DENSITIES[0])
    mesh = Mesh(cfg0["mesh"]["nx"], cfg0["mesh"]["ny"], wl.HALF_WIDTH)
    state = SeriesState(params, m_max=cfg0["series"]["m_max"])
    out = {}
    for i, (alpha, beta) in enumerate(wl.REINFORCE_DENSITIES):
        family = ReinforcementFamily(kind="cross", alpha=alpha, beta=beta,
                                     mu=wl.REINFORCE_MU, centers_per_axis=5)
        bounds = []
        for mask in family.candidates(mesh):
            rep = placement_bound_report(mask, state, mesh)
            # measured <= bound + tail + 1e-5 * bound, as in the bound-chain test
            bound = rep["weighted_green_bound"]
            bounds.append(bound + rep["series_tail"] + 1e-5 * bound)
        for variant in ("E2", "E1"):
            res = _result(wl.reinforce_config(variant, (alpha, beta)), outdir)
            entry = {"value": res["value"], "argopt_index": res["argopt"]["index"],
                     "argopt_label": res["argopt"]["label"]}
            if variant == "E2":
                entry["weighted_bounds"] = bounds
            out[f"{variant}/{i}"] = entry
    return out


def main():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ref = series_reference(tmp)
        ref["reinforce"] = reinforce_reference(tmp)
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
