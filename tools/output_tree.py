"""Write the output tree of a fixed set of configs, for byte-for-byte comparison.

Usage: python tools/output_tree.py SRC_ROOT OUT_DIR

Imports ``hingedplate`` from ``SRC_ROOT/src`` and the benchmark configs from
``SRC_ROOT/perfbench/workloads.py``, then runs through ``cli.run``:

* every op of the workloads ``guide-scan``, ``contact-full``, ``series-eval``,
  ``reinforce-density`` and ``contact-limit`` at seed 20251106;
* one ``solve``, one ``optimize-obstacle`` and one ``signed-delta``
  ``gap-scan`` op, so that every problem kind is covered;
* a 16x4 ``vi-solve`` under each reinforced energy (``E1`` and ``E2``, with a
  mask) and a ``gap-scan`` under an explicit ``bounds`` obstacle, so that
  every obstacle and energy reader is covered;
* a 16x4 E2 ``optimize-reinforcement`` over a ``tiles`` family (one tile of
  pi/2 x l, 3 centres per axis: 6 layouts), so that the tiles reader and its
  candidate builder are covered;
* four more 16x4 ``vi-solve`` ops, so that every branch of the choice of
  mirror group is covered, each group written as its generators in
  ``fem.MIRRORS``: an antisymmetric point pair (y with negation), an x-odd
  ``cells`` density (x with negation, y), ``E1`` with a mask symmetric in
  both axes (x, y), and a ``cells`` density invariant only under the
  composed mirror of both axes with negation, which generates no group, so
  the solve is not reduced;
* two 16x4 ``gap-scan`` ops whose mirror-image members have contacts: a
  ``signed-delta`` class under binding guides, and a ``bang-bang`` class
  under a full-plate ``bounds`` box with ``lower != -upper``, which no
  negation maps onto itself;
* one 16x4 ``gap-scan`` of a ``signed-delta`` class (9 x 5 sites) in the
  default window, under binding guides: the one windowed scan of a class
  other than ``antisym-delta``, 66 members, 46 of them with contacts;
* two 16x4 ops under degenerate pins, a ``bounds`` box with lower = upper = 0
  on the long edges, so that both kinds of image cover them: a uniform-load
  ``vi-solve`` reduced under x and y, and a ``signed-delta`` ``gap-scan``
  whose mirror images have contacts on both sides;
* one 16x4 ``vi-solve`` whose two point masses sit at x and pi - x on the
  midline, mirror images whose coordinates do not round to exact
  reflections: its assembled load decides the group (x, y), where an exact
  reflection of the masses' coordinates would drop x;
* one 16x4 ``vi-solve`` whose ``sin_x`` density carries a ``signs`` field,
  listed only for ``cells``: a config error, so the tree holds an exit-2
  ``summary.json`` with its diagnostic;
* one 16x4 ``gap-scan`` whose ``antisym-delta`` class has ``neta`` 1: its
  one eta row is the midline, so the class is empty, a second exit-2
  ``summary.json`` whose diagnostic the config check writes;
* one 128x32 ``vi-solve`` of the unit load under a full-plate upper
  obstacle at 0.15 z_max: 103 active-set iterations end with 247 contacts,
  so a large contact set on the refined mesh is covered;
* one 128x32 ``vi-solve`` of the unit load under a full-plate upper
  obstacle at 0.05 z_max: the active-set loop spends its whole iteration
  budget, and the iterate it stops at, whose KKT violation is below the
  tolerance, has a contact multiplier of the wrong sign, so it is not
  certified: the tree holds an exit-3 ``summary.json`` with the iteration
  count, contacts and residual the budget left;
* one 16x4 uniform-profile ``green-eval`` at the four corners and the two
  long-edge midpoints, so that the ordinate quadrature runs at |y| = l;
* one 16x4 ``green-eval`` of a point load at ``m_max`` 10000, at points on
  x = 0, on x = pi and on the long edges: at x = 0 every term is zero, and
  at x = pi, sin(m x) leaves tiny terms of alternating sign, so the exact
  block sum runs its zero, extraction and leftover paths;
* one 16x4 ``green-eval`` at ``m_max`` 2**26, the first value past the
  index limit: a third exit-2 ``summary.json`` with its diagnostic;
* one 8x2 ``vi-solve`` of a point mass of weight 1e307 under a full-plate
  box of +-1e308: its field overflows to NaN, which no certificate may
  pass, a second exit-3 ``summary.json``, with its error;
* one 8x2 ``vi-solve`` of the density 1e200 under guides: it certifies,
  but its energy overflows, a third exit-3 ``summary.json`` and no data
  file.

Each op writes to ``OUT_DIR/<workload>/<label>/``; ``OUT_DIR/exit_codes.txt``
lists the exit code of every op: 33 ops exit 0, three exit 2 and three
exit 3.  ``tools/exit_codes.txt`` holds that list as committed, and CI
diffs each new tree's list against it, so an op whose exit code changes
fails there even when two trees of the same sources agree.  Output
directories are relative to ``OUT_DIR``, so the embedded configs do not
depend on where the tree lives.
Two trees from identical sources must not differ (``diff -r``).
"""

import math
import os
import sys
from pathlib import Path

SEED = 20251106
WORKLOADS = ("guide-scan", "contact-full", "series-eval", "reinforce-density",
             "contact-limit")


def extra_ops(wl):
    """One op each for the problems, force classes, energies and obstacle
    kinds the workloads do not run."""
    reinforced = {"load": {"density": {"kind": "sin_x"}},
                  "obstacles": {"gamma": 0.3, "region": "full"},
                  "alpha": 0.5, "beta": 2.5,
                  "mask": [[i < 4 for i in range(16)] for _ in range(4)]}
    pinned = {"kind": "bounds", "lower": 0.0, "upper": 0.0, "region": "long_edges"}
    return [
        ("solve", wl.config("solve", {"load": {"density": 1.0}})),
        ("optimize-obstacle", wl.config("optimize-obstacle", {
            "levels": [0.5 * wl.M_THRESHOLD, 2.0 * wl.M_THRESHOLD],
            "force_class": {"nxi": 9, "neta": 5}})),
        ("gap-scan-signed-delta", wl.config("gap-scan", {
            "force_class": {"kind": "signed-delta", "nxi": 5, "neta": 3}})),
        ("vi-solve-E1", wl.config("vi-solve", {**reinforced, "variant": "E1"},
                                  mesh=(16, 4))),
        ("vi-solve-E2", wl.config("vi-solve", {**reinforced, "variant": "E2"},
                                  mesh=(16, 4))),
        ("optimize-reinforcement-tiles", wl.config("optimize-reinforcement", {
            "alpha": 0.5, "beta": 2.5, "variant": "E2",
            "family": {"kind": "tiles", "tile_size": [math.pi / 2, wl.HALF_WIDTH],
                       "n_tiles": 1, "centers_per_axis": 3}}, mesh=(16, 4))),
        ("gap-scan-bounds", wl.config("gap-scan", {
            "obstacles": {"kind": "bounds", "lower": -0.5 * wl.M_THRESHOLD,
                          "upper": 0.7 * wl.M_THRESHOLD},
            "force_class": {"nxi": 9, "neta": 5}})),
        ("vi-solve-antisym", wl.config("vi-solve", {
            "load": {"antisym_delta": [math.pi / 2, 0.075]},
            "obstacles": {"gamma": 0.5 * wl.M_THRESHOLD}}, mesh=(16, 4))),
        ("vi-solve-cells-x-odd", wl.config("vi-solve", {
            "load": {"density": {"kind": "cells", "signs": [[1, -1], [1, -1]]}},
            "obstacles": {"gamma": 0.01, "region": "full"}}, mesh=(16, 4))),
        ("vi-solve-cells-composed", wl.config("vi-solve", {
            "load": {"density": {"kind": "cells", "signs": [[1, 2], [-2, -1]]}},
            "obstacles": {"gamma": 0.01, "region": "full"}}, mesh=(16, 4))),
        ("vi-solve-E1-xy", wl.config("vi-solve", {
            **reinforced, "variant": "E1",
            "mask": [[i < 4 or i >= 12 for i in range(16)] for _ in range(4)]},
            mesh=(16, 4))),
        ("gap-scan-signed-delta-guides", wl.config("gap-scan", {
            "obstacles": {"gamma": 0.5 * wl.M_THRESHOLD},
            "force_class": {"kind": "signed-delta", "nxi": 9, "neta": 5}},
            mesh=(16, 4))),
        ("gap-scan-signed-delta-window", wl.config("gap-scan", {
            "obstacles": {"gamma": 0.5 * wl.M_THRESHOLD},
            "force_class": {"kind": "signed-delta", "nxi": 9, "neta": 5,
                            "window": True}},
            mesh=(16, 4))),
        ("gap-scan-bang-bang-bounds", wl.config("gap-scan", {
            "obstacles": {"kind": "bounds", "lower": -0.6, "upper": 0.9,
                          "region": "full"},
            "force_class": {"kind": "bang-bang", "cells": [3, 2]}},
            mesh=(16, 4))),
        ("vi-solve-pinned-edges", wl.config("vi-solve", {
            "load": {"density": 1.0}, "obstacles": pinned}, mesh=(16, 4))),
        ("gap-scan-pinned-edges", wl.config("gap-scan", {
            "obstacles": pinned,
            "force_class": {"kind": "signed-delta", "nxi": 5, "neta": 3}},
            mesh=(16, 4))),
        ("vi-solve-masses-mirrored", wl.config("vi-solve", {
            "load": {"point_masses": [[0.4, 0.0, 1.0], [math.pi - 0.4, 0.0, 1.0]]},
            "obstacles": {"gamma": 0.001}}, mesh=(16, 4))),
        ("vi-solve-sin-x-signs", wl.config("vi-solve", {
            "load": {"density": {"kind": "sin_x", "signs": [[1, -1]]}},
            "obstacles": {"gamma": 0.01, "region": "full"}}, mesh=(16, 4))),
        ("gap-scan-one-eta-row", wl.config("gap-scan", {
            "force_class": {"nxi": 5, "neta": 1}}, mesh=(16, 4))),
        ("vi-solve-full-plate-128x32", wl.contact_config((128, 32), 0.15)[0]),
        ("vi-solve-full-plate-128x32-budget", wl.contact_config((128, 32), 0.05)[0]),
        ("green-eval-uniform-edges", wl.config("green-eval", {
            "points": [[x, y] for y in (-wl.HALF_WIDTH, wl.HALF_WIDTH)
                       for x in (0.0, math.pi / 2, math.pi)]}, mesh=(16, 4))),
        ("green-eval-edges-m-max-1e4", wl.config("green-eval", {
            "source": [1.1, 0.03],
            "points": [[0.0, 0.0], [0.0, wl.HALF_WIDTH], [math.pi, 0.0],
                       [math.pi, -wl.HALF_WIDTH], [1.3, -wl.HALF_WIDTH],
                       [1.3, wl.HALF_WIDTH]]}, mesh=(16, 4), m_max=10_000)),
        ("green-eval-m-max-ceiling", wl.config("green-eval", {
            "source": [1.1, 0.03], "points": [[1.3, 0.0]]},
            mesh=(16, 4), m_max=2 ** 26)),
        ("vi-solve-nan-field", wl.config("vi-solve", {
            "load": {"point_masses": [[1.0, 0.0, 1e307]]},
            "obstacles": {"kind": "bounds", "lower": -1e308, "upper": 1e308,
                          "region": "full"}}, mesh=(8, 2))),
        ("vi-solve-energy-overflow", wl.config("vi-solve", {
            "load": {"density": 1e200}, "obstacles": {"gamma": 0.01}},
            mesh=(8, 2))),
    ]


def main(argv):
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    out = Path(argv[2]).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from hingedplate import cli
    from perfbench import workloads as wl

    ops = []
    for name in WORKLOADS:
        workload = wl.WORKLOADS.get(name) or wl.EXTRA_WORKLOADS[name]
        ops += [(f"{name}/{op.label}", op.config)
                for op in wl.make_batch(workload, SEED)]
    ops += [(f"extra/{label}", cfg) for label, cfg in extra_ops(wl)]

    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    lines = []
    for path, cfg in ops:
        code, _ = cli.run({**cfg, "output_dir": path})
        lines.append(f"{path} exit {code}")
        print(lines[-1], flush=True)
    Path("exit_codes.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
