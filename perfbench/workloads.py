"""Seeded workload generator: the configs each benchmark op hands to ``cli.run``.

A workload is a fixed list of op kinds (a *batch*); the seed only draws the
inputs of each op.  Draws stay inside ranges where the work an op does is
the same for every seed (same scan size, same active-set iteration count,
same series length), so seed-to-seed spread measures the machine, not the
inputs.  Inputs whose outputs are checked against stored references are drawn
from finite pools covered by ``reference.json``.
"""

import random
from dataclasses import dataclass, field

SIGMA = 0.2
HALF_WIDTH = 0.1

#: gap_threshold_M(sigma=0.2, l=0.1) at m_max=20000; guide levels are drawn
#: as multiples of it, far enough from 1 that the regime is never in doubt.
M_THRESHOLD = 0.02387994929521788

#: sup-norm of the unconstrained deflection under the unit uniform load.
Z_MAX = {(64, 16): 1.3217633217236697, (128, 32): 1.321763322753116}

#: Two-material densities with 32*(1-alpha)/(beta-alpha) = 8, so the area
#: balance holds for strips of half-width pi/8 on the 32x8 mesh and every
#: pair gives the same five feasible cross masks.
REINFORCE_DENSITIES = ((0.5, 2.5), (0.6, 2.2), (0.4, 2.8), (0.7, 1.9), (0.2, 3.4))
REINFORCE_MU = 0.39269908169872414  # pi / 8

SOURCE_POOL = ((0.6, 0.05), (1.1, -0.04), (1.9, 0.06), (2.5, -0.02))
POINT_POOL = tuple((x, y) for x in (0.4, 0.85, 1.3, 1.75, 2.2, 2.65)
                   for y in (-0.075, -0.025, 0.025, 0.075))
GREEN_M_MAX = 10_000
GREEN_POINTS = 7          # pool points per point-source op, plus the other source
UNIFORM_M_MAX = 1_000
UNIFORM_POINTS = 4
THRESHOLD_M_MAX = 10_000  # the CLI sums the threshold series to 100x this

#: The documented non-converged case: 64x16, unit uniform load, full-plate
#: upper obstacle at 0.05 z_max.  Fixed, never jittered.
CONTACT_LIMIT_FRACTION = 0.05


@dataclass(frozen=True)
class Op:
    """One CLI problem: the config handed to ``cli.run`` and what the gate expects."""

    label: str
    config: dict
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named batch of ops; ``BENCHMARK.json`` and README.md say why it exists."""

    name: str
    batch: object      # rng -> list[Op]
    warmup: object     # () -> list[Op], run untimed before timing starts


def config(problem, params, mesh=(64, 16), m_max=200):
    return {
        "schema_version": 1,
        "material": {"sigma": SIGMA, "half_width": HALF_WIDTH},
        "mesh": {"nx": mesh[0], "ny": mesh[1]},
        "series": {"m_max": m_max},
        "problem": problem,
        "params": params,
    }


# ---------------------------------------------------------------------------
# guide-scan
# ---------------------------------------------------------------------------

def _guide_batch(rng):
    low = rng.uniform(0.55, 0.65) * M_THRESHOLD
    high = rng.uniform(1.3, 1.5) * M_THRESHOLD
    scan_level = rng.uniform(0.55, 0.65) * M_THRESHOLD
    return [
        Op("regime-binding", config("regime", {"gamma": low}),
           {"case": "(ii)", "gamma": low}),
        Op("regime-free", config("regime", {"gamma": high}),
           {"case": "(i)", "gamma": high}),
        Op("gap-scan", config("gap-scan", {"obstacles": {"gamma": scan_level}}),
           {"gamma": scan_level}),
    ]


def _guide_warmup():
    level = 0.6 * M_THRESHOLD
    return [Op("warmup-regime",
               config("regime", {"gamma": level,
                                 "force_class": {"nxi": 5, "neta": 3}}))]


# ---------------------------------------------------------------------------
# reinforce-density
# ---------------------------------------------------------------------------

def reinforce_config(variant, densities, family=None, cells=(2, 2)):
    alpha, beta = densities
    return config("optimize-reinforcement", {
        "alpha": alpha, "beta": beta, "variant": variant,
        "family": family or {"kind": "cross", "mu": REINFORCE_MU,
                             "centers_per_axis": 5},
        "force_class": {"kind": "bang-bang", "cells": list(cells)},
    }, mesh=(32, 8))


def _reinforce_batch(rng):
    e2 = rng.randrange(len(REINFORCE_DENSITIES))
    e1 = rng.randrange(len(REINFORCE_DENSITIES))
    return [
        Op("E2", reinforce_config("E2", REINFORCE_DENSITIES[e2]),
           {"reference": f"E2/{e2}"}),
        Op("E1", reinforce_config("E1", REINFORCE_DENSITIES[e1]),
           {"reference": f"E1/{e1}"}),
    ]


def _reinforce_warmup():
    return [Op("warmup-reinforce",
               reinforce_config("E2", REINFORCE_DENSITIES[0],
                                family={"kind": "cross", "mu": REINFORCE_MU,
                                        "centers_per_axis": 3},
                                cells=(1, 1)))]


# ---------------------------------------------------------------------------
# contact-full
# ---------------------------------------------------------------------------

def contact_config(mesh, fraction):
    upper = fraction * Z_MAX[mesh]
    return config("vi-solve", {
        "load": {"density": 1.0},
        "obstacles": {"kind": "bounds", "lower": -1.0, "upper": upper,
                      "region": "full"},
    }, mesh=mesh), {"lower": -1.0, "upper": upper}


def _contact_op(label, mesh, fraction):
    cfg, bounds = contact_config(mesh, fraction)
    return Op(label, cfg, bounds)


def _contact_batch(rng):
    # each range sits on one plateau of the active-set iteration count
    # (21, 17 and 2 iterations respectively)
    return [
        _contact_op("vi-64x16-21it", (64, 16), rng.uniform(0.186, 0.194)),
        _contact_op("vi-64x16-17it", (64, 16), rng.uniform(0.205, 0.233)),
        _contact_op("vi-128x32", (128, 32), rng.uniform(0.29, 0.31)),
    ]


def _contact_warmup():
    # the only lazy cache, the element matrix per mesh, costs milliseconds,
    # so one warm-up mesh serves both
    return [Op("warmup-vi", contact_config((64, 16), 0.9)[0])]


def _contact_limit_batch(rng):
    return [_contact_op("vi-64x16-limit", (64, 16), CONTACT_LIMIT_FRACTION)]


# ---------------------------------------------------------------------------
# series-eval
# ---------------------------------------------------------------------------

def _green_op(label, source, other, points):
    pts = [list(p) for p in points] + [list(other)]
    return Op(label, config("green-eval", {"source": list(source), "points": pts},
                            m_max=GREEN_M_MAX),
              {"reference": "green", "source": list(source)})


def _series_batch(rng):
    s1, s2 = rng.sample(SOURCE_POOL, 2)
    uniform_points = [list(p) for p in rng.sample(POINT_POOL, UNIFORM_POINTS)]
    binding = rng.random() < 0.5
    gamma = rng.uniform(0.5, 0.7) if binding else rng.uniform(1.3, 1.5)
    gamma *= M_THRESHOLD
    return [
        _green_op("green-source-a", s1, s2, rng.sample(POINT_POOL, GREEN_POINTS)),
        _green_op("green-source-b", s2, s1, rng.sample(POINT_POOL, GREEN_POINTS)),
        Op("uniform-profile",
           config("green-eval", {"points": uniform_points}, m_max=UNIFORM_M_MAX),
           {"reference": "uniform"}),
        Op("threshold",
           config("regime", {"gamma": gamma, "scan": False}, m_max=THRESHOLD_M_MAX),
           {"case": "(ii)" if binding else "(i)", "gamma": gamma,
            "reference": "threshold"}),
    ]


def _series_warmup():
    s1, s2 = SOURCE_POOL[:2]
    return [
        Op("warmup-green", config("green-eval", {"source": list(s1),
                                                 "points": [list(s2)]}, m_max=50)),
        Op("warmup-threshold", config("regime", {"gamma": M_THRESHOLD,
                                                 "scan": False}, m_max=10)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("guide-scan", _guide_batch, _guide_warmup),
    Workload("contact-full", _contact_batch, _contact_warmup),
    Workload("series-eval", _series_batch, _series_warmup),
)}

#: Runnable by name but not part of the benchmark set.  ``contact-limit`` is
#: the documented non-converged obstacle solve, which fails today.
#: ``reinforce-density`` runs one ~20 s batch per run and its run-to-run
#: spread exceeded the 0.25 time bound on this host.
EXTRA_WORKLOADS = {w.name: w for w in (
    Workload("contact-limit", _contact_limit_batch, _contact_warmup),
    Workload("reinforce-density", _reinforce_batch, _reinforce_warmup),
)}


def make_batch(workload, seed):
    """The workload's ops with inputs drawn from ``seed``."""
    return workload.batch(random.Random(seed))
