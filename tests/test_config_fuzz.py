"""Seeded config fuzz: mutated configs exit 0, 2 or 3 and leave strict JSON.

Each case takes a valid 8x2 config of one problem and replaces, deletes or
adds one to three fields anywhere in it.  Whatever the result, ``cli.run``
must return (no uncaught exception), exit 0, 2 or 3, write a
``summary.json`` that is strict JSON, and exit 2 only for a config that
``validate`` rejects.  The draw is deterministic: a fixed seed and case
count, so a failure names its case.
"""

import copy
import json
import random

import pytest

from hingedplate.cli import default_config, run, validate

SEED = 20251106
CASES = 300

#: valid params per problem, small enough that each run takes milliseconds
BASES = {
    "green-eval": {"points": [[1.0, 0.0], [2.0, 0.05]], "source": [1.5, 0.02]},
    "solve": {"load": {"density": 1.0, "point_masses": [[1.2, 0.03, 0.5]]}},
    "vi-solve": {"load": {"density": {"kind": "cells", "signs": [[1.0, -1.0]]}},
                 "obstacles": {"kind": "bounds", "lower": -0.001, "upper": 0.001,
                               "region": "full"},
                 "variant": "E1", "alpha": 0.5, "beta": 2.0,
                 "mask": [[True] * 4 + [False] * 4] * 2},
    "gap-scan": {"obstacles": {"gamma": 0.001},
                 "force_class": {"kind": "signed-delta", "nxi": 3, "neta": 3}},
    "optimize-reinforcement": {
        "alpha": 0.5, "beta": 2.0, "variant": "E2",
        "family": {"kind": "cross", "mu": 0.1, "n_xstrips": 1, "n_ystrips": 1,
                   "centers_per_axis": 2},
        "force_class": {"kind": "bang-bang", "cells": [1, 1]}},
    "optimize-obstacle": {"levels": [0.001, 0.002],
                          "force_class": {"kind": "antisym-delta", "nxi": 3,
                                          "neta": 3}},
    "regime": {"gamma": 0.001,
               "force_class": {"kind": "antisym-delta", "nxi": 3, "neta": 3}},
}

#: replacement values: each JSON type, edge numbers and non-finite ones
VALUES = [0, 1, 2, 3, -1, 0.5, -0.5, 1e-300, 1e300, 3.0, True, False, None,
          "x", "full", [], {}, [1.0, 0.0], [[1.0]], {"kind": "x"},
          float("nan"), float("inf")]
NEW_KEYS = ["kind", "region", "gamma", "window", "signs", "extra"]


def _base(problem):
    cfg = default_config()
    cfg.update(material={"sigma": 0.2, "half_width": 0.1}, mesh={"nx": 8, "ny": 2},
               series={"m_max": 50}, problem=problem,
               params=copy.deepcopy(BASES[problem]))
    return cfg


def _containers(node, path=()):
    """Every (path, dict or list) inside ``node``, ``node`` first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _containers(value, path + (key,))


def _mutate(rng, cfg):
    # mostly inside the problem's params, where the readers' checks are
    params = cfg.get("params")
    where = params if rng.random() < 0.7 and isinstance(params, (dict, list)) else cfg
    _, node = rng.choice(list(_containers(where)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = rng.random()
    if isinstance(node, dict) and (action < 0.15 or not keys):
        node[rng.choice(NEW_KEYS)] = rng.choice(VALUES)
    elif action < 0.3 and keys:
        key = rng.choice(keys)
        if key != "output_dir":
            del node[key]
    elif keys:
        key = rng.choice(keys)
        if key != "output_dir":
            node[key] = copy.deepcopy(rng.choice(VALUES))


def _cases():
    rng = random.Random(SEED)
    problems = sorted(BASES)
    for k in range(CASES):
        cfg = _base(problems[k % len(problems)])
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, cfg)
        yield k, cfg


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("problem", sorted(BASES))
def test_bases_run(tmp_path, problem):
    """The unmutated configs are valid and solve."""
    cfg = dict(_base(problem), output_dir=str(tmp_path))
    assert validate(cfg) == []
    assert run(cfg)[0] == 0


def test_mutated_configs_exit_cleanly(tmp_path):
    codes = []
    for k, cfg in _cases():
        cfg["output_dir"] = str(tmp_path / f"case{k}")
        diags = validate(cfg)
        code, _ = run(cfg)
        assert code in (0, 2, 3), (k, cfg)
        if not diags:
            assert code != 2, (k, cfg)
        text = (tmp_path / f"case{k}" / "summary.json").read_text(encoding="utf-8")
        json.loads(text, parse_constant=_reject_constant)
        codes.append(code)
    # the draw reaches both the solvers and the config checks
    assert codes.count(0) >= 10 and codes.count(2) >= 10
