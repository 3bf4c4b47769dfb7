"""Span recorder and layer instrumentation for the traced benchmark run.

``instrumented(recorder)`` rebinds, for the duration of a ``with`` block, the
names through which the package's modules reach each other's public entry
points (``hingedplate.cli.worst_gap_force``, ``hingedplate.optimize.
solve_obstacle``, ``splu`` as reached through ``hingedplate.solver.spla`` and
so on), so every call across a layer boundary records a span.  The package
sources stay untouched.  The hottest callees (``series.phi_m`` and
``CompensatedSum.add``) are only counted, to keep the overhead low.

A span is (name, start, end, parent, op).  The layer of a span is the part
of its name before the first dot.  Self time is a span's duration minus the
part of it covered by its child spans.
"""

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("cli", "optimize", "fem", "solver", "series")

#: Per-layer metrics of the traced run, with their units.  Times and counts
#: are per batch of the workload's ops.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_s": "s",
    "cli.solve_obstacle.calls": "count",
    "optimize.self_s": "s",
    "optimize.members": "count",
    "optimize.member_s.p50": "s",
    "optimize.member_s.p95": "s",
    "optimize.worst_gap_force.s": "s",
    "optimize.worst_force_amplitude.calls": "count",
    "optimize.candidates.s": "s",
    "fem.self_s": "s",
    "fem.assemble_load.calls": "count",
    "fem.assemble_load.s": "s",
    "fem.assemble_bilinear.calls": "count",
    "fem.assemble_bilinear.s": "s",
    "fem.matvec_extended.calls": "count",
    "fem.matvec_extended.s": "s",
    "solver.self_s": "s",
    "solver.build.calls": "count",
    "solver.build.s": "s",
    "solver.factorizations": "count",
    "solver.factorize.s": "s",
    "solver.factor_nnz": "count",
    "solver.solves": "count",
    "solver.factorizations_per_solve": "ratio",
    "solver.solve_obstacle.calls": "count",
    "solver.solve_obstacle.self_s": "s",
    "solver.iterations": "count",
    "solver.iterations.max": "count",
    "solver.contacts": "count",
    "solver.solve_free.calls": "count",
    "solver.solve_pinned.calls": "count",
    "solver.solve_free.s": "s",
    "solver.failures": "count",
    "series.self_s": "s",
    "series.green_value.calls": "count",
    "series.green_value.s": "s",
    "series.uniform_load_profile.s": "s",
    "series.gap_threshold_M.s": "s",
    "series.terms": "count",
    "series.phi_m.calls": "count",
    "summation.adds": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object


class SpanRecorder:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def wrap(self, name, fn, after=None, count_as=None):
        """``fn`` recording a span ``name`` per call.

        ``after(counts, args, kwargs, result)`` adds counters from a
        returned result; ``count_as`` names an extra call counter.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, rec.op)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            if count_as:
                rec.counts[count_as] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.counts[name + ".raised"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if after is not None:
                after(rec.counts, args, kwargs, result)
            return result

        return traced

    def counted(self, name, fn):
        """``fn`` counting its calls under ``name``, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                   for c in children[i]]
        out.append((s.end - s.start) - _union_length([iv for iv in covered
                                                       if iv[1] > iv[0]]))
    return out


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def _after_factorize(counts, args, kwargs, lu):
    counts["solver.factor_nnz"] += lu.L.nnz + lu.U.nnz


def _after_obstacle(counts, args, kwargs, sol):
    counts["solver.iterations"] += sol.iterations
    counts["solver.iterations.max"] = max(counts["solver.iterations.max"],
                                          sol.iterations)
    counts["solver.contacts"] += sol.lower_contact.size + sol.upper_contact.size


def _after_green(counts, args, kwargs, value):
    counts["series.terms"] += args[2].m_max


def _after_uniform(counts, args, kwargs, value):
    counts["series.terms"] += (args[1].m_max + 1) // 2


def _after_threshold(counts, args, kwargs, value):
    counts["series.terms"] += (kwargs.get("m_max", 200_000) + 1) // 2


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrumented(recorder):
    """Rebind the package's cross-layer names to traced wrappers, then restore."""
    from hingedplate import cli, fem, optimize, series, solver, summation

    saved = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(owner, attr, name, **kw):
        rebind(owner, attr, recorder.wrap(name, getattr(owner, attr), **kw))

    try:
        # cli: output writers
        span(cli, "_write_json", "cli.output")
        span(cli, "field_to_csv", "cli.output")
        span(optimize.GapProfile, "to_csv", "cli.output")
        # optimize
        for owner in (cli, optimize):
            span(owner, "worst_gap_force", "optimize.worst_gap_force")
            span(owner, "gap_profile", "optimize.gap_profile")
        span(cli, "best_reinforcement", "optimize.best_reinforcement")
        span(cli, "classify_regime", "optimize.classify_regime")
        span(optimize, "worst_force_amplitude", "optimize.worst_force_amplitude")
        span(optimize, "_member_solve", "optimize.member")
        span(optimize.ReinforcementFamily, "candidates", "optimize.candidates")
        span(optimize.ForceClass, "members", "optimize.candidates")
        # fem
        for owner in (cli, optimize, solver):
            span(owner, "assemble_load", "fem.assemble_load")
        span(solver, "assemble_bilinear", "fem.assemble_bilinear")
        span(fem.AssembledForm, "matvec_extended", "fem.matvec_extended")
        # solver
        build = solver.PlateOperator.__dict__["build"]
        rebind(solver.PlateOperator, "build",
               classmethod(recorder.wrap("solver.build", build.__func__)))
        rebind(solver, "spla", _ModuleProxy(
            solver.spla, splu=recorder.wrap("solver.factorize", solver.spla.splu,
                                            after=_after_factorize)))
        span(cli, "solve_obstacle", "solver.solve_obstacle",
             after=_after_obstacle, count_as="cli.solve_obstacle.calls")
        span(optimize, "solve_obstacle", "solver.solve_obstacle",
             after=_after_obstacle)
        span(solver.PlateOperator, "solve_free", "solver.solve_free")
        span(solver.PlateOperator, "solve_pinned", "solver.solve_pinned")
        # series
        span(cli, "green_value", "series.green_value", after=_after_green)
        span(cli, "uniform_load_profile", "series.uniform_load_profile",
             after=_after_uniform)
        span(optimize, "gap_threshold_M", "series.gap_threshold_M",
             after=_after_threshold)
        for owner in (series, optimize):
            rebind(owner, "phi_m", recorder.counted("series.phi_m.calls", owner.phi_m))
        rebind(summation.CompensatedSum, "add", recorder.counted(
            "summation.adds", summation.CompensatedSum.__dict__["add"]))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# roll-up
# ---------------------------------------------------------------------------

def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder, n_batches):
    """The per-layer metric table, per batch, from a recorder's spans and counts."""
    spans, counts = recorder.spans, recorder.counts
    selfs = self_times(spans)
    total = Counter()
    calls = Counter()
    layer_self = Counter()
    obstacle_self = 0.0
    members = []
    for s, own in zip(spans, selfs):
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_self[s.name.split(".", 1)[0]] += own
        if s.name == "solver.solve_obstacle":
            obstacle_self += own
        if s.name == "optimize.member":
            members.append(s.end - s.start)
    solves = calls["solver.solve_obstacle"]
    per_batch = {
        "cli.self_s": layer_self["cli"],
        "cli.output_s": total["cli.output"],
        "cli.solve_obstacle.calls": counts["cli.solve_obstacle.calls"],
        "optimize.self_s": layer_self["optimize"],
        "optimize.members": calls["optimize.member"],
        "optimize.worst_gap_force.s": total["optimize.worst_gap_force"],
        "optimize.worst_force_amplitude.calls": calls["optimize.worst_force_amplitude"],
        "optimize.candidates.s": total["optimize.candidates"],
        "fem.self_s": layer_self["fem"],
        "fem.assemble_load.calls": calls["fem.assemble_load"],
        "fem.assemble_load.s": total["fem.assemble_load"],
        "fem.assemble_bilinear.calls": calls["fem.assemble_bilinear"],
        "fem.assemble_bilinear.s": total["fem.assemble_bilinear"],
        "fem.matvec_extended.calls": calls["fem.matvec_extended"],
        "fem.matvec_extended.s": total["fem.matvec_extended"],
        "solver.self_s": layer_self["solver"],
        "solver.build.calls": calls["solver.build"],
        "solver.build.s": total["solver.build"],
        "solver.factorizations": calls["solver.factorize"],
        "solver.factorize.s": total["solver.factorize"],
        "solver.factor_nnz": counts["solver.factor_nnz"],
        "solver.solves": solves,
        "solver.solve_obstacle.calls": calls["solver.solve_obstacle"],
        "solver.solve_obstacle.self_s": obstacle_self,
        "solver.iterations": counts["solver.iterations"],
        "solver.contacts": counts["solver.contacts"],
        "solver.solve_free.calls": calls["solver.solve_free"],
        "solver.solve_pinned.calls": calls["solver.solve_pinned"],
        "solver.solve_free.s": total["solver.solve_free"],
        "solver.failures": counts["solver.solve_obstacle.raised"],
        "series.self_s": layer_self["series"],
        "series.green_value.calls": calls["series.green_value"],
        "series.green_value.s": total["series.green_value"],
        "series.uniform_load_profile.s": total["series.uniform_load_profile"],
        "series.gap_threshold_M.s": total["series.gap_threshold_M"],
        "series.terms": counts["series.terms"],
        "series.phi_m.calls": counts["series.phi_m.calls"],
        "summation.adds": counts["summation.adds"],
    }
    out = {k: v / n_batches for k, v in per_batch.items()}
    out["optimize.member_s.p50"] = _quantile(members, 50)
    out["optimize.member_s.p95"] = _quantile(members, 95)
    out["solver.iterations.max"] = counts["solver.iterations.max"]
    out["solver.factorizations_per_solve"] = (
        calls["solver.factorize"] / solves if solves else 0.0)
    return out
