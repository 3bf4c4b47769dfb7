#!/usr/bin/env python3
"""Run one benchmark workload of the hingedplate CLI and print its metrics.

    python3 perfbench/run.py --workload guide-scan --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op is one ``hingedplate.cli.run``
call on a generated config, issued when the previous one has finished.  The
workload's ops form a batch; another whole batch starts while at least half
a batch's time remains of ``--seconds``.  Every op passes through the
correctness gate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one batch
untraced, then traced batches, and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs go to ``.perfbench_out/`` in the
checkout.
"""

import os
import sys

# BLAS/OpenMP pools are pinned before numpy is first imported; one thread
# never exceeds the cores available.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, tracing  # noqa: E402
from perfbench.workloads import EXTRA_WORKLOADS, WORKLOADS, make_batch  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _import_cli():
    package = ROOT / "src" / "hingedplate"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {package}")
    from hingedplate import cli
    if Path(cli.__file__).resolve().parent != package:
        raise BenchError(f"imported hingedplate from {cli.__file__}, not {package}")
    return cli


def _run_op(cli_run, op, outdir):
    """(exit code, latency in s) of one op; its outputs land in ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "summary.json").unlink(missing_ok=True)
    cfg = dict(op.config, output_dir=str(outdir))
    t0 = time.perf_counter()
    code, _ = cli_run(cfg)
    return code, time.perf_counter() - t0


def setup(workload, seed):
    """Imports, input generation and warm-up ops: everything before timing.

    Warm-up ops carry no expectations: the gate only asks that they ran.
    """
    cli = _import_cli()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ops = make_batch(workload, seed)
    outroot = OUT_ROOT / workload.name
    for k, op in enumerate(workload.warmup()):
        code, _ = _run_op(cli.run, op, outroot / f"warmup{k}")
        reason = gate.check(op, code, outroot / f"warmup{k}", reference)
        if reason:
            raise BenchError(f"warm-up op {op.label} failed: {reason}")
    return cli, ops, reference


def probe_setup(workload, seed):
    """Seconds from starting a fresh process until it could time its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()  # "ready", or "" if the probe died
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("setup probe did not exit within 60 s") from None
    if proc.returncode != 0 or line != "ready":
        raise BenchError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def run_batches(cli_run, ops, reference, outroot, seconds, recorder=None):
    """Run whole batches while at least half a batch's time of ``seconds`` remains.

    Returns (latencies per batch, failures as (label, reason)).
    """
    batches, failures = [], []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        latencies = []
        for k, op in enumerate(ops):
            if recorder is not None:
                recorder.op = (len(batches), k)
            code, latency = _run_op(cli_run, op, outroot / f"op{k}")
            latencies.append(latency)
            reason = gate.check(op, code, outroot / f"op{k}", reference)
            if reason:
                failures.append((op.label, reason))
        batches.append(latencies)
        now = time.perf_counter()
        if now - start + 0.5 * (now - batch_start) > seconds:
            return batches, failures


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _write_trace(path, recorder):
    spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
              "op": s.op} for s in recorder.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "counts": dict(recorder.counts)}, fh)


def measure(workload, seed, seconds, trace):
    setup_samples = ([] if trace else
                     [probe_setup(workload, seed) for _ in range(SETUP_REPEATS)])
    cli, ops, reference = setup(workload, seed)
    outroot = OUT_ROOT / workload.name
    if not trace:
        batches, failures = run_batches(cli.run, ops, reference, outroot, seconds)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(sum(b) for b in batches),
            "op_p50_s": statistics.median(t for b in batches for t in b),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        extra = {"setup_samples_s": setup_samples}
    else:
        start = time.perf_counter()
        base, failures = run_batches(cli.run, ops, reference, outroot, 0.0)
        base_wall = sum(base[0])
        recorder = tracing.SpanRecorder()
        with tracing.instrumented(recorder):
            traced_run = recorder.wrap("cli.run", cli.run)
            batches, traced_failures = run_batches(
                traced_run, ops, reference, outroot,
                seconds - (time.perf_counter() - start), recorder=recorder)
        failures += traced_failures
        metrics = tracing.layer_metrics(recorder, len(batches))
        # a mean, like the per-batch layer totals it divides
        traced_wall = statistics.fmean(sum(b) for b in batches)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead"] = traced_wall / base_wall
        units = tracing.PER_LAYER_UNITS
        _write_trace(outroot / "trace.json", recorder)
        layer_self = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        extra = {"untraced_wall_s": base_wall,
                 "layer_share": {k: v / traced_wall for k, v in layer_self.items()}}
        batches = base + batches
    attempted = len(ops) * len(batches)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "ops": [op.label for op in ops],
        "batch_latencies_s": batches, "failures": failures, **extra,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(outroot / f"result-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, attempted, len(failures)


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, default=20251106)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # set up, print "ready", exit
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    workload = {**WORKLOADS, **EXTRA_WORKLOADS}[args.workload]
    try:
        if args.setup_probe:
            setup(workload, args.seed)
            print("ready", flush=True)
            return 0
        record, attempted, failed = measure(workload, args.seed, args.seconds,
                                            args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": record["environment"]}))
    print(f"{workload.name} seed={args.seed}: {attempted} ops "
          f"({len(record['ops'])} per batch), {failed} failed")
    for label, reason in record["failures"]:
        print(f"  FAILED {label}: {reason}")
    if "layer_share" in record:
        print("  layer self-time share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in record["layer_share"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
