"""Fixed-work benchmark for probchan.

Run from the root of a probchan checkout:

    python3 perfbench/run.py --workload evolve-long --seed 1 --seconds 30 --trace 0

Each run builds its inputs from the seed, makes one untimed warm-up pass
over them, then a fixed number of timed passes, one operation in flight.
Every operation's output, warm-up included, is judged against the
independent reference in reference.py. With --trace 0 the end-to-end
metrics are reported; with --trace 1 one untraced and one traced pass
give the per-layer metrics. Every metric is printed by name with its
unit, then notes on the run, the environment and the failure breakdown;
the last line is the JSON result.

The work never depends on the clock: --seconds is recorded but the sizes
in workloads.SIZES fix how much is done.
"""

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread, pinned before numpy is first imported so the pins take effect.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in BLAS_PINS:
    os.environ[_name] = "1"

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 9
# Import time moves with the host probe less than in proportion: over 38
# runs on the reference host its elasticity was 0.6-0.7, because part of it
# is file-system work the probe does not share. Full scaling over-corrected.
SETUP_ELASTICITY = 0.7
WORKDIR = ".perfbench-work"


class NotACheckout(Exception):
    """The working directory is not the root of a probchan source checkout."""


def checkout_root(path):
    """Return path if it holds probchan's sources and project file, else raise NotACheckout."""
    needed = [os.path.join(path, "src", "probchan", name) for name in ("__init__.py", "cli.py")]
    project = os.path.join(path, "pyproject.toml")
    if not all(os.path.isfile(p) for p in needed) or not os.path.isfile(project):
        raise NotACheckout(f"{path} is not the root of a probchan checkout (no src/probchan or pyproject.toml)")
    with open(project, encoding="utf-8") as fh:
        if 'name = "probchan"' not in fh.read():
            raise NotACheckout(f"{project} does not describe probchan")
    return path


def import_probchan(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import probchan
    import probchan.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(probchan.__file__))) != src:
        raise NotACheckout(f"probchan was imported from {probchan.__file__}, not from {src}")
    return probchan


def git_sha(root):
    """Commit of the checkout read from .git, or 'unknown' when it is not a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, args):
    import numpy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pins": {name: os.environ.get(name) for name in BLAS_PINS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_time(root):
    """Wall time of one fresh interpreter importing probchan.cli, as every CLI call pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import probchan.cli"], cwd=root, env=env, check=True)
    return time.perf_counter() - start


def failure(op, outcome):
    """Why an operation's outcome is wrong, or None; an exception that escaped probchan is a failure."""
    if isinstance(outcome, Exception):
        return f"escaped {type(outcome).__name__}"
    return op.judge(outcome)


class Ledger:
    """Counts judged operations and sorts failures into known defects and the rest."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}
        self.unknown = []

    def judge(self, op, outcome):
        self.attempted += 1
        reason = failure(op, outcome)
        if reason is None:
            return
        known = op.defect is not None and reason == op.defect[1]
        label = f"{op.defect[0]}: {reason}" if known else f"{op.kind}: {reason}"
        self.failures[label] = self.failures.get(label, 0) + 1
        if not known:
            self.unknown.append(label)

    @property
    def failed(self):
        return sum(self.failures.values())


def timed_pass(ops, ledger, probe, probe_every, tracer=None):
    """Run every op once, timing only its call; returns (raw ns, scaled seconds) per op, and the probes.

    The host probe runs before the first op, after every probe_every ops
    and after the last; each latency is scaled by PROBE_REF over the mean
    of the probes on either side of it.
    """
    clock = time.perf_counter_ns
    raw, probes = [], [probe()]
    for i, op in enumerate(ops):
        if i and i % probe_every == 0:
            probes.append(probe())
        op.prepare()
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            outcome = op.call()
        except Exception as exc:  # judged as a failure of the operation
            outcome = exc
        raw.append(clock() - start)
        ledger.judge(op, outcome)
    probes.append(probe())
    scaled = []
    for i, ns in enumerate(raw):
        k = i // probe_every
        scaled.append(ns / 1e9 * calibrate.PROBE_REF / ((probes[k] + probes[k + 1]) / 2.0))
    return raw, scaled, probes


def percentile(values, q):
    """Linearly interpolated q-th percentile, q a whole number from 1 to 99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(samples):
    """The highest of p90 and p50 with at least ten samples beyond it."""
    return 90 if samples >= 100 else 50


def end_to_end(ops, size, ledger, probe, root):
    """Timed passes with set-up samples spread between them; returns (metrics, raw metrics, notes).

    Timings are scaled to the reference host speed (see calibrate.py), set-up
    samples by the probe taken right after each.
    ops_per_s is the operations of one pass over the median pass time, so a
    few operations caught in a host stall do not move it; op_p50_ms is the
    median over every timed operation and op_tail_ms the highest of p90 and
    p50 that has at least ten samples beyond it.
    """
    passes = size["passes"]
    at = collections.Counter(round(k * passes / (SETUP_SAMPLES - 1)) for k in range(SETUP_SAMPLES))
    setups, raw_setups, raw, scaled, probes = [], [], [], [], []
    for p in range(passes + 1):
        for _ in range(at.get(p, 0)):
            seconds = setup_time(root)
            probes.append(probe())
            raw_setups.append(seconds)
            setups.append(seconds * (calibrate.PROBE_REF / probes[-1]) ** SETUP_ELASTICITY)
        if p < passes:
            pass_raw, pass_scaled, pass_probes = timed_pass(ops, ledger, probe, size["probe_every"])
            raw.append([ns / 1e9 for ns in pass_raw])
            scaled.append(pass_scaled)
            probes.extend(pass_probes)

    def summary(setup, grid):
        latencies = [x for row in grid for x in row]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (len(ops) / statistics.median(sum(row) for row in grid), "1/s"),
            "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "op_tail_ms": (percentile(latencies, tail_percentile(len(latencies))) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    host = {
        "timed_ops": len(ops) * passes,
        "tail_percentile": tail_percentile(len(ops) * passes),
        "probe_ref_ms": calibrate.PROBE_REF * 1e3,
        "probe_ms": {"min": min(probes) * 1e3, "median": statistics.median(probes) * 1e3, "max": max(probes) * 1e3},
    }
    return summary(setups, scaled), summary(raw_setups, raw), host


def per_layer(ops, size, ledger, probe, probchan, spans_path):
    """One untraced and one traced pass over the same ops; returns (metrics, raw metrics, notes).

    Self times and the tracing overhead are scaled to the reference host
    speed by the probes taken around the traced pass.
    """
    raw_ns, scaled, _ = timed_pass(ops, ledger, probe, size["probe_every"])
    untraced, untraced_raw = sum(scaled), sum(raw_ns) / 1e9
    before = probe()
    tracer = Tracer(probchan)
    tracer.install()
    try:
        traced_raw = sum(timed_pass(ops, ledger, probe, len(ops), tracer)[0]) / 1e9
    finally:
        tracer.remove()
    scale = calibrate.PROBE_REF / ((before + probe()) / 2.0)
    tracer.write_spans(spans_path)
    units = {"calls": "count", "self_s": "s", "errors": "count", "eigensolves": "count", "steps": "count",
             "oracle_evals": "count", "bytes_read": "B", "bytes_written": "B"}
    raw, metrics = {}, {}
    for name, value in tracer.layer_metrics().items():
        unit = units[name.split(".", 1)[1]]
        raw[name] = (value, unit)
        metrics[name] = (value * scale if unit == "s" else value, unit)
    metrics["trace.overhead_s"] = (traced_raw * scale - untraced, "s")
    raw["trace.overhead_s"] = (traced_raw - untraced_raw, "s")
    return metrics, raw, {"spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path)}


def run(root, probchan, workload, seed, trace, size=None):
    """Build the workload, warm up, measure; returns (ledger, metrics, raw metrics, run notes)."""
    size = workloads.SIZES[workload] if size is None else size
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, WORKDIR))
    try:
        ops = workloads.BUILD[workload](seed, scratch, probchan)
        ledger = Ledger()
        probe = calibrate.Probe(scratch)
        timed_pass(ops, ledger, probe, len(ops))
        if trace:
            spans = os.path.join(root, WORKDIR, f"spans-{workload}-{seed}.csv")
            metrics, raw, info = per_layer(ops, size, ledger, probe, probchan, spans)
        else:
            metrics, raw, info = end_to_end(ops, size, ledger, probe, root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ledger, metrics, raw, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30, help="nominal run length; recorded, the work is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        root = checkout_root(os.getcwd())
        probchan = import_probchan(root)
    except NotACheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ledger, metrics, raw, info = run(root, probchan, args.workload, args.seed, args.trace)

    for name, (value, unit) in metrics.items():
        unscaled = raw[name][0]
        print(f"metric {name} = {value!r} {unit}" + (f"  (unscaled {unscaled!r})" if unscaled != value else ""))
    print("run " + json.dumps(info, sort_keys=True))
    print("environment " + json.dumps(environment(root, args), sort_keys=True))
    print("failures " + json.dumps(ledger.failures, sort_keys=True))
    for label in sorted(set(ledger.unknown)):
        print(f"unexpected failure: {label}", file=sys.stderr)
    result = {
        "correct": not ledger.unknown,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
