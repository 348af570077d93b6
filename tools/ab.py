"""Interleaved in-process A/B timing of two probchan checkouts on one benchmark workload:

    python3 tools/ab.py --base TREE [--change TREE] --workload W --seed S --passes N

TREE is the root of a probchan checkout; --change defaults to the checkout holding this tool, so `--base .` from
that root is an A/A run. Each tree's probchan is loaded in this one process under its own package name
(probchan_base and probchan_change), and each gets the operations that this tool's perfbench/workloads.py builds
from the same seed, in a temporary directory of its own. perfbench is only read: no bytecode is written there.

After one untimed warm-up pass per side, it runs N rounds of one whole pass per side, the base first in even rounds
and the change first in odd ones, so that a drift in the host's speed falls on both sides alike. Only each call into
probchan is timed, as perfbench/run.py times it, and every outcome is judged by that operation's own judge, warm-up
included. It prints each side's median pass time, its operations per second over that median and its failed
operations, then the median over the rounds of the change's pass time over the base's, and in how many rounds the
change was faster. Times are unscaled: no host probe corrects them, since both sides share every stretch of the run.
The exit code is 0 whatever the ratio; a tree that is not a probchan checkout exits 2.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (pins BLAS to one thread before numpy is imported)
import workloads  # noqa: E402


def load_probchan(root, name):
    """The probchan package of the checkout at root, imported as the top-level package `name`, with its cli."""
    src = os.path.join(run.checkout_root(root), "src", "probchan")
    init = os.path.join(src, "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def timed_pass(ops, ledger):
    """Seconds spent in the calls of one pass over ops, each outcome judged after its call."""
    clock = time.perf_counter_ns
    total = 0
    for op in ops:
        op.prepare()
        start = clock()
        try:
            outcome = op.call()
        except Exception as exc:  # judged as a failure of the operation
            outcome = exc
        total += clock() - start
        ledger.judge(op, outcome)
    return total / 1e9


def compare(sides, passes):
    """{side: pass times} over `passes` rounds, the order of the sides swapped every round."""
    times = {name: [] for name in sides}
    for name, (ops, ledger) in sides.items():
        timed_pass(ops, ledger)  # warm-up
    order = list(sides)
    for r in range(passes):
        for name in order if r % 2 == 0 else order[::-1]:
            times[name].append(timed_pass(*sides[name]))
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="root of the parent checkout")
    parser.add_argument("--change", default=ROOT, help="root of the changed checkout (default: this tool's)")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True, help="rounds of one timed pass per side")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as scratch:
        sides = {}
        for name, root in trees.items():
            try:
                probchan = load_probchan(root, "probchan_" + name)
            except run.NotACheckout as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            workdir = os.path.join(scratch, name)
            os.mkdir(workdir)
            sides[name] = (workloads.BUILD[args.workload](args.seed, workdir, probchan), run.Ledger())
        times = compare(sides, args.passes)

    n_ops = len(sides["base"][0])
    print(f"# {args.workload} seed {args.seed}: {args.passes} rounds of one pass of {n_ops} ops per side")
    for name, root in trees.items():
        ledger = sides[name][1]
        median = statistics.median(times[name])
        print(
            f"{name:6} {run.git_sha(root)[:12]}  median pass {median * 1e3:.3f} ms  {n_ops / median:.1f} ops/s  "
            f"failed {ledger.failed} of {ledger.attempted}"
        )
        for label in sorted(set(ledger.unknown)):
            print(f"unexpected failure ({name}): {label}", file=sys.stderr)
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"time ratio change/base: median {statistics.median(ratios):.4f}, change faster in {wins} of {args.passes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
