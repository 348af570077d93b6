"""Self-check of the benchmark. Run from the root of a probchan checkout:

    python3 perfbench/selfcheck.py

It shows four things and exits 1 if any fails:

1. every metric BENCHMARK.json names is emitted for every workload, with
   tracing off and on, and every reported percentile has at least ten
   samples beyond it at the configured sizes;
2. the per-layer counts repeat exactly across two traced runs (fresh
   processes) with the same seed;
3. the judges reject planted bad outputs: a truncated CSV, a wrong
   verdict, a wrong exit code, a second `error:` line and an escaped
   exception;
4. the benchmark refuses to run outside a probchan checkout.

It takes about a minute on a 2-vCPU host.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_SUFFIXES = (".calls", ".steps", ".eigensolves", ".oracle_evals", ".bytes_read", ".bytes_written")


def _command(root, workload, seed, trace, cwd=None):
    argv = [sys.executable, os.path.join(cwd or root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd or root, capture_output=True, text=True, timeout=180)


def _result(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_and_counts(root, probchan, spec):
    problems = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for name, size in workloads.SIZES.items():
        timed = size["ops"] * size["passes"]
        if timed * min(50, 100 - run.tail_percentile(timed)) / 100 < 10:
            problems.append(f"{name}: {timed} timed operations leave fewer than ten beyond the reported percentile")
        small = dict(size, passes=1)
        ledger, metrics, _, _ = run.run(root, probchan, name, 7, 0, small)
        if set(metrics) != e2e:
            problems.append(f"{name} --trace 0 emits {sorted(metrics)}, BENCHMARK.json names {sorted(e2e)}")
        if ledger.unknown:
            problems.append(f"{name}: unexpected failures {sorted(set(ledger.unknown))}")
        first, second = (_result(_command(root, name, 7, 1)) for _ in range(2))
        if set(first["metrics"]) != layer:
            problems.append(f"{name} --trace 1 emits {sorted(first['metrics'])}, BENCHMARK.json names {sorted(layer)}")
        for metric, entry in first["metrics"].items():
            if metric.endswith(COUNT_SUFFIXES) and entry["value"] != second["metrics"][metric]["value"]:
                problems.append(f"{name}: {metric} differs across traced runs "
                                f"({entry['value']} vs {second['metrics'][metric]['value']})")
        if (first["attempted"], first["failed"]) != (second["attempted"], second["failed"]):
            problems.append(f"{name}: attempted/failed differ across traced runs")
    return problems


def check_planted(root, probchan):
    problems = []
    scratch = tempfile.mkdtemp(dir=os.path.join(root, run.WORKDIR))
    try:
        evolve = workloads.evolve_long(3, scratch, probchan)[0]
        evolve.prepare()
        if run.failure(evolve, evolve.call()) is not None:
            problems.append("a correct trajectory was rejected")
        with open(evolve.output, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        with open(evolve.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
        if run.failure(evolve, (0, "")) is None:
            problems.append("a truncated CSV was accepted")

        channel = next(op for op in workloads.channel_audit(3, scratch, probchan) if op.kind == "CPTP")
        outcome = list(channel.call())
        outcome[3] = dict(vars(outcome[3]), verdict="TP-not-CP")
        if run.failure(channel, tuple(outcome)) is None:
            problems.append("a wrong verdict was accepted")

        requests = workloads.cli_small(3, scratch, probchan)
        bad = next(op for op in requests if op.kind == "bad-json")
        good = next(op for op in requests if op.kind == "state-to-probs-2")
        planted = {
            "a wrong exit code": (bad, (2, "error: input is not valid JSON\n")),
            "a second error line": (bad, (1, "error: input is not valid JSON\nerror: again\n")),
            "an escaped exception": (good, RecursionError("deep")),
            "a traceback on stderr": (bad, (1, "Traceback (most recent call last):\nerror: x\n")),
        }
        for what, (op, outcome) in planted.items():
            if run.failure(op, outcome) is None:
                problems.append(f"{what} was accepted")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return problems


def check_refuses_outside(root):
    outside = tempfile.mkdtemp(dir=os.path.join(root, run.WORKDIR))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), outside)
        shutil.copytree(HERE, os.path.join(outside, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _command(root, "channel-audit", 1, 0, cwd=outside)
    finally:
        shutil.rmtree(outside, ignore_errors=True)
    if proc.returncode == 0:
        return ["run.py exited 0 outside a probchan checkout"]
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        return ["run.py printed a result outside a probchan checkout"]
    return []


def main():
    root = run.checkout_root(os.getcwd())
    probchan = run.import_probchan(root)

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(root, run.WORKDIR), exist_ok=True)
    checks = {
        "metrics emitted, counts repeat": lambda: check_metrics_and_counts(root, probchan, spec),
        "planted bad outputs rejected": lambda: check_planted(root, probchan),
        "refuses outside a checkout": lambda: check_refuses_outside(root),
    }
    failed = False
    for name, check in checks.items():
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"    {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
