"""One sha256 per benchmark workload over everything its operations return or print, to show that a change to
probchan keeps its outputs bit for bit:

    python3 tools/bit_digest.py [CHECKOUT]

It digests the probchan of CHECKOUT, the root of a probchan checkout, by default the one holding this tool, so one
copy of the tool can digest two trees. It builds the evolve-long runs, the channel-audit operations and the
cli-small requests of seeds 1-3 from this tool's perfbench/workloads.py, in a temporary directory, and runs each
once, untimed and unjudged. perfbench is only read: no bytecode is written there. A digest covers, in operation
order:

* arrays by dtype, shape and bytes, floats by float.hex, CptpReport fields, strings, bools and ints;
* an exception a call raises, by type and message, and every warning it raises, by category and message;
* a CLI request's exit code, stdout, stderr and output-file bytes.

The temporary directory's path is replaced by a fixed token wherever it appears, so two checkouts of the same code
print the same digests. Run it in a checkout of each commit and compare the lines.

numpy's SIMD loops, exp, log1p and angle among them, round differently under different CPU dispatch targets
(NPY_DISABLE_CPU_FEATURES moves every digest), so a first line names the numpy and the enabled dispatch targets, or
baseline: digests compare only under the same two.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
TOKEN = "<workdir>"

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (pins BLAS to one thread before numpy is imported)
import workloads  # noqa: E402

import numpy as np  # noqa: E402


def describe(value, workdir):
    """What a caller can see of one result, with floats by hex, arrays by their bytes and the workdir path hidden."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [describe(v, workdir) for v in value]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__, [(f.name, describe(getattr(value, f.name), workdir)) for f in fields]
    if isinstance(value, BaseException):
        return "raise", type(value).__name__, str(value).replace(workdir, TOKEN)
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, str):
        return "str", value.replace(workdir, TOKEN)
    if isinstance(value, bytes):
        return "bytes", value.replace(workdir.encode(), TOKEN.encode())
    return type(value).__name__, repr(value)


def library_outcome(op):
    try:
        return op.call()
    except Exception as exc:  # an escaping exception is part of the outcome
        return exc


def cli_outcome(op):
    """(exit code or exception, stdout, stderr, output-file bytes or None) of one in-process request."""
    op.prepare()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = op.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is part of the outcome
            code = exc
    written = None
    if op.output and os.path.exists(op.output):
        with open(op.output, "rb") as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


OUTCOME = {"evolve-long": cli_outcome, "channel-audit": library_outcome, "cli-small": cli_outcome}


def digest(name, probchan):
    """(operations run, sha256 hex) over every operation of the workload at each seed."""
    sha, count = hashlib.sha256(), 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            for op in workloads.BUILD[name](seed, workdir, probchan):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = OUTCOME[name](op)
                seen = [(w.category.__name__, str(w.message)) for w in caught]
                sha.update(repr((seed, count, describe(result, workdir), describe(seen, workdir))).encode())
                count += 1
    return count, sha.hexdigest()


def numpy_line():
    """'# numpy <version>, dispatch <the dispatch targets enabled on this CPU, or baseline>' (numpy 2)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"# numpy {np.__version__}, dispatch {enabled or 'baseline'}"


def main():
    parser = argparse.ArgumentParser(description="One sha256 per benchmark workload over probchan's outputs.")
    parser.add_argument("checkout", nargs="?", default=ROOT, help="root of the probchan checkout to digest")
    try:
        probchan = run.import_probchan(run.checkout_root(os.path.abspath(parser.parse_args().checkout)))
    except run.NotACheckout as exc:
        parser.error(str(exc))
    print(numpy_line())
    for name in OUTCOME:
        count, hexdigest = digest(name, probchan)
        print(f"{name} {count} ops sha256 {hexdigest}")


if __name__ == "__main__":
    main()
