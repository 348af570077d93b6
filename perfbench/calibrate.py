"""A fixed probe of the host's current speed, independent of probchan.

The benchmark's host is a small shared VM whose speed swings by up to 2x
over seconds to minutes, while the process stays on the CPU. The probe
runs a fixed mix of the kinds of work probchan does - small numpy linear
algebra, argparse, JSON parsing, float formatting and small file writes and
reads - so that its time moves with the host's speed and not with
probchan's code.
"""

import argparse
import json
import os
import time

import numpy as np

_RNG = np.random.default_rng(20190405)
_MATS = _RNG.standard_normal((8, 4, 4)) + 1j * _RNG.standard_normal((8, 4, 4))
_HERM = [(m + m.conj().T) / 2.0 for m in _MATS]
_DOC = json.dumps({"dim": 4, "entries": [[[float(z.real), float(z.imag)] for z in row] for row in _MATS[0]]})
_ROW = _RNG.uniform(size=31)

# Probe time on this host when it is quiet (2-vCPU VM, Python 3.11, numpy
# 2.4, one BLAS thread); timings are reported as if the host ran at that speed.
PROBE_REF = 0.0025


class Probe:
    """Times one fixed block of reference work; its file I/O uses one scratch file."""

    def __init__(self, scratch_dir):
        self.path = os.path.join(scratch_dir, "probe.json")

    def _work(self):
        acc = 0.0
        for h in _HERM:
            acc += float(np.linalg.eigvalsh(h)[0])
            acc += float(np.abs(h @ h - h.conj().T @ h).max())
            acc += float(np.einsum("aiaj->ij", h.reshape(2, 2, 2, 2)).real.sum())
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command", required=True)
        state = sub.add_parser("state")
        state.add_argument("direction", choices=("to-probs", "from-probs"))
        state.add_argument("input")
        state.add_argument("--dim", type=int, choices=(2, 4), required=True)
        state.add_argument("-o", "--output", default="-")
        args = parser.parse_args(["state", "to-probs", self.path, "--dim", "4", "-o", self.path])
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_DOC)
        with open(args.input, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        os.remove(self.path)
        acc += sum(re for row in doc["entries"] for re, _ in row)
        acc += len(",".join("%.17g" % x for x in _ROW))
        return acc

    def __call__(self):
        """Seconds the block takes right now: the median of five timings, so one interruption does not count."""
        timings = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(4):
                self._work()
            timings.append(time.perf_counter_ns() - start)
        return sorted(timings)[2] / 1e9
