"""Span tracing around probchan's public functions, from outside the package.

Every function a layer module lists in `__all__` is wrapped, in every
probchan namespace it can be looked up from, so `kinetics.rk4_step` is
caught as well as `matcore.rk4_step`. Each call records one span (op id,
span id, parent span, function, start and end from perf_counter_ns, whether
it raised). Spans stay in memory until `write_spans`.

Counters taken at the same boundaries:

* eigensolves: calls to numpy.linalg's eigensolvers made inside a span;
* steps: RK4 steps, read off each `evolve_probs` result as samples - 1;
* oracle_evals: times at which `oracle_probs` was evaluated;
* bytes_read / bytes_written: bytes through files probchan opens inside a span.

No layer waits on a queue in a one-client closed loop, so no wait time is
recorded.
"""

import builtins
import functools
import io
import sys
import time

import numpy as np

LAYERS = ("matcore", "stateprob", "channelcore", "probchannel", "kinetics", "cli")
COUNTERS = ("matcore.eigensolves", "kinetics.steps", "kinetics.oracle_evals", "cli.bytes_read", "cli.bytes_written")
_EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")


def _nbytes(data):
    return len(data) if isinstance(data, (bytes, bytearray)) else len(data.encode("utf-8", "surrogateescape"))


class _CountingFile:
    """File proxy that counts the bytes its read() and write() pass; the CLI uses no other I/O method."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts["cli.bytes_read"] += _nbytes(data)
        return data

    def write(self, data):
        self._counts["cli.bytes_written"] += _nbytes(data)
        return self._fh.write(data)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Installs span wrappers on probchan, collects spans, and removes them again."""

    def __init__(self, probchan):
        self.probchan = probchan
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "probchan" or name.startswith("probchan.")]
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(self.probchan, layer)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(mod, name, wrapped[id(value)][1])
        for name in _EIGENSOLVERS:
            self._patch(np.linalg, name, self._count_inside(getattr(np.linalg, name), "matcore.eigensolves"))
        counting_open = self._counting_open(builtins.open)
        self._patch(builtins, "open", counting_open)
        self._patch(io, "open", counting_open)

    def remove(self):
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)

    def _patch(self, mod, name, replacement):
        self._undo.append((mod, name, getattr(mod, name)))
        setattr(mod, name, replacement)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn):
        hook = {"kinetics.evolve_probs": self._count_steps, "kinetics.oracle_probs": self._count_oracle}.get(key)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[span] = (self.op, span, parent, key, start, end, raised)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count_steps(self, args, kwargs, result):
        self.counts["kinetics.steps"] += len(result.times) - 1

    def _count_oracle(self, args, kwargs, result):
        self.counts["kinetics.oracle_evals"] += int(np.size(args[1] if len(args) > 1 else kwargs["t"]))

    def _count_inside(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _counting_open(self, real_open):
        @functools.wraps(real_open)
        def traced_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            return _CountingFile(fh, self.counts) if self.stack else fh

        return traced_open

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """calls, self seconds and errors per layer, plus the counters."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for _, span, _, key, start, end, raised in self.spans:
            layer = key.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start - child_ns[span]) / 1e9
            out[f"{layer}.errors"] += int(raised)
        out.update(self.counts)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,function,start_ns,end_ns,raised\n")
            for op, span, parent, key, start, end, raised in self.spans:
                fh.write(f"{op},{span},{parent},{key},{start},{end},{int(raised)}\n")
