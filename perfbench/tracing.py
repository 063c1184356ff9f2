"""In-memory span tracing for the traced benchmark run.

The wrappers live here, not in the package. ``install`` rebinds every public
function of each layer module at each name it is looked up by (its own module,
the modules that import it by name, and the package namespace), plus a few
methods that are a layer's entry points; ``uninstall`` puts the originals
back. The untraced run never calls ``install``.

A span is (trace_id, span_id, parent_id, name, start, end). Spans of one
round share its trace id. Self time is a span's duration minus the durations
of its direct children; the root span's self time is the part of a round
that no traced layer claims.
"""

from collections import defaultdict
import importlib
import inspect
import itertools
import json
import sys
import time

import numpy as np

LAYERS = (
    "encoder", "scenario", "stats", "privacy", "protocol",
    "gaussian_geometry", "valuation", "fileio", "cli",
)

# Charged to their caller instead of getting a span of their own. The matrix
# kernels make GaussianSummary construction and W2 scoring read as whole
# operations (their decompositions are counted as factorizations), and the
# message (de)serializers are the inner halves of encode_frame/decode_frame.
INLINE = frozenset({
    "gaussian_geometry.symmetrize",
    "gaussian_geometry.sym_eig",
    "gaussian_geometry.psd_clamp",
    "gaussian_geometry.sqrtm_psd",
    "protocol.message_to_dict",
    "protocol.message_from_dict",
})

# Methods that are a layer's entry points: (module, class, attribute, span).
METHODS = (
    ("gaussian_geometry", "GaussianSummary", "__post_init__", "gaussian_geometry.GaussianSummary"),
    ("encoder", "EncoderSpec", "fingerprint", "encoder.EncoderSpec.fingerprint"),
    ("protocol", "InProcessChannel", "__init__", "protocol.connect"),
    ("protocol", "SocketChannel", "__init__", "protocol.connect"),
    ("protocol", "InProcessChannel", "request", "protocol.channel.request"),
    ("protocol", "SocketChannel", "request", "protocol.channel.request"),
    ("protocol", "SellerSession", "handle_bytes", "protocol.SellerSession.handle_bytes"),
)

FACTORIZATIONS = ("eigh", "eigvalsh", "cholesky")
FRAMING = ("protocol.encode_frame", "protocol.decode_frame")
ROOT = "bench.round"


class Tracer:
    """Collects spans and counters in memory; nothing is written until
    ``write`` is called at the end of the run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.trace_id = None
        self._stack = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.trace_id, span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def wrap_framing(self, name, fn):
        """Span plus a byte count of the frame produced or consumed."""
        inner = self.wrap(name, fn)
        counts = self.counts

        if name == "protocol.encode_frame":
            def traced(msg):
                frame = inner(msg)
                counts["protocol.frame_bytes"] += len(frame)
                return frame
        else:
            def traced(data):
                counts["protocol.frame_bytes"] += len(data)
                return inner(data)

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_round(self, trace_id, fn, *args):
        """Run one round under a root span with its own trace id."""
        self.trace_id = trace_id
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.trace_id = None

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["trace_id", "span_id", "parent_id", "name", "start", "end"]))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _layer_modules():
    return {layer: importlib.import_module(f"priarta.{layer}") for layer in LAYERS}


def _namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "priarta" or name.startswith("priarta."))]


def install(tracer):
    """Rebind the traced callables; returns the undo list for ``uninstall``."""
    modules = _layer_modules()
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in INLINE):
                continue
            wrap = tracer.wrap_framing if name in FRAMING else tracer.wrap
            wrappers[id(obj)] = (obj, wrap(name, obj))
    undo = []
    try:
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    undo.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for layer, cls_name, attr, name in METHODS:
            owner = getattr(modules[layer], cls_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        for attr in FACTORIZATIONS:
            original = getattr(np.linalg, attr)
            undo.append((np.linalg, attr, original))
            setattr(np.linalg, attr, tracer.count_calls("gaussian_geometry.factorizations", original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def snapshot():
    """Identity of every binding ``install`` may touch, to prove that a run
    left the package untouched."""
    modules = _layer_modules()
    seen = {}
    for ns in _namespaces():
        for attr, obj in vars(ns).items():
            seen[(ns.__name__, attr)] = id(obj)
    for layer, cls_name, attr, _ in METHODS:
        seen[(layer, cls_name, attr)] = id(getattr(modules[layer], cls_name).__dict__[attr])
    for attr in FACTORIZATIONS:
        seen[("numpy.linalg", attr)] = id(getattr(np.linalg, attr))
    return seen


def aggregate(spans, scale):
    """Per span name: calls, self time and inclusive time, over all spans,
    each span's times multiplied by ``scale[trace_id]``.

    Also returns the channel wait (request time minus the frame encode and
    decode directly under it) and, per trace, the root duration and the
    root's own self time: the part of the round outside every traced layer.
    """
    by_id = {}
    child_time = defaultdict(float)
    framing_time = defaultdict(float)
    for trace_id, span_id, parent, name, start, end in spans:
        duration = (end - start) * scale[trace_id]
        by_id[span_id] = (trace_id, name, duration)
        if parent is not None:
            child_time[parent] += duration
            if name in FRAMING:
                framing_time[parent] += duration
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    wait = 0.0
    per_trace = defaultdict(lambda: {"root_s": 0.0, "root_self_s": 0.0})
    for span_id, (trace_id, name, duration) in by_id.items():
        own = duration - child_time[span_id]
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += duration
        if name == ROOT:
            per_trace[trace_id]["root_s"] += duration
            per_trace[trace_id]["root_self_s"] += own
        if name == "protocol.channel.request":
            wait += duration - framing_time[span_id]
    return dict(stats), wait, dict(per_trace)
