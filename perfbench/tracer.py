"""Benchmark-side tracing of the ``repro`` layers.

The traced run wraps each layer's public entry point where its caller
looks it up, so ``src/`` stays untouched and ``repro.obs`` (whose tracer is
due to be reworked) is not used.  Spans nest per thread; a span's self time
is its duration minus the durations of its direct child spans, so a
parent's wall is exactly its self time plus its named children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

#: (module or class path, attribute, span name).  Each entry patches the
#: name its caller resolves at call time; several entries may feed one span
#: name (the batched and the per-chunk paths of a layer).
LAYER_ENTRY_POINTS = [
    ("repro.core", "compress", "core.compress"),
    ("repro.core", "decompress", "core.decompress"),
    ("repro.service.server", "compress", "core.compress"),
    ("repro.service.server", "decompress", "core.decompress"),
    ("repro.core.container", "choose_codecs", "core.adaptive"),
    ("repro.core.batch", "forward_batch", "wavelets.forward"),
    ("repro.core.pipeline", "dwt_forward", "wavelets.forward"),
    ("repro.core.batch", "inverse_batch", "wavelets.inverse"),
    ("repro.core.pipeline", "dwt_inverse", "wavelets.inverse"),
    ("repro.core.batch", "encode_coefficients_batch", "speck.encode"),
    ("repro.core.pipeline", "encode_coefficients", "speck.encode"),
    ("repro.core.pipeline", "decode_coefficients", "speck.decode"),
    ("repro.outlier:OutlierCoder", "apply", "outlier.apply"),
    ("repro.lossless", "compress", "lossless.encode"),
    ("repro.lossless", "decompress", "lossless.decode"),
    ("repro.compressors.szxlike.codec", "encode_chunks", "szxlike.encode"),
    ("repro.compressors.szxlike.codec", "decode_chunk", "szxlike.decode"),
    ("repro.store.reader:CompressedArray", "read_window", "store.read"),
]

#: Parents whose wall time the summary splits into named children.
PARENTS = ("core.compress", "core.decompress", "store.read")


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder; spans of one thread form a tree."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.lossless_bytes = {"in": 0, "out": 0}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "lossless.encode":
                self._count_lossless(raw=len(args[0]), coded=len(out))
            elif name == "lossless.decode":
                self._count_lossless(raw=len(out), coded=len(args[0]))
            return out

        return traced

    def _count_lossless(self, raw: int, coded: int) -> None:
        with self._lock:
            self.lossless_bytes["in"] += raw
            self.lossless_bytes["out"] += coded

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        # Import every owner before patching any: a module imported later
        # would bind an already-patched name and be wrapped twice.
        owners = [_resolve(path) for path, _, _ in LAYER_ENTRY_POINTS]
        saved = []
        try:
            for owner, (_, attr, name) in zip(owners, LAYER_ENTRY_POINTS):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-name ``busy_s``, ``self_s`` and ``calls``, plus the share of
        each parent's wall its direct children cover and lossless bytes."""
        spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name: count its wall once
                out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + dur
                out[f"{name}.children_s"] = (
                    out.get(f"{name}.children_s", 0.0) + child_time[i]
                )
        b = self.lossless_bytes
        out["lossless.bytes_in"] = b["in"]
        out["lossless.bytes_out"] = b["out"]
        return out


#: Every per-layer metric of a traced run, with its unit.  A layer that a
#: workload does not reach reports 0.
PER_LAYER_UNITS = {
    "core.compress.busy_s": "s",
    "core.compress.self_s": "s",
    "core.decompress.busy_s": "s",
    "core.decompress.self_s": "s",
    "core.adaptive.busy_s": "s",
    "core.adaptive.route_sperr": "count",
    "core.adaptive.route_szx": "count",
    "core.adaptive.route_stored": "count",
    "wavelets.forward.busy_s": "s",
    "wavelets.inverse.busy_s": "s",
    "wavelets.calls": "count",
    "speck.encode.busy_s": "s",
    "speck.decode.busy_s": "s",
    "speck.calls": "count",
    "outlier.apply.busy_s": "s",
    "outlier.calls": "count",
    "lossless.encode.busy_s": "s",
    "lossless.decode.busy_s": "s",
    "lossless.bytes_in": "B",
    "lossless.bytes_out": "B",
    "lossless.saved_frac": "frac",
    "szxlike.encode.busy_s": "s",
    "szxlike.decode.busy_s": "s",
    "store.read.busy_s": "s",
    "store.chunk_decodes": "count",
    "store.decodes_per_read": "count",
    "store.cache.hits": "count",
    "store.cache.misses": "count",
    "store.cache.evictions": "count",
    "store.cache.hit_rate": "frac",
    "service.read.p50_ms": "ms",
    "service.read.p99_ms": "ms",
    "service.compress.p50_ms": "ms",
    "service.coalesced_frac": "frac",
    "service.batches": "count",
    "service.cpu_frac": "frac",
    "service.rejects": "count",
    "service.client_minus_server_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.completed": "count",
    "loadgen.failed": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.core.compress.covered_frac": "frac",
    "trace.core.decompress.covered_frac": "frac",
    "trace.store.read.covered_frac": "frac",
}


def per_layer(summary: dict[str, float], extras: dict[str, float]):
    """Every :data:`PER_LAYER_UNITS` metric from a :meth:`Tracer.summary`
    plus the workload's own counts in ``extras``."""
    s = dict(summary)
    s["wavelets.calls"] = s.get("wavelets.forward.calls", 0) + s.get(
        "wavelets.inverse.calls", 0
    )
    s["speck.calls"] = s.get("speck.encode.calls", 0) + s.get("speck.decode.calls", 0)
    s["outlier.calls"] = s.get("outlier.apply.calls", 0)
    if s.get("lossless.bytes_in"):
        s["lossless.saved_frac"] = 1.0 - s["lossless.bytes_out"] / s["lossless.bytes_in"]
    for parent in PARENTS:
        if s.get(f"{parent}.busy_s"):
            s[f"trace.{parent}.covered_frac"] = (
                s[f"{parent}.children_s"] / s[f"{parent}.busy_s"]
            )
    s.update(extras)
    return {name: (float(s.get(name, 0.0)), unit) for name, unit in PER_LAYER_UNITS.items()}
