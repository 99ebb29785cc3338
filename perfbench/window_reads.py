"""``window_reads``: one reader in a closed loop calling
``CompressedArray.read_window`` on a multi-frame quality store.

The decoded working set (all chunks of all frames) is twice the
``cache_bytes`` the reader opens the store with.  Most reads fall in a hot
set (frame 0) that fits the cache; the rest are spread uniformly over every
frame, so cached reads and cold chunk decodes both occur.  Window extents
vary per read, and hot windows vary in chunk alignment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.core import PweMode
from repro.store import CompressedArray, StoreWriter, open_store

from .common import (
    CHUNK,
    PWE_REL,
    SETUP_REPEATS,
    Tally,
    finish_end_to_end,
    make_field,
    pct,
    peak_rss_mib,
    psnr_db,
    within_bound,
    workdir,
)
from .tracer import Tracer, per_layer

#: Frames are successive seeds of one generator, so one absolute bound fits.
GENERATOR = "miranda_velocity_x"
N_FRAMES = 4
SHAPE = (64, 64, 64)
#: Decoded bytes of every chunk of every frame, and the cache: half of it.
WORKING_SET_BYTES = N_FRAMES * int(np.prod(SHAPE)) * 8
CACHE_BYTES = WORKING_SET_BYTES // 2
#: Every block of 20 reads has exactly 17 hot reads (frame 0) and 3 cold
#: ones (any frame), in a seeded order, so runs differ in windows, not mix.
HOT_READS, BLOCK_READS = 17, 20
#: Hot windows take any of these extents per axis, chunk-aligned or not.
EXTENTS = (8, 16, 24, 40)
#: Cold windows are chunk-aligned and lie in one chunk, so a cold read
#: costs at most one chunk decode and its latency does not depend on how
#: many chunks a random window happened to cover.
COLD_EXTENTS = (8, 16, 24, 32)
#: A read slower than this misses the goodput limit.
LIMIT_S = 0.25


@dataclass
class Store:
    path: Path
    frames: list[np.ndarray]
    tol: float
    refs: list[np.ndarray]
    #: Handle whose cache holds every decoded chunk: cheap direct reads.
    reader: CompressedArray
    nbytes: int
    append_s: list[float]
    decode_s: list[float]


def make_frames(seed: int) -> tuple[list[np.ndarray], float]:
    frames = [make_field(GENERATOR, SHAPE, seed * 16 + i) for i in range(N_FRAMES)]
    tol = PWE_REL * min(float(f.max() - f.min()) for f in frames)
    return frames, tol


def build_store(path: Path, frames: list[np.ndarray], tol: float, tally: Tally) -> Store:
    """Write ``frames`` to a new store and decode each frame in full; the
    full decodes are the references every window read must match."""
    append_s = []
    with StoreWriter(path, PweMode(tol), chunk_shape=CHUNK) as writer:
        for frame in frames:
            t0 = time.perf_counter()
            writer.append(frame)
            append_s.append(time.perf_counter() - t0)
    reader = open_store(path, cache_bytes=WORKING_SET_BYTES)
    refs, decode_s = [], []
    for i, frame in enumerate(frames):
        t0 = time.perf_counter()
        ref = np.asarray(reader.read_window(None, frame=i))
        decode_s.append(time.perf_counter() - t0)
        tally.record(within_bound(frame, ref, tol), f"full decode of frame {i}: PWE bound")
        refs.append(ref)
    nbytes = sum(p.stat().st_size for p in path.iterdir())
    return Store(path, frames, tol, refs, reader, nbytes, append_s, decode_s)


def random_window(
    rng: np.random.Generator, shape, extents=EXTENTS, aligned: float = 0.5
) -> tuple[slice, ...]:
    """A window of random extent per axis, chunk-aligned with probability
    ``aligned``."""
    window = []
    for n in shape:
        ext = int(rng.choice(extents))
        if rng.random() < aligned:
            lo = min(CHUNK * int(rng.integers(n // CHUNK)), n - ext)
        else:
            lo = int(rng.integers(0, n - ext + 1))
        window.append(slice(lo, lo + ext))
    return tuple(window)


def windows(seed: int, n_frames: int, shape):
    """The seeded, endless read sequence: ``(frame, window)`` pairs."""
    rng = np.random.default_rng(seed)
    block = [True] * HOT_READS + [False] * (BLOCK_READS - HOT_READS)
    while True:
        for hot in rng.permutation(block):
            if hot:
                yield 0, random_window(rng, shape)
            else:
                frame = int(rng.integers(n_frames))
                yield frame, random_window(rng, shape, COLD_EXTENTS, aligned=1.0)


@dataclass
class Phase:
    latency_s: list[float] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    reads: int = 0
    wall_s: float = 0.0


def measure(
    store: Store,
    seed: int,
    tally: Tally,
    *,
    seconds: float | None = None,
    n_reads: int | None = None,
    tamper=None,
) -> Phase:
    """Read for ``seconds`` (or exactly ``n_reads`` reads) through a freshly
    opened store whose hot set is already cached.  ``tamper(window) ->
    window`` lets the tests corrupt a result before it is checked."""
    arr = open_store(store.path, cache_bytes=CACHE_BYTES)
    arr.read_window(None, frame=0)
    before = arr.cache.stats()
    phase = Phase()
    seq = windows(seed, len(store.frames), SHAPE)
    start = time.perf_counter()
    while (n_reads is None and time.perf_counter() - start < seconds) or (
        n_reads is not None and phase.reads < n_reads
    ):
        frame, window = next(seq)
        phase.reads += 1
        what = f"read frame {frame} {window}"
        try:
            t0 = time.perf_counter()
            out = arr.read_window(window, frame=frame)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
            continue
        if tamper is not None:
            out = tamper(out)
        ok = np.array_equal(out, store.refs[frame][window]) and within_bound(
            store.frames[frame][window], out, store.tol
        )
        if tally.record(ok, f"{what}: differs from the full decode"):
            phase.latency_s.append(t1 - t0)
    phase.wall_s = time.perf_counter() - start
    after = arr.cache.stats()
    phase.cache = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
    return phase


def run(seed: int, seconds: float, trace: bool, tally: Tally):
    frames, tol = make_frames(seed)
    with workdir("window_reads") as root:
        setup_s, builds = [], []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            builds.append(build_store(root / f"store{k}", frames, tol, tally))
            setup_s.append(time.perf_counter() - t0)
        store = builds[-1]
        if not trace:
            phase = measure(store, seed, tally, seconds=seconds)
            metrics = end_to_end(phase, store, builds)
            return finish_end_to_end(metrics, setup_s, tally, peak_rss_mib())
        base = measure(store, seed, tally, seconds=seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(store, seed, tally, n_reads=base.reads)
    c = traced.cache
    lookups = c["hits"] + c["misses"]
    extras = {
        "trace.overhead_frac": (
            sum(traced.latency_s) / sum(base.latency_s) - 1.0 if base.latency_s else 0.0
        ),
        "store.chunk_decodes": c["misses"],
        "store.decodes_per_read": c["misses"] / traced.reads,
        "store.cache.hits": c["hits"],
        "store.cache.misses": c["misses"],
        "store.cache.evictions": c["evictions"],
        "store.cache.hit_rate": c["hits"] / lookups if lookups else 0.0,
    }
    return per_layer(tracer.summary(), extras)


def end_to_end(phase: Phase, store: Store, builds: list[Store]):
    """User-visible metrics.  Compress and decompress figures are medians
    over the store builds and full decodes of the set-up; without a service in the
    path the ``svc_*`` latencies equal the in-process ones.  Empty when no
    read succeeded."""
    if not phase.latency_s:
        return {}
    read_ms = [1e3 * s for s in phase.latency_s]
    raw = sum(f.nbytes for f in store.frames)
    append_s = [s for b in builds for s in b.append_s]
    decode_s = [s for b in builds for s in b.decode_s]
    frame_mb = store.frames[0].nbytes / 1e6
    good = sum(t <= 1e3 * LIMIT_S for t in read_ms)
    return {
        "compress_MBps": (frame_mb / pct(append_s, 50), "MB/s"),
        "decompress_MBps": (frame_mb / pct(decode_s, 50), "MB/s"),
        "ratio": (raw / store.nbytes, "x"),
        "psnr_db": (
            float(np.mean([psnr_db(f, r) for f, r in zip(store.frames, store.refs)])), "dB"
        ),
        "read_p50_ms": (pct(read_ms, 50), "ms"),
        "read_p95_ms": (pct(read_ms, 95), "ms"),
        "reads_per_s": (len(read_ms) / sum(phase.latency_s), "1/s"),
        "svc_read_p50_ms": (pct(read_ms, 50), "ms"),
        "svc_read_p95_ms": (pct(read_ms, 95), "ms"),
        "svc_compress_p50_ms": (1e3 * pct(append_s, 50), "ms"),
        "svc_goodput_rps": (good / phase.wall_s, "1/s"),
    }
