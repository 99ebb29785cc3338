"""``archive`` and ``fast_ingest``: one caller in a closed loop compressing
whole 128^3 fields at a fixed PWE bound and decompressing them again.

``archive`` uses the SPERR quality tier (``codec="quality"``), where the
wavelet, SPECK, outlier and lossless layers do the work; ``fast_ingest``
uses ``codec="adaptive"``, which at this bound routes every chunk to the
SZx-style codec and so bypasses those layers.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import repro.core as core
from repro.core import CODEC_SPERR, CODEC_STORED, CODEC_SZX

from .common import (
    CHUNK,
    SETUP_REPEATS,
    Tally,
    finish_end_to_end,
    make_field,
    pct,
    peak_rss_mib,
    psnr_db,
    tolerance,
    within_bound,
)
from .tracer import Tracer, per_layer


#: One pass compresses and decompresses one field of each generator, so
#: every pass does the same mix of work whatever the seed.
GENERATORS = ("miranda_density", "s3d_temperature", "nyx_velocity_x")
SHAPE = (128, 128, 128)
#: An operation slower than this misses the goodput limit.
LIMIT_S = {"quality": 5.0, "adaptive": 1.0}

COLDSTART = Path(__file__).resolve().parent / "coldstart.py"


def make_inputs(seed: int) -> list[tuple[str, np.ndarray, float]]:
    out = []
    for i, name in enumerate(GENERATORS):
        data = make_field(name, SHAPE, seed * 16 + i)
        out.append((name, data, tolerance(data)))
    return out


def cold_start(codec: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports ``repro`` and
    compresses and decompresses one 64^3 field: the set-up a user pays."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(COLDSTART), "--codec", codec, "--seed", str(seed)],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


@dataclass
class Phase:
    nbytes: list[int] = field(default_factory=list)
    compress_s: list[float] = field(default_factory=list)
    decompress_s: list[float] = field(default_factory=list)
    payload_bytes: list[int] = field(default_factory=list)
    psnr: list[float] = field(default_factory=list)
    routes: Counter = field(default_factory=Counter)
    passes: int = 0
    wall_s: float = 0.0

    @property
    def op_s(self) -> float:
        return sum(self.compress_s) + sum(self.decompress_s)


def measure(
    inputs,
    codec: str,
    tally: Tally,
    *,
    seconds: float | None = None,
    passes: int | None = None,
    count_routes: bool = False,
    tamper=None,
) -> Phase:
    """Run whole passes over ``inputs`` until ``seconds`` have elapsed (or
    for exactly ``passes`` passes).  ``tamper(payload) -> payload`` lets the
    tests corrupt a payload between compress and decompress."""
    phase = Phase()
    start = time.perf_counter()
    while (passes is None and time.perf_counter() - start < seconds) or (
        passes is not None and phase.passes < passes
    ):
        for name, data, tol in inputs:
            what = f"{codec} {name}"
            try:
                t0 = time.perf_counter()
                res = core.compress(
                    data, core.PweMode(tol), chunk_shape=CHUNK, codec=codec
                )
                t1 = time.perf_counter()
                payload = res.payload if tamper is None else tamper(res.payload)
                t2 = time.perf_counter()
                out = core.decompress(payload)
                t3 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
                continue
            if not tally.record(within_bound(data, out, tol), f"{what}: PWE bound"):
                continue
            phase.nbytes.append(data.nbytes)
            phase.compress_s.append(t1 - t0)
            phase.decompress_s.append(t3 - t2)
            phase.payload_bytes.append(len(payload))
            phase.psnr.append(psnr_db(data, out))
            if count_routes:
                parsed = core.parse_container(payload)
                tags = parsed.codec_tags
                # Below container v4 every chunk is a SPERR chunk.
                if tags is None:
                    tags = [CODEC_SPERR] * len(parsed.chunks)
                phase.routes.update(tags)
        phase.passes += 1
    phase.wall_s = time.perf_counter() - start
    return phase


def end_to_end(phase: Phase, codec: str) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one phase.  Without a service in the
    path, a read is a full decompress and the ``svc_*`` latencies equal the
    in-process ones.  Empty when no operation succeeded."""
    if not phase.nbytes:
        return {}
    mb = sum(phase.nbytes) / 1e6
    comp_ms = [1e3 * s for s in phase.compress_s]
    read_ms = [1e3 * s for s in phase.decompress_s]
    limit_ms = 1e3 * LIMIT_S[codec]
    good = sum(t <= limit_ms for t in comp_ms + read_ms)
    return {
        "compress_MBps": (mb / sum(phase.compress_s), "MB/s"),
        "decompress_MBps": (mb / sum(phase.decompress_s), "MB/s"),
        "ratio": (sum(phase.nbytes) / sum(phase.payload_bytes), "x"),
        "psnr_db": (float(np.mean(phase.psnr)), "dB"),
        "read_p50_ms": (pct(read_ms, 50), "ms"),
        "read_p95_ms": (pct(read_ms, 95), "ms"),
        "reads_per_s": (len(read_ms) / sum(phase.decompress_s), "1/s"),
        "svc_read_p50_ms": (pct(read_ms, 50), "ms"),
        "svc_read_p95_ms": (pct(read_ms, 95), "ms"),
        "svc_compress_p50_ms": (pct(comp_ms, 50), "ms"),
        "svc_goodput_rps": (good / phase.wall_s, "1/s"),
    }


def run(codec: str, seed: int, seconds: float, trace: bool, tally: Tally):
    inputs = make_inputs(seed)
    setup_s = [cold_start(codec, seed) for _ in range(SETUP_REPEATS)]
    # Fill this process's plan caches before timing (the set-up above pays
    # the same cost in a fresh interpreter).
    name, data, tol = inputs[0]
    measure([(name, np.ascontiguousarray(data[:64, :64, :64]), tol)], codec, Tally(), passes=1)
    if not trace:
        phase = measure(inputs, codec, tally, seconds=seconds)
        return finish_end_to_end(end_to_end(phase, codec), setup_s, tally, peak_rss_mib())
    base = measure(inputs, codec, tally, seconds=seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = measure(inputs, codec, tally, passes=base.passes, count_routes=True)
    extras = {
        "trace.overhead_frac": traced.op_s / base.op_s - 1.0 if base.op_s else 0.0,
        "core.adaptive.route_sperr": traced.routes[CODEC_SPERR],
        "core.adaptive.route_szx": traced.routes[CODEC_SZX],
        "core.adaptive.route_stored": traced.routes[CODEC_STORED],
    }
    return per_layer(tracer.summary(), extras)
