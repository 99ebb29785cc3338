"""Ablation: the lossless final pass (the paper's ZSTD stage, Sec. V).

SPECK output is entropy-dense, so the final lossless pass buys only a
small, data-dependent saving.  This bench measures each backend method
on real SPERR chunk streams and reports its decode throughput next to
its saving, with the SPERR chunk decode itself as the yardstick: that
trade-off is why chunk streams are ``stored`` by default.
"""

from __future__ import annotations

import statistics
import time

from common import emit, quick_mode
from repro import lossless
from repro.analysis import banner, format_table
from repro.core import (
    PweMode,
    compress_chunk,
    decompress_chunk,
    tolerance_from_idx,
)
from repro.datasets import miranda_viscosity, s3d_ch4


def _median_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_ablation_lossless_backend(benchmark):
    shape = (16, 16, 16) if quick_mode() else (32, 32, 32)
    cases = {
        "Visc idx=12": (miranda_viscosity(shape), 12),
        "Visc idx=24": (miranda_viscosity(shape), 24),
        "CH4 idx=12": (s3d_ch4(shape), 12),
    }
    methods = ("stored", "rle", "huffman", "rle+huffman", "rc", "auto")

    sizes: dict[tuple[str, str], int] = {}
    decode_mbps: dict[tuple[str, str], float] = {}
    raw_sizes: dict[str, int] = {}
    sperr_mbps: dict[str, float] = {}

    def run():
        for label, (data, idx) in cases.items():
            stream, _ = compress_chunk(data, PweMode(tolerance_from_idx(data, idx)))
            raw_sizes[label] = len(stream)
            mb = len(stream) / 1e6
            sperr_mbps[label] = mb / _median_seconds(
                lambda: decompress_chunk(stream, rank=data.ndim)
            )
            for method in methods:
                payload = lossless.compress(stream, method=method)
                assert lossless.decompress(payload) == stream
                sizes[(label, method)] = len(payload)
                decode_mbps[(label, method)] = mb / _median_seconds(
                    lambda: lossless.decompress(payload)
                )
        return sizes

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label in cases:
        raw = raw_sizes[label]
        row = [label, raw, f"{sperr_mbps[label]:.1f}"] + [
            f"{100 * (1 - sizes[(label, m)] / raw):+.1f}% @ "
            f"{decode_mbps[(label, m)]:.0f}"
            for m in methods
        ]
        rows.append(row)
        # auto picks the best candidate: never worse than stored + tag
        assert sizes[(label, "auto")] <= sizes[(label, "stored")]

    emit(
        "ablation_lossless",
        banner(f"Ablation: lossless backend saving on SPERR chunk streams ({shape})")
        + "\n"
        + format_table(
            ["case", "raw bytes", "sperr decode MB/s"]
            + [f"{m} saving @ decode MB/s" for m in methods],
            rows,
        )
        + "\n(saving = bytes removed from the chunk stream.  Both MB/s columns "
        "count chunk-stream bytes per second: a method at the same MB/s as "
        "the SPERR chunk decode doubles the chunk's decode time.  The paper "
        "uses ZSTD here; on entropy-dense SPECK output the saving is small "
        "and the decode cost is not, so chunk streams are stored by default.)",
    )
