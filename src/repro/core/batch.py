"""Batched chunk compression: stacked-lane kernels over same-shaped chunks.

This is the ``executor="batch"`` execution mode (ROADMAP item 3): instead
of looping chunk-by-chunk through the four pipeline stages, chunks are
grouped by shape and every group traverses each stage as one stacked
``(n_chunks, *chunk_shape)`` numpy call — batched forward/inverse wavelet
lifting, batched quantization, stacked-lane SPECK with per-lane budget
masking, and batched outlier location/coding.  The per-chunk bitstreams
that come out are byte-identical to the serial path's
(:func:`repro.core.pipeline.compress_chunk`), so container framing,
golden fixtures, salvage, and progressive truncation are unaffected.

Groups of one chunk fall back to the serial reference path, as does PSNR
mode (its per-chunk bisection calibration is inherently sequential).
"""

from __future__ import annotations

import time

import numpy as np

from .. import lossless
from ..bitstream import HEADER_SIZE, ChunkHeader, ChunkParams
from ..errors import InvalidArgumentError
from ..obs import add_counter, span
from ..speck import encode_coefficients_batch
from ..wavelets.dwt import forward_batch, inverse_batch
from .chunking import Chunk, group_by_shape
from .modes import PsnrMode, PweMode, SizeMode
from .pipeline import SIZE_MODE_PLANES, ChunkReport, _shape3
from .plans import wavelet_plan

__all__ = ["compress_chunks_batched"]


def compress_chunks_batched(
    data: np.ndarray,
    chunks: list[Chunk],
    mode: PweMode | SizeMode,
    *,
    wavelet: str = "cdf97",
    levels: int | None = None,
    lossless_method: str = "stored",
) -> list[tuple[bytes, ChunkReport]]:
    """Compress every chunk of ``data`` via shape-grouped stacked kernels.

    Returns ``(packed_stream, report)`` pairs in chunk order, each
    byte-identical to the serial ``_compress_chunk_job`` output.
    """
    if isinstance(mode, PsnrMode):
        raise InvalidArgumentError("PSNR mode is not batchable; use the serial path")
    data = np.asarray(data, dtype=np.float64)
    results: list[tuple[bytes, ChunkReport] | None] = [None] * len(chunks)
    for shape, indices in group_by_shape(chunks):
        if len(indices) == 1:
            # Singleton groups gain nothing from stacking; run the serial
            # reference path (including its chunk.compress span).
            from .container import _compress_chunk_job

            i = indices[0]
            part = np.ascontiguousarray(data[chunks[i].slices()])
            results[i] = _compress_chunk_job(
                part, mode, wavelet, levels, lossless_method
            )
            continue
        stack = np.stack(
            [np.ascontiguousarray(data[chunks[i].slices()]) for i in indices]
        )
        for i, item in zip(indices, _compress_group(
            stack, mode, wavelet, levels, lossless_method
        )):
            results[i] = item
    return results  # type: ignore[return-value]


def _compress_group(
    stack: np.ndarray,
    mode: PweMode | SizeMode,
    wavelet: str,
    levels: int | None,
    lossless_method: str,
) -> list[tuple[bytes, ChunkReport]]:
    """Run one same-shaped group through the stacked stages."""
    n_lanes = stack.shape[0]
    shape = stack.shape[1:]
    if len(shape) < 1 or len(shape) > 3:
        raise InvalidArgumentError("chunks must be 1-D, 2-D, or 3-D")
    if not np.all(np.isfinite(stack)):
        raise InvalidArgumentError("input contains NaN or Inf")
    plan = wavelet_plan(shape, wavelet=wavelet, levels=levels)
    chunk_size = int(np.prod(shape))

    t0 = time.perf_counter()
    with span("wavelet.forward", wavelet=wavelet, lanes=n_lanes):
        coeffs = forward_batch(stack, plan)
    t1 = time.perf_counter()

    if isinstance(mode, PweMode):
        q = mode.q
        tolerance = mode.tolerance
        max_bits = None
    else:
        max_abs = np.abs(coeffs).reshape(n_lanes, -1).max(axis=1)
        q = np.where(max_abs > 0, max_abs / float(2**SIZE_MODE_PLANES), 1.0)
        tolerance = 0.0
        overhead_bits = 8 * (HEADER_SIZE + ChunkParams.SIZE)
        max_bits = max(64, int(mode.bpp * chunk_size) - overhead_bits)

    encoded, coeff_recon = encode_coefficients_batch(coeffs, q, max_bits=max_bits)
    t2 = time.perf_counter()

    outlier_sections = [(b"", 0, 0)] * n_lanes  # (stream, nbits, n_outliers)
    t3 = t2
    t4 = t2
    if isinstance(mode, PweMode):
        with span("wavelet.inverse", wavelet=wavelet, lanes=n_lanes):
            recon = inverse_batch(coeff_recon, plan)
        outlier_sections, t3 = _locate_and_code_outliers(
            stack, recon, tolerance, n_lanes, chunk_size
        )
        t4 = time.perf_counter()

    per_lane = max(1, n_lanes)
    timings = {
        "transform": (t1 - t0) / per_lane,
        "speck": (t2 - t1) / per_lane,
        "locate": (t3 - t2) / per_lane,
        "outlier_code": (t4 - t3) / per_lane,
    }

    out: list[tuple[bytes, ChunkReport]] = []
    for lane in range(n_lanes):
        speck_stream, speck_nbits, stats = encoded[lane]
        outlier_stream, outlier_nbits, n_outliers = outlier_sections[lane]
        q_lane = float(q) if np.isscalar(q) or np.ndim(q) == 0 else float(q[lane])
        header = ChunkHeader(
            shape=_shape3(shape),
            speck_nbytes=len(speck_stream),
            is_double=True,
            pwe_mode=isinstance(mode, PweMode),
            has_outliers=n_outliers > 0,
        )
        params = ChunkParams(
            q=q_lane,
            tolerance=tolerance,
            speck_nbits=speck_nbits,
            outlier_nbits=outlier_nbits,
            outlier_nbytes=len(outlier_stream),
            wavelet=wavelet,
            levels=levels,
        )
        stream = header.pack() + params.pack() + speck_stream + outlier_stream
        add_counter("speck.bits", speck_nbits)
        add_counter("outlier.bits", outlier_nbits)
        add_counter("outlier.count", n_outliers)
        add_counter("chunk.bytes", len(stream))
        packed = lossless.compress(stream, method=lossless_method)
        report = ChunkReport(
            shape=shape,
            q=q_lane,
            tolerance=tolerance,
            speck_nbits=speck_nbits,
            outlier_nbits=outlier_nbits,
            n_outliers=n_outliers,
            total_nbytes=len(packed),
            timings=dict(timings),
            speck_stats=stats,
        )
        out.append((packed, report))
    return out


def _locate_and_code_outliers(
    stack: np.ndarray,
    recon: np.ndarray,
    tolerance: float,
    n_lanes: int,
    chunk_size: int,
) -> tuple[list[tuple[bytes, int, int]], float]:
    """Batched outlier location and coding for one PWE-mode group.

    The error/threshold comparison runs on the whole stack at once;
    ``np.nonzero`` walks the mask in C order, so each lane's positions
    come out ascending exactly as the serial ``np.flatnonzero`` would.
    Only the sparse corrections are quantized (elementwise, identical to
    the serial coder) and only lanes that *have* outliers are SPECK-coded
    — the serial path emits no outlier section when a chunk has none.
    """
    from ..quant import integerize
    from ..speck import encode_batch

    with span("outlier.locate", tolerance=tolerance, lanes=n_lanes) as sp:
        err = stack.reshape(n_lanes, -1) - recon.reshape(n_lanes, -1)
        mask = np.abs(err) > tolerance
        rows, cols = np.nonzero(mask)
        counts = np.bincount(rows, minlength=n_lanes)
        sp.set(n_outliers=int(rows.size))
    t3 = time.perf_counter()

    sections: list[tuple[bytes, int, int]] = [(b"", 0, 0)] * n_lanes
    coded_lanes = np.nonzero(counts)[0]
    if coded_lanes.size:
        with span("outlier.encode", n_outliers=int(rows.size), lanes=len(coded_lanes)):
            mags, negative = integerize(err[rows, cols], tolerance)
            lane_row = np.full(n_lanes, -1, dtype=np.int64)
            lane_row[coded_lanes] = np.arange(coded_lanes.size)
            dense_mags = np.zeros((coded_lanes.size, chunk_size), dtype=np.uint64)
            dense_neg = np.zeros((coded_lanes.size, chunk_size), dtype=bool)
            dense_mags[lane_row[rows], cols] = mags
            dense_neg[lane_row[rows], cols] = negative
            encoded = encode_batch(dense_mags, dense_neg)
        for j, lane in enumerate(coded_lanes):
            o_stream, o_nbits, _ = encoded[j]
            sections[lane] = (o_stream, o_nbits, int(counts[lane]))
    return sections, t3
