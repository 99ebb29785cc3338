"""Multi-chunk container format and the top-level compress/decompress.

Layout of a version-2 ``.sperr`` container::

    magic "SPRRPY2\\0"                      8 bytes
    rank                 u8
    dtype code           u8  (0=float32, 1=float64)
    mode code            u8  (0=PWE, 1=size, 2=PSNR)
    lossless flag        u8
    header CRC32         u32 (over the whole header, this field zeroed)
    global shape         rank * u64
    n_chunks             u32
    per-chunk bounds     n_chunks * rank * 2 * u64
    per-chunk byte size  n_chunks * u64
    per-chunk CRC32      n_chunks * u32
    chunk payloads       (each optionally lossless-compressed)

Version 1 (magic ``SPRRPY1\\0``) lacks the two CRC layers; v1 payloads
remain readable and decode bit-identically (`parse_container` reports
``format_version``).  Version 3 (magic ``SPRRPY3\\0``) appends a
non-finite mask field to the chunk table — ``mask nbytes u64`` and
``mask CRC32 u32`` after the per-chunk CRCs, with the RLE-coded mask
blob (:mod:`repro.core.mask`) placed between the header and the first
chunk payload.  v3 is written only when the input carries NaN/Inf
samples; finite inputs keep producing byte-identical v2 payloads.

Version 4 (magic ``SPRRPY4\\0``) is the *adaptive* layout: a per-chunk
codec tag column (``n_chunks * u8``, values from
:mod:`repro.core.adaptive`) sits between the per-chunk CRCs and the
mask field, and the mask nbytes/CRC pair is always present (zero for
finite inputs).  Each chunk stream is then self-contained under its
tag's decoder — the lossless-wrapped SPERR stream, a raw ``SZX1``
stream, or verbatim ``RAW1`` bytes — so mixed-codec payloads are
self-describing.  v4 is written only when at least one chunk routed
away from sperr; all-sperr output (including everything produced by
``codec="quality"``, the default) keeps its exact v2/v3 bytes.

Each sperr chunk payload is the self-contained stream of
:func:`repro.core.pipeline.compress_chunk`, mirroring real SPERR's
concatenation of independent per-chunk bitstreams (Sec. III-D).  The
per-chunk CRCs make chunk independence a *fault-isolation* boundary:
:func:`decompress` can verify, skip, and report damaged chunks
(``on_error="salvage"``) instead of losing the whole volume.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from functools import partial

from .. import lossless, obs
from ..errors import (
    AllocationLimitError,
    IntegrityError,
    InvalidArgumentError,
    StreamFormatError,
    decode_guard,
)
from .adaptive import (
    CODEC_SPERR,
    CODEC_STORED,
    CODEC_SZX,
    choose_codecs,
    decode_stored_chunk,
    encode_stored_chunk,
)
from .chunking import Chunk, assemble, plan_chunks
from .mask import (
    DegradationNote,
    apply_mask,
    decode_mask,
    encode_mask,
    sanitize_array,
    tighten_pwe_for_dtype,
)
from .modes import PsnrMode, PweMode, SizeMode
from .parallel import map_chunk_arrays, robust_chunk_map
from .pipeline import ChunkReport, compress_chunk, decompress_chunk

__all__ = [
    "CompressionResult",
    "ParsedContainer",
    "ChunkDecodeStatus",
    "DecodeReport",
    "DecodeResult",
    "DegradationNote",
    "CONTAINER_VERSION",
    "MASKED_CONTAINER_VERSION",
    "ADAPTIVE_CONTAINER_VERSION",
    "MAX_TOTAL_POINTS",
    "compress",
    "decompress",
    "decode_tagged_chunk",
    "parse_container",
    "build_container",
]

_MAGIC_V1 = b"SPRRPY1\x00"
_MAGIC_V2 = b"SPRRPY2\x00"
_MAGIC_V3 = b"SPRRPY3\x00"
_MAGIC_V4 = b"SPRRPY4\x00"
_MAGIC_BY_VERSION = {1: _MAGIC_V1, 2: _MAGIC_V2, 3: _MAGIC_V3, 4: _MAGIC_V4}

#: Container format version written by :func:`build_container` by default.
#: Version 3 adds the non-finite mask section and is only emitted for
#: inputs that actually carry NaN/Inf samples, so fully-finite payloads
#: stay byte-identical to version 2.
CONTAINER_VERSION = 2

#: Container version carrying a non-finite sample mask (see layout above).
MASKED_CONTAINER_VERSION = 3

#: Container version carrying per-chunk codec tags (see layout above);
#: written only when the adaptive dispatcher routed a chunk off sperr.
ADAPTIVE_CONTAINER_VERSION = 4

#: Hard cap on the number of points a container may declare before the
#: decoder allocates the output volume.  Untrusted shape fields beyond
#: this raise :class:`~repro.errors.AllocationLimitError` instead of
#: letting a forged header request terabytes from ``np.empty``.
MAX_TOTAL_POINTS = 1 << 31

_DTYPES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_BY_CODE = {v: k for k, v in _DTYPES.items()}

#: byte offset of the v2 header-CRC field (after magic + 4 meta bytes)
_HEADER_CRC_OFFSET = 12


@dataclass
class CompressionResult:
    """Compressed payload plus accounting from every chunk.

    ``trace`` is a :class:`~repro.obs.TraceReport` when :func:`compress`
    ran with ``trace=True`` (and no ambient trace was already
    collecting); otherwise ``None``.  ``notes`` lists every
    :class:`~repro.core.mask.DegradationNote` the input-hardening layer
    absorbed (masked samples, constant fields, denormal-heavy data).
    """

    payload: bytes
    reports: list[ChunkReport]
    trace: "obs.TraceReport | None" = None
    notes: list[DegradationNote] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    @property
    def npoints(self) -> int:
        return sum(r.npoints for r in self.reports)

    @property
    def bpp(self) -> float:
        """Achieved container bitrate in bits per point."""
        return 8.0 * self.nbytes / self.npoints

    @property
    def n_outliers(self) -> int:
        return sum(r.n_outliers for r in self.reports)


def _compress_chunk_job(
    part: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    wavelet: str,
    levels: int | None,
    lossless_method: str,
) -> tuple[bytes, ChunkReport]:
    """Module-level chunk job (picklable for the process executor).

    The lossless final pass runs here — inside the executor — so chunked
    compression parallelizes the entropy-coding stage along with the
    transform/SPECK stages instead of serializing it in the parent.
    """
    raw, report = compress_chunk(part, mode, wavelet=wavelet, levels=levels)
    packed = lossless.compress(raw, method=lossless_method)
    report.total_nbytes = len(packed)
    return packed, report


def decode_tagged_chunk(
    stream: bytes, tag: int, rank: int, expected_shape: tuple[int, ...]
) -> np.ndarray:
    """Decode one chunk stream under its chunk-table codec tag.

    Shared by the container decoder and the store reader so every decode
    path dispatches identically on mixed-codec payloads.
    """
    if tag == CODEC_SPERR:
        with decode_guard("sperr"):
            return decompress_chunk(
                lossless.decompress(stream),
                rank=rank,
                expected_shape=expected_shape,
            )
    if tag == CODEC_SZX:
        from ..compressors.szxlike.codec import decode_chunk as szx_decode

        return szx_decode(stream, expected_shape=expected_shape)
    if tag == CODEC_STORED:
        return decode_stored_chunk(stream, expected_shape=expected_shape)
    raise StreamFormatError(f"unknown chunk codec tag {tag}")


def _decompress_chunk_job(
    item: tuple[bytes, tuple[int, ...], int], rank: int
) -> np.ndarray:
    """Module-level chunk-decode job (picklable for the process executor)."""
    stream, expected_shape, tag = item
    return decode_tagged_chunk(stream, tag, rank, expected_shape)


def _salvage_chunk_job(
    item: tuple[bytes, tuple[int, ...], int | None, int], rank: int
) -> tuple[str, np.ndarray | str]:
    """Salvage-mode chunk job: never raises, returns ``(status, value)``.

    ``value`` is the decoded array on success, or a one-line exception
    summary on failure.  CRC verification happens here (inside the
    executor) so a damaged chunk costs one checksum, not one traceback.
    """
    stream, expected_shape, crc, tag = item
    if crc is not None and zlib.crc32(stream) != crc:
        return ("crc_mismatch", f"chunk CRC mismatch (stored {crc:#010x})")
    try:
        out = decode_tagged_chunk(stream, tag, rank, expected_shape)
        return ("ok", out)
    except Exception as exc:  # noqa: BLE001 - isolation boundary by design
        return ("decode_error", f"{type(exc).__name__}: {exc}")


def compress(
    data: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    chunk_shape: int | tuple[int, ...] | None = None,
    wavelet: str = "cdf97",
    levels: int | None = None,
    lossless_method: str = "stored",
    executor: str = "batch",
    workers: int | None = None,
    trace: bool = False,
    codec: str = "quality",
) -> CompressionResult:
    """Compress an array into a self-contained SPERR container.

    ``chunk_shape=None`` compresses the volume as a single chunk;
    an int or tuple tiles it for parallel execution (Sec. III-D).
    The default ``batch`` executor runs same-shaped chunks through
    stacked numpy kernels in-process (byte-identical to ``serial``);
    ``thread``/``process`` fan chunks out across workers instead.
    ``lossless_method`` frames each SPERR chunk stream; the default
    ``"stored"`` skips the final pass, whose ~2% saving on SPECK output
    costs far more at decode (docs/lossless.md).
    ``trace=True`` collects a per-stage span trace for this call and
    attaches it as ``result.trace``; when an ambient
    :class:`~repro.obs.trace` is already active, spans flow to it
    instead and ``result.trace`` stays ``None``.

    ``codec`` selects the compression tier per chunk
    (:mod:`repro.core.adaptive`): ``"quality"`` (default) runs every
    chunk through the SPERR pipeline and is byte-identical to the
    pre-adaptive behaviour; ``"fast"`` routes every chunk to the
    SZx-style block codec; ``"adaptive"`` samples each chunk and picks
    szx / sperr / stored per its smoothness.  ``fast`` and ``adaptive``
    require a :class:`~repro.core.modes.PweMode` bound, which every
    tier honors — routing trades ratio against throughput only.
    """
    if trace and not obs.is_active():
        with obs.trace("sperr.compress") as tracer:
            result = _compress_impl(
                data,
                mode,
                chunk_shape=chunk_shape,
                wavelet=wavelet,
                levels=levels,
                lossless_method=lossless_method,
                executor=executor,
                workers=workers,
                codec=codec,
            )
        result.trace = tracer.report()
        return result
    return _compress_impl(
        data,
        mode,
        chunk_shape=chunk_shape,
        wavelet=wavelet,
        levels=levels,
        lossless_method=lossless_method,
        executor=executor,
        workers=workers,
        codec=codec,
    )


def _compress_impl(
    data: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    chunk_shape: int | tuple[int, ...] | None,
    wavelet: str,
    levels: int | None,
    lossless_method: str,
    executor: str,
    workers: int | None,
    codec: str = "quality",
) -> CompressionResult:
    """Validation, chunk fan-out, codec routing, and container framing."""
    data = np.asarray(data)
    if data.dtype not in _DTYPES:
        if np.issubdtype(data.dtype, np.floating) or np.issubdtype(data.dtype, np.integer):
            data = data.astype(np.float64)
        else:
            raise InvalidArgumentError(f"unsupported dtype {data.dtype}")
    if data.ndim < 1 or data.ndim > 3:
        raise InvalidArgumentError("only 1-D, 2-D, and 3-D arrays are supported")
    # Input hardening happens once, before any executor dispatch, so the
    # batch / serial / thread / process paths all see the same finite
    # field and stay byte-identical on masked inputs.
    data, mask_codes, notes = sanitize_array(data)
    mode = tighten_pwe_for_dtype(mode, data)

    chunks = plan_chunks(data.shape, chunk_shape)
    # ``quality`` skips the sampling pass entirely, so the default path
    # stays byte-identical (and cycle-identical) to the legacy pipeline.
    if codec == "quality":
        tags = np.zeros(len(chunks), dtype=np.uint8)
    else:
        tags = choose_codecs(
            [data[c.slices()] for c in chunks], mode, codec
        )

    with obs.span(
        "sperr.compress",
        shape=data.shape,
        chunks=len(chunks),
        executor=executor,
        codec=codec,
    ):
        if not tags.any():
            if executor == "batch" and len(chunks) > 1 and not isinstance(mode, PsnrMode):
                # Same-shaped chunks traverse each stage as one stacked numpy
                # call; output streams are byte-identical to the serial loop.
                from .batch import compress_chunks_batched

                results = compress_chunks_batched(
                    data,
                    chunks,
                    mode,
                    wavelet=wavelet,
                    levels=levels,
                    lossless_method=lossless_method,
                )
            else:
                # Chunks are sliced inside the executor: the process path
                # ships the volume through shared memory once instead of
                # pickling every chunk.  ``batch`` with a single chunk (or
                # PSNR mode, whose per-chunk calibration is sequential)
                # degrades to the serial reference loop.
                results = map_chunk_arrays(
                    _compress_chunk_job,
                    data,
                    chunks,
                    args=(mode, wavelet, levels, lossless_method),
                    executor=executor,
                    workers=workers,
                )
        else:
            results = _compress_parts_mixed(
                data,
                chunks,
                tags,
                mode,
                wavelet=wavelet,
                levels=levels,
                lossless_method=lossless_method,
                executor=executor,
                workers=workers,
            )
        streams = [packed for packed, _ in results]
        reports = [report for _, report in results]

        mode_code = 0 if isinstance(mode, PweMode) else (2 if isinstance(mode, PsnrMode) else 1)
        with obs.span("container.build", n_chunks=len(chunks)):
            mask_blob = None if mask_codes is None else encode_mask(mask_codes)
            if tags.any():
                version = ADAPTIVE_CONTAINER_VERSION
            elif mask_blob is not None:
                version = MASKED_CONTAINER_VERSION
            else:
                version = CONTAINER_VERSION
            payload = build_container(
                data.ndim,
                np.dtype(data.dtype),
                mode_code,
                data.shape,
                chunks,
                streams,
                mask_blob=mask_blob,
                version=version,
                codec_tags=tags if tags.any() else None,
            )
        obs.add_counter("container.bytes", len(payload))
    return CompressionResult(payload=payload, reports=reports, notes=notes)


def _fast_tier_report(
    shape: tuple[int, ...], tolerance: float, nbytes: int
) -> ChunkReport:
    """Accounting stub for szx/stored chunks (no SPECK/outlier stages)."""
    return ChunkReport(
        shape=tuple(shape),
        q=2.0 * tolerance,
        tolerance=tolerance,
        speck_nbits=0,
        outlier_nbits=0,
        n_outliers=0,
        total_nbytes=nbytes,
    )


def _compress_parts_mixed(
    data: np.ndarray,
    chunks: list[Chunk],
    tags: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    wavelet: str,
    levels: int | None,
    lossless_method: str,
    executor: str,
    workers: int | None,
) -> list[tuple[bytes, ChunkReport]]:
    """Compress a mixed-codec chunk plan, lane by lane.

    sperr-tagged chunks keep their batched/parallel path; szx-tagged
    chunks run through one stacked :func:`encode_chunks` kernel call
    (which is byte-identical chunk-by-chunk to serial encoding); stored
    chunks are framed verbatim.  Results come back in chunk order.
    """
    results: list[tuple[bytes, ChunkReport] | None] = [None] * len(chunks)
    sperr_idx = [i for i, t in enumerate(tags) if t == CODEC_SPERR]
    szx_idx = [i for i, t in enumerate(tags) if t == CODEC_SZX]
    stored_idx = [i for i, t in enumerate(tags) if t == CODEC_STORED]

    if sperr_idx:
        sub = [chunks[i] for i in sperr_idx]
        if executor == "batch" and len(sub) > 1 and not isinstance(mode, PsnrMode):
            from .batch import compress_chunks_batched

            pairs = compress_chunks_batched(
                data,
                sub,
                mode,
                wavelet=wavelet,
                levels=levels,
                lossless_method=lossless_method,
            )
        else:
            pairs = map_chunk_arrays(
                _compress_chunk_job,
                data,
                sub,
                args=(mode, wavelet, levels, lossless_method),
                executor=executor,
                workers=workers,
            )
        for i, pair in zip(sperr_idx, pairs):
            results[i] = pair

    # fast/adaptive policies guarantee PweMode before any chunk is
    # tagged szx or stored (see choose_codecs).
    if szx_idx:
        from ..compressors.szxlike.codec import encode_chunks as szx_encode

        views = [
            np.ascontiguousarray(data[chunks[i].slices()], dtype=np.float64)
            for i in szx_idx
        ]
        with obs.span("szx.encode", n_chunks=len(szx_idx)):
            streams = szx_encode(views, mode.tolerance)
        for i, stream, view in zip(szx_idx, streams, views):
            results[i] = (
                stream,
                _fast_tier_report(view.shape, mode.tolerance, len(stream)),
            )

    if stored_idx:
        with obs.span("stored.encode", n_chunks=len(stored_idx)):
            for i in stored_idx:
                part = data[chunks[i].slices()]
                stream = encode_stored_chunk(part)
                results[i] = (
                    stream,
                    _fast_tier_report(part.shape, mode.tolerance, len(stream)),
                )

    return results  # type: ignore[return-value]


@dataclass(frozen=True)
class ParsedContainer:
    """Structural view of a container payload (headers decoded, chunk
    streams still lossless-compressed).

    ``format_version`` is 1 for legacy payloads, 2 for CRC-protected
    ones, 3 for CRC-protected payloads carrying a non-finite sample
    mask, and 4 for adaptive payloads with per-chunk codec tags;
    ``chunk_crcs`` is ``None`` on v1 payloads.  ``mask_blob`` is
    the raw (still lossless-compressed) mask section of a v3/v4 payload —
    its stored CRC is in ``mask_crc`` and is verified by
    :func:`decompress`, not here, so salvage can survive mask damage.
    ``codec_tags`` is the per-chunk codec column of a v4 payload
    (:data:`~repro.core.adaptive.CODEC_SPERR` /
    :data:`~repro.core.adaptive.CODEC_SZX` /
    :data:`~repro.core.adaptive.CODEC_STORED`), ``None`` below v4
    (every chunk is sperr).
    """

    rank: int
    dtype: np.dtype
    mode_code: int
    shape: tuple[int, ...]
    chunks: list[Chunk]
    streams: list[bytes]
    format_version: int = CONTAINER_VERSION
    chunk_crcs: tuple[int, ...] | None = None
    mask_blob: bytes | None = None
    mask_crc: int | None = None
    codec_tags: tuple[int, ...] | None = None


def parse_container(payload: bytes) -> ParsedContainer:
    """Decode the container framing without touching chunk payloads.

    Accepts both v1 and v2 payloads; on v2, the header CRC is verified
    before any field is trusted (:class:`~repro.errors.IntegrityError` on
    mismatch).  Chunk-stream CRCs are *returned*, not verified — chunk
    verification belongs to :func:`decompress`, which can salvage.
    """
    if payload[:8] == _MAGIC_V1:
        version = 1
    elif payload[:8] == _MAGIC_V2:
        version = 2
    elif payload[:8] == _MAGIC_V3:
        version = 3
    elif payload[:8] == _MAGIC_V4:
        version = 4
    else:
        raise StreamFormatError("not a SPERR container (bad magic)")
    try:
        return _parse_container_body(payload, version)
    except struct.error as exc:
        raise StreamFormatError(f"container framing truncated: {exc}") from exc


def _parse_container_body(payload: bytes, version: int) -> ParsedContainer:
    pos = 8
    rank, dtype_code, mode_code, _lossless_flag = struct.unpack_from("<BBBB", payload, pos)
    pos += 4
    stored_header_crc = None
    if version >= 2:
        (stored_header_crc,) = struct.unpack_from("<I", payload, pos)
        pos += 4
    if rank < 1 or rank > 3:
        raise StreamFormatError(f"invalid rank {rank}")
    if dtype_code not in _DTYPE_BY_CODE:
        raise StreamFormatError(f"invalid dtype code {dtype_code}")
    shape = struct.unpack_from(f"<{rank}Q", payload, pos)
    pos += 8 * rank
    npoints = math.prod(int(s) for s in shape)
    if npoints > MAX_TOTAL_POINTS:
        raise AllocationLimitError(
            f"container declares {npoints} points, beyond the "
            f"{MAX_TOTAL_POINTS}-point decode cap"
        )
    (n_chunks,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if n_chunks > max(1, npoints):
        raise StreamFormatError(
            f"container declares {n_chunks} chunks for {npoints} points"
        )
    chunks = []
    for _ in range(n_chunks):
        bounds = []
        for axis in range(rank):
            a, b = struct.unpack_from("<QQ", payload, pos)
            pos += 16
            if a >= b or b > int(shape[axis]):
                raise StreamFormatError(
                    f"chunk bounds ({a}, {b}) outside axis extent {shape[axis]}"
                )
            bounds.append((a, b))
        chunks.append(Chunk(bounds=tuple(bounds)))
    sizes = struct.unpack_from(f"<{n_chunks}Q", payload, pos)
    pos += 8 * n_chunks
    chunk_crcs: tuple[int, ...] | None = None
    mask_nbytes = 0
    mask_crc: int | None = None
    codec_tags: tuple[int, ...] | None = None
    if version >= 2:
        chunk_crcs = struct.unpack_from(f"<{n_chunks}I", payload, pos)
        pos += 4 * n_chunks
        if version >= 4:
            codec_tags = struct.unpack_from(f"<{n_chunks}B", payload, pos)
            pos += n_chunks
            if any(t > 2 for t in codec_tags):
                raise StreamFormatError(
                    "container chunk table carries an unknown codec tag"
                )
        if version >= 3:
            mask_nbytes, mask_crc = struct.unpack_from("<QI", payload, pos)
            pos += 12
        header = bytearray(payload[:pos])
        header[_HEADER_CRC_OFFSET : _HEADER_CRC_OFFSET + 4] = b"\x00\x00\x00\x00"
        if zlib.crc32(bytes(header)) != stored_header_crc:
            raise IntegrityError("container header CRC mismatch")
    if mask_nbytes > len(payload) - pos:
        raise StreamFormatError(
            f"container declares a {mask_nbytes}-byte mask but only "
            f"{len(payload) - pos} bytes remain"
        )
    mask_blob: bytes | None = None
    if version >= 3 and mask_nbytes:
        mask_blob = payload[pos : pos + mask_nbytes]
        pos += mask_nbytes
    declared = sum(int(s) for s in sizes)
    if declared > len(payload) - pos:
        raise StreamFormatError(
            f"container truncated: sections declare {declared} bytes but "
            f"only {len(payload) - pos} remain"
        )
    if declared < len(payload) - pos:
        raise StreamFormatError(
            f"{len(payload) - pos - declared} trailing bytes after the "
            "last chunk stream"
        )
    streams = []
    for size in sizes:
        streams.append(payload[pos : pos + size])
        pos += size
    return ParsedContainer(
        rank=rank,
        dtype=_DTYPE_BY_CODE[dtype_code],
        mode_code=mode_code,
        shape=tuple(int(s) for s in shape),
        chunks=chunks,
        streams=streams,
        format_version=version,
        chunk_crcs=chunk_crcs,
        mask_blob=mask_blob,
        mask_crc=mask_crc,
        codec_tags=codec_tags,
    )


def build_container(
    rank: int,
    dtype: np.dtype,
    mode_code: int,
    shape: tuple[int, ...],
    chunks: list[Chunk],
    streams: list[bytes],
    *,
    version: int = CONTAINER_VERSION,
    mask_blob: bytes | None = None,
    codec_tags: "np.ndarray | tuple[int, ...] | None" = None,
) -> bytes:
    """Assemble a container payload from its parts (inverse of parsing).

    ``version=2`` (default) writes the CRC-protected layout; ``version=1``
    reproduces the legacy byte layout for compatibility testing.
    ``mask_blob`` (an :func:`repro.core.mask.encode_mask` record)
    requires ``version>=3``; a ``codec_tags`` column (any chunk routed
    off sperr) requires ``version=4``.
    """
    if version not in _MAGIC_BY_VERSION:
        raise InvalidArgumentError(f"unknown container version {version}")
    if mask_blob is not None and version < 3:
        raise InvalidArgumentError(
            f"a non-finite mask needs container version 3, got {version}"
        )
    tags = None if codec_tags is None else [int(t) for t in codec_tags]
    if tags is not None and any(t != CODEC_SPERR for t in tags) and version < 4:
        raise InvalidArgumentError(
            f"per-chunk codec tags need container version 4, got {version}"
        )
    if version >= 4:
        if tags is None:
            tags = [CODEC_SPERR] * len(chunks)
        if len(tags) != len(chunks):
            raise InvalidArgumentError(
                f"{len(tags)} codec tags for {len(chunks)} chunks"
            )
        if any(t not in (CODEC_SPERR, CODEC_SZX, CODEC_STORED) for t in tags):
            raise InvalidArgumentError(f"unknown codec tag in {tags}")
    head = bytearray()
    head += _MAGIC_BY_VERSION[version]
    head += struct.pack("<BBBB", rank, _DTYPES[np.dtype(dtype)], mode_code, 1)
    if version >= 2:
        head += b"\x00\x00\x00\x00"  # header CRC, patched below
    head += struct.pack(f"<{rank}Q", *shape)
    head += struct.pack("<I", len(chunks))
    for chunk in chunks:
        for a, b in chunk.bounds:
            head += struct.pack("<QQ", a, b)
    for s in streams:
        head += struct.pack("<Q", len(s))
    mask = mask_blob or b""
    if version >= 2:
        for s in streams:
            head += struct.pack("<I", zlib.crc32(s))
        if version >= 4:
            head += struct.pack(f"<{len(tags)}B", *tags)
        if version >= 3:
            head += struct.pack("<QI", len(mask), zlib.crc32(mask))
        struct.pack_into("<I", head, _HEADER_CRC_OFFSET, zlib.crc32(bytes(head)))
    return bytes(head) + mask + b"".join(streams)


@dataclass(frozen=True)
class ChunkDecodeStatus:
    """Outcome of decoding one chunk: ``ok``, ``crc_mismatch``, or
    ``decode_error`` (with a one-line exception summary)."""

    index: int
    status: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class DecodeReport:
    """Structured account of one container decode.

    Produced by salvage-mode :func:`decompress`; lists per-chunk status,
    which chunks failed CRC verification, and any executor degradations
    (timeouts, broken pools) that were absorbed along the way.
    """

    format_version: int
    chunk_status: list[ChunkDecodeStatus] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_status)

    @property
    def failed_chunks(self) -> list[int]:
        """Indices of chunks that did not decode (CRC or decode failure)."""
        return [s.index for s in self.chunk_status if not s.ok]

    @property
    def crc_mismatches(self) -> list[int]:
        """Indices of chunks whose stored CRC32 did not match."""
        return [s.index for s in self.chunk_status if s.status == "crc_mismatch"]

    @property
    def ok(self) -> bool:
        """True when every chunk decoded and no degradation occurred."""
        return not self.failed_chunks

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        if self.ok:
            return f"all {self.n_chunks} chunks decoded (format v{self.format_version})"
        return (
            f"{self.n_chunks - len(self.failed_chunks)}/{self.n_chunks} chunks "
            f"decoded; failed chunks {self.failed_chunks} "
            f"(CRC mismatches {self.crc_mismatches})"
        )


@dataclass
class DecodeResult:
    """Salvage-mode decode output: the reconstructed volume (failed chunks
    filled with ``fill_value``) plus the :class:`DecodeReport`.

    Behaves like its array in numpy expressions via ``__array__``.
    """

    data: np.ndarray
    report: DecodeReport

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.data.astype(dtype)
        return self.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


def decompress(
    payload: bytes,
    *,
    executor: str = "serial",
    workers: int | None = None,
    on_error: str = "raise",
    fill_value: float = float("nan"),
    timeout: float | None = None,
) -> np.ndarray | DecodeResult:
    """Decompress a container produced by :func:`compress`.

    ``on_error="raise"`` (default) verifies every chunk CRC (v2) and
    raises on the first damaged chunk, returning the bare array on
    success.  ``on_error="salvage"`` decodes every intact chunk, fills
    damaged ones with ``fill_value`` (default NaN), and returns a
    :class:`DecodeResult` carrying the array and a :class:`DecodeReport` —
    per-chunk independence as a fault-isolation boundary.  ``timeout``
    bounds each parallel chunk task in seconds; an expired or broken pool
    degrades to serial for the affected chunks and is recorded in the
    report rather than raised.
    """
    if on_error not in ("raise", "salvage"):
        raise InvalidArgumentError(
            f"on_error must be 'raise' or 'salvage', got {on_error!r}"
        )
    with obs.span("sperr.decompress", nbytes=len(payload), mode=on_error):
        with obs.span("container.parse"):
            parsed = parse_container(payload)
        crcs: list[int | None]
        if parsed.chunk_crcs is None:
            crcs = [None] * len(parsed.streams)
        else:
            crcs = list(parsed.chunk_crcs)
        tags = (
            list(parsed.codec_tags)
            if parsed.codec_tags is not None
            else [CODEC_SPERR] * len(parsed.streams)
        )

        if on_error == "raise":
            with obs.span("container.verify", n_chunks=len(parsed.streams)):
                for i, (stream, crc) in enumerate(zip(parsed.streams, crcs)):
                    if crc is not None and zlib.crc32(stream) != crc:
                        raise IntegrityError(f"chunk {i} CRC mismatch")
            work = partial(_decompress_chunk_job, rank=parsed.rank)
            items = [
                (s, c.shape, t)
                for s, c, t in zip(parsed.streams, parsed.chunks, tags)
            ]
            parts, _notes = robust_chunk_map(
                work, items, executor=executor, workers=workers, timeout=timeout
            )
            with obs.span("container.assemble"):
                out = assemble(parsed.shape, parsed.chunks, parts)
            out = out.astype(parsed.dtype, copy=False)
            _restore_mask(out, parsed)
            return out

        report = DecodeReport(format_version=parsed.format_version)
        work = partial(_salvage_chunk_job, rank=parsed.rank)
        items = [
            (s, c.shape, crc, t)
            for s, c, crc, t in zip(parsed.streams, parsed.chunks, crcs, tags)
        ]
        results, notes = robust_chunk_map(
            work, items, executor=executor, workers=workers, timeout=timeout
        )
        report.notes.extend(notes)
        parts = []
        for i, ((status, value), chunk) in enumerate(zip(results, parsed.chunks)):
            if status == "ok":
                report.chunk_status.append(ChunkDecodeStatus(index=i, status="ok"))
                parts.append(value)
            else:
                report.chunk_status.append(
                    ChunkDecodeStatus(index=i, status=status, error=str(value))
                )
                parts.append(np.full(chunk.shape, fill_value, dtype=np.float64))
        with obs.span("container.assemble"):
            out = assemble(parsed.shape, parsed.chunks, parts)
        out = out.astype(parsed.dtype, copy=False)
        _restore_mask(out, parsed, report)
        return DecodeResult(data=out, report=report)


def _restore_mask(
    out: np.ndarray, parsed: ParsedContainer, report: DecodeReport | None = None
) -> None:
    """Re-impose a v3 payload's NaN/±Inf pattern onto the decoded volume.

    In strict mode (``report=None``) a damaged mask raises; in salvage
    mode the damage is recorded as a report note and the decode proceeds
    without the mask (the fill values are legitimate in-range data, so
    nothing unflagged leaks out).
    """
    if parsed.mask_blob is None:
        return
    try:
        if (
            parsed.mask_crc is not None
            and zlib.crc32(parsed.mask_blob) != parsed.mask_crc
        ):
            raise IntegrityError("container mask CRC mismatch")
        apply_mask(out, decode_mask(parsed.mask_blob, out.size))
    except (IntegrityError, StreamFormatError) as exc:
        if report is None:
            raise
        report.notes.append(f"mask section unrecoverable: {exc}")
