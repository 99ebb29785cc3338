"""Benchmark-regression harness: per-stage timings with a persistent trail.

Times compress/decompress for SPERR and the four baseline compressors on
fixed seeds and writes ``BENCH_speed.json`` at the repo root.  The file
keeps two measurement blocks:

* ``baseline`` — frozen numbers recorded before the hot-path PR landed
  (refresh only deliberately, with ``--rebaseline``);
* ``current``  — refreshed on every run, giving each future PR a perf
  trajectory to compare against.

The headline series is ``sperr_multichunk``: a 64^3 volume compressed in
32^3 chunks with a warm plan cache, the configuration of the paper's
strong-scaling study (Fig. 7/10).  ``speedup_vs_baseline`` records how
the current tree compares against the frozen baseline per stage.  Stage
splits come from the ``repro.obs`` span collector (one traced compress
pass per case); the timed repeats themselves run untraced so the gate
keeps measuring the production fast path.

Run from the repo root (or anywhere)::

    PYTHONPATH=src python benchmarks/bench_regression.py [--quick] [--label L]

``benchmarks/check_regression.py`` consumes the same file as an opt-in
CI gate (fails when any stage regresses >25%).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro import lossless  # noqa: E402
from repro.analysis.timing import STAGE_SPANS, STAGE_SPANS_DECODE  # noqa: E402
from repro.compressors import (  # noqa: E402
    MgardLikeCompressor,
    SperrCompressor,
    SzLikeCompressor,
    TthreshLikeCompressor,
    ZfpLikeCompressor,
)
from repro.compressors.base import PsnrMode  # noqa: E402
from repro.core.modes import PweMode  # noqa: E402
from repro.datasets.fields import get_field  # noqa: E402

BENCH_FILE = ROOT / "BENCH_speed.json"
SCHEMA = 1

#: Fixed workload parameters — every number in BENCH_speed.json is
#: reproducible from these.
CONFIG = {
    "field": "miranda_density",
    "seed": 7,
    "shape_small": [32, 32, 32],
    "shape_multichunk": [64, 64, 64],
    "chunk": 32,
    "tol_rel": 1e-3,
    "psnr_db": 60.0,
}

#: The case the acceptance criterion tracks: multi-chunk SPERR with a
#: warm plan cache must stay >= 1.5x faster than the pre-PR baseline.
HEADLINE_CASE = "sperr_multichunk"
HEADLINE_MIN_SPEEDUP = 1.5

#: Chunk-count scaling series: the same 32^3 chunk shape at 1, 8 and 64
#: chunks (32^3, 64^3 and 128^3 volumes).  The batched executor exists
#: to keep per-chunk cost flat as the chunk count grows, so the gate
#: asserts exactly that (see ``check_regression.check_chunk_scaling``).
SCALING_CHUNK_COUNTS = (1, 8, 64)
#: Per-chunk compress time at 64 chunks must stay within this factor of
#: the single-chunk time.
SCALING_MAX_PER_CHUNK_RATIO = 1.5


def _field(shape: tuple[int, ...]) -> np.ndarray:
    return get_field(CONFIG["field"], shape, seed=CONFIG["seed"])


def _pwe(data: np.ndarray) -> PweMode:
    return PweMode(CONFIG["tol_rel"] * float(data.max() - data.min()))


def _make_cases() -> dict[str, dict]:
    """Build the case table: (compressor factory, data, mode) per name."""
    small = _field(tuple(CONFIG["shape_small"]))
    big = _field(tuple(CONFIG["shape_multichunk"]))
    return {
        "sperr": {"comp": lambda: SperrCompressor(), "data": small, "mode": _pwe(small)},
        "sz3": {"comp": lambda: SzLikeCompressor(), "data": small, "mode": _pwe(small)},
        "zfp": {"comp": lambda: ZfpLikeCompressor(), "data": small, "mode": _pwe(small)},
        "tthresh": {
            "comp": lambda: TthreshLikeCompressor(),
            "data": small,
            "mode": PsnrMode(CONFIG["psnr_db"]),
        },
        "mgard": {"comp": lambda: MgardLikeCompressor(), "data": small, "mode": _pwe(small)},
        HEADLINE_CASE: {
            "comp": lambda: SperrCompressor(chunk_shape=CONFIG["chunk"]),
            "data": big,
            "mode": _pwe(big),
        },
    }


def _stage_breakdown(comp, data, mode) -> tuple[dict[str, float], dict[str, float]]:
    """Per-stage compress and decompress seconds from traced passes.

    Aggregates span wall time with the same Fig. 6 mapping the analysis
    layer uses (:data:`repro.analysis.timing.STAGE_SPANS` on the encode
    side, plus the lossless final pass, and
    :data:`~repro.analysis.timing.STAGE_SPANS_DECODE` on the decode
    side).  Baselines that never enter the SPERR pipeline record no
    spans and get empty dicts.
    """
    with obs.trace("bench.stages") as tracer:
        payload = comp.compress(data, mode)
    totals = tracer.report().stage_totals()
    groups = dict(STAGE_SPANS, lossless=("lossless.encode",))
    stages = {
        stage: sum(totals.get(name, 0.0) for name in names)
        for stage, names in groups.items()
    }
    with obs.trace("bench.stages.decode") as tracer:
        comp.decompress(payload)
    totals = tracer.report().stage_totals()
    d_stages = {
        stage: sum(totals.get(name, 0.0) for name in names)
        for stage, names in STAGE_SPANS_DECODE.items()
    }
    return (
        {k: v for k, v in stages.items() if v > 0.0},
        {k: v for k, v in d_stages.items() if v > 0.0},
    )


def _time_case(case: dict, repeats: int) -> dict:
    """Median compress/decompress seconds (plus SPERR stage breakdown)."""
    comp = case["comp"]()
    data, mode = case["data"], case["mode"]
    # Warm-up pass: fills the plan caches (post-PR) and any lazy numpy
    # state, so the timed repeats measure the steady warm-path regime.
    payload = comp.compress(data, mode)
    comp.decompress(payload)

    # The timed repeats run untraced so the gate numbers keep measuring
    # the production fast path; a separate traced compress pass supplies
    # the per-stage split.
    c_times, d_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        payload = comp.compress(data, mode)
        t1 = time.perf_counter()
        out = comp.decompress(payload)
        t2 = time.perf_counter()
        c_times.append(t1 - t0)
        d_times.append(t2 - t1)
    stages, d_stages = _stage_breakdown(comp, data, mode)
    if out.shape != data.shape:
        raise RuntimeError(f"round-trip shape mismatch: {out.shape} vs {data.shape}")
    if isinstance(mode, PweMode):
        worst = float(np.max(np.abs(out - data)))
        if worst > mode.tolerance * 1.0000001:
            raise RuntimeError(f"tolerance violated: {worst} > {mode.tolerance}")

    entry = {
        "compress_s": statistics.median(c_times),
        "decompress_s": statistics.median(d_times),
        "end_to_end_s": statistics.median(
            [c + d for c, d in zip(c_times, d_times)]
        ),
        "payload_bytes": len(payload),
        "repeats": repeats,
    }
    if stages:
        entry["stages"] = dict(sorted(stages.items()))
    if d_stages:
        entry["stages_decompress"] = dict(sorted(d_stages.items()))
    return entry


def measure(repeats: int = 3, cases: dict | None = None) -> dict:
    """Measure every case; returns ``{case_name: stage timings}``."""
    cases = cases if cases is not None else _make_cases()
    out = {}
    for name, case in cases.items():
        out[name] = _time_case(case, repeats)
        print(
            f"  {name:16s} compress {out[name]['compress_s'] * 1e3:8.1f} ms   "
            f"decompress {out[name]['decompress_s'] * 1e3:8.1f} ms   "
            f"{out[name]['payload_bytes']:9d} B"
        )
    return out


def measure_chunk_scaling(repeats: int = 3) -> dict:
    """Per-chunk compress time at 1 / 8 / 64 chunks of the 32^3 shape.

    Every point compresses a cube of ``count`` 32^3 chunks with the same
    compressor configuration as the headline case, after one warm-up
    pass, and records the median wall time and its per-chunk share.  The
    summary key ``per_chunk_ratio_64_vs_1`` is what the gate reads: with
    the stacked-lane batch executor the 64-chunk per-chunk time should
    sit at (or below) the single-chunk time, since chunk fan-out no
    longer re-enters the interpreter per stage per chunk.
    """
    out = {}
    chunk = CONFIG["chunk"]
    for count in SCALING_CHUNK_COUNTS:
        side = chunk * round(count ** (1.0 / 3.0))
        data = _field((side,) * 3)
        mode = _pwe(data)
        comp = SperrCompressor(chunk_shape=chunk)
        payload = comp.compress(data, mode)  # warm-up: plan caches etc.
        times = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            payload = comp.compress(data, mode)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        out[str(count)] = {
            "shape": [side] * 3,
            "compress_s": med,
            "per_chunk_s": med / count,
            "payload_bytes": len(payload),
            "repeats": repeats,
        }
        print(
            f"  scaling/{count:3d} x 32^3   compress {med * 1e3:8.1f} ms   "
            f"{med / count * 1e3:6.1f} ms/chunk"
        )
    ratio = out["64"]["per_chunk_s"] / out["1"]["per_chunk_s"]
    out["per_chunk_ratio_64_vs_1"] = round(ratio, 3)
    print(
        f"  scaling per-chunk ratio (64 vs 1): {ratio:.2f}x "
        f"(gate <= {SCALING_MAX_PER_CHUNK_RATIO}x)"
    )
    return out


#: Per-method lossless micro-benchmark inputs: (method, generator, size).
#: Each method gets data shaped to exercise its strengths, so the MB/s
#: numbers track the code path that actually wins on such data.  The
#: legacy per-bit ``ac`` coder (tag 5) is decode-only; its entry times
#: the decode of the golden fixture instead.
_MICRO_SIZE = 1 << 20
_GOLDEN_DIR = ROOT / "tests" / "data"


def _micro_runs(rng: np.random.Generator, n: int) -> bytes:
    """Long runs of few byte values (RLE territory)."""
    return np.repeat(
        rng.integers(0, 4, size=n // 64, dtype=np.uint8), 64
    )[:n].tobytes()


def _micro_skewed(rng: np.random.Generator, n: int) -> bytes:
    """Skewed iid bytes, ~3 bits/byte of entropy (Huffman/RC territory)."""
    return np.minimum(rng.geometric(0.25, size=n) - 1, 255).astype(np.uint8).tobytes()


def _micro_repetitive(rng: np.random.Generator, n: int) -> bytes:
    """Random 256-byte fragments drawn from a small pool (LZ77 territory)."""
    pool = rng.integers(0, 256, size=(16, 256), dtype=np.uint8)
    picks = rng.integers(0, 16, size=n // 256 + 1)
    return pool[picks].reshape(-1)[:n].tobytes()


_MICRO_CASES = (
    ("rle", _micro_runs, _MICRO_SIZE),
    ("huffman", _micro_skewed, _MICRO_SIZE),
    ("rle+huffman", _micro_runs, _MICRO_SIZE),
    ("lz77", _micro_repetitive, _MICRO_SIZE),
    ("rc", _micro_skewed, _MICRO_SIZE),
)


def measure_lossless_micro(repeats: int = 3) -> dict:
    """Encode/decode throughput (MB of raw data per second) per method.

    Every method is timed explicitly (not through ``auto``), so these
    numbers isolate each codec kernel; a decoded-equals-input check runs
    on every repeat.
    """
    out = {}
    for method, gen, size in _MICRO_CASES:
        data = gen(np.random.default_rng(42), size)
        e_times, d_times = [], []
        payload = lossless.compress(data, method=method)
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            payload = lossless.compress(data, method=method)
            t1 = time.perf_counter()
            back = lossless.decompress(payload)
            t2 = time.perf_counter()
            if back != data:
                raise RuntimeError(f"lossless micro round-trip failed for {method}")
            e_times.append(t1 - t0)
            d_times.append(t2 - t1)
        mb = len(data) / 1e6
        entry = {
            "input_bytes": len(data),
            "payload_bytes": len(payload),
            "ratio": round(len(payload) / len(data), 4),
            "encode_MBps": round(mb / statistics.median(e_times), 2),
            "decode_MBps": round(mb / statistics.median(d_times), 2),
        }
        out[method] = entry
        print(
            f"  lossless/{method:12s} encode {entry['encode_MBps']:8.1f} MB/s   "
            f"decode {entry['decode_MBps']:8.1f} MB/s   ratio {entry['ratio']:.3f}"
        )
    # Decode-only tag 5: no encoder, so no encode speed or ratio to track.
    data = (_GOLDEN_DIR / "lossless_golden_input.bin").read_bytes()
    payload = (_GOLDEN_DIR / "lossless_ac.bin").read_bytes()
    d_times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        back = lossless.decompress(payload)
        d_times.append(time.perf_counter() - t0)
        if back != data:
            raise RuntimeError("lossless micro golden decode failed for ac")
    entry = {
        "input_bytes": len(data),
        "payload_bytes": len(payload),
        "decode_MBps": round(len(data) / 1e6 / statistics.median(d_times), 2),
    }
    out["ac"] = entry
    print(f"  lossless/{'ac':12s} decode {entry['decode_MBps']:8.1f} MB/s (golden)")
    return out


#: Store micro-bench window: offset by 8 so the window crosses a chunk
#: boundary on every axis of the 64^3 / 32^3-chunk headline layout.
_STORE_WINDOW_OFFSET = 8


def measure_store_micro(repeats: int = 3) -> dict:
    """Store window-read micro-benchmark: cold read, warm cached re-read.

    Builds a multi-chunk store of the 64^3 headline field in a temporary
    directory, then times a cold window read (decoded-chunk cache
    cleared) against an immediately repeated warm read of the same
    window (served from the LRU).  Also checks the two equivalence
    properties the gate relies on: the windowed read matches slicing the
    full container decompression bit-exactly, and a full store scan
    matches container decompression.
    """
    import shutil
    import tempfile

    from repro import compress, decompress
    from repro.store import open_store, write_store

    data = _field(tuple(CONFIG["shape_multichunk"]))
    mode = _pwe(data)
    chunk = CONFIG["chunk"]
    tmp = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        write_store(tmp, data, mode, chunk_shape=chunk)
        arr = open_store(tmp)
        window = tuple(
            slice(_STORE_WINDOW_OFFSET, _STORE_WINDOW_OFFSET + chunk)
            for _ in data.shape
        )
        full = decompress(compress(data, mode, chunk_shape=chunk).payload)
        # Equivalence checks run first; they double as the warm-up pass
        # (plan caches, lazy numpy state) so the cold timings below
        # measure chunk decoding, not first-touch initialisation.
        full_ok = bool(np.array_equal(np.asarray(arr.read()), full))
        window_ok = bool(
            np.array_equal(np.asarray(arr.read_window(window)), full[window])
        )
        cold_times, warm_times = [], []
        for _ in range(max(1, repeats)):
            arr.cache.clear()
            t0 = time.perf_counter()
            arr.read_window(window)
            t1 = time.perf_counter()
            arr.read_window(window)
            t2 = time.perf_counter()
            cold_times.append(t1 - t0)
            warm_times.append(t2 - t1)
        cold = statistics.median(cold_times)
        warm = statistics.median(warm_times)
        entry = {
            "cold_window_s": cold,
            "warm_window_s": warm,
            "warm_speedup": round(cold / warm, 2) if warm > 0 else float("inf"),
            "window_matches_full_decode": window_ok,
            "full_scan_matches_container": full_ok,
            "payload_bytes": arr.index.payload_bytes,
            "repeats": repeats,
        }
        print(
            f"  store/window      cold {cold * 1e3:8.1f} ms   "
            f"warm {warm * 1e3:8.3f} ms   "
            f"({entry['warm_speedup']:.0f}x, window match: {window_ok}, "
            f"full match: {full_ok})"
        )
        return entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: Calibration probe size: a fixed numpy workload (unpackbits, cumsum,
#: table gather, packbits) over this many bytes.  The probe exercises
#: the same primitive mix as the lossless kernels, so its MB/s tracks
#: how fast *this* machine runs them — letting the gate scale absolute
#: MB/s floors instead of flapping on slower CI boxes.
_CALIBRATION_BYTES = 4 << 20


def measure_calibration(repeats: int = 3) -> dict:
    """Machine-speed probe: MB/s on a fixed numpy kernel workload.

    The workload is deterministic (seeded) and dependency-free, so the
    number is comparable across commits on the same box and across boxes
    of the same class.  ``check_regression`` divides the current probe
    by the recorded one to scale the absolute lossless/zfp MB/s floors:
    a box running the probe at half speed gets half the floor.
    """
    rng = np.random.default_rng(1234)
    data = rng.integers(0, 256, size=_CALIBRATION_BYTES, dtype=np.uint8)
    table = rng.permutation(256).astype(np.uint8)
    # Warm-up, then timed repeats of the fixed kernel mix.
    times = []
    for rep in range(max(1, repeats) + 1):
        t0 = time.perf_counter()
        bits = np.unpackbits(data)
        np.cumsum(bits[: _CALIBRATION_BYTES], dtype=np.int64)
        gathered = table[data]
        np.packbits(bits)
        if int(gathered[0]) > 256:  # keep the work observable
            raise RuntimeError("unreachable")
        if rep:
            times.append(time.perf_counter() - t0)
    mbps = _CALIBRATION_BYTES / 1e6 / statistics.median(times)
    entry = {"probe_MBps": round(mbps, 2), "bytes": _CALIBRATION_BYTES}
    print(f"  calibration       probe {mbps:8.1f} MB/s")
    return entry


def measure_zfp_micro(repeats: int = 3) -> dict:
    """ZFP-like kernel throughput on the 32^3 field, both rate modes.

    ``accuracy`` drives the codec with the standard PWE bound;
    ``fixed_rate`` pins the per-block bit budget via :class:`SizeMode`
    (the mode the paper's Fig. 4 rate sweeps use).  MB/s is raw float64
    input bytes over median wall time, mirroring the lossless micro
    table, so the gate can hold an absolute floor on the one codec the
    earlier perf PRs never touched.
    """
    from repro.core.modes import SizeMode

    data = _field(tuple(CONFIG["shape_small"]))
    mb = data.nbytes / 1e6
    modes = {
        "accuracy": _pwe(data),
        "fixed_rate": SizeMode(8.0),
    }
    out = {}
    for name, mode in modes.items():
        comp = ZfpLikeCompressor()
        payload = comp.compress(data, mode)  # warm-up
        e_times, d_times = [], []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            payload = comp.compress(data, mode)
            t1 = time.perf_counter()
            back = comp.decompress(payload)
            t2 = time.perf_counter()
            e_times.append(t1 - t0)
            d_times.append(t2 - t1)
        if back.shape != data.shape:
            raise RuntimeError("zfp micro round-trip shape mismatch")
        entry = {
            "input_bytes": data.nbytes,
            "payload_bytes": len(payload),
            "encode_MBps": round(mb / statistics.median(e_times), 2),
            "decode_MBps": round(mb / statistics.median(d_times), 2),
        }
        out[name] = entry
        print(
            f"  zfp/{name:13s} encode {entry['encode_MBps']:8.1f} MB/s   "
            f"decode {entry['decode_MBps']:8.1f} MB/s"
        )
    return out


def _adaptive_mixed_field() -> np.ndarray:
    """The smooth headline field with heavy noise on one half.

    The noisy half pushes the dispatcher's width proxy into SPERR
    territory while the smooth half stays in szx range, so an adaptive
    pass over this field must produce a genuinely mixed chunk table.
    """
    data = _field(tuple(CONFIG["shape_multichunk"])).copy()
    rng = np.random.default_rng(99)
    half = data.shape[0] // 2
    spread = float(data.max() - data.min())
    data[half:] += rng.normal(0.0, 0.5 * spread, size=data[half:].shape)
    return data


def measure_adaptive(repeats: int = 3) -> dict:
    """RD-vs-throughput for the codec policies on smooth and mixed data.

    For each (field, policy) cell this times ``compress``/``decompress``
    end to end at the same PWE bound, verifies the bound on the decoded
    output, and records payload size plus the per-chunk routing counts
    read back from the container chunk table — so the JSON shows *what*
    the dispatcher decided, not just how fast it ran.  The summary keys
    are what the gate consumes: ``fast_speedup_smooth`` (szx tier vs the
    pure SPERR path on smooth chunks, ISSUE target >= 5x) and
    ``adaptive_vs_quality`` (adaptive must never be slower than pure
    SPERR, on either field).
    """
    from repro.core import compress, decompress
    from repro.core.adaptive import CODEC_POLICIES
    from repro.core.container import parse_container

    chunk = CONFIG["chunk"]
    smooth_data = _field(tuple(CONFIG["shape_multichunk"]))
    mixed_data = _adaptive_mixed_field()
    # The smooth field runs at the headline 1e-3 relative bound.  The
    # mixed field runs 100x tighter: at 1e-3 even heavy noise stays
    # within the szx width threshold (a first difference can never
    # exceed the value range, so the width proxy is bounded by
    # ~log2(1/tol_rel)), and the point of this cell is to exercise a
    # genuine sperr/szx split in one container.
    fields = {
        "smooth": (smooth_data, _pwe(smooth_data)),
        "mixed": (
            mixed_data,
            PweMode(1e-5 * float(mixed_data.max() - mixed_data.min())),
        ),
    }
    out: dict = {}
    for fname, (data, mode) in fields.items():
        cell: dict = {}
        for policy in CODEC_POLICIES:
            result = compress(data, mode, chunk_shape=chunk, codec=policy)
            c_times, d_times = [], []
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                result = compress(data, mode, chunk_shape=chunk, codec=policy)
                t1 = time.perf_counter()
                back = decompress(result.payload)
                t2 = time.perf_counter()
                c_times.append(t1 - t0)
                d_times.append(t2 - t1)
            worst = float(np.max(np.abs(back - data)))
            if worst > mode.tolerance * 1.0000001:
                raise RuntimeError(
                    f"adaptive bench: {policy} on {fname} violated the bound"
                )
            parsed = parse_container(result.payload)
            tags = parsed.codec_tags
            counts = {"sperr": len(parsed.streams), "szx": 0, "stored": 0}
            if tags is not None:
                counts = {
                    "sperr": sum(1 for t in tags if t == 0),
                    "szx": sum(1 for t in tags if t == 1),
                    "stored": sum(1 for t in tags if t == 2),
                }
            cell[policy] = {
                "compress_s": statistics.median(c_times),
                "decompress_s": statistics.median(d_times),
                "payload_bytes": len(result.payload),
                "max_err_over_tol": round(worst / mode.tolerance, 4),
                "routing": counts,
            }
            print(
                f"  adaptive/{fname:7s} {policy:9s} "
                f"compress {cell[policy]['compress_s'] * 1e3:8.1f} ms   "
                f"{cell[policy]['payload_bytes']:9d} B   routing {counts}"
            )
        out[fname] = cell
    smooth = out["smooth"]
    out["fast_speedup_smooth"] = round(
        smooth["quality"]["compress_s"] / smooth["fast"]["compress_s"], 3
    )
    out["adaptive_vs_quality"] = {
        fname: round(
            out[fname]["quality"]["compress_s"]
            / out[fname]["adaptive"]["compress_s"],
            3,
        )
        for fname in fields
    }
    print(
        f"  adaptive summary: fast {out['fast_speedup_smooth']:.2f}x on smooth "
        f"(target >= 5x), adaptive-vs-quality {out['adaptive_vs_quality']}"
    )
    return out


def _plan_cache_stats() -> dict:
    """Plan-cache hit/miss counters, when the cache layer is available."""
    try:
        from repro.core import plans
    except ImportError:  # pre plan-cache trees
        return {}
    return plans.cache_stats()


def _speedups(baseline: dict, current: dict) -> dict:
    out = {}
    for name, cur in current.items():
        base = baseline.get(name)
        if not base:
            continue
        entry = {}
        for key in ("compress_s", "decompress_s", "end_to_end_s"):
            if base.get(key, 0) > 0 and cur.get(key, 0) > 0:
                entry[key.removesuffix("_s")] = round(base[key] / cur[key], 3)
        out[name] = entry
    return out


def run(argv: list[str] | None = None) -> int:
    """CLI entry point; writes BENCH_speed.json and prints the table."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="single repeat")
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the frozen baseline block with this run",
    )
    parser.add_argument("--label", default=None, help="label for the current block")
    args = parser.parse_args(argv)
    repeats = 1 if (args.quick or os.environ.get("REPRO_BENCH_QUICK") == "1") else 3

    print(f"bench_regression: {repeats} repeat(s) per case")
    timings = measure(repeats)
    scaling = measure_chunk_scaling(repeats)
    micro = measure_lossless_micro(repeats)
    store_micro = measure_store_micro(repeats)
    calibration = measure_calibration(repeats)
    zfp_micro = measure_zfp_micro(repeats)
    adaptive = measure_adaptive(repeats)

    doc = {}
    if BENCH_FILE.exists():
        try:
            doc = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            doc = {}
    block = {"label": args.label or "current", "cases": timings}
    if args.rebaseline or "baseline" not in doc:
        doc["baseline"] = {
            "label": args.label or "baseline",
            "cases": timings,
        }
    doc.update(
        {
            "schema": SCHEMA,
            "config": CONFIG,
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
            },
            "current": block,
            "chunk_scaling": scaling,
            "lossless_micro": micro,
            "store_micro": store_micro,
            "calibration": calibration,
            "zfp_micro": zfp_micro,
            "adaptive": adaptive,
            "plan_cache": _plan_cache_stats(),
        }
    )
    doc["speedup_vs_baseline"] = _speedups(doc["baseline"]["cases"], timings)

    BENCH_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")

    head = doc["speedup_vs_baseline"].get(HEADLINE_CASE, {})
    if head:
        factor = head.get("end_to_end", 1.0)
        verdict = "OK" if factor >= HEADLINE_MIN_SPEEDUP else "BELOW TARGET"
        print(
            f"{HEADLINE_CASE}: {factor:.2f}x end-to-end vs baseline "
            f"(target >= {HEADLINE_MIN_SPEEDUP}x) [{verdict}]"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
