"""The benchmark's own tests: every workload at a tiny size emits every
named metric with its unit, the traced run accounts for its parents' wall
time, and the correctness checks catch corrupted results.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import codec_loop, service_mix, window_reads
from perfbench.common import ROOT, Tally

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's inputs and load."""
    monkeypatch.setattr(codec_loop, "GENERATORS", ("miranda_density",))
    monkeypatch.setattr(codec_loop, "SHAPE", (64, 64, 64))
    monkeypatch.setattr(window_reads, "N_FRAMES", 2)
    monkeypatch.setattr(
        service_mix, "BLOCK", {"hot": 5, "cold": 2, "compress": 1, "decompress": 1}
    )


def run_workload(name: str, trace: bool, seconds: float = 1.0) -> tuple[Tally, dict]:
    tally = Tally()
    if name in ("archive", "fast_ingest"):
        codec = "quality" if name == "archive" else "adaptive"
        metrics = codec_loop.run(codec, 3, seconds, trace, tally)
    else:
        module = window_reads if name == "window_reads" else service_mix
        metrics = module.run(3, seconds, trace, tally)
    return tally, metrics


def units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_spec_matches_the_metrics_the_code_emits():
    from perfbench.common import END_TO_END_UNITS
    from perfbench.tracer import PER_LAYER_UNITS

    assert END_TO_END == END_TO_END_UNITS
    assert PER_LAYER == PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == [
        "archive", "fast_ingest", "window_reads", "service_mix"
    ]


@pytest.mark.parametrize("name", ["archive", "fast_ingest", "window_reads", "service_mix"])
def test_untraced_run_emits_every_end_to_end_metric(tiny, name):
    tally, metrics = run_workload(name, trace=False, seconds=2.0)
    assert tally.failed == 0, tally.notes
    assert units(metrics) == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["ok_frac"][0] == 1.0


@pytest.mark.parametrize("name", ["archive", "fast_ingest", "window_reads", "service_mix"])
def test_traced_run_emits_every_per_layer_metric(tiny, name):
    tally, metrics = run_workload(name, trace=True)
    assert tally.failed == 0, tally.notes
    assert units(metrics) == PER_LAYER
    m = {k: v for k, (v, _) in metrics.items()}
    if name == "archive":
        # Named children plus self time add up to the parent's wall.
        for parent in ("core.compress", "core.decompress"):
            wall = m[f"{parent}.busy_s"]
            covered = m[f"trace.{parent}.covered_frac"] * wall
            assert covered + m[f"{parent}.self_s"] == pytest.approx(wall, rel=1e-9)
            assert m[f"trace.{parent}.covered_frac"] > 0.5
        assert m["core.adaptive.busy_s"] == 0.0
        assert m["speck.decode.busy_s"] > 0.0
    if name == "fast_ingest":
        for layer in ("speck.encode", "speck.decode", "lossless.encode", "lossless.decode"):
            assert m[f"{layer}.busy_s"] == 0.0
        assert m["core.adaptive.route_szx"] > 0
        assert m["szxlike.decode.busy_s"] > 0.0
    if name == "window_reads":
        assert m["store.cache.hits"] > 0 and m["store.chunk_decodes"] > 0
    if name == "service_mix":
        assert m["loadgen.sent"] == m["loadgen.completed"] > 0
        assert m["service.read.p50_ms"] > 0.0


def flip_first(payloads_left: list[int]):
    """A tamper function that corrupts only its first input."""

    def tamper(*args):
        obj = args[-1]
        if not payloads_left:
            return obj
        payloads_left.pop()
        if isinstance(obj, bytes):
            i = len(obj) // 2
            return obj[:i] + bytes([obj[i] ^ 0xFF]) + obj[i + 1:]
        return obj + 1e-9 * (1.0 + np.abs(obj))

    return tamper


def test_corrupted_payload_fails_the_codec_check(tiny):
    inputs = codec_loop.make_inputs(3)
    tally = Tally()
    codec_loop.measure(inputs, "quality", tally, passes=2, tamper=flip_first([1]))
    assert tally.failed == 1 and tally.attempted == 2
    assert tally.ok_frac < 1.0


def test_corrupted_window_fails_the_read_check(tiny, tmp_path):
    frames, tol = window_reads.make_frames(3)
    tally = Tally()
    store = window_reads.build_store(tmp_path / "store", frames, tol, tally)
    window_reads.measure(store, 3, tally, n_reads=5, tamper=flip_first([1]))
    assert tally.failed == 1
    assert tally.ok_frac < 1.0


@pytest.mark.parametrize("op", ["read", "compress", "decompress"])
def test_corrupted_service_answer_fails_the_service_check(tiny, op):
    left = [1]
    corrupt = flip_first(left)

    def tamper(kind, obj):
        return corrupt(obj) if kind == op else obj

    tally = Tally()
    service_mix.run(3, 2.0, False, tally, tamper)
    assert not left, f"no {op} request was sent"
    assert tally.failed >= 1
    assert tally.ok_frac < 1.0


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "archive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
