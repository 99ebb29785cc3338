"""SPERR chunk streams are stored by default, and payloads written with
the lossless final pass (``lossless_method="auto"``) stay readable.

The 48^3 field in 24^3 chunks at idx 10 makes ``auto`` pick Huffman
(tag 2) for every chunk, so the "auto" payload and store exercise the
legacy decode path on each chunk.  Lossless framing never changes the
raw chunk streams, so every decode of the auto payload must equal the
decode of the default payload bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.container import parse_container
from repro.datasets import miranda_density
from repro.store import open_store, write_store
from repro.store.format import shard_name

CHUNK = 24


@pytest.fixture(scope="module")
def field():
    return miranda_density((48, 48, 48))


@pytest.fixture(scope="module")
def tol(field):
    return repro.tolerance_from_idx(field, 10)


@pytest.fixture(scope="module")
def payloads(field, tol):
    def run(**kwargs):
        return repro.compress(
            field, repro.PweMode(tol), chunk_shape=CHUNK, codec="quality", **kwargs
        ).payload

    return {"default": run(), "auto": run(lossless_method="auto")}


@pytest.fixture(scope="module")
def stores(tmp_path_factory, field, tol):
    root = tmp_path_factory.mktemp("legacy")
    paths = {"default": root / "default.rps", "auto": root / "auto.rps"}
    write_store(paths["default"], field, repro.PweMode(tol), chunk_shape=CHUNK)
    write_store(
        paths["auto"], field, repro.PweMode(tol), chunk_shape=CHUNK,
        lossless_method="auto",
    )
    return paths


def _container_tags(payload: bytes) -> set[int]:
    return {stream[0] for stream in parse_container(payload).streams}


def _store_tags(path) -> set[int]:
    arr = open_store(path)
    tags = set()
    for entry in arr.index.entries[0]:
        with open(path / shard_name(entry.shard), "rb") as f:
            f.seek(entry.offset)
            tags.add(f.read(1)[0])
    return tags


def _assert_pwe(recon, field, tol):
    assert np.max(np.abs(recon - field)) <= tol


class TestStoredByDefault:
    def test_container_chunks_are_stored(self, payloads):
        assert _container_tags(payloads["default"]) == {0}

    def test_store_chunks_are_stored(self, stores):
        assert _store_tags(stores["default"]) == {0}


class TestAutoPayloadsStayReadable:
    def test_auto_chunks_are_huffman_coded(self, payloads, stores):
        """Precondition: the legacy decode path really runs below."""
        assert _container_tags(payloads["auto"]) == {2}
        assert _store_tags(stores["auto"]) == {2}

    def test_decompress_bit_identical(self, payloads, field, tol):
        ref = repro.decompress(payloads["default"])
        out = repro.decompress(payloads["auto"])
        np.testing.assert_array_equal(out, ref)
        _assert_pwe(out, field, tol)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executors_bit_identical(self, payloads, field, tol, executor):
        ref = repro.decompress(payloads["default"])
        out = repro.decompress(payloads["auto"], executor=executor, workers=2)
        np.testing.assert_array_equal(out, ref)
        _assert_pwe(out, field, tol)

    def test_store_full_and_window_reads(self, stores, payloads, field, tol):
        ref = repro.decompress(payloads["default"])
        window = (slice(5, 40), slice(20, 30), slice(0, 48))
        for executor in ("serial", "process"):
            arr = open_store(stores["auto"], cache_bytes=0, executor=executor, workers=2)
            full = arr.read_window(None)
            np.testing.assert_array_equal(full, ref)
            _assert_pwe(full, field, tol)
            part = arr.read_window(window)
            np.testing.assert_array_equal(part, ref[window])
            _assert_pwe(part, field[window], tol)

    @pytest.mark.parametrize("level", [1, 2])
    def test_store_previews_bit_identical(self, stores, level):
        ref = open_store(stores["default"], cache_bytes=0).read_window(None, level=level)
        out = open_store(stores["auto"], cache_bytes=0).read_window(None, level=level)
        np.testing.assert_array_equal(out, ref)
