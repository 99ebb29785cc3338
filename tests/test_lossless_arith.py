"""Adaptive binary arithmetic decoder (tag 5, decode-only).

The encoder is retired; ``tests/data/lossless_ac.bin`` pins the stream
format (see test_lossless_golden.py) and these tests cover the decoder's
model and its guards on untrusted input.
"""

from __future__ import annotations

import struct
from pathlib import Path

import pytest

from repro import lossless
from repro.errors import InvalidArgumentError, StreamFormatError
from repro.lossless import arith
from repro.lossless.arith import AdaptiveBitModel

DATA = Path(__file__).parent / "data"


class TestModel:
    def test_counts_update(self):
        m = AdaptiveBitModel()
        assert (m.c0, m.c1) == (1, 1)
        m.update(0)
        m.update(0)
        m.update(1)
        assert (m.c0, m.c1) == (3, 2)

    def test_saturation_halving(self):
        m = AdaptiveBitModel()
        for _ in range(70000):
            m.update(0)
        assert m.c0 + m.c1 < 1 << 16
        assert m.c0 > m.c1  # skew preserved across halvings


class TestByteApi:
    def test_empty(self):
        assert arith.decode(struct.pack("<Q", 0)) == b""

    def test_truncated_rejected(self):
        with pytest.raises(StreamFormatError):
            arith.decode(b"\x01")

    def test_forged_count_rejected_before_decoding(self):
        with pytest.raises(StreamFormatError, match="decode cap"):
            arith.decode(struct.pack("<Q", 1 << 60))

    def test_backend_integration(self):
        """Tag 5 still decodes through the backend; encoding it does not."""
        payload = (DATA / "lossless_ac.bin").read_bytes()
        golden = (DATA / "lossless_golden_input.bin").read_bytes()
        assert lossless.decompress(payload) == golden
        with pytest.raises(InvalidArgumentError):
            lossless.compress(golden, method="ac")
