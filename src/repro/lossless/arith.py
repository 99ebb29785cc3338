"""Adaptive binary arithmetic decoding (Witten-Neal-Cleary style), tag 5.

The SPECK lineage traditionally offers an arithmetic-coded variant (the
original SPECK paper and QccPack both report one).  Earlier releases of
the lossless backend could encode with it (``method="ac"``); at ~0.15
MB/s it never paid for itself and the encoder is gone.  Only the
decoder remains, so payloads that carry tag-5 sections stay readable
(pinned by the ``tests/data/lossless_ac.bin`` golden fixture).

Implementation: 32-bit integer range decoder mirroring the retired
encoder's carry handling; adaptive models keep per-context zero/one
counts with halving when the total saturates.  Context: the bit's
position within its byte plus the previous bit (16 models).
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import StreamFormatError

__all__ = ["decode", "AdaptiveBitModel"]

_TOP = 1 << 32
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTER = 3 << 30
_MASK = _TOP - 1
_MAX_TOTAL = 1 << 16


class AdaptiveBitModel:
    """Zero/one counts with saturation halving; p0 = c0 / (c0 + c1)."""

    __slots__ = ("c0", "c1")

    def __init__(self) -> None:
        self.c0 = 1
        self.c1 = 1

    def update(self, bit: int) -> None:
        if bit:
            self.c1 += 1
        else:
            self.c0 += 1
        if self.c0 + self.c1 >= _MAX_TOTAL:
            self.c0 = (self.c0 + 1) >> 1
            self.c1 = (self.c1 + 1) >> 1


class _Decoder:
    def __init__(self, bits: np.ndarray) -> None:
        self.bits = bits
        self.pos = 0
        self.low = 0
        self.high = _MASK
        self.value = 0
        for _ in range(32):
            self.value = (self.value << 1) | self._next()

    def _next(self) -> int:
        if self.pos < self.bits.size:
            b = int(self.bits[self.pos])
            self.pos += 1
            return b
        return 0

    def decode(self, model: AdaptiveBitModel) -> int:
        total = model.c0 + model.c1
        span = self.high - self.low + 1
        split = self.low + (span * model.c0) // total - 1
        bit = 1 if self.value > split else 0
        if bit:
            self.low = split + 1
        else:
            self.high = split
        model.update(bit)
        while True:
            if self.high < _HALF:
                pass
            elif self.low >= _HALF:
                self.low -= _HALF
                self.high -= _HALF
                self.value -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTER:
                self.low -= _QUARTER
                self.high -= _QUARTER
                self.value -= _QUARTER
            else:
                break
            self.low = (self.low << 1) & _MASK
            self.high = ((self.high << 1) | 1) & _MASK
            self.value = ((self.value << 1) | self._next()) & _MASK
        return bit


#: Decode-side cap on the declared output size.  The retired encoder was
#: never fed more than 64 KiB; a declared size far beyond that is
#: corruption, and the per-bit Python decode loop must not be driven by a
#: forged 2**60 count.
_MAX_DECODE_BYTES = 1 << 17


def decode(payload: bytes) -> bytes:
    """Decode a tag-5 section body: ``<Q`` byte count, then the coded bits."""
    if len(payload) < 8:
        raise StreamFormatError("truncated arithmetic-coded stream")
    (n,) = struct.unpack("<Q", payload[:8])
    if n > _MAX_DECODE_BYTES:
        raise StreamFormatError(
            f"arithmetic-coded stream declares {n} bytes, beyond the "
            f"{_MAX_DECODE_BYTES}-byte decode cap"
        )
    models = [AdaptiveBitModel() for _ in range(16)]
    dec = _Decoder(np.unpackbits(np.frombuffer(payload[8:], dtype=np.uint8)))
    bits = np.zeros(n * 8, dtype=np.uint8)
    prev = 0
    for i in range(n * 8):
        # Context: bit position within its byte, plus the previous bit.
        prev = dec.decode(models[((i & 7) << 1) | prev])
        bits[i] = prev
    return np.packbits(bits).tobytes()
