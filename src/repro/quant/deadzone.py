"""Dead-zone mid-riser quantizer (see package docstring)."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError

__all__ = [
    "integerize",
    "integerize_batch",
    "dequantize",
    "dequantize_batch",
    "quantize_error_bound",
    "calibrate_step",
    "MAX_INT_MAGNITUDE",
]

#: Integer magnitudes above this would overflow the bitplane machinery; a
#: request implying them (absurdly small q for the data range) is an error.
MAX_INT_MAGNITUDE = np.uint64(1) << np.uint64(62)


def integerize(values: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale by ``1/q`` and split into integer magnitudes and signs.

    Returns ``(mags, negative)`` where ``mags[i] = floor(|values[i]| / q)``
    as ``uint64`` and ``negative`` is a boolean sign array.  A magnitude of
    zero means the value falls in the dead zone ``[-q, q]``.
    """
    if not np.isfinite(q) or q <= 0:
        raise InvalidArgumentError(f"quantization step must be positive, got {q}")
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("input contains NaN or Inf")
    scaled = np.abs(values) / q
    if scaled.max(initial=0.0) >= float(MAX_INT_MAGNITUDE):
        raise InvalidArgumentError(
            "quantization step too small for the data range (integer overflow)"
        )
    mags = np.floor(scaled).astype(np.uint64)
    return mags, values < 0


def _lane_steps(q, ndim: int) -> np.ndarray:
    """Validate and reshape a scalar or per-lane step for broadcasting."""
    qa = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(qa)) or np.any(qa <= 0):
        raise InvalidArgumentError(f"quantization step must be positive, got {q}")
    if qa.ndim:
        return qa.reshape((-1,) + (1,) * (ndim - 1))
    return qa


def integerize_batch(values: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane :func:`integerize` of a ``(lanes, ...)`` stack.

    ``q`` is a scalar or a per-lane array; the scale/floor arithmetic is
    elementwise, so lane ``l`` is bit-identical to
    ``integerize(values[l], q[l])``.
    """
    values = np.asarray(values, dtype=np.float64)
    qb = _lane_steps(q, values.ndim)
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("input contains NaN or Inf")
    # Same |v|/q -> floor arithmetic as the serial path, staged in one
    # scratch buffer instead of three temporaries.
    scaled = np.abs(values)
    scaled /= qb
    if scaled.max(initial=0.0) >= float(MAX_INT_MAGNITUDE):
        raise InvalidArgumentError(
            "quantization step too small for the data range (integer overflow)"
        )
    np.floor(scaled, out=scaled)
    return scaled.astype(np.uint64), values < 0


def dequantize_batch(mags: np.ndarray, negative: np.ndarray, q) -> np.ndarray:
    """Per-lane :func:`dequantize` of a ``(lanes, ...)`` stack."""
    mags = np.asarray(mags, dtype=np.uint64)
    qb = _lane_steps(q, mags.ndim)
    out = mags.astype(np.float64)
    out += 0.5
    out *= qb
    out[mags == 0] = 0.0
    out[np.asarray(negative, dtype=bool)] *= -1.0
    return out


def dequantize(mags: np.ndarray, negative: np.ndarray, q: float) -> np.ndarray:
    """Mid-riser reconstruction: ``sign * (m + 1/2) * q`` outside the dead zone."""
    mags = np.asarray(mags, dtype=np.uint64)
    out = (mags.astype(np.float64) + 0.5) * q
    out[mags == 0] = 0.0
    out[np.asarray(negative, dtype=bool)] *= -1.0
    return out


def calibrate_step(values: np.ndarray, target_rms: float, margin: float = 0.9) -> float:
    """Largest quantization step whose RMS quantization error stays under
    ``margin * target_rms``.

    The error is monotone in the step size, so a log-domain bisection
    converges quickly.  Used by the PSNR-targeted modes (SPERR's Sec. VII
    average-error mode and the TTHRESH-like baseline), where orthogonal
    or near-orthogonal bases make coefficient-domain RMS equal
    data-domain RMS.
    """
    if not np.isfinite(target_rms) or target_rms <= 0:
        raise InvalidArgumentError("target RMS must be positive")
    values = np.asarray(values, dtype=np.float64)
    amax = float(np.abs(values).max(initial=0.0))
    if amax == 0.0:
        return 1.0
    # A target far below the data's magnitude (near-constant input, whose
    # range is rounding noise) would drive the step past the integer cap;
    # the smallest representable step is then the best achievable.
    lo = max(target_rms * 1e-3, 2.0 * amax / float(MAX_INT_MAGNITUDE))
    hi = amax * 2.0
    for _ in range(60):
        mid = float(np.sqrt(lo * hi))
        mags, neg = integerize(values, mid)
        err = values - dequantize(mags, neg, mid)
        rms = float(np.sqrt(np.mean(err**2)))
        if rms > target_rms * margin:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.05:
            break
    return lo


def quantize_error_bound(q: float) -> float:
    """Worst-case per-coefficient quantization error: the dead zone admits
    errors up to ``q`` (values just inside reconstruct to 0), coded values
    err by at most ``q/2``."""
    return float(q)
