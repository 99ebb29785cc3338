"""Dead-zone mid-riser quantizer (Sec. III-C)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.quant import (
    MAX_INT_MAGNITUDE,
    calibrate_step,
    dequantize,
    integerize,
    quantize_error_bound,
)


class TestIntegerize:
    def test_dead_zone_maps_to_zero(self):
        vals = np.array([-0.9, -0.5, 0.0, 0.3, 0.999])
        mags, neg = integerize(vals, 1.0)
        assert np.all(mags == 0)

    def test_magnitudes_floor(self):
        vals = np.array([1.0, 1.5, 2.0, 2.5, -3.7])
        mags, neg = integerize(vals, 1.0)
        assert mags.tolist() == [1, 1, 2, 2, 3]
        assert neg.tolist() == [False, False, False, False, True]

    def test_arbitrary_non_power_of_two_step(self):
        """Sec. III-C: q need not be an integer power of two."""
        q = 0.3137
        vals = np.array([0.9, 1.7, -2.1])
        mags, _ = integerize(vals, q)
        assert mags.tolist() == [int(0.9 / q), int(1.7 / q), int(2.1 / q)]

    def test_invalid_step_rejected(self):
        for q in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                integerize(np.array([1.0]), q)

    def test_nan_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            integerize(np.array([np.nan]), 1.0)

    def test_overflow_rejected(self):
        with pytest.raises(InvalidArgumentError):
            integerize(np.array([1.0]), 1e-20)

    def test_max_magnitude_boundary(self):
        # just under the cap is accepted
        q = 1.0 / float(MAX_INT_MAGNITUDE >> np.uint64(1))
        mags, _ = integerize(np.array([1.0]), q)
        assert mags[0] > 0


class TestDequantize:
    def test_mid_riser_reconstruction(self):
        """Values in (iq, (i+1)q] reconstruct at (i + 1/2) q."""
        q = 0.25
        mags = np.array([0, 1, 4], dtype=np.uint64)
        neg = np.array([False, False, True])
        out = dequantize(mags, neg, q)
        np.testing.assert_allclose(out, [0.0, 1.5 * q, -4.5 * q])

    def test_round_trip_error_bounded(self, rng):
        q = 0.01
        vals = rng.standard_normal(1000) * 5
        mags, neg = integerize(vals, q)
        rec = dequantize(mags, neg, q)
        err = np.abs(rec - vals)
        coded = mags > 0
        assert err[coded].max() <= q / 2 + 1e-12
        assert err.max() <= quantize_error_bound(q) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    ),
    st.floats(min_value=1e-4, max_value=1e3),
)
def test_quantizer_error_bound_property(values, q):
    vals = np.asarray(values)
    mags, neg = integerize(vals, q)
    rec = dequantize(mags, neg, q)
    err = np.abs(rec - vals)
    # dead zone error <= q; coded error <= q/2 (paper Sec. III-C).  The
    # slack term covers floating-point rounding in |v|/q and (m+0.5)*q —
    # the same slop the SPERR pipeline absorbs in its t/2 outlier margin.
    slack = 1e-12 * max(1.0, float(np.abs(vals).max()))
    assert err.max() <= q + slack
    coded = mags > 0
    if coded.any():
        assert err[coded].max() <= q / 2 + slack


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=1e-6, max_value=1e2),
)
def test_sign_preservation_property(values, q):
    vals = np.asarray(values)
    mags, neg = integerize(vals, q)
    rec = dequantize(mags, neg, q)
    coded = mags > 0
    assert np.all(np.sign(rec[coded]) == np.sign(vals[coded]))


def test_calibrate_step_stays_representable_for_unreachable_targets():
    """A near-constant field's range is rounding noise, so a PSNR target
    relative to it asks for an RMS far below float precision; the step
    must bottom out where integerize still accepts it."""
    vals = np.array([8.7, 3e-15, -1.6e-16, 1.6e-16])
    q = calibrate_step(vals, 7e-21)
    assert q > 0
    mags, neg = integerize(vals, q)
    err = np.abs(vals - dequantize(mags, neg, q)).max()
    assert err <= q
