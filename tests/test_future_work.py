"""The Sec. VII future-work capabilities: PSNR-target mode, progressive
truncation, multi-resolution decoding."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import decompress_multires, truncate
from repro.datasets import miranda_density, spectral_field
from repro.errors import InvalidArgumentError, UnsupportedModeError
from repro.metrics import psnr
from repro.wavelets import WaveletPlan, forward, inverse_to_level, lowpass_dc_gain


@pytest.fixture(scope="module")
def field():
    return miranda_density((32, 32, 32))


@pytest.fixture(scope="module")
def payload(field):
    t = repro.tolerance_from_idx(field, 18)
    return repro.compress(field, repro.PweMode(t)).payload


class TestPsnrMode:
    @pytest.mark.parametrize("target", [50.0, 90.0, 130.0])
    def test_target_met_without_overshoot(self, field, target):
        res = repro.compress(field, repro.PsnrMode(target))
        recon = repro.decompress(res.payload)
        achieved = psnr(field, recon)
        assert achieved >= target - 0.5
        assert achieved <= target + 12.0

    def test_higher_target_more_bits(self, field):
        a = repro.compress(field, repro.PsnrMode(60.0))
        b = repro.compress(field, repro.PsnrMode(110.0))
        assert b.nbytes > a.nbytes

    def test_no_outlier_pass(self, field):
        """The average-error mode skips outlier location entirely
        (Sec. VII: error estimated in the coefficient domain)."""
        res = repro.compress(field, repro.PsnrMode(80.0))
        assert res.n_outliers == 0
        assert all(r.timings["locate"] == 0 or r.timings["locate"] < 1e-6
                   or r.n_outliers == 0 for r in res.reports)

    def test_invalid_target_rejected(self):
        with pytest.raises(InvalidArgumentError):
            repro.PsnrMode(0.0)
        with pytest.raises(InvalidArgumentError):
            repro.PsnrMode(float("nan"))

    def test_chunked_psnr_mode(self, field):
        res = repro.compress(field, repro.PsnrMode(70.0), chunk_shape=16)
        recon = repro.decompress(res.payload)
        assert psnr(field, recon) >= 69.0


class TestTruncate:
    def test_quality_monotone_in_fraction(self, field, payload):
        prev = np.inf
        for frac in (0.1, 0.4, 0.8, 1.0):
            cut = truncate(payload, frac)
            recon = repro.decompress(cut)
            rmse = float(np.sqrt(np.mean((recon - field) ** 2)))
            assert rmse <= prev * 1.01
            prev = rmse

    def test_size_shrinks(self, field, payload):
        cut = truncate(payload, 0.25)
        assert len(cut) < len(payload) * 0.5

    def test_truncated_container_is_self_contained(self, field, payload):
        cut = truncate(payload, 0.5)
        # a second truncation of the truncated container also works
        again = truncate(cut, 0.5)
        recon = repro.decompress(again)
        assert recon.shape == field.shape
        assert np.all(np.isfinite(recon))

    def test_chunked_containers_supported(self, field):
        t = repro.tolerance_from_idx(field, 12)
        payload = repro.compress(field, repro.PweMode(t), chunk_shape=16).payload
        recon = repro.decompress(truncate(payload, 0.3))
        assert recon.shape == field.shape

    def test_stored_streams_stay_stored(self, field, payload):
        """Truncating a default (stored-stream) payload must not bring the
        lossless final pass back: the cut stream keeps tag 0, where
        ``auto`` would pick Huffman for it."""
        from repro.core.container import parse_container

        assert [s[0] for s in parse_container(payload).streams] == [0]
        cut = truncate(payload, 0.5)
        assert [s[0] for s in parse_container(cut).streams] == [0]
        recon = repro.decompress(cut)
        assert recon.shape == field.shape
        assert np.all(np.isfinite(recon))

    def test_invalid_fraction_rejected(self, payload):
        for frac in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidArgumentError):
                truncate(payload, frac)


class TestMultires:
    def test_half_resolution_matches_block_means(self, field, payload):
        lo = decompress_multires(payload, 1)
        assert lo.shape == (16, 16, 16)
        means = field.reshape(16, 2, 16, 2, 16, 2).mean(axis=(1, 3, 5))
        corr = np.corrcoef(lo.ravel(), means.ravel())[0, 1]
        assert corr > 0.99
        # scale-corrected: same order of magnitude, not a gained-up copy
        assert abs(lo.mean() / means.mean() - 1.0) < 0.1

    def test_each_level_halves_axes(self, payload):
        for level, expected in ((1, 16), (2, 8), (3, 4)):
            lo = decompress_multires(payload, level)
            assert lo.shape == (expected,) * 3

    def test_level_zero_is_full_resolution(self, field, payload):
        full = decompress_multires(payload, 0)
        np.testing.assert_array_equal(full, repro.decompress(payload))

    def test_chunked_container_rejected(self, field):
        t = repro.tolerance_from_idx(field, 10)
        chunked = repro.compress(field, repro.PweMode(t), chunk_shape=16).payload
        with pytest.raises(UnsupportedModeError):
            decompress_multires(chunked, 1)

    def test_excessive_level_rejected(self, payload):
        with pytest.raises(InvalidArgumentError):
            decompress_multires(payload, 99)
        with pytest.raises(InvalidArgumentError):
            decompress_multires(payload, -1)


class TestInverseToLevel:
    def test_level_zero_equals_inverse(self, rng):
        x = rng.standard_normal((24, 24))
        c, plan = forward(x)
        np.testing.assert_allclose(inverse_to_level(c, plan, 0), x, atol=1e-9)

    def test_constant_field_survives_coarsening(self):
        x = np.full((32, 32), 5.0)
        c, plan = forward(x)
        lo = inverse_to_level(c, plan, 2)
        np.testing.assert_allclose(lo, 5.0, rtol=1e-6)

    def test_dc_gain_cached_and_positive(self):
        for w in ("cdf97", "cdf53", "haar"):
            g = lowpass_dc_gain(w)
            assert g > 1.0
            assert lowpass_dc_gain(w) == g  # cache hit

    def test_smooth_signal_coarse_view(self, rng):
        g = np.linspace(0, 1, 64)
        x = np.sin(2 * np.pi * g)
        c, plan = forward(x)
        lo = inverse_to_level(c, plan, 1)
        assert lo.shape == (32,)
        np.testing.assert_allclose(lo, np.sin(2 * np.pi * np.linspace(0, 1, 32)), atol=0.15)

    def test_shape_mismatch_rejected(self, rng):
        x = rng.standard_normal((16, 16))
        c, plan = forward(x)
        with pytest.raises(InvalidArgumentError):
            inverse_to_level(c[:8], plan, 1)


class TestProgressiveHardening:
    """Satellite of the store PR: progressive payload parsing runs behind
    the decode_guard/checked_shape trust boundary — malformed payloads
    surface as ReproError subclasses, never raw struct/numpy errors."""

    def test_truncate_rejects_garbage_payload(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            truncate(b"not a container at all", 0.5)

    def test_truncate_rejects_corrupted_chunk_stream(self, payload):
        from repro.core.container import build_container, parse_container
        from repro.errors import StreamFormatError

        p = parse_container(payload)
        bad = build_container(
            p.rank, p.dtype, p.mode_code, p.shape, p.chunks,
            [b"\x00\x01\x02\x03" * 10],
        )
        with pytest.raises(StreamFormatError):
            truncate(bad, 0.5)

    def test_multires_rejects_corrupted_chunk_stream(self, payload):
        from repro.core.container import build_container, parse_container
        from repro.errors import StreamFormatError

        p = parse_container(payload)
        bad = build_container(
            p.rank, p.dtype, p.mode_code, p.shape, p.chunks,
            [b"\xff" * 64],
        )
        with pytest.raises(StreamFormatError):
            decompress_multires(bad, 1)

    def test_split_chunk_stream_validates_sections(self, payload):
        from repro import lossless
        from repro.bitstream import HEADER_SIZE, ChunkParams
        from repro.core.container import parse_container
        from repro.core.progressive import split_chunk_stream
        from repro.errors import StreamFormatError

        raw = lossless.decompress(parse_container(payload).streams[0])
        header, params, speck, outliers = split_chunk_stream(raw)
        assert len(speck) == header.speck_nbytes
        assert len(outliers) == params.outlier_nbytes
        # truncating the body below the section table must be caught
        with pytest.raises(StreamFormatError):
            split_chunk_stream(raw[: HEADER_SIZE + ChunkParams.SIZE + 1])

    def test_truncate_chunk_stream_roundtrip(self, payload):
        from repro import lossless
        from repro.core.pipeline import decompress_chunk
        from repro.core.container import parse_container
        from repro.core.progressive import truncate_chunk_stream

        parsed = parse_container(payload)
        raw = lossless.decompress(parsed.streams[0])
        cut = truncate_chunk_stream(raw, 0.25)
        assert len(cut) < len(raw)
        out = decompress_chunk(cut, rank=3, expected_shape=parsed.shape)
        assert out.shape == parsed.shape
        assert np.isfinite(out).all()

    def test_truncate_chunk_stream_invalid_fraction(self, payload):
        from repro import lossless
        from repro.core.container import parse_container
        from repro.core.progressive import truncate_chunk_stream

        raw = lossless.decompress(parse_container(payload).streams[0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidArgumentError):
                truncate_chunk_stream(raw, bad)
