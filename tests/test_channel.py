import numpy as np
import pytest

from radarmon.channel import apply_multipath, mix
from radarmon.iqcore import Emitter, PulseAnnotation, SampleStream, as_chunk
from radarmon.radar import Jitter, Pc, RadarParams, synth_pulse_train

FS = 20e6


def random_stream(rng, n=2048, annotations=()):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SampleStream(x, FS, annotations)


class TestApplyMultipath:
    def test_single_unit_tap_is_identity(self):
        stream = random_stream(np.random.default_rng(5))
        out = apply_multipath(stream, ((0, 1.0 + 0j),))
        np.testing.assert_array_equal(out.samples, stream.samples)

    def test_pulse_support_widens(self):
        params = RadarParams(ipm=Pc(), pw_s=2e-6, pri_s=1e-3, jitter=Jitter(0.0, 0))
        stream = synth_pulse_train(params, 1.5e-3, FS, seed=0)
        out = apply_multipath(stream, ((0, 1.0 + 0j), (4, 0.5 + 0j)))
        ann = out.annotations[0]
        assert ann.length == 44
        # oracle: direct convolution of the pulse with the tap sequence
        taps = np.zeros(5)
        taps[0], taps[4] = 1.0, 0.5
        expected = np.convolve(np.ones(40), taps)[:44]
        np.testing.assert_allclose(out.samples[:44].real, expected, atol=1e-12)
        assert np.all(out.samples[44:100] == 0)

    def test_impulse_reproduces_taps(self):
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        taps = ((0, 0.5 + 0.1j), (3, -0.25 + 0j), (7, 0.1j))
        out = apply_multipath(SampleStream(x, FS), taps)
        expected = np.zeros(64, dtype=complex)
        for delay, gain in taps:
            expected[delay] = gain
        np.testing.assert_allclose(out.samples, expected, atol=1e-15)

    def test_requires_leading_tap(self):
        stream = random_stream(np.random.default_rng(6))
        with pytest.raises(ValueError, match="delay 0"):
            apply_multipath(stream, ((2, 1.0 + 0j),))


class TestMix:
    def test_single_stream_identity(self):
        stream = random_stream(np.random.default_rng(7))
        out = mix([stream], noise_power=0.0, seed=0)
        np.testing.assert_array_equal(out.samples, stream.samples)

    def test_exact_sample_wise_addition(self):
        rng = np.random.default_rng(8)
        a, b = random_stream(rng), random_stream(rng)
        out = mix([a, b], noise_power=0.0, seed=0)
        np.testing.assert_array_equal(out.samples, a.samples + b.samples)

    def test_noise_only(self):
        zeros = SampleStream(np.zeros(100000, dtype=complex), FS)
        out = mix([zeros, zeros], noise_power=1.0, seed=42)
        assert len(out) == 100000
        assert np.mean(np.abs(out.samples) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_radar_labels_survive_wlan_overlap(self):
        radar_ann = (PulseAnnotation(100, 40, Emitter.RADAR),)
        wlan_ann = (PulseAnnotation(0, 1024, Emitter.WLAN),)
        rng = np.random.default_rng(9)
        radar = SampleStream(np.ones(1024, dtype=complex), FS, radar_ann)
        wlan = random_stream(rng, 1024, wlan_ann)
        mixed = mix([radar, wlan], noise_power=0.1, seed=1)
        chunk = as_chunk(mixed)
        assert chunk.label == 0
        assert chunk.radar_mask[100:140].all()
        assert int(chunk.radar_mask.sum()) == 40

    def test_annotation_union(self):
        a = SampleStream(np.zeros(512, dtype=complex), FS,
                         (PulseAnnotation(0, 10, Emitter.RADAR),))
        b = SampleStream(np.zeros(512, dtype=complex), FS,
                         (PulseAnnotation(5, 10, Emitter.LTE),))
        out = mix([a, b], noise_power=0.0, seed=0)
        assert len(out.annotations) == 2
        assert {ann.emitter for ann in out.annotations} == {Emitter.RADAR, Emitter.LTE}

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="length"):
            mix([random_stream(rng, 100), random_stream(rng, 200)], noise_power=0.0)

    def test_mismatched_rates_rejected(self):
        x = np.zeros(64, dtype=complex)
        with pytest.raises(ValueError, match="sample rate"):
            mix([SampleStream(x, 20e6), SampleStream(x, 10e6)], noise_power=0.0)
