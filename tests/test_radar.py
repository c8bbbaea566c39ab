import re

import numpy as np
import pytest

from radarmon import radar
from radarmon.iqcore import stream_window
from radarmon.radar import (
    BARKER13,
    BarkerPm,
    Jitter,
    Lfm,
    Pc,
    RadarParams,
    pulse_schedule,
    synth_pulse,
    synth_pulse_train,
)
from radarmon.represent import phase_diff

FS = 20e6


def no_jitter_params(ipm, pw_s, **kw):
    return RadarParams(ipm=ipm, pw_s=pw_s, pri_s=1e-3, jitter=Jitter(0.0, 0), **kw)


class TestSynthPulse:
    def test_pc_2us_is_40_unit_samples(self):
        pulse = synth_pulse(Pc(), 2e-6, FS)
        assert pulse.shape == (40,)
        np.testing.assert_array_equal(pulse, np.ones(40, dtype=complex))

    def test_lfm_phase_ramp_matches_analytic_finite_difference(self):
        f_e, pw = 4e6, 10e-6
        pulse = synth_pulse(Lfm(f_e), pw, FS)
        assert pulse.shape == (200,)
        np.testing.assert_allclose(np.abs(pulse), 1.0, atol=1e-12)
        # oracle: finite-difference the analytic phase 2*pi*(-f_e/2*t + f_e/(2*pw)*t^2)
        t = np.arange(200) / FS
        analytic = 2 * np.pi * (-0.5 * f_e * t + f_e / (2 * pw) * t * t)
        expected = np.diff(analytic)
        got = phase_diff(pulse)[1:]
        np.testing.assert_allclose(got, expected, atol=1e-9)
        # sweep rises linearly from ~-2*pi*f_e/2/fs to ~+2*pi*f_e/2/fs
        # (the exact +f_e/2 endpoint falls one sample past the pulse)
        assert expected[0] == pytest.approx(-2 * np.pi * (f_e / 2) / FS, rel=2e-2)
        assert expected[-1] == pytest.approx(+2 * np.pi * (f_e / 2) / FS, rel=2e-2)
        steps = np.diff(expected)
        np.testing.assert_allclose(steps, steps[0], atol=1e-12)

    def test_barker13_chip_transitions(self):
        n = 200
        pulse = synth_pulse(BarkerPm(), 10e-6, FS)
        assert pulse.shape == (n,)
        # oracle: chip index of sample k is floor(k*13/200); phase jumps of pi
        # occur exactly where consecutive samples land on differing chips
        chip = (np.arange(n) * 13) // n
        code = np.asarray(BARKER13)
        expected = np.zeros(n)
        for k in range(1, n):
            if code[chip[k]] != code[chip[k - 1]]:
                expected[k] = np.pi
        dphi = phase_diff(pulse)
        np.testing.assert_allclose(np.abs(dphi), expected, atol=1e-12)
        assert int((expected == np.pi).sum()) == 6  # Barker-13 has 6 sign changes

    def test_too_short_pulse_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            synth_pulse(Pc(), 1e-8, FS)


class TestSynthPulseTrain:
    def test_placement_every_pri(self):
        params = no_jitter_params(Pc(), 2e-6)
        stream = synth_pulse_train(params, 10e-3, FS, seed=0)
        assert len(stream.annotations) == 10
        for m, ann in enumerate(stream.annotations):
            assert ann.start_idx == m * 20000
            assert ann.length == 40
            np.testing.assert_array_equal(
                stream.samples[ann.start_idx : ann.end_idx], np.ones(40, dtype=complex)
            )
        # everything off-pulse is zero
        mask = np.zeros(len(stream), bool)
        for ann in stream.annotations:
            mask[ann.start_idx : ann.end_idx] = True
        assert np.all(stream.samples[~mask] == 0)

    def test_carrier_offset_rotates_without_changing_magnitude(self):
        params = no_jitter_params(Pc(), 2e-6, carrier_offset_hz=3e6)
        stream = synth_pulse_train(params, 3e-3, FS, seed=0)
        for ann in stream.annotations:
            seg = stream.samples[ann.start_idx : ann.end_idx]
            np.testing.assert_allclose(np.abs(seg), 1.0, atol=1e-12)
            dphi = np.angle(seg[1:] * np.conj(seg[:-1]))
            np.testing.assert_allclose(dphi, 2 * np.pi * 3e6 / FS, atol=1e-9)

    def test_amplitude_scales_every_pulse(self):
        params = no_jitter_params(Pc(), 2e-6, amplitude=0.25)
        stream = synth_pulse_train(params, 3e-3, FS, seed=0)
        assert len(stream.annotations) == 3
        for ann in stream.annotations:
            np.testing.assert_array_equal(stream.samples[ann.start_idx : ann.end_idx], 0.25)

    def test_total_annotated_samples(self):
        for ipm, pw in ((Pc(), 2e-6), (Lfm(4e6), 10e-6), (BarkerPm(), 10e-6)):
            params = RadarParams(ipm=ipm, pw_s=pw, pri_s=1e-3)
            stream = synth_pulse_train(params, 10e-3, FS, seed=3)
            total = sum(a.length for a in stream.annotations)
            assert total == len(stream.annotations) * round(pw * FS)

    def test_pulse_magnitude_is_constant_within_amplitude_jitter(self):
        params = RadarParams(ipm=Lfm(4e6), pw_s=10e-6, pri_s=1e-3, carrier_offset_hz=-6e6)
        stream = synth_pulse_train(params, 5e-3, FS, seed=9)
        for ann in stream.annotations:
            seg = np.abs(stream.samples[ann.start_idx : ann.end_idx])
            np.testing.assert_allclose(seg, seg[0], rtol=1e-12)
            assert abs(seg[0] - 1.0) <= 0.01

    def test_jitter_bounds_and_determinism(self):
        params = RadarParams(ipm=Pc(), pw_s=2e-6, pri_s=1e-3,
                             jitter=Jitter(amplitude_frac=0.01, toa_samples=2))
        a = synth_pulse_train(params, 10e-3, FS, seed=7)
        b = synth_pulse_train(params, 10e-3, FS, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.annotations == b.annotations
        for m, ann in enumerate(a.annotations):
            assert abs(ann.start_idx - m * 20000) <= 2
            assert np.all(np.abs(np.abs(a.samples[ann.start_idx : ann.end_idx]) - 1.0) <= 0.01)

    def test_duration_must_cover_one_pri(self):
        params = no_jitter_params(Pc(), 2e-6)
        with pytest.raises(ValueError, match="PRI"):
            synth_pulse_train(params, 0.5e-3, FS, seed=0)


class TestParamValidation:
    def test_pw_must_be_less_than_pri(self):
        with pytest.raises(ValueError):
            RadarParams(ipm=Pc(), pw_s=2e-3, pri_s=1e-3)

    def test_barker_code_entries(self):
        with pytest.raises(ValueError):
            BarkerPm(code=(1, 0, -1))


def span_cases(full):
    """Spans of ``full``: at its head, at its tail, clipping pulse 1 at either
    edge, holding no pulse, one sample, and the whole stream."""
    n_total = len(full)
    ann = full.annotations[1]
    return [
        (0, 1024),
        (n_total - 1024, n_total),
        (ann.start_idx + 3, ann.start_idx + 1027),
        (ann.end_idx - 1021, ann.end_idx - 3),
        (5001, 6024),
        (ann.start_idx + 7, ann.start_idx + 8),
        (0, n_total),
    ]


class TestSpan:
    """A span renders exactly the window of the whole stream."""

    @pytest.mark.parametrize("ipm, pw", [(Pc(), 2e-6), (Lfm(4e6), 10e-6), (BarkerPm(), 10e-6)],
                             ids=["pc2", "lfm10", "barker13"])
    @pytest.mark.parametrize("offset", [0.0, 3e6, -3e6, -6e6])
    @pytest.mark.parametrize("jitter", [Jitter(), Jitter(0.0, 0)], ids=["jitter", "no-jitter"])
    def test_span_is_the_window_of_the_whole_stream(self, ipm, pw, offset, jitter):
        params = RadarParams(ipm=ipm, pw_s=pw, pri_s=1e-3, carrier_offset_hz=offset, jitter=jitter)
        full = synth_pulse_train(params, 3e-3, FS, seed=11)
        assert len(full) == 60000
        for lo, hi in span_cases(full):
            got = synth_pulse_train(params, 3e-3, FS, seed=11, span=(lo, hi))
            want = stream_window(full, lo, hi - lo)
            # bytes, not array_equal, which takes -0.0 for 0.0: a zero rotated
            # by a carrier with a negative cosine or sine part is -0.0
            assert got.samples.tobytes() == want.samples.tobytes(), (lo, hi)
            assert got.annotations == want.annotations, (lo, hi)

    def test_schedule_places_the_rendered_pulses(self):
        params = RadarParams(ipm=Pc(), pw_s=2e-6, pri_s=1e-3)
        full = synth_pulse_train(params, 3e-3, FS, seed=5)
        schedule = pulse_schedule(params, len(full), FS, seed=5)
        assert [(a.start_idx, a.length) for a in full.annotations] == [(t, n) for t, n, _ in schedule]
        for ann, (_, _, amp) in zip(full.annotations, schedule):
            np.testing.assert_array_equal(full.samples[ann.start_idx : ann.end_idx], amp)

    @pytest.mark.parametrize("span", [(-1, 10), (10, 10), (20, 10), (59000, 60001)])
    def test_span_outside_the_stream_rejected_before_work(self, span, monkeypatch):
        monkeypatch.setattr(radar, "synth_pulse", None)  # any rendering would fail on it
        params = no_jitter_params(Pc(), 2e-6)
        with pytest.raises(ValueError, match=re.escape(f"span {span} must satisfy 0 <= lo < hi <= n_total = 60000")):
            synth_pulse_train(params, 3e-3, FS, span=span)

    def test_carrier_offset_checked_before_work(self, monkeypatch):
        monkeypatch.setattr(radar, "synth_pulse", None)
        params = no_jitter_params(Pc(), 2e-6, carrier_offset_hz=10e6)
        with pytest.raises(ValueError, match="Nyquist"):
            synth_pulse_train(params, 3e-3, FS)
