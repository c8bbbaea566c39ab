import numpy as np
import pytest

from radarmon import dataset, nn
from radarmon.iqcore import make_chunk
from radarmon.radar import BarkerPm, Pc, synth_pulse
from radarmon.represent import (
    amplitude,
    ap_tensor,
    model_batch,
    model_input,
    phase_diff,
    spectrogram,
)

FS = 20e6


def tone(freq_hz, n=1024, fs=FS):
    return np.exp(2j * np.pi * np.arange(n) * freq_hz / fs)


def rotate(x, cfo_hz, fs=FS):
    return x * np.exp(2j * np.pi * np.arange(len(x)) * cfo_hz / fs)


class TestAmplitude:
    def test_unit_samples(self):
        np.testing.assert_array_equal(amplitude(np.ones(8, dtype=complex)), np.ones(8))

    def test_pythagoras(self):
        assert amplitude(np.array([3 + 4j]))[0] == 5.0

    def test_cfo_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        np.testing.assert_allclose(amplitude(rotate(x, 3e6)), amplitude(x), atol=1e-12)


class TestPhaseDiff:
    @pytest.mark.parametrize("offset_mhz", [-6, -3, 0, 3, 6])
    def test_pure_tone_offsets(self, offset_mhz):
        f = offset_mhz * 1e6
        dphi = phase_diff(tone(f))
        expected = 2 * np.pi * f / FS
        np.testing.assert_allclose(dphi[1:], expected, atol=1e-9)
        assert dphi[0] == 0.0

    def test_constant_real_signal(self):
        np.testing.assert_array_equal(phase_diff(np.full(64, 2.0 + 0j)), np.zeros(64))

    def test_zero_magnitude_samples_yield_zero(self):
        x = np.array([1 + 0j, 0 + 0j, 1j, 1j])
        dphi = phase_diff(x)
        assert dphi[1] == 0.0 and dphi[2] == 0.0
        assert dphi[3] == pytest.approx(0.0, abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        dphi = phase_diff(x)
        assert np.all(dphi > -np.pi) and np.all(dphi <= np.pi)

    def test_barker_jumps(self):
        pulse = synth_pulse(BarkerPm(), 10e-6, FS)
        dphi = phase_diff(pulse)
        jumps = np.abs(dphi) > 1e-6
        np.testing.assert_allclose(np.abs(dphi[jumps]), np.pi, atol=1e-12)
        assert int(jumps.sum()) == 6

    def test_pc_pulse_interior_mean_zero(self):
        pulse = synth_pulse(Pc(), 10e-6, FS)
        assert abs(np.mean(phase_diff(pulse)[1:])) <= 1e-6


class TestSpectrogram:
    def test_all_zero_chunk(self):
        img = spectrogram(np.zeros(1024, dtype=complex))
        assert img.shape == (64, 64)
        np.testing.assert_array_equal(img, np.zeros((64, 64)))

    def test_tone_bin_mapping(self):
        img = spectrogram(tone(5e6))
        expected_row = 32 + round(5e6 / (FS / 64))
        assert expected_row == 48
        for frame in range(61):
            assert int(np.argmax(img[:, frame])) == expected_row
        # zero-padded frames stay empty
        np.testing.assert_array_equal(img[:, 61:], np.zeros((64, 3)))

    def test_pulse_frame_localization(self):
        # 2 us pulse (40 samples) starting at sample 512
        x = np.zeros(1024, dtype=complex)
        x[512:552] = 1.0
        img = spectrogram(x)
        # oracle: frame f covers samples [16f, 16f+64); overlap with [512, 552)
        overlapping = [f for f in range(61) if 16 * f < 552 and 16 * f + 64 > 512]
        assert overlapping == list(range(29, 35))
        energized = {int(f) for f in np.flatnonzero(img.max(axis=0) > 0)}
        assert energized == set(overlapping)
        # frames carrying most of the pulse sit well above the dB floor
        core = {int(f) for f in np.flatnonzero(img.max(axis=0) > 0.5)}
        assert core and core <= set(overlapping)

    def test_values_in_unit_range(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        img = spectrogram(x)
        assert img.min() >= 0.0 and img.max() <= 1.0 and img.max() == 1.0

    def test_cfo_causes_circular_row_shift(self):
        # 10 bins exactly: cfo = 10 * fs / 64
        rng = np.random.default_rng(8)
        x = np.zeros(1024, dtype=complex)
        x[300:500] = np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        x += 0.01 * (rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        cfo = 10 * FS / 64
        base = spectrogram(x)
        shifted = spectrogram(rotate(x, cfo))
        aligned = np.roll(base, 10, axis=0)
        frac = np.mean(np.abs(shifted - aligned) <= 0.05)
        assert frac >= 0.9


class TestApTensor:
    def test_all_zero_chunk(self):
        t = ap_tensor(np.zeros(1024, dtype=complex))
        assert t.shape == (2, 64, 64)
        np.testing.assert_array_equal(t[0], np.zeros((64, 64)))
        np.testing.assert_array_equal(t[1], np.full((64, 64), 0.5))

    def test_inverse_recovers_vectors_exactly(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        t = ap_tensor(x)
        amp = amplitude(x)
        vectors = (amp / amp.max(), (phase_diff(x) + np.pi) / (2 * np.pi))
        # each plane holds its 1024-vector row-major, 64 samples a row, every row four times
        for plane, vector in zip(t, vectors):
            for row in range(64):
                np.testing.assert_array_equal(plane[row], vector[64 * (row // 4) : 64 * (row // 4 + 1)])

    def test_cfo_leaves_channel0_and_shifts_channel1(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        base = ap_tensor(x)
        moved = ap_tensor(rotate(x, 3e6))
        np.testing.assert_allclose(moved[0], base[0], atol=1e-12)
        delta = (moved[1, 1:] - base[1, 1:]) % 1.0
        expected = (2 * np.pi * 3e6 / FS / (2 * np.pi)) % 1.0
        # row 0 holds the fixed dphi[0] = 0 convention; all later entries shift
        np.testing.assert_allclose(delta[3:], expected, atol=1e-9)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        np.testing.assert_array_equal(ap_tensor(2.0 * x), ap_tensor(x))

    def test_range_bounds(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        t = ap_tensor(x)
        assert t.min() >= 0.0 and t.max() <= 1.0


@pytest.mark.parametrize("fn", [spectrogram, ap_tensor])
@pytest.mark.parametrize("n", [1000, 40000])
def test_chunk_length_checked(fn, n):
    with pytest.raises(ValueError, match=rf"1024-sample chunk, got {n} samples"):
        fn(np.ones(n, dtype=complex))


class TestModelInput:
    def test_shapes(self):
        x = np.ones(1024, dtype=complex)
        assert model_input(x, "S").shape == (1, 64, 64)
        assert model_input(x, "AP").shape == (2, 64, 64)
        assert model_input(x, "A").shape == (1, 32, 32)
        assert model_input(x, "P").shape == (1, 32, 32)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            model_input(np.ones(1024, dtype=complex), "Q")

    @pytest.mark.parametrize("variant", sorted(nn.INPUT_SHAPES))
    def test_batch_is_the_float32_stack_of_inputs(self, variant):
        rng = np.random.default_rng(12)
        chunks = [rng.standard_normal(1024) + 1j * rng.standard_normal(1024) for _ in range(3)]
        batch = model_batch(iter(chunks), variant)
        assert batch.dtype == np.float32 and batch.shape == (3, *nn.INPUT_SHAPES[variant])
        for got, chunk in zip(batch, chunks):
            np.testing.assert_array_equal(got, model_input(chunk, variant).astype(np.float32))

    def test_works_on_chunks(self):
        chunk = make_chunk(np.ones(1024, dtype=complex), np.zeros(1024, bool), "t")
        assert model_input(chunk, "AP").shape == (2, 64, 64)

    def test_only_ap_batches_repeat_rows_and_in_fours(self):
        # nn's conv1 runs a batch whose rows repeat on its source rows alone;
        # every AP batch train and eval build must take that path, and the
        # other variants' batches pay only the first row comparison
        cfg = dataset.ScenarioConfig(seed=7)
        chunks = [dataset.synth_entry_chunk(cfg, "train", i, i % 2)[0] for i in range(6)]
        ap = model_batch(chunks, "AP")
        assert ap.dtype == np.float32
        np.testing.assert_array_equal(ap, ap[:, :, ::4].repeat(4, axis=2))
        assert nn._row_repeat(ap) == 4
        for variant in ("S", "A", "P"):
            batch = model_batch(chunks, variant)
            assert not np.array_equal(batch[0, :, 0], batch[0, :, 1])
            assert nn._row_repeat(batch) == 1
