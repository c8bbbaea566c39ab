import dataclasses
import json

import numpy as np
import pytest

from radarmon.iqcore import (
    Emitter,
    IqChunk,
    PulseAnnotation,
    SampleStream,
    as_chunk,
    as_stream,
    make_chunk,
    radar_mask,
    read_iq_file,
    stream_window,
    write_iq_file,
)


def f32_random_stream(rng, n, annotations=()):
    re = rng.standard_normal(n).astype(np.float32).astype(np.float64)
    im = rng.standard_normal(n).astype(np.float32).astype(np.float64)
    return SampleStream(re + 1j * im, 20e6, annotations)


class TestChunkStream:
    """A stream of exactly one chunk's length becomes a chunk, and back."""

    def test_mask_intersection_across_boundary(self):
        # pulse at indices 1000..1100 inclusive, windowed into two chunks
        ann = PulseAnnotation(1000, 101, Emitter.RADAR)
        stream = SampleStream(np.ones(2048, dtype=complex), 20e6, (ann,))
        c0, c1 = (as_chunk(stream_window(stream, lo, 1024)) for lo in (0, 1024))
        assert c0.label == 0 and c1.label == 0
        expect0 = np.zeros(1024, bool)
        expect0[1000:1024] = True
        expect1 = np.zeros(1024, bool)
        expect1[0:77] = True
        np.testing.assert_array_equal(c0.radar_mask, expect0)
        np.testing.assert_array_equal(c1.radar_mask, expect1)

    def test_insufficient_samples(self):
        stream = SampleStream(np.ones(100, dtype=complex))
        with pytest.raises(ValueError, match="a chunk holds 1024 samples, the stream has 100"):
            as_chunk(stream)

    def test_rejects_a_stream_longer_than_one_chunk(self):
        stream = SampleStream(np.ones(1025, dtype=complex))
        with pytest.raises(ValueError, match="the stream has 1025"):
            as_chunk(stream)

    def test_as_stream_spans_are_the_mask_runs(self):
        mask = np.zeros(1024, bool)
        mask[:3] = mask[500:520] = mask[1020:] = True
        stream = as_stream(make_chunk(np.ones(1024, dtype=complex), mask), 40e6)
        assert stream.sample_rate_hz == 40e6
        assert stream.annotations == (PulseAnnotation(0, 3, Emitter.RADAR),
                                      PulseAnnotation(500, 20, Emitter.RADAR),
                                      PulseAnnotation(1020, 4, Emitter.RADAR))
        np.testing.assert_array_equal(as_chunk(stream).radar_mask, mask)

    def test_label_never_contradicts_mask(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = 1024 * int(rng.integers(1, 4))
            anns = []
            pos = 0
            while True:
                pos += int(rng.integers(10, 1500))
                length = int(rng.integers(1, 120))
                if pos + length > n:
                    break
                anns.append(PulseAnnotation(pos, length, Emitter.RADAR))
                pos += length
            stream = SampleStream(np.ones(n, dtype=complex), 20e6, tuple(anns))
            for lo in range(0, n, 1024):
                chunk = as_chunk(stream_window(stream, lo, 1024))
                assert (chunk.label == 0) == chunk.radar_mask.any()

    def test_chunk_rejects_contradictory_label(self):
        with pytest.raises(ValueError, match="contradicts"):
            IqChunk(np.ones(16, dtype=complex), 0, "", np.zeros(16, bool))


class TestFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ann = (PulseAnnotation(10, 40, Emitter.RADAR),
               PulseAnnotation(200, 30, Emitter.WLAN))
        stream = f32_random_stream(rng, 1024, ann)
        path = tmp_path / "x.iq"
        write_iq_file(stream, path)
        back = read_iq_file(path)
        np.testing.assert_array_equal(back.samples, stream.samples)
        assert back.sample_rate_hz == stream.sample_rate_hz
        assert back.annotations == stream.annotations
        # write again: payload bytes identical
        write_iq_file(back, tmp_path / "y.iq")
        assert (tmp_path / "x.iq").read_bytes() == (tmp_path / "y.iq").read_bytes()
        assert (tmp_path / "x.iq.json").read_bytes() == (tmp_path / "y.iq.json").read_bytes()

    def test_sidecar_with_peak_amplitude_still_loads(self, tmp_path):
        path = tmp_path / "old.iq"
        np.zeros(2 * 64, dtype="<f4").tofile(path)
        (tmp_path / "old.iq.json").write_text(json.dumps({
            "sample_rate_hz": 20e6,
            "annotations": [{"emitter": "Radar", "len": 8, "peak_amplitude": 0.5, "start_idx": 4}],
        }))
        assert read_iq_file(path).annotations == (PulseAnnotation(4, 8, Emitter.RADAR),)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.iq"
        write_iq_file(SampleStream(np.zeros(0, dtype=complex)), path)
        assert path.stat().st_size == 0
        assert len(read_iq_file(path)) == 0

    def test_six_floats_is_three_samples(self, tmp_path):
        path = tmp_path / "t.iq"
        np.array([1, 2, 3, 4, 5, 6], dtype="<f4").tofile(path)
        write_iq_file(SampleStream(np.zeros(0, dtype=complex)), tmp_path / "meta_donor.iq")
        (tmp_path / "t.iq.json").write_text((tmp_path / "meta_donor.iq.json").read_text())
        stream = read_iq_file(path)
        assert len(stream) == 3
        np.testing.assert_array_equal(stream.samples, [1 + 2j, 3 + 4j, 5 + 6j])

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "x.iq"
        np.zeros(4, dtype="<f4").tofile(path)
        with pytest.raises(ValueError, match="missing sidecar"):
            read_iq_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.iq"
        write_iq_file(SampleStream(np.ones(2, dtype=complex)), path)
        path.write_bytes(path.read_bytes()[:-4])  # drop one float
        with pytest.raises(ValueError, match="truncated payload"):
            read_iq_file(path)


class TestImmutability:
    """Containers are immutable after construction, so threads may share them."""

    def test_stream_and_chunk_are_frozen_copies(self):
        samples = np.ones(1024, dtype=complex)
        mask = np.zeros(1024, dtype=bool)
        mask[10:20] = True
        stream = SampleStream(samples, 20e6)
        chunk = make_chunk(samples, mask, "test")
        for arr in (stream.samples, chunk.samples, chunk.radar_mask):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.samples = samples
        with pytest.raises(dataclasses.FrozenInstanceError):
            chunk.radar_mask = mask
        samples[:] = 5.0
        mask[:] = False
        np.testing.assert_array_equal(stream.samples, 1.0)
        np.testing.assert_array_equal(chunk.samples, 1.0)
        assert int(chunk.radar_mask.sum()) == 10 and chunk.radar_mask[10:20].all()


class TestStreamInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SampleStream(np.array([1.0, np.nan], dtype=complex))

    def test_rejects_unsorted_annotations(self):
        anns = (PulseAnnotation(100, 5, Emitter.RADAR),
                PulseAnnotation(10, 5, Emitter.RADAR))
        with pytest.raises(ValueError, match="sorted"):
            SampleStream(np.ones(200, dtype=complex), 20e6, anns)

    def test_rejects_overlap_same_emitter(self):
        anns = (PulseAnnotation(10, 20, Emitter.RADAR),
                PulseAnnotation(15, 20, Emitter.RADAR))
        with pytest.raises(ValueError, match="overlapping"):
            SampleStream(np.ones(200, dtype=complex), 20e6, anns)

    def test_allows_overlap_across_emitters(self):
        anns = (PulseAnnotation(10, 20, Emitter.RADAR),
                PulseAnnotation(15, 20, Emitter.WLAN))
        stream = SampleStream(np.ones(200, dtype=complex), 20e6, anns)
        assert len(stream.annotations) == 2

    def test_stream_window_rebases_annotations(self):
        anns = (PulseAnnotation(100, 50, Emitter.RADAR),)
        stream = SampleStream(np.arange(400) + 0j, 20e6, anns)
        window = stream_window(stream, 120, 100)
        assert window.annotations == (PulseAnnotation(0, 30, Emitter.RADAR),)
        np.testing.assert_array_equal(window.samples.real, np.arange(120, 220))

    def test_radar_mask_ignores_other_emitters(self):
        anns = (PulseAnnotation(0, 10, Emitter.WLAN),
                PulseAnnotation(20, 10, Emitter.RADAR))
        mask = radar_mask(anns, 40)
        assert not mask[:20].any() and mask[20:30].all() and not mask[30:].any()
