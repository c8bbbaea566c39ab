import dataclasses

import numpy as np
import pytest

from radarmon.iqcore import (
    Emitter,
    IqChunk,
    PulseAnnotation,
    SampleStream,
    chunk_stream,
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
    def test_exact_division(self):
        stream = SampleStream(np.ones(4096, dtype=complex))
        chunks = chunk_stream(stream)
        assert len(chunks) == 4
        assert all(len(c) == 1024 for c in chunks)

    def test_floor_rule_drops_remainder(self):
        stream = SampleStream(np.arange(1500) + 0j)
        chunks = chunk_stream(stream)
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0].samples.real, np.arange(1024))

    def test_mask_intersection_across_boundary(self):
        # pulse at indices 1000..1100 inclusive
        ann = PulseAnnotation(1000, 101, Emitter.RADAR, 1.0)
        stream = SampleStream(np.ones(2048, dtype=complex), 20e6, (ann,))
        c0, c1 = chunk_stream(stream)
        assert c0.label == 0 and c1.label == 0
        expect0 = np.zeros(1024, bool)
        expect0[1000:1024] = True
        expect1 = np.zeros(1024, bool)
        expect1[0:77] = True
        np.testing.assert_array_equal(c0.radar_mask, expect0)
        np.testing.assert_array_equal(c1.radar_mask, expect1)

    def test_insufficient_samples(self):
        stream = SampleStream(np.ones(100, dtype=complex))
        with pytest.raises(ValueError, match="insufficient samples"):
            chunk_stream(stream)

    def test_concatenation_reproduces_prefix(self):
        rng = np.random.default_rng(0)
        stream = f32_random_stream(rng, 5000)
        chunks = chunk_stream(stream)
        rebuilt = np.concatenate([c.samples for c in chunks])
        np.testing.assert_array_equal(rebuilt, stream.samples[: 4 * 1024])

    def test_label_never_contradicts_mask(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(1024, 4096))
            anns = []
            pos = 0
            while True:
                pos += int(rng.integers(10, 1500))
                length = int(rng.integers(1, 120))
                if pos + length > n:
                    break
                anns.append(PulseAnnotation(pos, length, Emitter.RADAR, 1.0))
                pos += length
            stream = SampleStream(np.ones(n, dtype=complex), 20e6, tuple(anns))
            for chunk in chunk_stream(stream):
                assert (chunk.label == 0) == chunk.radar_mask.any()

    def test_chunk_rejects_contradictory_label(self):
        with pytest.raises(ValueError, match="contradicts"):
            IqChunk(np.ones(16, dtype=complex), 0, "", np.zeros(16, bool))


class TestFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ann = (PulseAnnotation(10, 40, Emitter.RADAR, 0.75),
               PulseAnnotation(200, 30, Emitter.WLAN, 2.5))
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
        anns = (PulseAnnotation(100, 5, Emitter.RADAR, 1.0),
                PulseAnnotation(10, 5, Emitter.RADAR, 1.0))
        with pytest.raises(ValueError, match="sorted"):
            SampleStream(np.ones(200, dtype=complex), 20e6, anns)

    def test_rejects_overlap_same_emitter(self):
        anns = (PulseAnnotation(10, 20, Emitter.RADAR, 1.0),
                PulseAnnotation(15, 20, Emitter.RADAR, 1.0))
        with pytest.raises(ValueError, match="overlapping"):
            SampleStream(np.ones(200, dtype=complex), 20e6, anns)

    def test_allows_overlap_across_emitters(self):
        anns = (PulseAnnotation(10, 20, Emitter.RADAR, 1.0),
                PulseAnnotation(15, 20, Emitter.WLAN, 1.0))
        stream = SampleStream(np.ones(200, dtype=complex), 20e6, anns)
        assert len(stream.annotations) == 2

    def test_stream_window_rebases_annotations(self):
        anns = (PulseAnnotation(100, 50, Emitter.RADAR, 1.0),)
        stream = SampleStream(np.arange(400) + 0j, 20e6, anns)
        window = stream_window(stream, 120, 100)
        assert window.annotations == (PulseAnnotation(0, 30, Emitter.RADAR, 1.0),)
        np.testing.assert_array_equal(window.samples.real, np.arange(120, 220))

    def test_radar_mask_ignores_other_emitters(self):
        anns = (PulseAnnotation(0, 10, Emitter.WLAN, 1.0),
                PulseAnnotation(20, 10, Emitter.RADAR, 1.0))
        mask = radar_mask(anns, 40)
        assert not mask[:20].any() and mask[20:30].all() and not mask[30:].any()
