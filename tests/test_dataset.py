import math

import numpy as np
import pytest

from radarmon import dataset as ds
from radarmon.iqcore import make_chunk
from radarmon.radar import Pc, synth_pulse

FS = 20e6


def small_config(**kw):
    defaults = dict(train_per_class=20, test_per_class=8, seed=13)
    defaults.update(kw)
    return ds.ScenarioConfig(**defaults)


def clean_psnr_chunks(rng, n_chunks, amplitude, noise_power, pulse_len=40):
    """Pulses of the given amplitude with noise strictly outside the mask."""
    chunks = []
    for _ in range(n_chunks):
        x = np.sqrt(noise_power / 2) * (
            rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        )
        start = int(rng.integers(0, 1024 - pulse_len))
        mask = np.zeros(1024, bool)
        mask[start : start + pulse_len] = True
        x[mask] = amplitude * synth_pulse(Pc(), pulse_len / FS, FS)
        chunks.append(make_chunk(x, mask, "radar+noise"))
    return chunks


class TestScenarioGeneration:
    def test_counts_and_balance(self):
        cfg = small_config()
        train = list(ds.iter_split(cfg, "train"))
        test = list(ds.iter_split(cfg, "test"))
        assert len(train) == 40 and len(test) == 16
        assert sum(c.label == 0 for _, c, _ in train) == 20
        assert sum(c.label == 1 for _, c, _ in train) == 20

    def test_desk_scale_default_counts(self):
        cfg = ds.ScenarioConfig()
        assert 2 * (cfg.train_per_class + cfg.test_per_class) == 10000

    def test_class0_visibility_floor(self):
        cfg = small_config(seed=21)
        for _, chunk, _ in ds.iter_split(cfg, "train"):
            if chunk.label == 0:
                assert int(chunk.radar_mask.sum()) >= cfg.min_visible_samples

    def test_class1_has_empty_mask(self):
        cfg = small_config(seed=22)
        for _, chunk, _ in ds.iter_split(cfg, "test"):
            if chunk.label == 1:
                assert not chunk.radar_mask.any()

    def test_provenances_cover_subcases(self):
        cfg = small_config(train_per_class=60, seed=23)
        seen = {c.provenance for _, c, _ in ds.iter_split(cfg, "train")}
        assert seen == set(ds.CLASS0_SUBCASES) | set(ds.CLASS1_SUBCASES)

    def test_generation_is_reproducible(self):
        cfg = small_config(seed=24)
        a = [c.samples for _, c, _ in ds.iter_split(cfg, "train")]
        b = [c.samples for _, c, _ in ds.iter_split(cfg, "train")]
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_entry_independent_of_order(self):
        cfg = small_config(seed=25)
        direct, _ = ds.synth_entry_chunk(cfg, "train", 7, 1)
        in_sequence = [c for i, c, _ in ds.iter_split(cfg, "train") if i == 7][0]
        np.testing.assert_array_equal(direct.samples, in_sequence.samples)

    def test_waveform_metadata_on_class0(self):
        cfg = small_config(seed=26)
        names = {w.name for w in ds.TABLE_WAVEFORMS}
        for _, chunk, meta in ds.iter_split(cfg, "train"):
            if chunk.label == 0:
                assert meta["waveform"] in names
                assert meta["carrier_offset_hz"] in ds.CARRIER_OFFSETS_HZ
            else:
                assert meta["waveform"] is None

    def test_config_validation(self):
        with pytest.raises(ValueError, match="counts"):
            small_config(train_per_class=0)
        with pytest.raises(ValueError, match="mix"):
            small_config(class0_mix=(0.5, 0.5, 0.5))
        with pytest.raises(TypeError, match="seed"):
            small_config(seed="x")
        with pytest.raises(TypeError, match="psnr_range_db"):
            small_config(psnr_range_db=(9.0,))
        with pytest.raises(ValueError, match="psnr_range_db"):
            small_config(psnr_range_db=(20.0, 10.0))


class TestBuildDataset(object):
    def test_manifests_and_files(self, tmp_path):
        cfg = small_config(train_per_class=4, test_per_class=2, seed=31)
        built = ds.build_dataset(cfg, tmp_path)
        assert len(built.train.entries) == 8
        assert len(built.test.entries) == 4
        for entry in built.train.entries:
            chunk = ds.load_chunk(tmp_path, entry)
            assert chunk.label == entry.label
            assert len(chunk) == 1024
        # labels consistent with masks after round-trip
        again = ds.load_manifest(tmp_path / "manifest_train.json")
        assert again == built.train

    def test_rebuild_is_byte_identical(self, tmp_path):
        cfg = small_config(train_per_class=3, test_per_class=2, seed=32)
        ds.build_dataset(cfg, tmp_path / "a")
        ds.build_dataset(cfg, tmp_path / "b")
        for rel in ("manifest_train.json", "manifest_test.json",
                    "chunks/train_000000.iq", "chunks/test_000003.iq"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_chunk_stream_round_trip_preserves_mask(self, tmp_path):
        cfg = small_config(seed=33)
        chunk, _ = ds.synth_entry_chunk(cfg, "train", 0, 0)
        stream = ds.chunk_to_stream(chunk, cfg.sample_rate_hz)
        from radarmon.iqcore import radar_mask
        np.testing.assert_array_equal(
            radar_mask(stream.annotations, 1024), chunk.radar_mask
        )


class TestEstimatePsnr:
    def test_ten_db_case(self):
        # >= 1e5 samples total; pulse samples clean, noise power 0.1 outside
        rng = np.random.default_rng(41)
        chunks = clean_psnr_chunks(rng, 120, amplitude=1.0, noise_power=0.1)
        est = ds.estimate_psnr(chunks)
        assert est == pytest.approx(10.0, abs=0.2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        chunks = clean_psnr_chunks(rng, 30, amplitude=1.0, noise_power=0.1)
        scaled = [
            make_chunk(7.25 * c.samples, c.radar_mask, c.provenance) for c in chunks
        ]
        assert ds.estimate_psnr(scaled) == pytest.approx(ds.estimate_psnr(chunks), abs=1e-9)

    def test_amplitude_doubling_adds_six_db(self):
        rng = np.random.default_rng(43)
        a = ds.estimate_psnr(clean_psnr_chunks(rng, 60, 1.0, 0.1))
        b = ds.estimate_psnr(clean_psnr_chunks(rng, 60, 2.0, 0.1))
        assert b - a == pytest.approx(20 * math.log10(2), abs=0.1)

    def test_zero_noise_gives_infinity(self):
        rng = np.random.default_rng(44)
        chunks = clean_psnr_chunks(rng, 3, amplitude=1.0, noise_power=0.0)
        assert ds.estimate_psnr(chunks) == math.inf

    def test_no_radar_samples_rejected(self):
        chunk = make_chunk(np.ones(1024, dtype=complex), np.zeros(1024, bool), "noise")
        with pytest.raises(ValueError, match="radar"):
            ds.estimate_psnr([chunk])


class TestBuildPsnrSets:
    def test_sweep_structure(self):
        sets = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[:2], [0.0, 10.0], 12, seed=3)
        assert len(sets) == 4
        for pset in sets:
            assert len(pset.chunks) == 12
            assert all(c.label == 0 for c in pset.chunks)
            assert math.isfinite(pset.measured_psnr_db)

    def test_measured_tracks_target_at_high_psnr(self):
        (pset,) = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[2:3], [25.0], 40, seed=4)
        # pulse samples include receiver noise, so the estimate sits slightly
        # above the designed ratio
        assert pset.measured_psnr_db == pytest.approx(25.0, abs=0.75)

    def test_monotone_measured_psnr(self):
        sets = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[:1], [-6, 0, 6, 12, 18], 20, seed=5)
        measured = [s.measured_psnr_db for s in sets]
        assert measured == sorted(measured)

    def test_infinite_target_handled(self):
        (pset,) = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[:1], [math.inf], 4, seed=6)
        assert pset.measured_psnr_db == math.inf

    def test_reproducible(self):
        a = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[:1], [5.0], 6, seed=7)
        b = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[:1], [5.0], 6, seed=7)
        for ca, cb in zip(a[0].chunks, b[0].chunks):
            np.testing.assert_array_equal(ca.samples, cb.samples)


class TestManifestRoundTrip:
    def test_save_load(self, tmp_path):
        entries = (
            ds.ManifestEntry("chunks/a.iq", 0, "radar-only", "pc2", -3e6, None),
            ds.ManifestEntry("chunks/b.iq", 1, "noise", None, None, 4.5),
        )
        manifest = ds.DatasetManifest("test", 9, entries)
        ds.save_manifest(manifest, tmp_path / "m.json")
        assert ds.load_manifest(tmp_path / "m.json") == manifest

    def test_psnr_split_round_trip(self, tmp_path):
        sets = ds.build_psnr_sets(ds.TABLE_WAVEFORMS[:2], [-3.0, 6.0, math.inf], 3, seed=8)
        written = ds.write_psnr_split(tmp_path, 8, sets)
        manifest = ds.load_manifest(tmp_path / "manifest_psnr.json")
        assert manifest == written and manifest.split == "psnr"
        back = ds.group_psnr_sets(manifest, tmp_path)
        assert [(s.waveform, s.target_psnr_db, len(s.chunks)) for s in back] == \
            [(s.waveform, s.target_psnr_db, len(s.chunks)) for s in sets]
        for got, want in zip(back, sets):
            # the payload stores complex64; the measured PSNR is re-estimated from it
            assert got.measured_psnr_db == pytest.approx(want.measured_psnr_db, abs=1e-6)
            for cg, cw in zip(got.chunks, want.chunks):
                np.testing.assert_array_equal(cg.samples, cw.samples.astype(np.complex64))
                np.testing.assert_array_equal(cg.radar_mask, cw.radar_mask)
                assert (cg.label, cg.provenance) == (cw.label, cw.provenance)
