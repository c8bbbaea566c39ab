import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from radarmon import dataset as ds
from radarmon.channel import apply_multipath
from radarmon.iqcore import SampleStream, as_chunk, as_stream, make_chunk, stream_window, write_iq_file
from radarmon.radar import Pc, RadarParams, synth_pulse, synth_pulse_train

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

    def test_pri_must_keep_dispersed_pulses_apart(self):
        # 200-sample pulses, 990 samples of delay and 5 of jitter and rounding: 1,195 > 1,000
        with pytest.raises(ValueError, match="pri_s must span at least 1195 samples"):
            small_config(pri_s=50e-6, multipath_delay_range=(0, 990))
        assert small_config(pri_s=59.75e-6, multipath_delay_range=(0, 990)).pri_s == 59.75e-6

    def test_min_visible_bounded_by_the_chunk_for_a_long_pulse(self):
        long_pulse = ds.WaveformSpec("pc100", Pc(), 100e-6)  # 2000 samples at 20 MHz
        assert small_config(waveforms=(long_pulse,), min_visible_samples=1024).min_visible_samples == 1024
        with pytest.raises(ValueError, match="the chunk: 1024 samples"):
            small_config(waveforms=(long_pulse,), min_visible_samples=1025)


def full_train_window(cfg, rng, waveform, offset_hz, use_multipath=True):
    """Reference radar window: the whole short train is rendered and dispersed,
    then cut.  The same draws in the same order as ``ds._radar_window``."""
    fs = cfg.sample_rate_hz
    params = RadarParams(ipm=waveform.ipm, pw_s=waveform.pw_s, pri_s=cfg.pri_s,
                         carrier_offset_hz=offset_hz, amplitude=cfg.radar_peak_amplitude)
    margin_s = (1024 + round(waveform.pw_s * fs) + 64) / fs
    stream = synth_pulse_train(params, cfg.pri_s + margin_s, fs, seed=rng.integers(2**63))
    if use_multipath:
        mag = rng.uniform(*cfg.multipath_mag_range)
        if mag > 0:
            delay = int(rng.integers(cfg.multipath_delay_range[0], cfg.multipath_delay_range[1] + 1))
            phase = rng.uniform(0, 2 * np.pi)
            stream = apply_multipath(stream, ((0, 1.0 + 0j), (delay, mag * np.exp(1j * phase))))
    ann = stream.annotations[1]
    vis = cfg.min_visible_samples
    lo = max(0, ann.start_idx + vis - 1024)
    hi = min(len(stream) - 1024, ann.start_idx + ann.length - vis)
    start = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    return stream_window(stream, start, 1024), {"waveform": waveform.name, "carrier_offset_hz": offset_hz}


class TestRadarWindow:
    CONFIGS = {
        "delay-from-0": dict(multipath_delay_range=(0, 3)),
        "strong-multipath": dict(multipath_delay_range=(5, 40), multipath_mag_range=(0.3, 0.9),
                                 min_visible_samples=40),
        "no-multipath": dict(multipath_mag_range=(0.0, 0.0)),
        # 1,000-sample PRI: pulse 2 lies in the train, and a window may start
        # before the delay, with no history to render
        "short-pri": dict(waveforms=ds.TABLE_WAVEFORMS[:1], pri_s=50e-6, multipath_delay_range=(0, 900)),
    }

    @pytest.mark.parametrize("use_multipath", [True, False], ids=["multipath", "plain"])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_window_is_cut_from_the_whole_train(self, name, use_multipath):
        cfg = small_config(**self.CONFIGS[name])
        cases = itertools.product(cfg.waveforms, ds.CARRIER_OFFSETS_HZ, range(4))
        for index, (waveform, offset, _) in enumerate(cases):
            ra, rb = (ds._entry_rng(cfg.seed, "test", index) for _ in range(2))
            got, meta = ds._radar_window(cfg, ra, waveform, offset, use_multipath)
            want, want_meta = full_train_window(cfg, rb, waveform, offset, use_multipath)
            case = (waveform.name, offset, index)
            # bytes, so that a -0.0 against a 0.0 counts as a difference
            assert got.samples.tobytes() == want.samples.tobytes(), case
            assert got.annotations == want.annotations, case
            assert meta == want_meta
            assert ra.bit_generator.state == rb.bit_generator.state, case  # the same draws


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
        # the second build runs in a two-process pool: the bytes must not depend on it
        cfg = small_config(train_per_class=3, test_per_class=2, seed=32)
        ds.build_dataset(cfg, tmp_path / "a", workers=1)
        ds.build_dataset(cfg, tmp_path / "b", workers=2)
        files = {side: sorted(p.relative_to(tmp_path / side) for p in (tmp_path / side).rglob("*")
                              if p.is_file()) for side in ("a", "b")}
        assert files["a"] == files["b"] and len(files["a"]) == 2 + 2 * 10
        for rel in files["a"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_chunk_stream_round_trip_preserves_mask(self, tmp_path):
        cfg = small_config(seed=33)
        chunk, _ = ds.synth_entry_chunk(cfg, "train", 0, 0)
        back = as_chunk(as_stream(chunk, cfg.sample_rate_hz), chunk.provenance)
        np.testing.assert_array_equal(back.radar_mask, chunk.radar_mask)
        np.testing.assert_array_equal(back.samples, chunk.samples)
        assert back.label == chunk.label == 0

    def test_sidecar_holds_only_rate_and_spans(self, tmp_path):
        cfg = small_config(train_per_class=2, test_per_class=1, seed=34)
        built = ds.build_dataset(cfg, tmp_path)
        radar_spans = 0
        for entry in built.train.entries:
            meta = json.loads((tmp_path / (entry.path + ".json")).read_text())
            assert set(meta) == {"sample_rate_hz", "annotations"}
            assert meta["sample_rate_hz"] == cfg.sample_rate_hz
            for ann in meta["annotations"]:
                assert set(ann) == {"start_idx", "len", "emitter"} and ann["emitter"] == "Radar"
            radar_spans += len(meta["annotations"])
        assert radar_spans >= 2

    @pytest.mark.parametrize("n", [1000, 1025])
    def test_load_chunk_names_a_payload_that_is_not_one_chunk(self, tmp_path, n):
        write_iq_file(SampleStream(np.ones(n, dtype=complex)), tmp_path / "odd.iq")
        entry = ds.ManifestEntry("odd.iq", 1, "noise")
        with pytest.raises(ValueError, match=rf"odd\.iq holds {n} samples, not one 1024-sample chunk"):
            ds.load_chunk(tmp_path, entry)


    def test_load_chunk_rejects_a_manifest_label_its_spans_contradict(self, tmp_path):
        built = ds.build_dataset(small_config(train_per_class=1, test_per_class=1, seed=35), tmp_path)
        for entry in built.test.entries:
            flipped = dataclasses.replace(entry, label=1 - entry.label)
            with pytest.raises(ValueError, match=rf"{entry.path}: the manifest labels it {flipped.label}, "
                                                 rf"its sidecar's radar spans label it {entry.label}"):
                ds.load_chunk(tmp_path, flipped)


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
