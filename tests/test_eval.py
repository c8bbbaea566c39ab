import tracemalloc

import numpy as np
import pytest

from radarmon import nn
from radarmon import dataset as ds
from radarmon.evaluate import (
    EvalReport,
    PdCurve,
    PdPoint,
    emit_curves,
    evaluate,
    pd_curve,
)
from radarmon.iqcore import make_chunk
from radarmon.represent import model_batch, model_input


def constant_model(p_class0_high=True, variant="S"):
    """Tiny real model rigged to output a constant decision."""
    model = nn.build_model(variant, width_scale=1 / 32, seed=0)
    final = model.layers[-2]
    assert isinstance(final, nn.Dense)
    final.w[...] = 0.0
    final.b[...] = [50.0, 0.0] if p_class0_high else [0.0, 50.0]
    return model


def noise_chunks(rng, n, label):
    chunks = []
    for _ in range(n):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        mask = np.zeros(1024, bool)
        if label == 0:
            mask[100:140] = True
        chunks.append(make_chunk(x, mask, "test"))
    return chunks


class TestEvaluate:
    def test_constant_model_on_single_class(self):
        rng = np.random.default_rng(0)
        chunks = noise_chunks(rng, 12, 0)
        report = evaluate(constant_model(True), chunks, [0] * 12)
        assert report.accuracy == 1.0
        assert report.confusion[0, 0] == 12

    def test_constant_model_on_balanced_set(self):
        rng = np.random.default_rng(1)
        chunks = noise_chunks(rng, 8, 0) + noise_chunks(rng, 8, 1)
        labels = [0] * 8 + [1] * 8
        report = evaluate(constant_model(True), chunks, labels)
        assert report.accuracy == 0.5
        assert report.confusion.sum() == 16

    def test_confusion_rows_match_class_counts(self):
        rng = np.random.default_rng(2)
        chunks = noise_chunks(rng, 5, 0) + noise_chunks(rng, 9, 1)
        labels = [0] * 5 + [1] * 9
        report = evaluate(constant_model(False), chunks, labels)
        assert report.confusion[0].sum() == 5
        assert report.confusion[1].sum() == 9
        assert 0.0 <= report.accuracy <= 1.0

    def test_probabilities_recorded_per_chunk(self):
        rng = np.random.default_rng(3)
        chunks = noise_chunks(rng, 6, 1)
        report = evaluate(constant_model(True), chunks, [1] * 6)
        assert report.probs_class0.shape == (6,)
        assert np.all(report.probs_class0 > 0.99)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(constant_model(), [], [])

    def test_labels_outside_0_and_1_rejected(self):
        # as confusion indices, -1 would count in row 1 and 2 would fall off the matrix
        chunks = noise_chunks(np.random.default_rng(11), 3, 0)
        for bad in (-1, 2):
            with pytest.raises(ValueError, match=rf"labels must be 0 \(radar\) or 1 \(no radar\), got \[{bad}\]"):
                evaluate(constant_model(True), chunks, [0, bad, 1])

    def test_chunk_and_label_counts_must_match(self):
        chunks = noise_chunks(np.random.default_rng(10), 4, 0)
        with pytest.raises(ValueError, match="4 chunks but 2 labels"):
            evaluate(constant_model(True), chunks, [0, 0])

    def test_inference_does_not_mutate_model(self):
        rng = np.random.default_rng(4)
        model = nn.build_model("S", width_scale=1 / 32, seed=5)
        before = [{k: v.copy() for k, v in d.items()} for d in model.params()]
        evaluate(model, noise_chunks(rng, 4, 0), [0] * 4)
        for d0, d1 in zip(before, model.params()):
            for k in d0:
                np.testing.assert_array_equal(d0[k], d1[k])

    def test_float32_batch_matches_float64_per_chunk_forward(self):
        # the benchmark's batched-vs-single gate on a full-width S model
        rng = np.random.default_rng(6)
        model = nn.build_model("S", seed=6)
        chunks = noise_chunks(rng, 5, 0) + noise_chunks(rng, 5, 1)
        report = evaluate(model, chunks, [0] * 5 + [1] * 5)
        single = [nn.forward(model, model_input(c, "S"))[0] for c in chunks]
        np.testing.assert_allclose(report.probs_class0, single, rtol=0, atol=1e-5)

    def test_memory_does_not_grow_with_the_number_of_chunks(self):
        # representations are built one 200-chunk batch at a time
        model = nn.build_model("S", width_scale=1 / 16, seed=0)
        (chunk,) = noise_chunks(np.random.default_rng(9), 1, 0)
        peaks = []
        for n in (400, 1600):
            chunks, labels = [chunk] * n, [0] * n
            tracemalloc.start()
            try:
                evaluate(model, chunks, labels)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4


class TestPdCurve:
    def make_sets(self, rng, psnrs, n=6):
        sets = []
        for p in psnrs:
            chunks = noise_chunks(rng, n, 0)
            sets.append(ds.PsnrSet("pc2", p, p, tuple(chunks)))
        return sets

    def test_always_detecting_model(self):
        rng = np.random.default_rng(5)
        sets = self.make_sets(rng, [0.0, 5.0, 10.0])
        (curve,) = pd_curve(constant_model(True), sets)
        assert [p.pd for p in curve.points] == [1.0, 1.0, 1.0]
        assert [p.psnr_db for p in curve.points] == [0.0, 5.0, 10.0]

    def test_pd_is_exact_fraction(self):
        rng = np.random.default_rng(6)
        sets = self.make_sets(rng, [3.0], n=10)
        (curve,) = pd_curve(constant_model(False), sets)
        assert curve.points[0].pd == 0.0
        assert curve.points[0].n == 10

    def test_points_sorted_by_psnr(self):
        rng = np.random.default_rng(7)
        sets = self.make_sets(rng, [10.0, -5.0, 2.0])
        (curve,) = pd_curve(constant_model(True), sets)
        assert [p.psnr_db for p in curve.points] == [-5.0, 2.0, 10.0]


@pytest.fixture(scope="module")
def psnr_sets():
    """Four radar+noise sets of 53 chunks, two waveforms: 212 chunks, so the last batch straddles set 4."""
    waveforms = (ds.TABLE_WAVEFORMS[1], ds.TABLE_WAVEFORMS[3])
    return ds.build_psnr_sets(waveforms, (0.0, 9.0), 53, seed=1)


class TestPdCurveOnePass:
    def test_one_forward_per_full_batch_across_sets(self, psnr_sets, monkeypatch):
        calls = []
        forward = nn.forward

        def spy(model, x, **kwargs):
            calls.append(len(x))
            return forward(model, x, **kwargs)

        monkeypatch.setattr(nn, "forward", spy)
        pd_curve(nn.build_model("S", width_scale=1 / 32, seed=0), psnr_sets)
        n = sum(len(s.chunks) for s in psnr_sets)
        assert n > 200
        assert len(calls) == -(-n // 200)
        assert calls == [200, n - 200]

    @pytest.mark.parametrize("variant", ["S", "AP"])
    def test_curves_equal_per_set_scoring(self, psnr_sets, variant):
        model = nn.build_model(variant, width_scale=1 / 32, seed=2)
        per_set = [nn.forward(model, model_batch(s.chunks, variant), fused=True)[:, 0] for s in psnr_sets]
        # a cut at the median splits the random model's decisions, so every Pd tests the slicing
        threshold = float(np.median(np.concatenate(per_set)))
        by_waveform = {}
        for s, p0 in zip(psnr_sets, per_set):
            by_waveform.setdefault(s.waveform, []).append(
                PdPoint(s.measured_psnr_db, float(np.mean(p0 >= threshold)), len(s.chunks)))
        expected = [PdCurve(variant, w, tuple(sorted(points, key=lambda p: p.psnr_db)))
                    for w, points in sorted(by_waveform.items())]
        assert 0 < np.mean([p.pd for c in expected for p in c.points]) < 1
        assert pd_curve(model, psnr_sets, threshold) == expected


class TestEmitCurves:
    def curves_for(self, tags, waveforms, points):
        curves = []
        for t in tags:
            for w in waveforms:
                curves.append(PdCurve(t, w, tuple(PdPoint(p, 0.5, 10) for p in points)))
        return curves

    def test_file_count_two_models_four_waveforms(self, tmp_path):
        curves = self.curves_for(["S", "AP"], ["pc2", "pc10", "lfm10", "barker13"], [0.0, 5.0])
        written = emit_curves(None, curves, tmp_path)
        names = sorted(p.name for p in written)
        assert names == sorted(["reports.csv", *(f"pd_{c.model_tag}_{c.waveform}.csv" for c in curves)])
        assert names == sorted(p.name for p in tmp_path.iterdir())

    def test_empty_inputs_give_header_only(self, tmp_path):
        written = emit_curves(None, [], tmp_path)
        assert written == [tmp_path / "reports.csv"]
        for path in written:
            lines = path.read_text().splitlines()
            assert len(lines) == 1 and "," in lines[0]

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        chunks = noise_chunks(rng, 4, 0)
        report = evaluate(constant_model(True), chunks, [0] * 4)
        curves = self.curves_for(["S"], ["pc2"], [1.0, 2.0])
        emit_curves(report, curves, tmp_path / "a")
        emit_curves(report, curves, tmp_path / "b")
        for name in ("reports.csv", "pd_S_pc2.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_formatting_stability(self, tmp_path):
        curves = [PdCurve("S", "pc2", (PdPoint(1.23456789, 0.87654321, 200),))]
        emit_curves(None, curves, tmp_path)
        text = (tmp_path / "pd_S_pc2.csv").read_text()
        assert text == "psnr_db,pd,n\n1.234568,0.876543,200\n"
