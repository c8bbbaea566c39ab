"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import hostref  # noqa: E402
import spans  # noqa: E402
from radarmon import dataset, iqcore, nn  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["blas_threads"] >= 1
    if trace:
        assert record["not_exercised"] == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train_AP", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# --- tracing ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("root", 0, 100, -1),
        spans.Span("a", 10, 30, 0),
        spans.Span("b", 40, 70, 0),
        spans.Span("b.inner", 45, 50, 2),
    ]
    assert spans.self_times_ns(s) == [100 - 20 - 30, 20, 30 - 5, 5]


def test_tracer_nests_spans_and_pauses():
    tracer = spans.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    with tracer.paused():
        tracer.call("hidden", lambda: None)
    recorded, _ = tracer.take()
    assert [(s.name, s.parent) for s in recorded] == [("outer", -1), ("inner", 0)]
    assert recorded[0].start_ns <= recorded[1].start_ns <= recorded[1].end_ns <= recorded[0].end_ns
    assert tracer.take() == ([], {})


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert spans.tail(list(range(5))) == (100.0, 4.0)
    assert spans.tail(list(range(20)))[0] == 50.0
    assert spans.tail(list(range(100)))[0] == 90.0
    assert spans.tail(list(range(1000)))[0] == 99.0


def test_per_layer_metrics_from_spans():
    s = [
        spans.Span("nn.forward", 0, 10_000_000, -1),
        spans.Span("nn.relu.fwd", 0, 1_000_000, 0),
        spans.Span("nn.relu.fwd", 2_000_000, 4_000_000, 0),
        spans.Span("evaluate.pd_curve", 20_000_000, 30_000_000, -1),
        spans.Span("nn.forward", 21_000_000, 25_000_000, 3),
    ]
    values, _ = spans.layer_metrics(s, {})
    assert values["nn.relu.fwd_ms"] == pytest.approx(3.0)  # both ReLUs of one forward
    assert values["evaluate.pd_curve.self_ms"] == pytest.approx(6.0)
    assert values["evaluate.batches"] == 1 and values["nn.forward.n"] == 2
    assert "nn.conv1.fwd_ms" not in values


def test_counts_are_per_operation():
    def build(t):  # one build_dataset call writing two files
        return [spans.Span("dataset.build_dataset", t, t + 10, -1),
                spans.Span("iqcore.write_iq_file", t + 1, t + 2, -1),
                spans.Span("iqcore.write_iq_file", t + 3, t + 4, -1)]
    s = build(0) + build(100)
    s[1].parent = s[2].parent = 0
    s[4].parent = s[5].parent = 3
    s += [spans.Span("evaluate.evaluate_manifest", 200, 210, -1), spans.Span("nn.forward", 201, 209, 6)]
    values, _ = spans.layer_metrics(s, {"iqcore.bytes_written": [10, 20, 10, 20]})
    assert values["iqcore.files_written"] == 2 and values["iqcore.bytes_written"] == 30
    assert values["evaluate.batches"] == 1


def test_instrumentation_wraps_and_restores():
    original = dataset.load_chunk
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        assert dataset.load_chunk is not original
        model = nn.build_model("A", width_scale=0.25)
        nn.forward(model, np.zeros((2, 1, 32, 32)))
        layer = weakref.ref(model.layers[0])
        del model
        assert layer() is None  # freed at once: wrappers make no reference cycle
    assert dataset.load_chunk is original
    names = {s.name for s in tracer.take()[0]}
    assert {"nn.forward", "nn.conv1.fwd", "nn.pool4.fwd", "nn.dense2.fwd", "nn.relu.fwd"} <= names


def test_host_clock_rescales_by_the_kernel_samples_around_the_work(monkeypatch):
    times = iter([0.030, 0.030, 0.050])
    monkeypatch.setattr(hostref, "seconds", lambda: next(times))
    clock = hostref.HostClock()
    before = clock.tick()
    # 2 s between samples of 30 and 50 ms: the host ran at 40 / NOMINAL_S ms
    assert clock.scaled(2.0, before) == pytest.approx(2.0 * hostref.NOMINAL_S / 0.040)
    assert [t for _, t in clock.samples] == [0.030, 0.030, 0.050] and clock.last == 0.050


def test_reference_kernel_is_fixed():
    assert hostref.kernel() == hostref.kernel() > 0
    assert hostref.seconds() > 0


# --- correctness gates -------------------------------------------------------

@pytest.fixture(scope="module")
def built(tmp_path_factory):
    cfg = dataset.ScenarioConfig(train_per_class=2, test_per_class=1, seed=5)
    root = tmp_path_factory.mktemp("data")
    return cfg, root, dataset.build_dataset(cfg, root)


def _replace(chunk, **changes):
    fields = dict(samples=chunk.samples, label=chunk.label, provenance=chunk.provenance,
                  radar_mask=chunk.radar_mask)
    fields.update(changes)
    return iqcore.IqChunk(**fields)


def test_chunk_gate_rejects_corruption(built):
    cfg, root, ds = built
    entry = ds.train.entries[0]
    loaded = dataset.load_chunk(root, entry)
    expected = dataset.synth_entry_chunk(cfg, "train", 0, entry.label)[0]
    assert gates.check_chunk(loaded, expected) == []
    flipped = loaded.samples.copy()
    flipped[100] = -flipped[100]
    assert gates.check_chunk(_replace(loaded, samples=flipped), expected)
    mask = loaded.radar_mask.copy()
    mask[np.flatnonzero(mask)[0]] = False
    assert gates.check_chunk(_replace(loaded, radar_mask=mask), expected)
    assert gates.check_chunk(_replace(loaded, provenance="noise"), expected)


def test_manifest_gate_rejects_wrong_count_and_labels(built):
    _, _, ds = built
    assert gates.check_manifest(ds.train, 2) == []
    assert gates.check_manifest(ds.train, 3)
    swapped = ds.train.entries[1], ds.train.entries[0], *ds.train.entries[2:]
    assert gates.check_manifest(dataset.DatasetManifest("train", 5, swapped), 2)


def test_training_gate_rejects_non_finite():
    model = nn.build_model("A", width_scale=0.25)
    assert gates.check_training([0.7, 0.6], model) == []
    assert gates.check_training([0.7, float("nan")], model)
    model.layers[0].w[0, 0, 0, 0] = np.inf
    assert gates.check_training([0.7], model)


def test_report_and_curve_gates():
    report = SimpleNamespace(confusion=np.array([[2, 0], [1, 1]]), probs_class0=np.array([0.9, 0.8, 0.6, 0.1]))
    assert gates.check_report(report, 4) == []
    assert gates.check_report(report, 5)
    report.probs_class0 = np.array([0.9, 1.2, 0.6, 0.1])
    assert gates.check_report(report, 4)
    sets = [SimpleNamespace(waveform="pc2", chunks=(1, 2, 3))]
    point = SimpleNamespace(psnr_db=10.0, pd=0.5, n=3)
    assert gates.check_curves([SimpleNamespace(waveform="pc2", points=(point,))], sets) == []
    point.n = 2
    assert gates.check_curves([SimpleNamespace(waveform="pc2", points=(point,))], sets)


def test_batched_gate_tolerance():
    p = np.array([0.25, 0.5, 0.75])
    assert gates.check_batched(p, p + gates.PROB_TOL / 2) == []
    assert gates.check_batched(p, p[::-1])
    assert gates.check_batched(p, p[:2])
