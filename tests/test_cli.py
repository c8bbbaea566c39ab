import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from radarmon import cli, emitters, nn, represent
from radarmon import dataset as ds
from radarmon.iqcore import read_iq_file, stream_window, write_iq_file


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def to_json(value):
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value.name if isinstance(value, ds.WaveformSpec) else value


def config_keys(cls, prefix=""):
    """Every settable key under a command's config class, as dotted paths."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        hint = next((h for h in typing.get_args(hints[f.name]) if h is not type(None)), hints[f.name])
        if dataclasses.is_dataclass(hint) and hint is not ds.WaveformSpec:
            yield from config_keys(hint, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


SECTIONS = [
    (cli.SynthConfig, {"emitter": "wlan"}, "wlan", emitters.WlanParams),
    (cli.SynthConfig, {"emitter": "lte"}, "lte", emitters.LteParams),
    (cli.DatasetConfig, {}, "scenario", ds.ScenarioConfig),
    (cli.TrainConfig, {}, "optimizer", nn.OptimizerState),
]


class TestSchema:
    @pytest.mark.parametrize("parent, base, section, cls", SECTIONS, ids=[s[2] for s in SECTIONS])
    def test_section_keys_are_the_dataclass_init_fields(self, parent, base, section, cls):
        defaults = cls()
        doc = {f.name: to_json(getattr(defaults, f.name)) for f in dataclasses.fields(cls) if f.init}
        built = cli.from_dict(parent, {**base, section: doc})
        assert getattr(built, section) == defaults
        keys = {k.split(".", 1)[1] for k in config_keys(parent) if k.startswith(section + ".")}
        assert keys == set(doc)
        with pytest.raises(cli.ConfigError, match=rf"unknown config key: {section}\.not_a_field"):
            cli.from_dict(parent, {**base, section: {"not_a_field": 1}})

    def test_optimizer_schema_excludes_training_state(self):
        names = {f.name for f in dataclasses.fields(nn.OptimizerState) if f.init}
        assert names == {"base_lr", "momentum", "weight_decay", "lr_drop_every",
                         "lr_drop_factor", "batch_size", "total_iterations"}

    def test_config_key_count(self):
        commands = (cli.SynthConfig, cli.DatasetConfig, cli.TrainConfig, cli.EvalConfig)
        assert sum(len(list(config_keys(c))) for c in commands) == 48

    def test_lists_become_tuples_and_names_become_waveforms(self):
        cfg = cli.from_dict(ds.ScenarioConfig, {"waveforms": ["lfm10"], "psnr_range_db": [3, 4]})
        assert cfg.waveforms == (ds.TABLE_WAVEFORMS[2],)
        assert cfg.psnr_range_db == (3, 4)
        with pytest.raises(cli.ConfigError, match=r"waveforms\[0\].*'pc99'"):
            cli.from_dict(ds.ScenarioConfig, {"waveforms": ["pc99"]})


def test_end_to_end_pipeline(tmp_path, monkeypatch, capsys):
    synth_cfg = write_config(tmp_path / "synth.json", {"emitter": "radar", "duration_s": 2e-3})
    assert cli.main(["synth", "--config", synth_cfg, "--out", str(tmp_path / "radar.iq")]) == 0
    assert (tmp_path / "radar.iq").stat().st_size == 2 * 4 * 40000

    dataset_cfg = write_config(tmp_path / "dataset.json", {
        "scenario": {"train_per_class": 4, "test_per_class": 2, "seed": 3},
        "psnr_sweep": {"targets_db": [0, 20], "chunks_per_set": 3, "waveforms": ["pc10"], "seed": 4},
    })
    trees = []
    for workers in ("1", "2"):
        monkeypatch.setenv("RADARMON_WORKERS", workers)
        out = tmp_path / f"data_w{workers}"
        assert cli.main(["dataset", "--config", dataset_cfg, "--out", str(out)]) == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
    assert "manifest_train.json" in trees[0] and "manifest_psnr.json" in trees[0]
    data = tmp_path / "data_w1"

    train_cfg = write_config(tmp_path / "train.json", {
        "variant": "AP", "width_scale": 0.25, "optimizer": {"total_iterations": 2},
    })
    model = tmp_path / "model" / "ap.cnn"
    assert cli.main(["train", "--config", train_cfg, "--manifest", str(data / "manifest_train.json"),
                     "--out", str(model), "--loss-out", str(tmp_path / "loss.csv")]) == 0
    assert (tmp_path / "loss.csv").read_text().count("\n") == 3

    out = tmp_path / "eval"
    assert cli.main(["eval", "--model", str(model), "--manifest", str(data / "manifest_test.json"),
                     "--psnr-dir", str(data), "--out", str(out)]) == 0
    assert (out / "reports.csv").read_text().splitlines()[1].startswith("AP,")
    assert sorted(p.name for p in out.iterdir()) == ["pd_AP_pc10.csv", "reports.csv"]

    assert cli.main(["repr", "--chunk", str(data / "chunks" / "test_000000.iq"), "--kind", "AP",
                     "--out", str(tmp_path / "ap.txt")]) == 0
    chunk = ds.load_chunk(data, ds.load_manifest(data / "manifest_test.json").entries[0])
    tensor = represent.ap_tensor(chunk)
    expected = np.concatenate([tensor[0], tensor[1]], axis=1)
    np.testing.assert_allclose(np.loadtxt(tmp_path / "ap.txt"), expected, rtol=1e-8)
    assert capsys.readouterr().err == ""


def bad_config(command, doc, key, id=None):
    """A config the command must reject; ``key`` must appear in the error."""
    return pytest.param(command, doc, key, id=id or key)


BAD_CONFIGS = [
    bad_config("dataset", {"scenario": {"seed": "x"}}, "seed"),
    bad_config("dataset", {"scenario": {"psnr_range_db": [9]}}, "psnr_range_db"),
    bad_config("train", {"optimizer": {"total_iterations": "3"}}, "total_iterations"),
    bad_config("synth", {"emitter": "wlan", "wlan": {"burst_len_s": [1e-5, 2e-5]}}, "burst_len_s"),
    bad_config("synth", {"emitter": "radar", "radar": {"f_e_hz": 4e6}}, "radar.f_e_hz"),
    # numpy rejects a negative seed only once synthesis or training starts
    bad_config("dataset", {"scenario": {"seed": -1}}, "scenario: seed must be >= 0",
               id="scenario.seed=-1"),
    bad_config("dataset", {"psnr_sweep": {"seed": -1}}, "psnr_sweep: seed must be >= 0",
               id="psnr_sweep.seed=-1"),
    bad_config("train", {"seed": -1}, "seed must be >= 0", id="train.seed=-1"),
    bad_config("synth", {"emitter": "noise", "seed": -1}, "seed must be >= 0", id="synth.seed=-1"),
    # a NaN amplitude would fail only in synthesis, at the first pulse's annotation
    bad_config("synth", {"emitter": "radar", "radar": {"peak_amplitude": math.nan}}, "radar.peak_amplitude"),
    # -inf divides by zero in the noise power; NaN would build a noise-free set
    bad_config("dataset", {"psnr_sweep": {"targets_db": [0, -math.inf]}}, "targets_db must be finite",
               id="targets_db=-inf"),
    bad_config("dataset", {"psnr_sweep": {"targets_db": [math.nan]}}, "targets_db must be finite",
               id="targets_db=nan"),
    # an int beyond the float range overflows once converted
    bad_config("dataset", {"psnr_sweep": {"targets_db": [10**400]}}, "targets_db must be finite",
               id="targets_db=10**400"),
    bad_config("dataset", {"scenario": {"pri_s": 10**400}}, "scenario.pri_s must be finite float",
               id="pri_s=10**400"),
    # each (waveform, target) pair names one set; a repeat would merge two sets into one curve
    bad_config("dataset", {"psnr_sweep": {"targets_db": [6, 6]}}, "targets_db must not repeat",
               id="targets_db=[6, 6]"),
    bad_config("dataset", {"psnr_sweep": {"waveforms": ["pc10", "pc10"]}}, "waveforms must not repeat",
               id="waveforms=[pc10, pc10]"),
    # a non-finite float would fail only once synthesis starts, with an OverflowError
    *(bad_config("dataset", {"scenario": {key: value}}, f"scenario.{key} must be {kind}", id=f"{key}=inf")
      for key, value, kind in [("psnr_range_db", [9, math.inf], "tuple[finite float"),
                               ("su_power_range", [0.05, math.inf], "tuple[finite float"),
                               ("multipath_mag_range", [0, math.inf], "tuple[finite float"),
                               ("pri_s", math.inf, "finite float"),
                               ("sample_rate_hz", math.inf, "finite float")]),
    *(bad_config("synth", {"emitter": emitter, **doc}, f"{key} must be {kind}", id=f"{key}={value}")
      for emitter, doc, key, value, kind in [
          ("noise", {"duration_s": math.inf}, "duration_s", "inf", "finite float"),
          ("wlan", {"wlan": {"burst_len_s": [1e-4, math.inf]}}, "wlan.burst_len_s", "inf",
           "tuple[finite float"),
          ("noise", {"noise": {"power": math.inf}}, "noise.power", "inf", "finite float"),
          ("wlan", {"wlan": {"power": math.inf}}, "wlan.power", "inf", "finite float"),
          ("lte", {"lte": {"power": math.nan}}, "lte.power", "nan", "finite float")]),
    # a negative delay failed in synthesis with a broadcast error; a negative magnitude turned multipath off
    bad_config("dataset", {"scenario": {"multipath_delay_range": [-3, -1], "multipath_mag_range": [0.2, 0.5]}},
               "multipath_delay_range must be non-negative", id="multipath_delay_range=[-3, -1]"),
    bad_config("dataset", {"scenario": {"multipath_mag_range": [-0.5, -0.1]}},
               "multipath_mag_range must be non-negative", id="multipath_mag_range=[-0.5, -0.1]"),
    # more visible samples than a chunk or the shortest pulse (pc2: 40 samples) holds failed in synthesis
    *(bad_config("dataset", {"scenario": scenario}, f"min_visible_samples must not exceed {hint}", id=id_)
      for scenario, hint, id_ in [
          ({"min_visible_samples": 5000}, "the shortest pulse or the chunk: 40 samples",
           "min_visible_samples=5000"),
          ({"sample_rate_hz": 200e6, "waveforms": ["pc10"], "min_visible_samples": 1025},
           "the shortest pulse or the chunk: 1024 samples", "min_visible_samples=1025 at 200 MHz"),
          ({"waveforms": ["pc2"], "min_visible_samples": 100}, "", "min_visible_samples=100 pc2"),
          ({"waveforms": ["pc2"], "min_visible_samples": 41, "multipath_mag_range": [0, 0]}, "",
           "min_visible_samples=41 pc2 no multipath")]),
    # a delay of a chunk or more failed in synthesis, or put the echo outside the chunk it marks
    *(bad_config("dataset", {"scenario": {"multipath_delay_range": delays}},
                 "multipath_delay_range must stay below the chunk length, 1024 samples",
                 id=f"multipath_delay_range={delays}")
      for delays in ([30000, 30000], [1024, 1024])),
    # the 8192-sample secondary-user span must outlast WLAN's 100 us minimum burst
    bad_config("dataset", {"scenario": {"sample_rate_hz": 100e6}}, "sample_rate_hz must be below 8.192e+07 Hz",
               id="sample_rate_hz=100e6"),
    bad_config("eval", {"threshold": 5.0}, "threshold must be within [0, 1]", id="threshold=5.0"),
    bad_config("eval", {"threshold": -1.0}, "threshold must be within [0, 1]", id="threshold=-1.0"),
]


@pytest.mark.parametrize("command, doc, key", BAD_CONFIGS)
def test_bad_config_exits_1_before_any_work(tmp_path, capsys, command, doc, key):
    config = write_config(tmp_path / "cfg.json", doc)
    argv = [command, "--config", config, "--out", str(tmp_path / "out" / "x")]
    if command == "train":
        argv += ["--manifest", str(tmp_path / "manifest_train.json")]
    if command == "eval":
        argv += ["--model", str(tmp_path / "model.cnn")]
    assert cli.main(argv) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", [
    {"multipath_delay_range": [1023, 1023], "multipath_mag_range": [0.2, 0.5], "waveforms": ["pc2"]},
    {"sample_rate_hz": 81.9e6},
], ids=["multipath_delay_range=[1023, 1023]", "sample_rate_hz=81.9e6"])
def test_scenario_at_its_bound_builds(tmp_path, scenario):
    config = write_config(tmp_path / "dataset.json",
                          {"scenario": {"train_per_class": 3, "test_per_class": 1, **scenario}})
    assert cli.main(["dataset", "--config", config, "--out", str(tmp_path / "data")]) == 0
    assert len(list((tmp_path / "data" / "chunks").glob("*.iq"))) == 8


def test_noise_free_psnr_target_is_accepted():
    sweep = cli.from_dict(cli.PsnrSweep, {"targets_db": [0, math.inf]})
    assert sweep.targets_db == (0, math.inf)


def test_dataset_json_is_strict_with_a_noise_free_target(tmp_path):
    config = write_config(tmp_path / "dataset.json", {
        "scenario": {"train_per_class": 1, "test_per_class": 1},
        "psnr_sweep": {"targets_db": [6, math.inf], "chunks_per_set": 2, "waveforms": ["pc10"]},
    })
    data = tmp_path / "data"
    assert cli.main(["dataset", "--config", config, "--out", str(data)]) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    written = sorted(data.rglob("*.json"))
    assert {"manifest_train.json", "manifest_test.json", "manifest_psnr.json"} < {p.name for p in written}
    for path in written:
        json.loads(path.read_text(), parse_constant=reject)
    manifest = ds.load_manifest(data / "manifest_psnr.json")
    assert [e.psnr_db for e in manifest.entries] == [6, 6, math.inf, math.inf]
    # a manifest written with the bare Infinity token still loads
    legacy = data / "legacy.json"
    legacy.write_text((data / "manifest_psnr.json").read_text().replace('"inf"', "Infinity"))
    assert ds.load_manifest(legacy) == manifest


def test_psnr_sweep_is_streamed_to_disk(tmp_path, monkeypatch):
    # the serial build writes each chunk as it is made: the peak does not grow with the sweep
    monkeypatch.setenv("RADARMON_WORKERS", "1")
    peaks = []
    for n in (50, 400):
        config = write_config(tmp_path / f"psnr{n}.json", {
            "psnr_sweep": {"targets_db": [0, 6], "chunks_per_set": n // 2, "waveforms": ["pc10"]},
        })
        tracemalloc.start()
        try:
            assert cli.main(["dataset", "--config", config, "--out", str(tmp_path / f"data{n}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ds.load_manifest(tmp_path / f"data{n}" / "manifest_psnr.json").entries) == n
    assert peaks[1] - peaks[0] < 350 * 4 * 2**10  # under 4 KiB a chunk; holding the chunks costs 17


def test_eval_psnr_dir_without_a_psnr_split_exits_1(tmp_path, capsys):
    config = write_config(tmp_path / "dataset.json", {"scenario": {"train_per_class": 1, "test_per_class": 1}})
    data = tmp_path / "data"
    assert cli.main(["dataset", "--config", config, "--out", str(data)]) == 0
    model = tmp_path / "s.cnn"
    nn.save_model(nn.build_model("S", width_scale=1 / 32), model)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert cli.main(["eval", "--model", str(model), "--psnr-dir", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "manifest_psnr.json" in err
    assert "Traceback" not in err
    assert not out.exists()


def small_dataset(tmp_path, **psnr_sweep):
    """A 2-chunk-per-class scenario under tmp_path/data, with a PSNR split when psnr_sweep is given."""
    doc = {"scenario": {"train_per_class": 1, "test_per_class": 1, "seed": 3}}
    if psnr_sweep:
        doc["psnr_sweep"] = psnr_sweep
    data = tmp_path / "data"
    config = write_config(tmp_path / "dataset.json", doc)
    assert cli.main(["dataset", "--config", config, "--out", str(data)]) == 0
    return data


def small_model(tmp_path):
    path = tmp_path / "s.cnn"
    nn.save_model(nn.build_model("S", width_scale=1 / 32), path)
    return path


def test_eval_with_only_a_manifest_writes_one_report_row(tmp_path):
    data, model = small_dataset(tmp_path), small_model(tmp_path)
    out = tmp_path / "eval"
    assert cli.main(["eval", "--model", str(model), "--manifest", str(data / "manifest_test.json"),
                     "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["reports.csv"]
    header, row = (out / "reports.csv").read_text().splitlines()
    assert header == "model,accuracy,n,c00,c01,c10,c11" and row.startswith("S,") and row.split(",")[2] == "2"


def test_eval_with_only_a_psnr_dir_writes_header_only_report_and_one_curve_per_waveform(tmp_path):
    data = small_dataset(tmp_path, targets_db=[0, 9], chunks_per_set=2, waveforms=["pc10", "lfm10"])
    model = small_model(tmp_path)
    out = tmp_path / "eval"
    assert cli.main(["eval", "--model", str(model), "--psnr-dir", str(data), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["pd_S_lfm10.csv", "pd_S_pc10.csv", "reports.csv"]
    assert (out / "reports.csv").read_text() == "model,accuracy,n,c00,c01,c10,c11\n"
    for waveform in ("pc10", "lfm10"):
        assert len((out / f"pd_S_{waveform}.csv").read_text().splitlines()) == 3


def tamper_label(data):
    """Flip the first test entry's label in manifest_test.json; return that chunk's path."""
    path = data / "manifest_test.json"
    doc = json.loads(path.read_text())
    entry = doc["entries"][0]
    entry["label"] = 1 - entry["label"]
    path.write_text(json.dumps(doc))
    return data / entry["path"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_label_contradicting_the_sidecar_exits_2(tmp_path, capsys, command):
    data, model = small_dataset(tmp_path), small_model(tmp_path)
    chunk = tamper_label(data)
    out = tmp_path / "out"
    manifest = str(data / "manifest_test.json")
    if command == "train":
        config = write_config(tmp_path / "train.json", {"variant": "S", "width_scale": 1 / 32})
        argv = ["train", "--config", config, "--manifest", manifest, "--out", str(out / "m.cnn")]
    else:
        argv = ["eval", "--model", str(model), "--manifest", manifest, "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{chunk}: the manifest labels it" in err
    assert not out.exists()


def test_process_exit_status(tmp_path):
    """``python -m radarmon.cli`` exits with main's code: 0, 1 for a bad config, 2 for a failure."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "radarmon.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    noise = write_config(tmp_path / "noise.json", {"emitter": "noise", "duration_s": 1e-4})
    ok = run("synth", "--config", noise, "--out", str(tmp_path / "noise.iq"))
    assert ok.returncode == 0, ok.stderr
    bad = run("eval", "--config", write_config(tmp_path / "eval.json", {"threshold": 5.0}),
              "--model", str(tmp_path / "m.cnn"), "--out", str(tmp_path / "bad"))
    assert bad.returncode == 1 and "threshold" in bad.stderr
    data, model = small_dataset(tmp_path), small_model(tmp_path)
    chunk = tamper_label(data)
    failed = run("eval", "--model", str(model), "--manifest", str(data / "manifest_test.json"),
                 "--out", str(tmp_path / "eval"))
    assert failed.returncode == 2 and str(chunk) in failed.stderr
    assert not (tmp_path / "eval").exists()


def test_process_pool_build_through_the_entry_point(tmp_path, monkeypatch):
    """``python -m radarmon.cli dataset`` in a 2-process pool writes the tree a serial in-process build writes."""
    config = write_config(tmp_path / "dataset.json", {
        "scenario": {"train_per_class": 3, "test_per_class": 2, "seed": 5},
        "psnr_sweep": {"targets_db": [3, math.inf], "chunks_per_set": 20, "waveforms": ["pc2", "lfm10"],
                       "seed": 6},
    })
    src = Path(cli.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "RADARMON_WORKERS": "2"}
    pooled = subprocess.run([sys.executable, "-m", "radarmon.cli", "dataset", "--config", config,
                             "--out", str(tmp_path / "pooled")], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert pooled.returncode == 0, pooled.stderr
    monkeypatch.setenv("RADARMON_WORKERS", "1")
    assert cli.main(["dataset", "--config", config, "--out", str(tmp_path / "serial")]) == 0
    serial = tree_bytes(tmp_path / "serial")
    assert len(serial) == 2 * (10 + 80) + 3
    assert tree_bytes(tmp_path / "pooled") == serial


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_manifest_exits_1_before_any_model(tmp_path, monkeypatch, capsys, command):
    manifest = tmp_path / "manifest_test.json"
    ds.save_manifest(ds.DatasetManifest("test", 0, ()), manifest)
    model = tmp_path / "s.cnn"
    nn.save_model(nn.build_model("S", width_scale=1 / 32), model)
    for name in ("load_model", "train"):
        monkeypatch.setattr(nn, name, lambda *a, **k: pytest.fail("a model was loaded or trained"))
    out = tmp_path / "out"
    if command == "train":
        config = write_config(tmp_path / "train.json", {"variant": "S"})
        argv = ["train", "--config", config, "--manifest", str(manifest), "--out", str(out)]
    else:
        argv = ["eval", "--model", str(model), "--manifest", str(manifest), "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert str(manifest) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("exc, code", [
    (RuntimeError("boom"), 2),
    (ValueError("boom"), 2),
    (cli.ConfigError("boom"), 1),
    (FileNotFoundError("boom"), 1),
])
def test_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert cli.main(["synth", "--config", "c.json", "--out", "o.iq"]) == code
    err = capsys.readouterr().err
    assert "boom" in err
    assert ("Traceback" in err) == (code == 2)


def synth_radar(tmp_path):
    """A 2 ms radar stream (40000 samples) written by the synth command."""
    config = write_config(tmp_path / "synth.json", {"emitter": "radar", "duration_s": 2e-3})
    out = tmp_path / "r.iq"
    assert cli.main(["synth", "--config", config, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("emitter", ["radar", "wlan", "lte", "noise"])
def test_synth_writes_every_emitter(tmp_path, emitter):
    config = write_config(tmp_path / "synth.json", {"emitter": emitter, "duration_s": 2e-3})
    out = tmp_path / "out" / f"{emitter}.iq"
    assert cli.main(["synth", "--config", config, "--out", str(out)]) == 0
    assert out.stat().st_size == 2 * 4 * 40000
    assert len(read_iq_file(out)) == 40000


@pytest.mark.parametrize("kind", sorted(nn.INPUT_SHAPES))
def test_repr_writes_every_kind(tmp_path, kind):
    radar = read_iq_file(synth_radar(tmp_path))
    one_chunk = tmp_path / "chunk.iq"
    write_iq_file(stream_window(radar, 0, 1024), one_chunk)  # holds the first pulse
    out = tmp_path / "repr" / f"{kind}.txt"
    assert cli.main(["repr", "--chunk", str(one_chunk), "--kind", kind, "--out", str(out)]) == 0
    planes = represent.model_input(read_iq_file(one_chunk).samples, kind)
    channels, height, width = nn.INPUT_SHAPES[kind]
    got = np.loadtxt(out, ndmin=2)
    assert got.shape == (height, channels * width)
    for c, plane in enumerate(planes):  # channels side by side
        np.testing.assert_allclose(got[:, c * width : (c + 1) * width], plane, rtol=1e-8)


@pytest.mark.parametrize("kind", ["spectrogram", "dft"])  # renamed to S; removed
def test_repr_of_a_name_that_is_not_a_variant_exits_1(tmp_path, capsys, kind):
    chunk = synth_radar(tmp_path)
    capsys.readouterr()
    out = tmp_path / "repr" / "m.txt"
    assert cli.main(["repr", "--chunk", str(chunk), "--kind", kind, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"got {kind!r}" in err and "['A', 'AP', 'P', 'S']" in err
    assert "Traceback" not in err
    assert not out.parent.exists()


def test_repr_without_sidecar_exits_1(tmp_path, capsys):
    chunk = synth_radar(tmp_path)
    (tmp_path / "r.iq.json").unlink()
    capsys.readouterr()
    out = tmp_path / "repr" / "a.txt"
    assert cli.main(["repr", "--chunk", str(chunk), "--kind", "A", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "missing sidecar" in err and "r.iq.json" in err
    assert "Traceback" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("kind", sorted(nn.INPUT_SHAPES))
def test_repr_of_a_stream_that_is_not_one_chunk_exits_1(tmp_path, capsys, kind):
    chunk = synth_radar(tmp_path)
    capsys.readouterr()
    out = tmp_path / "repr" / "m.txt"
    assert cli.main(["repr", "--chunk", str(chunk), "--kind", kind, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--kind {kind}" in err and "1024-sample" in err and "40000 samples" in err
    assert "Traceback" not in err
    assert not out.parent.exists()
