"""Command-line front end: synth, dataset, train, eval, repr.

Experiments live in JSON config files; flags carry only paths.  Each config
section is the keyword arguments of one dataclass, whose ``__init__`` fields
are the section's keys and defaults: synth is ``SynthConfig`` (sections
radar, wlan = ``emitters.WlanParams``, lte = ``emitters.LteParams``, noise);
dataset is ``DatasetConfig`` (scenario = ``dataset.ScenarioConfig``,
psnr_sweep); train is ``TrainConfig`` (optimizer = ``nn.OptimizerState``);
eval is ``EvalConfig``.  Waveforms are named.  Unknown keys, wrong types,
non-finite floats and out-of-range values are reported before any work
starts.

On disk, dataset writes each chunk set as one split under --out: the
scenario's ``train`` and ``test`` and the psnr_sweep's ``psnr``, each as
``manifest_<split>.json`` plus ``chunks/<split>_NNNNNN.iq`` payloads with
``.iq.json`` sidecars.  train and eval --manifest read one manifest;
eval --psnr-dir D reads ``D/manifest_psnr.json``.

Exit codes: 0 success; 1 a bad config or a missing input file; 2 any other
failure, with its traceback on stderr.  RADARMON_WORKERS (default 1) sets
the dataset-build process count; the output does not depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import sys
import traceback
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import emitters, evaluate, nn, radar, represent
from .iqcore import CHUNK_LEN, read_iq_file, write_iq_file, radar_mask, make_chunk
from .schema import fits, require, type_name


class ConfigError(Exception):
    pass


_WAVEFORMS_BY_NAME = {w.name: w for w in ds.TABLE_WAVEFORMS}


@dataclass(frozen=True)
class RadarConfig:
    waveform: ds.WaveformSpec = _WAVEFORMS_BY_NAME["pc10"]
    pw_s: float | None = None  # None: the waveform's own pulse width
    pri_s: float = ds.ScenarioConfig.pri_s
    carrier_offset_hz: float = radar.RadarParams.carrier_offset_hz
    peak_amplitude: float = ds.ScenarioConfig.radar_peak_amplitude

    def params(self) -> radar.RadarParams:
        return radar.RadarParams(
            ipm=self.waveform.ipm,
            pw_s=self.waveform.pw_s if self.pw_s is None else self.pw_s,
            pri_s=self.pri_s,
            carrier_offset_hz=self.carrier_offset_hz,
            amplitude=self.peak_amplitude,
        )


@dataclass(frozen=True)
class NoiseConfig:
    power: float = 1.0

    def __post_init__(self):
        require(self.power >= 0, "power must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    emitter: str
    duration_s: float = 10e-3
    sample_rate_hz: float = ds.ScenarioConfig.sample_rate_hz
    seed: int = 0
    radar: RadarConfig = RadarConfig()
    wlan: emitters.WlanParams = emitters.WlanParams()
    lte: emitters.LteParams = emitters.LteParams()
    noise: NoiseConfig = NoiseConfig()

    def __post_init__(self):
        require(self.emitter in ("radar", "wlan", "lte", "noise"),
                "emitter must be radar, wlan, lte or noise")
        require(self.seed >= 0, "seed must be >= 0")
        shortest = {"radar": self.radar.pri_s, "wlan": self.wlan.burst_len_s[0],
                    "lte": emitters.LTE_SYMBOL_S, "noise": 0.0}[self.emitter]
        require(self.duration_s > shortest, f"duration_s must exceed {shortest:g} s for this emitter")
        if self.emitter == "radar":
            pulse = self.radar.params()  # RadarParams checks 0 < pw_s < pri_s
            require(round(pulse.pw_s * self.sample_rate_hz) >= 2, "radar.pw_s must span >= 2 samples")
            require(pulse.amplitude > 0, "radar.peak_amplitude must be positive")
            require(abs(pulse.carrier_offset_hz) < self.sample_rate_hz / 2,
                    "radar.carrier_offset_hz must be below Nyquist")


@dataclass(frozen=True)
class PsnrSweep:
    targets_db: tuple[numbers.Real, ...] = tuple(range(-6, 22, 3))  # Real: +Infinity is noise-free
    chunks_per_set: int = 200
    waveforms: tuple[ds.WaveformSpec, ...] = ds.TABLE_WAVEFORMS
    seed: int = 0

    def __post_init__(self):
        require(len(self.targets_db) > 0 and len(self.waveforms) > 0,
                "targets_db and waveforms must not be empty")
        require(self.chunks_per_set >= 1, "chunks_per_set must be >= 1")
        require(all(abs(t) <= sys.float_info.max or t == math.inf for t in self.targets_db),
                "targets_db must be finite or Infinity (noise-free)")
        for name in ("targets_db", "waveforms"):  # each (waveform, target) pair names one set
            values = getattr(self, name)
            require(len(set(values)) == len(values), f"{name} must not repeat a value")
        require(self.seed >= 0, "seed must be >= 0")


@dataclass(frozen=True)
class DatasetConfig:
    scenario: ds.ScenarioConfig | None = None
    psnr_sweep: PsnrSweep | None = None

    def __post_init__(self):
        require(self.scenario or self.psnr_sweep, "dataset needs a scenario or psnr_sweep section")


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "AP"
    width_scale: float = 1.0
    seed: int = 0
    optimizer: nn.OptimizerState = field(default_factory=nn.OptimizerState)

    def __post_init__(self):
        require(self.variant in nn.INPUT_SHAPES, f"variant must be one of {sorted(nn.INPUT_SHAPES)}")
        require(self.width_scale > 0, "width_scale must be positive")
        require(self.seed >= 0, "seed must be >= 0")


@dataclass(frozen=True)
class EvalConfig:
    threshold: float = 0.5


def from_dict(cls, doc, path: str = ""):
    """Build dataclass ``cls`` from a JSON object whose keys are its init fields.

    Nested objects become nested dataclasses, lists become tuples and
    waveform names become ``WaveformSpec``s.  Each value is checked against
    its field's annotation here; ``cls.__post_init__`` checks the ranges.
    """
    where = path or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for key, value in doc.items():
        key_path = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown config key: {key_path}")
        kwargs[key] = _from_json(hints[key], value, key_path)
        if not fits(hints[key], kwargs[key]):
            raise ConfigError(f"{key_path} must be {type_name(hints[key])}, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _from_json(hint, value, path: str):
    if isinstance(hint, types.UnionType):  # X | None
        hint = next(h for h in typing.get_args(hint) if h is not type(None))
    if hint is ds.WaveformSpec:
        if not isinstance(value, str) or value not in _WAVEFORMS_BY_NAME:
            raise ConfigError(f"{path}: unknown waveform name {value!r}")
        return _WAVEFORMS_BY_NAME[value]
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, path)
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        item = typing.get_args(hint)[0]
        return tuple(_from_json(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    return value


def _init_kwargs(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def _load_config(path: str, cls):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return from_dict(cls, doc)


def cmd_synth(args) -> int:
    cfg = _load_config(args.config, SynthConfig)
    fs, duration, seed = cfg.sample_rate_hz, cfg.duration_s, cfg.seed
    if cfg.emitter == "radar":
        stream = radar.synth_pulse_train(cfg.radar.params(), duration, fs, seed=seed)
    elif cfg.emitter == "wlan":
        stream = emitters.synth_wlan(cfg.wlan, duration, fs, seed=seed)
    elif cfg.emitter == "lte":
        stream = emitters.synth_lte(cfg.lte, duration, fs, seed=seed)
    else:
        stream = emitters.synth_noise(duration, fs, cfg.noise.power, seed=seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_iq_file(stream, out)
    print(f"wrote {len(stream)} samples to {out}")
    return 0


def cmd_dataset(args) -> int:
    cfg = _load_config(args.config, DatasetConfig)
    workers = os.environ.get("RADARMON_WORKERS", "1")
    if not workers.isdigit() or int(workers) < 1:
        raise ConfigError(f"RADARMON_WORKERS must be a positive integer, got {workers!r}")
    out_dir = Path(args.out)
    if cfg.scenario:
        ds.build_dataset(cfg.scenario, out_dir, workers=int(workers))
        n = 2 * (cfg.scenario.train_per_class + cfg.scenario.test_per_class)
        print(f"wrote {n} chunks and manifests to {out_dir}")
    if cfg.psnr_sweep:
        sweep = cfg.psnr_sweep
        sets = ds.build_psnr_sets(sweep.waveforms, sweep.targets_db, sweep.chunks_per_set, sweep.seed)
        ds.write_psnr_split(out_dir, sweep.seed, sets)
        print(f"wrote {len(sets)} PSNR sets to {out_dir / 'manifest_psnr.json'}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, TrainConfig)
    manifest = ds.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    chunks = [ds.load_chunk(root, e) for e in manifest.entries]
    labels = np.array([e.label for e in manifest.entries], dtype=np.intp)
    x = np.stack([represent.model_input(c, cfg.variant) for c in chunks]).astype(np.float32)
    model, losses = nn.train(
        cfg.variant,
        (x, labels),
        opt_overrides=_init_kwargs(cfg.optimizer),
        seed=cfg.seed,
        width_scale=cfg.width_scale,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nn.save_model(model, out)
    if args.loss_out:
        loss_path = Path(args.loss_out)
        loss_path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["iteration,loss"] + [f"{i},{v:.6f}" for i, v in enumerate(losses)]
        loss_path.write_text("\n".join(lines) + "\n")
    print(f"trained {cfg.variant} for {len(losses)} iterations; model at {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, EvalConfig) if args.config else EvalConfig()
    if not args.manifest and not args.psnr_dir:
        raise ConfigError("eval requires --manifest and/or --psnr-dir")
    model = nn.load_model(args.model)
    out_dir = Path(args.out)
    reports, curves = [], []
    if args.manifest:
        manifest = ds.load_manifest(args.manifest)
        report = evaluate.evaluate_manifest(
            model, manifest, Path(args.manifest).parent, threshold=cfg.threshold
        )
        reports.append(report)
        print(f"{model.variant} accuracy on {manifest.split}: {report.accuracy:.4f}")
    if args.psnr_dir:
        sets = ds.group_psnr_sets(ds.load_manifest(Path(args.psnr_dir) / "manifest_psnr.json"),
                                  args.psnr_dir)
        curves.extend(evaluate.pd_curve(model, sets, threshold=cfg.threshold))
    written = evaluate.emit_curves(reports, curves, out_dir)
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


_REPR_KINDS = {
    "amplitude": represent.amplitude,
    "phase_diff": represent.phase_diff,
    "spectrogram": represent.spectrogram,
    "dft": represent.dft_mag,
    "ap": lambda chunk: np.hstack(np.moveaxis(represent.ap_tensor(chunk), -1, 0)),  # [A | P]
}


def cmd_repr(args) -> int:
    if args.kind not in _REPR_KINDS:
        raise ConfigError(f"unknown representation kind {args.kind!r}")
    stream = read_iq_file(args.chunk)
    if args.kind in ("ap", "spectrogram") and len(stream) != CHUNK_LEN:
        raise ConfigError(f"--kind {args.kind} needs a {CHUNK_LEN}-sample chunk; "
                          f"{args.chunk} holds {len(stream)} samples")
    chunk = make_chunk(stream.samples, radar_mask(stream.annotations, len(stream)))
    matrix = _REPR_KINDS[args.kind](chunk)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    represent.export_matrix(matrix, out)
    print(f"wrote {args.kind} matrix to {out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radarmon", description="Radar-band spectrum monitoring")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (  # name, function, help, required flags, optional flags
        ("synth", cmd_synth, "generate one emitter stream to an IQ file", "config out", ""),
        ("dataset", cmd_dataset, "build labeled chunk datasets and PSNR sets", "config out", ""),
        ("train", cmd_train, "train a model variant from a manifest", "config manifest out",
         "loss-out"),
        ("eval", cmd_eval, "score a model: accuracy report and/or Pd curves", "model out",
         "manifest psnr-dir config"),
        ("repr", cmd_repr, "dump a representation matrix as text", "chunk kind out", ""),
    )
    for name, func, help_text, required, optional in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in required.split():
            p.add_argument(f"--{flag}", required=True)
        for flag in optional.split():
            p.add_argument(f"--{flag}")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a fault in the program, not in its input
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
