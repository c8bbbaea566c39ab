"""Labeled dataset construction and peak-SNR estimation.

Chunks are synthesized per scenario: class 0 mixes a radar pulse train
(radar-only, radar+WLAN, radar+LTE) into receiver noise, class 1 holds
only secondary users or noise.  Every chunk derives its RNG stream from
(seed, split, index), so generation is reproducible and order-independent,
and class-0 chunks are guaranteed a minimum number of visible pulse
samples.  PSNR is estimated from the synthesizer's ground-truth masks:
mean power over pulse samples against mean power over the rest.

On disk every chunk set is a split: ``train``, ``test`` or ``psnr``.
``scenario_jobs`` or ``psnr_jobs`` lists a split's per-chunk jobs, ``run_jobs``
runs them, and ``write_split`` streams the results to ``chunks/<split>_NNNNNN.iq``
payloads with ``.iq.json`` sidecars and one ``manifest_<split>.json``.
``group_psnr_sets`` regroups ``psnr`` entries into ``PsnrSet``s by waveform and target.

A chunk's ground truth is its radar mask; its sidecar holds the mask as
radar spans.  ``iqcore`` maps between the two: ``as_stream`` on write,
``as_chunk`` on load.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import emitters, radar
from .channel import apply_multipath, mix
from .iqcore import (
    CHUNK_LEN,
    IqChunk,
    SampleStream,
    as_chunk,
    as_stream,
    read_iq_file,
    stream_window,
    write_iq_file,
)
from .schema import check_types, require

CLASS0_SUBCASES = ("radar-only", "radar+wlan", "radar+lte")
CLASS1_SUBCASES = ("lte-only", "wlan-only", "noise")

CARRIER_OFFSETS_HZ = (-6e6, -3e6, 0.0, 3e6, 6e6)

SU_SPAN = 8192  # samples of secondary-user stream each SU window is sliced from


@dataclass(frozen=True)
class WaveformSpec:
    name: str
    ipm: radar.Ipm
    pw_s: float


TABLE_WAVEFORMS = (
    WaveformSpec("pc2", radar.Pc(), 2e-6),
    WaveformSpec("pc10", radar.Pc(), 10e-6),
    WaveformSpec("lfm10", radar.Lfm(4e6), 10e-6),
    WaveformSpec("barker13", radar.BarkerPm(), 10e-6),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Desk-scale defaults; paper-scale counts are one override away."""

    train_per_class: int = 4000
    test_per_class: int = 1000
    waveforms: tuple[WaveformSpec, ...] = TABLE_WAVEFORMS
    carrier_offsets_hz: tuple[float, ...] = CARRIER_OFFSETS_HZ
    class0_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    class1_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    sample_rate_hz: float = 20e6
    pri_s: float = 1e-3
    radar_peak_amplitude: float = 1.0
    psnr_range_db: tuple[float, float] = (9.0, 28.0)
    su_power_range: tuple[float, float] = (0.05, 1.0)
    multipath_delay_range: tuple[int, int] = (1, 8)
    multipath_mag_range: tuple[float, float] = (0.0, 0.5)
    min_visible_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        """Check types, tuple lengths and ranges, so a bad config fails before any synthesis."""
        check_types(self)
        for name in ("train_per_class", "test_per_class"):
            require(getattr(self, name) >= 1, f"{name} must be positive (chunk counts per class)")
        for name in ("sample_rate_hz", "pri_s", "radar_peak_amplitude", "min_visible_samples"):
            require(getattr(self, name) > 0, f"{name} must be positive")
        ranges = ("psnr_range_db", "su_power_range", "multipath_delay_range", "multipath_mag_range")
        for name in ranges:
            lo, hi = getattr(self, name)
            require(lo <= hi, f"{name} must satisfy lo <= hi, got {(lo, hi)}")
        require(self.su_power_range[0] > 0, "su_power_range must be positive (sampled log-uniformly)")
        for name in ("multipath_delay_range", "multipath_mag_range"):
            require(getattr(self, name)[0] >= 0, f"{name} must be non-negative")
        require(self.multipath_delay_range[1] < CHUNK_LEN,
                f"multipath_delay_range must stay below the chunk length, {CHUNK_LEN} samples")
        require(self.seed >= 0, "seed must be >= 0")
        for name in ("class0_mix", "class1_mix"):
            mixp = getattr(self, name)
            require(min(mixp) >= 0 and math.isclose(sum(mixp), 1.0),
                    f"{name}: subcase mix must be three non-negative weights summing to 1")
        offsets = self.carrier_offsets_hz
        require(len(offsets) > 0 and max(map(abs, offsets)) < self.sample_rate_hz / 2,
                "carrier_offsets_hz must be a non-empty tuple of offsets below Nyquist")
        require(len(self.waveforms) > 0 and max(w.pw_s for w in self.waveforms) < self.pri_s,
                "waveforms must be non-empty, with every pulse width below pri_s")
        shortest = min(CHUNK_LEN, min(round(w.pw_s * self.sample_rate_hz) for w in self.waveforms))
        require(self.min_visible_samples <= shortest,
                f"min_visible_samples must not exceed the shortest pulse or the chunk: {shortest} samples")
        # A radar window is drawn around pulse 1's dispersed span, which must
        # not reach the next pulse (rounding and TOA jitter included).
        gap = (max(round(w.pw_s * self.sample_rate_hz) for w in self.waveforms)
               + self.multipath_delay_range[1] + 2 * radar.Jitter().toa_samples + 1)
        require(round(self.pri_s * self.sample_rate_hz) >= gap,
                f"pri_s must span at least {gap} samples: the longest pulse, the largest "
                "multipath delay and the TOA jitter, so that pulses stay apart")
        min_burst_s = emitters.WlanParams().burst_len_s[0]
        require(SU_SPAN / self.sample_rate_hz > min_burst_s,
                f"sample_rate_hz must be below {SU_SPAN / min_burst_s:g} Hz, so the {SU_SPAN}-sample "
                "secondary-user span outlasts the shortest WLAN burst")


@dataclass(frozen=True)
class ManifestEntry:
    """One chunk of a split, at ``path`` relative to the manifest's directory.

    ``psnr_db`` is a ``psnr`` entry's target PSNR (its set's; ``inf`` when
    noise-free, stored as ``"inf"``) and ``None`` for ``train``/``test``.
    """

    path: str
    label: int
    provenance: str
    waveform: str | None = None
    carrier_offset_hz: float | None = None
    psnr_db: float | None = None


@dataclass(frozen=True)
class DatasetManifest:
    split: str
    seed: int
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        if self.split not in _SPLIT_CODE:
            raise ValueError(f"split must be one of {sorted(_SPLIT_CODE)}")


@dataclass(frozen=True)
class BuiltDataset:
    train: DatasetManifest
    test: DatasetManifest


_SPLIT_CODE = {"train": 0, "test": 1, "psnr": 2}


def _entry_rng(seed: int, split: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SPLIT_CODE[split], index])


def _choice(rng, options, weights=None):
    idx = rng.choice(len(options), p=weights)
    return options[int(idx)]


def _log_uniform(rng, lo: float, hi: float) -> float:
    if lo <= 0 or hi <= 0:
        raise ValueError("log-uniform range must be positive")
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _radar_window(cfg: ScenarioConfig, rng, waveform: WaveformSpec, offset_hz: float,
                  use_multipath: bool = True) -> tuple[SampleStream, dict]:
    """A 1024-sample window around the second pulse of a short train, with
    >= min_visible_samples of pulse guaranteed inside.

    Windowing the second pulse (not the first, which sits at the stream
    head) lets the pulse land anywhere in the chunk, including partially
    clipped at either edge.

    The window start is drawn from the pulse schedule, and only the window
    plus the multipath delay before it is rendered, never the whole train.
    The result is the window of the whole train after multipath, bit for
    bit: the draws (train seed, multipath magnitude, delay, phase, window
    start) are the same, and the history the window drops is what its
    first samples' delayed tap reads.
    """
    fs = cfg.sample_rate_hz
    params = radar.RadarParams(
        ipm=waveform.ipm,
        pw_s=waveform.pw_s,
        pri_s=cfg.pri_s,
        carrier_offset_hz=offset_hz,
        amplitude=cfg.radar_peak_amplitude,
    )
    margin_s = (CHUNK_LEN + round(waveform.pw_s * fs) + 64) / fs
    duration_s = cfg.pri_s + margin_s
    n_total = int(round(duration_s * fs))
    seed = rng.integers(2**63)
    toa, length, _ = radar.pulse_schedule(params, n_total, fs, seed)[1]
    taps = None
    if use_multipath:
        mag = rng.uniform(*cfg.multipath_mag_range)
        if mag > 0:
            delay = int(rng.integers(cfg.multipath_delay_range[0], cfg.multipath_delay_range[1] + 1))
            phase = rng.uniform(0, 2 * np.pi)
            taps = ((0, 1.0 + 0j), (delay, mag * np.exp(1j * phase)))
    max_delay = taps[1][0] if taps else 0
    length = min(length + max_delay, n_total - toa)  # the pulse's dispersed span
    vis = cfg.min_visible_samples
    lo = max(0, toa + vis - CHUNK_LEN)
    hi = min(n_total - CHUNK_LEN, toa + length - vis)
    start = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    first = max(0, start - max_delay)
    stream = radar.synth_pulse_train(params, duration_s, fs, seed=seed, span=(first, start + CHUNK_LEN))
    if taps:
        stream = apply_multipath(stream, taps)
    meta = {"waveform": waveform.name, "carrier_offset_hz": offset_hz}
    return stream_window(stream, start - first, CHUNK_LEN), meta


def _su_window(cfg: ScenarioConfig, rng, kind: str, power: float, prefer_burst: bool) -> SampleStream:
    """A 1024-sample window sliced from a longer secondary-user stream."""
    duration = SU_SPAN / cfg.sample_rate_hz
    if kind == "wlan":
        stream = emitters.synth_wlan(
            emitters.WlanParams(power=power), duration, cfg.sample_rate_hz,
            seed=rng.integers(2**63),
        )
    elif kind == "lte":
        stream = emitters.synth_lte(
            emitters.LteParams(power=power, load=rng.uniform(0.2, 1.0)),
            duration, cfg.sample_rate_hz, seed=rng.integers(2**63),
        )
    else:
        raise ValueError(f"unknown SU kind {kind!r}")
    if prefer_burst and stream.annotations:
        ann = _choice(rng, stream.annotations)
        lo = max(0, ann.start_idx - CHUNK_LEN + CHUNK_LEN // 4)
        hi = min(len(stream) - CHUNK_LEN, ann.end_idx - CHUNK_LEN // 4)
        start = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        start = min(max(start, 0), len(stream) - CHUNK_LEN)
    else:
        start = int(rng.integers(0, len(stream) - CHUNK_LEN + 1))
    return stream_window(stream, start, CHUNK_LEN)


def synth_entry_chunk(cfg: ScenarioConfig, split: str, index: int, label: int) -> tuple[IqChunk, dict]:
    """Deterministically synthesize one labeled chunk from (config, split, index)."""
    rng = _entry_rng(cfg.seed, split, index)
    noise_power = cfg.radar_peak_amplitude**2 / 10 ** (rng.uniform(*cfg.psnr_range_db) / 10)
    meta: dict = {"waveform": None, "carrier_offset_hz": None}
    parts: list[SampleStream] = []
    if label == 0:
        subcase = _choice(rng, CLASS0_SUBCASES, cfg.class0_mix)
        waveform = _choice(rng, cfg.waveforms)
        offset = _choice(rng, cfg.carrier_offsets_hz)
        window, meta = _radar_window(cfg, rng, waveform, offset)
        parts.append(window)
        if subcase != "radar-only":
            power = cfg.radar_peak_amplitude**2 * _log_uniform(rng, *cfg.su_power_range)
            parts.append(_su_window(cfg, rng, subcase.split("+")[1], power, prefer_burst=False))
    else:
        subcase = _choice(rng, CLASS1_SUBCASES, cfg.class1_mix)
        if subcase != "noise":
            power = cfg.radar_peak_amplitude**2 * _log_uniform(rng, *cfg.su_power_range)
            kind = subcase.split("-")[0]
            parts.append(_su_window(cfg, rng, kind, power, prefer_burst=True))
        else:
            parts.append(
                SampleStream(np.zeros(CHUNK_LEN, dtype=np.complex128), cfg.sample_rate_hz)
            )
    mixed = mix(parts, noise_power=noise_power, seed=rng.integers(2**63))
    chunk = as_chunk(mixed, provenance=subcase)
    if label == 0 and int(chunk.radar_mask.sum()) < cfg.min_visible_samples:
        raise RuntimeError("class-0 chunk lost pulse visibility")  # guarded by window choice
    if chunk.label != label:
        raise RuntimeError("synthesized chunk label mismatch")
    return chunk, meta


def scenario_jobs(cfg: ScenarioConfig, split: str) -> list[tuple]:
    """One ``run_jobs`` job per chunk of a ``train`` or ``test`` split, class-balanced by index parity."""
    per_class = cfg.train_per_class if split == "train" else cfg.test_per_class
    return [(synth_entry_chunk, cfg, split, index, index % 2) for index in range(2 * per_class)]


def _run_job(job: tuple) -> tuple[IqChunk, dict]:
    fn, *args = job
    return fn(*args)


def run_jobs(jobs: list[tuple], workers: int = 1):
    """Yield each job's (chunk, meta) in job order; a job is ``(function, *args)``.

    Above one worker the jobs run in a pool of spawned processes that lasts
    until the last result is read.  The processes re-import the calling
    script: it needs an ``if __name__ == "__main__":`` guard.
    """
    if workers == 1:
        yield from map(_run_job, jobs)
    else:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
            yield from pool.map(_run_job, jobs, chunksize=16)


def load_chunk(root, entry: ManifestEntry) -> IqChunk:
    path = Path(root) / entry.path
    stream = read_iq_file(path)
    if len(stream) != CHUNK_LEN:
        raise ValueError(f"{path} holds {len(stream)} samples, not one {CHUNK_LEN}-sample chunk")
    chunk = as_chunk(stream, entry.provenance)
    if chunk.label != entry.label:
        raise ValueError(f"{path}: the manifest labels it {entry.label}, "
                         f"its sidecar's radar spans label it {chunk.label}")
    return chunk


def build_dataset(cfg: ScenarioConfig, out_dir, workers: int = 1) -> BuiltDataset:
    """Synthesize all chunks and write the ``train`` and ``test`` splits under ``out_dir``.

    ``workers`` goes to ``run_jobs``: above one, a calling script needs an
    ``if __name__ == "__main__":`` guard.  Each chunk's RNG stream derives
    from (seed, split, index), so the files are the same whatever it is.
    """
    return BuiltDataset(*(write_split(out_dir, split, cfg.seed, run_jobs(scenario_jobs(cfg, split), workers),
                                      cfg.sample_rate_hz) for split in ("train", "test")))


def write_split(out_dir, split: str, seed: int, items, sample_rate_hz: float) -> DatasetManifest:
    """Write ``items``, (chunk, meta) pairs, as ``chunks/<split>_NNNNNN.iq`` and ``manifest_<split>.json``.

    ``meta`` holds the entry's fields beyond path, label and provenance.
    """
    out_dir = Path(out_dir)
    (out_dir / "chunks").mkdir(parents=True, exist_ok=True)
    entries = []
    for index, (chunk, meta) in enumerate(items):
        rel = f"chunks/{split}_{index:06d}.iq"
        write_iq_file(as_stream(chunk, sample_rate_hz), out_dir / rel)
        entries.append(ManifestEntry(rel, chunk.label, chunk.provenance, **meta))
    manifest = DatasetManifest(split, seed, tuple(entries))
    save_manifest(manifest, out_dir / f"manifest_{split}.json")
    return manifest


_NOISE_FREE = "inf"  # a noise-free psnr_db in the manifest; JSON has no infinity


def save_manifest(manifest: DatasetManifest, path) -> None:
    entries = [{**asdict(e), "psnr_db": _NOISE_FREE} if e.psnr_db == math.inf else asdict(e)
               for e in manifest.entries]
    doc = {"split": manifest.split, "seed": manifest.seed, "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_manifest(path) -> DatasetManifest:
    """Read a manifest; a noise-free target may be ``"inf"`` or the older bare ``Infinity``."""
    with open(path) as fh:
        doc = json.load(fh)
    entries = (ManifestEntry(**{**e, "psnr_db": math.inf} if e.get("psnr_db") == _NOISE_FREE else e)
               for e in doc["entries"])
    return DatasetManifest(doc["split"], doc["seed"], tuple(entries))


def estimate_psnr(chunks) -> float:
    """Pooled mask-true mean power over mask-false mean power, in dB."""
    sig_power = sig_count = rest_power = rest_count = 0.0
    for chunk in chunks:
        power = np.abs(chunk.samples) ** 2
        mask = chunk.radar_mask
        sig_power += float(power[mask].sum())
        sig_count += int(mask.sum())
        rest_power += float(power[~mask].sum())
        rest_count += int((~mask).sum())
    if sig_count == 0:
        raise ValueError("no radar-marked samples in the set")
    signal = sig_power / sig_count
    rest = rest_power / rest_count if rest_count else 0.0
    if rest == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / rest)


@dataclass(frozen=True)
class PsnrSet:
    waveform: str
    target_psnr_db: float
    measured_psnr_db: float
    chunks: tuple[IqChunk, ...]


def synth_psnr_chunk(cfg: ScenarioConfig, index: int, waveform: WaveformSpec,
                     target_db: float) -> tuple[IqChunk, dict]:
    """Chunk ``index`` of the ``psnr`` split: radar plus noise whose power is solved from ``target_db``."""
    rng = _entry_rng(cfg.seed, "psnr", index)
    noise_power = 0.0 if target_db == math.inf else cfg.radar_peak_amplitude**2 / 10 ** (target_db / 10)
    offset = _choice(rng, cfg.carrier_offsets_hz)
    window, _ = _radar_window(cfg, rng, waveform, offset, use_multipath=False)
    mixed = mix([window], noise_power=noise_power, seed=rng.integers(2**63))
    return as_chunk(mixed, provenance="radar+noise"), {"waveform": waveform.name, "psnr_db": float(target_db)}


def psnr_jobs(waveforms: tuple[WaveformSpec, ...], targets_db, chunks_per_set: int, seed: int = 0):
    """One ``run_jobs`` job per ``psnr`` chunk: ``chunks_per_set`` per (waveform, target), in that order.

    Carrier offsets, sample rate, PRI and peak amplitude are the
    ``ScenarioConfig`` defaults.
    """
    cfg = ScenarioConfig(train_per_class=1, test_per_class=1, waveforms=waveforms, seed=seed)
    pairs = [(w, t) for w in waveforms for t in targets_db]
    return [(synth_psnr_chunk, cfg, i, *pairs[i // chunks_per_set]) for i in range(len(pairs) * chunks_per_set)]


def build_psnr_sets(
    waveforms: tuple[WaveformSpec, ...], targets_db, chunks_per_set: int, seed: int = 0
) -> list[PsnrSet]:
    """The ``psnr_jobs`` chunks, run serially and held as one ``PsnrSet`` per (waveform, target)."""
    built = list(run_jobs(psnr_jobs(waveforms, targets_db, chunks_per_set, seed)))
    sets = []
    for lo in range(0, len(built), chunks_per_set):
        chunks, metas = zip(*built[lo : lo + chunks_per_set])
        sets.append(PsnrSet(metas[0]["waveform"], metas[0]["psnr_db"], estimate_psnr(chunks), chunks))
    return sets


def group_psnr_sets(manifest: DatasetManifest, root) -> list[PsnrSet]:
    """Group a ``psnr`` split's entries into sets by (waveform, target), in manifest order.

    Each set's measured PSNR is estimated from the chunks as read back.
    """
    groups: dict[tuple[str, float], list[IqChunk]] = {}
    for entry in manifest.entries:
        groups.setdefault((entry.waveform, entry.psnr_db), []).append(load_chunk(root, entry))
    return [
        PsnrSet(waveform, target, estimate_psnr(chunks), tuple(chunks))
        for (waveform, target), chunks in groups.items()
    ]
