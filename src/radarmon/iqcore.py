"""Complex-baseband sample containers, chunking, and IQ file I/O.

The on-disk payload format is interleaved little-endian 32-bit floats
(re, im, re, im, ...).  A JSON sidecar at ``<path>.json`` carries the
sample rate and annotation list.  All container types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

CHUNK_LEN = 1024

LABEL_RADAR_PRESENT = 0
LABEL_RADAR_ABSENT = 1


class Emitter(Enum):
    RADAR = "Radar"
    WLAN = "Wlan"
    LTE = "Lte"


@dataclass(frozen=True)
class PulseAnnotation:
    """Ground-truth marker for one contiguous span of emitter energy."""

    start_idx: int
    length: int
    emitter: Emitter
    peak_amplitude: float

    def __post_init__(self):
        if self.start_idx < 0:
            raise ValueError("annotation start_idx must be >= 0")
        if self.length < 1:
            raise ValueError("annotation length must be >= 1")
        if not np.isfinite(self.peak_amplitude):
            raise ValueError("annotation peak_amplitude must be finite")

    @property
    def end_idx(self) -> int:
        """One past the last annotated sample index."""
        return self.start_idx + self.length


def _check_annotations(annotations: tuple[PulseAnnotation, ...], n: int) -> None:
    last_start = -1
    last_end: dict[Emitter, int] = {}
    for ann in annotations:
        if ann.start_idx < last_start:
            raise ValueError("annotations must be sorted by start index")
        last_start = ann.start_idx
        if ann.end_idx > n:
            raise ValueError(
                f"annotation [{ann.start_idx}, {ann.end_idx}) exceeds stream length {n}"
            )
        if ann.start_idx < last_end.get(ann.emitter, 0):
            raise ValueError(f"overlapping annotations for emitter {ann.emitter.value}")
        last_end[ann.emitter] = ann.end_idx


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampleStream:
    """A run of complex baseband samples with ground-truth annotations."""

    samples: np.ndarray
    sample_rate_hz: float = 20e6
    annotations: tuple[PulseAnnotation, ...] = ()

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128, order="C", copy=True)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", _freeze(arr))
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        _check_annotations(self.annotations, arr.size)

    def __len__(self) -> int:
        return self.samples.size


def radar_mask(
    annotations: tuple[PulseAnnotation, ...], n: int, start: int = 0
) -> np.ndarray:
    """Boolean mask over ``[start, start + n)`` marking radar-annotated samples."""
    mask = np.zeros(n, dtype=bool)
    for ann in annotations:
        if ann.emitter is not Emitter.RADAR:
            continue
        lo = max(ann.start_idx - start, 0)
        hi = min(ann.end_idx - start, n)
        if hi > lo:
            mask[lo:hi] = True
    return mask


@dataclass(frozen=True)
class IqChunk:
    """A fixed-length window of samples: the unit of classification.

    The classifier pipeline uses windows of ``CHUNK_LEN`` (1024) samples;
    ``chunk_stream`` can produce other lengths for experimentation.
    """

    samples: np.ndarray
    label: int
    provenance: str
    radar_mask: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128, order="C", copy=True)
        mask = np.array(self.radar_mask, dtype=bool, order="C", copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("chunk samples must be a non-empty 1-D array")
        if mask.shape != arr.shape:
            raise ValueError("radar_mask length must match samples length")
        if not np.all(np.isfinite(arr)):
            raise ValueError("chunk samples must be finite")
        object.__setattr__(self, "samples", _freeze(arr))
        object.__setattr__(self, "radar_mask", _freeze(mask))
        expected = LABEL_RADAR_PRESENT if mask.any() else LABEL_RADAR_ABSENT
        if self.label != expected:
            raise ValueError(f"label {self.label} contradicts radar_mask")

    def __len__(self) -> int:
        return self.samples.size


def make_chunk(samples: np.ndarray, mask: np.ndarray, provenance: str = "") -> IqChunk:
    """Build a chunk with the label derived from the mask."""
    mask = np.asarray(mask, dtype=bool)
    label = LABEL_RADAR_PRESENT if mask.any() else LABEL_RADAR_ABSENT
    return IqChunk(samples=samples, label=label, provenance=provenance, radar_mask=mask)


def chunk_stream(
    stream: SampleStream, chunk_len: int = CHUNK_LEN, provenance: str = ""
) -> list[IqChunk]:
    """Partition a stream into consecutive chunks; the trailing remainder is dropped.

    Each chunk's label and radar mask are derived from the stream annotations
    restricted to the chunk's index window.
    """
    if chunk_len < 2:
        raise ValueError("chunk_len must be >= 2")
    n = len(stream)
    if n < chunk_len:
        raise ValueError(f"insufficient samples: stream has {n}, need {chunk_len}")
    n_chunks = n // chunk_len
    full_mask = radar_mask(stream.annotations, n_chunks * chunk_len)
    chunks = []
    for i in range(n_chunks):
        lo = i * chunk_len
        chunks.append(
            make_chunk(stream.samples[lo : lo + chunk_len], full_mask[lo : lo + chunk_len], provenance)
        )
    return chunks


def stream_window(stream: SampleStream, start: int, length: int) -> SampleStream:
    """Extract ``[start, start + length)`` with annotations clipped and re-based."""
    if start < 0 or start + length > len(stream):
        raise ValueError("window exceeds stream bounds")
    anns = []
    for ann in stream.annotations:
        lo = max(ann.start_idx, start)
        hi = min(ann.end_idx, start + length)
        if hi > lo:
            anns.append(
                PulseAnnotation(lo - start, hi - lo, ann.emitter, ann.peak_amplitude)
            )
    return SampleStream(
        samples=stream.samples[start : start + length].copy(),
        sample_rate_hz=stream.sample_rate_hz,
        annotations=tuple(anns),
    )


class MissingSidecarError(FileNotFoundError, ValueError):
    """A payload whose ``<path>.json`` sidecar does not exist.

    A missing input file, and also a ``ValueError`` like the other
    malformed-input errors of :func:`read_iq_file`.
    """


def _sidecar_path(path: Path) -> Path:
    return Path(str(path) + ".json")


def write_iq_file(stream: SampleStream, path) -> None:
    """Write interleaved float32 payload plus JSON metadata sidecar."""
    path = Path(path)
    interleaved = np.empty(2 * len(stream), dtype="<f4")
    interleaved[0::2] = stream.samples.real.astype(np.float32)
    interleaved[1::2] = stream.samples.imag.astype(np.float32)
    interleaved.tofile(path)
    meta = {
        "sample_rate_hz": stream.sample_rate_hz,
        "annotations": [
            {
                "start_idx": ann.start_idx,
                "len": ann.length,
                "emitter": ann.emitter.value,
                "peak_amplitude": ann.peak_amplitude,
            }
            for ann in stream.annotations
        ],
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_iq_file(path) -> SampleStream:
    """Read a payload + sidecar pair written by :func:`write_iq_file`."""
    path = Path(path)
    raw = np.fromfile(path, dtype="<f4")
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise MissingSidecarError(f"missing sidecar {sidecar}")
    if raw.size % 2 != 0:
        raise ValueError(f"truncated payload {path}: odd float count {raw.size}")
    samples = raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
    with open(sidecar) as fh:
        meta = json.load(fh)
    annotations = tuple(
        PulseAnnotation(
            start_idx=entry["start_idx"],
            length=entry["len"],
            emitter=Emitter(entry["emitter"]),
            peak_amplitude=entry["peak_amplitude"],
        )
        for entry in meta["annotations"]
    )
    return SampleStream(
        samples=samples,
        sample_rate_hz=meta["sample_rate_hz"],
        annotations=annotations,
    )
