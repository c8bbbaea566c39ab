"""Signal representations fed to the classifiers.

``model_input(chunk, variant)`` is the one way to get a CNN variant's view
of a 1024-sample chunk, channel-first: a spectrogram (S), amplitude (A),
phase difference (P), or the two stacked (AP).  ``model_batch`` stacks
those views into the float32 (N, C, H, W) batch the engine takes.
Amplitude is divided by its per-chunk maximum, so absolute receiver gain
carries no information; phase difference (-pi, pi] maps onto (0, 1].

Spectrogram geometry: 64-point Hann-windowed STFT with hop 16 uses the full
chunk and yields 61 frames, zero-padded to 64 so the image is square.
Cells are 10*log10(|X|^2 + 1e-12), clipped to a 50 dB range below the
per-chunk maximum and mapped affinely onto [0, 1]; rows are FFT-shifted so
DC sits at row 32.  An all-zero chunk maps to an all-zero image rather
than dividing by a degenerate maximum.
"""

from __future__ import annotations

import numpy as np

from .iqcore import CHUNK_LEN

STFT_WINDOW = 64
STFT_HOP = 16
STFT_FRAMES = 64
DB_RANGE = 50.0
_DB_FLOOR = 1e-12
_MAG_EPS = 1e-12


def _samples(chunk) -> np.ndarray:
    x = getattr(chunk, "samples", chunk)
    return np.asarray(x, dtype=np.complex128)


def amplitude(chunk) -> np.ndarray:
    """Per-sample magnitude sqrt(re^2 + im^2)."""
    return np.abs(_samples(chunk))


def phase_diff(chunk) -> np.ndarray:
    """Angle of x[n] * conj(x[n-1]) in (-pi, pi]; index 0 is 0 by convention.

    Entries touching a (near-)zero-magnitude sample are 0.
    """
    x = _samples(chunk)
    out = np.zeros(x.size, dtype=np.float64)
    if x.size < 2:
        return out
    prod = x[1:] * np.conj(x[:-1])
    dphi = np.angle(prod)
    dphi = np.where(dphi <= -np.pi, dphi + 2.0 * np.pi, dphi)
    mag = np.abs(x)
    valid = (mag[1:] >= _MAG_EPS) & (mag[:-1] >= _MAG_EPS)
    out[1:] = np.where(valid, dphi, 0.0)
    return out


def spectrogram(chunk) -> np.ndarray:
    """64x64 normalized log-power STFT image (frequency x time)."""
    x = _samples(chunk)
    if x.size != CHUNK_LEN:
        raise ValueError(f"spectrogram requires a {CHUNK_LEN}-sample chunk, got {x.size} samples")
    window = np.hanning(STFT_WINDOW)
    n_frames = (x.size - STFT_WINDOW) // STFT_HOP + 1
    starts = np.arange(n_frames) * STFT_HOP
    segments = x[starts[:, None] + np.arange(STFT_WINDOW)] * window
    power = np.abs(np.fft.fft(segments, axis=1)) ** 2  # (frames, freq)
    if power.max() <= 0.0:
        return np.zeros((STFT_WINDOW, STFT_FRAMES))
    img = np.zeros((STFT_WINDOW, STFT_FRAMES))
    db = 10.0 * np.log10(power.T + _DB_FLOOR)
    top = db.max()
    img[:, :n_frames] = (np.clip(db, top - DB_RANGE, top) - (top - DB_RANGE)) / DB_RANGE
    return np.fft.fftshift(img, axes=0)


def _unit_amplitude(x) -> np.ndarray:
    """Amplitude divided by its maximum; all zeros for a silent chunk."""
    amp = amplitude(x)
    peak = amp.max()
    return amp / peak if peak >= _MAG_EPS else np.zeros_like(amp)


def _unit_phase(x) -> np.ndarray:
    """Phase difference (-pi, pi] mapped onto (0, 1]."""
    return (phase_diff(x) + np.pi) / (2.0 * np.pi)


def ap_tensor(chunk) -> np.ndarray:
    """2x64x64 channel-first stack: normalized amplitude, then mapped phase difference.

    Each 1024-vector is laid out row-major as 16 rows of 64 consecutive
    samples, every row repeated four times to fill its 64x64 plane, so
    ``ap_tensor(x)[c, ::4].ravel()`` is channel ``c``'s vector exactly.
    The NN engine relies on that exact x4 repetition, in float32 too: it
    runs the AP model's first convolution on the 16 source rows only.
    """
    x = _samples(chunk)
    if x.size != CHUNK_LEN:
        raise ValueError(f"AP tensor requires a {CHUNK_LEN}-sample chunk, got {x.size} samples")
    planes = [unit(x).reshape(16, 64).repeat(4, axis=0) for unit in (_unit_amplitude, _unit_phase)]
    return np.stack(planes)


def model_input(chunk, variant: str) -> np.ndarray:
    """A CNN variant's view of a chunk, in (channels, height, width) layout.

    S: 1x64x64 spectrogram.  AP: the 2x64x64 ``ap_tensor``.
    A / P: the normalized 1024-vector reshaped row-major to 1x32x32.
    """
    if variant == "S":
        return spectrogram(chunk)[None, :, :]
    if variant == "AP":
        return ap_tensor(chunk)
    if variant == "A":
        return _unit_amplitude(chunk).reshape(1, 32, 32)
    if variant == "P":
        return _unit_phase(chunk).reshape(1, 32, 32)
    raise ValueError(f"unknown variant {variant!r}")


def model_batch(chunks, variant: str) -> np.ndarray:
    """The float32 (N, C, H, W) stack of ``model_input`` over ``chunks``."""
    return np.stack([model_input(c, variant) for c in chunks], dtype=np.float32)


def export_matrix(matrix: np.ndarray, path) -> None:
    """Write a 2-D representation as tab-delimited text for plotting."""
    np.savetxt(path, matrix, fmt="%.9e", delimiter="\t")
