"""Signal representations fed to the classifiers.

Four views of a 1024-sample chunk: amplitude envelope, consecutive-sample
phase difference, a 64x64 log-magnitude spectrogram, and the stacked
amplitude+phase tensor.  All outputs are scale-normalized so absolute
receiver gain carries no information.

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


def dft_mag(chunk) -> np.ndarray:
    """Magnitude-squared DFT of the whole chunk, FFT-shifted."""
    return np.fft.fftshift(np.abs(np.fft.fft(_samples(chunk))) ** 2)


def ap_tensor(chunk) -> np.ndarray:
    """64x64x2 stacked representation: normalized amplitude and phase difference.

    Channel 0 is amplitude divided by its maximum (all zeros for a silent
    chunk); channel 1 maps phase difference (-pi, pi] onto (0, 1].  Each
    1024-vector is laid out row-major as 16 rows of 64 consecutive samples,
    every row replicated four times to fill the 64x64 plane, so
    :func:`ap_inverse` recovers the 1024x2 matrix exactly.
    """
    x = _samples(chunk)
    if x.size != CHUNK_LEN:
        raise ValueError(f"AP tensor requires a {CHUNK_LEN}-sample chunk, got {x.size} samples")
    amp = amplitude(x)
    peak = amp.max()
    ch0 = amp / peak if peak >= _MAG_EPS else np.zeros_like(amp)
    ch1 = (phase_diff(x) + np.pi) / (2.0 * np.pi)
    planes = [v.reshape(16, 64).repeat(4, axis=0) for v in (ch0, ch1)]
    return np.stack(planes, axis=-1)


def ap_inverse(tensor: np.ndarray) -> np.ndarray:
    """Recover the 1024x2 (amplitude, phase) matrix from an AP tensor."""
    if tensor.shape != (64, 64, 2):
        raise ValueError("expected a 64x64x2 AP tensor")
    return np.stack(
        [tensor[::4, :, c].reshape(1024) for c in range(2)], axis=-1
    )


def model_input(chunk, variant: str) -> np.ndarray:
    """Representation tensor in (channels, height, width) layout for a CNN variant.

    S: 1x64x64 spectrogram.  AP: 2x64x64 amplitude+phase stack.
    A / P: the normalized 1024-vector reshaped row-major to 1x32x32.
    """
    if variant == "S":
        return spectrogram(chunk)[None, :, :]
    if variant == "AP":
        return np.moveaxis(ap_tensor(chunk), 2, 0)
    if variant == "A":
        amp = amplitude(chunk)
        peak = amp.max()
        norm = amp / peak if peak >= _MAG_EPS else np.zeros_like(amp)
        return norm.reshape(1, 32, 32)
    if variant == "P":
        ch = (phase_diff(chunk) + np.pi) / (2.0 * np.pi)
        return ch.reshape(1, 32, 32)
    raise ValueError(f"unknown variant {variant!r}")


def export_matrix(matrix: np.ndarray, path) -> None:
    """Write a 1-D or 2-D representation as delimited text for plotting."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    np.savetxt(path, arr, fmt="%.9e", delimiter="\t")
