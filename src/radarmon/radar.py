"""Radar pulse train synthesis.

A pulse train is a sum of unit-envelope pulses placed every PRI, scaled by
the jittered pulse amplitude and rotated by the carrier misalignment:

    x[n] = sum_m A_m * p[n - toa_m] * exp(2j*pi*n*f_c/fs)

The pulse shape ``p`` carries the intra-pulse modulation (constant carrier,
linear frequency sweep, or Barker binary phase code).  Channel dispersion
is applied separately by the channel module so the annotations here remain
exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .iqcore import Emitter, PulseAnnotation, SampleStream

BARKER13 = (1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1)


@dataclass(frozen=True)
class Pc:
    """Constant-carrier pulse (no intra-pulse modulation)."""


@dataclass(frozen=True)
class Lfm:
    """Linear frequency sweep across ``f_e_hz``, centered on the carrier."""

    f_e_hz: float

    def __post_init__(self):
        if not self.f_e_hz > 0:
            raise ValueError("LFM frequency excursion must be positive")


@dataclass(frozen=True)
class BarkerPm:
    """Binary phase modulation over a +/-1 chip code (Barker-13 default)."""

    code: tuple[int, ...] = BARKER13

    def __post_init__(self):
        if not self.code:
            raise ValueError("Barker code must be non-empty")
        if any(c not in (-1, 1) for c in self.code):
            raise ValueError("Barker code entries must be +1 or -1")


Ipm = Pc | Lfm | BarkerPm


@dataclass(frozen=True)
class Jitter:
    """Per-pulse uniform perturbations: fractional amplitude, integer TOA samples."""

    amplitude_frac: float = 0.01
    toa_samples: int = 2


@dataclass(frozen=True)
class RadarParams:
    ipm: Ipm
    pw_s: float
    pri_s: float
    carrier_offset_hz: float = 0.0
    amplitude: float = 1.0
    jitter: Jitter = field(default_factory=Jitter)

    def __post_init__(self):
        if not 0 < self.pw_s < self.pri_s:
            raise ValueError("require 0 < pulse width < PRI")


def synth_pulse(ipm: Ipm, pw_s: float, fs_hz: float) -> np.ndarray:
    """Unit-amplitude complex baseband samples of a single pulse."""
    n = int(round(pw_s * fs_hz))
    if n < 2:
        raise ValueError(f"pulse width {pw_s} too short for sample rate {fs_hz}")
    match ipm:
        case Pc():
            return np.ones(n, dtype=np.complex128)
        case Lfm(f_e_hz=f_e):
            t = np.arange(n) / fs_hz
            # instantaneous frequency sweeps -f_e/2 -> +f_e/2 over the pulse
            phase = 2.0 * np.pi * (-0.5 * f_e * t + (f_e / (2.0 * pw_s)) * t * t)
            return np.exp(1j * phase)
        case BarkerPm(code=code):
            chips = np.asarray(code, dtype=np.float64)
            idx = (np.arange(n) * len(code)) // n
            return chips[idx].astype(np.complex128)
    raise TypeError(f"unknown IPM {ipm!r}")


def synth_pulse_train(
    params: RadarParams, duration_s: float, fs_hz: float, seed=0
) -> SampleStream:
    """Generate a radar stream of the given duration with per-pulse annotations."""
    if duration_s < params.pri_s:
        raise ValueError("duration must cover at least one PRI")
    rng = np.random.default_rng(seed)
    n_total = int(round(duration_s * fs_hz))
    pulse = synth_pulse(params.ipm, params.pw_s, fs_hz)
    n_pulse = pulse.size
    out = np.zeros(n_total, dtype=np.complex128)
    annotations = []
    m = 0
    jit = params.jitter
    while True:
        toa = int(round(m * params.pri_s * fs_hz))
        if jit.toa_samples:
            toa += int(rng.integers(-jit.toa_samples, jit.toa_samples + 1))
        toa = max(toa, 0)
        if toa >= n_total:
            break
        amp = params.amplitude
        if jit.amplitude_frac:
            amp *= 1.0 + rng.uniform(-jit.amplitude_frac, jit.amplitude_frac)
        n_fit = min(n_pulse, n_total - toa)
        out[toa : toa + n_fit] += amp * pulse[:n_fit]
        annotations.append(PulseAnnotation(toa, n_fit, Emitter.RADAR))
        m += 1
    if params.carrier_offset_hz:
        if abs(params.carrier_offset_hz) >= fs_hz / 2:
            raise ValueError("carrier offset must be below Nyquist")
        n = np.arange(n_total)
        out *= np.exp(2j * np.pi * n * params.carrier_offset_hz / fs_hz)
    return SampleStream(
        samples=out, sample_rate_hz=fs_hz, annotations=tuple(annotations)
    )
