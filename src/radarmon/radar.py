"""Radar pulse train synthesis.

A pulse train is a sum of unit-envelope pulses placed every PRI, scaled by
the jittered pulse amplitude and rotated by the carrier misalignment:

    x[n] = sum_m A_m * p[n - toa_m] * exp(2j*pi*n*f_c/fs)

The pulse shape ``p`` carries the intra-pulse modulation (constant carrier,
linear frequency sweep, or Barker binary phase code).  Channel dispersion
is applied separately by the channel module so the annotations here remain
exact ground truth.

``pulse_schedule`` draws each pulse's TOA and amplitude from the train's
seed.  ``synth_pulse_train`` renders the whole stream from it, or only a
``span`` of it: a dataset chunk keeps 1,024 samples of a ~21,000-sample
train, and the span renders those bit for bit as the whole stream would.
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


def pulse_schedule(
    params: RadarParams, n_total: int, fs_hz: float, seed=0
) -> list[tuple[int, int, float]]:
    """(TOA, kept length, amplitude) of each pulse of an ``n_total``-sample train.

    Pulse ``m`` sits at ``m * PRI`` plus a uniform TOA jitter, clamped at 0,
    and its amplitude carries a uniform fractional jitter; both are drawn
    from ``default_rng(seed)``, TOA then amplitude, pulse by pulse.  The
    kept length is the pulse's sample count, cut at the stream end.
    """
    rng = np.random.default_rng(seed)
    n_pulse = int(round(params.pw_s * fs_hz))
    jit = params.jitter
    schedule = []
    m = 0
    while True:
        toa = int(round(m * params.pri_s * fs_hz))
        if jit.toa_samples:
            toa += int(rng.integers(-jit.toa_samples, jit.toa_samples + 1))
        toa = max(toa, 0)
        if toa >= n_total:
            return schedule
        amp = params.amplitude
        if jit.amplitude_frac:
            amp *= 1.0 + rng.uniform(-jit.amplitude_frac, jit.amplitude_frac)
        schedule.append((toa, min(n_pulse, n_total - toa), amp))
        m += 1


def synth_pulse_train(
    params: RadarParams, duration_s: float, fs_hz: float, seed=0,
    span: tuple[int, int] | None = None,
) -> SampleStream:
    """Generate a radar stream of the given duration with per-pulse annotations.

    With ``span=(lo, hi)`` only samples ``lo .. hi - 1`` of that stream are
    rendered, with annotations clipped to the span and re-based to ``lo``.
    The result equals ``stream_window(synth_pulse_train(...), lo, hi - lo)``
    bit for bit: every sample goes through the same elementwise operations,
    with the carrier rotation evaluated at the absolute sample index.
    """
    if duration_s < params.pri_s:
        raise ValueError("duration must cover at least one PRI")
    if abs(params.carrier_offset_hz) >= fs_hz / 2:
        raise ValueError("carrier offset must be below Nyquist")
    n_total = int(round(duration_s * fs_hz))
    lo, hi = (0, n_total) if span is None else span
    if not 0 <= lo < hi <= n_total:
        raise ValueError(f"span {span} must satisfy 0 <= lo < hi <= n_total = {n_total}")
    pulse = synth_pulse(params.ipm, params.pw_s, fs_hz)
    out = np.zeros(hi - lo, dtype=np.complex128)
    annotations = []
    for toa, n_fit, amp in pulse_schedule(params, n_total, fs_hz, seed):
        a, b = max(toa, lo), min(toa + n_fit, hi)
        if b > a:
            out[a - lo : b - lo] += amp * pulse[a - toa : b - toa]
            annotations.append(PulseAnnotation(a - lo, b - a, Emitter.RADAR))
    if params.carrier_offset_hz:
        n = np.arange(lo, hi)
        # With FMA a complex product's bits depend on the operand order, which
        # `*` and `*=` may swap (temporary reuse, one-element arrays); the
        # explicit call keeps (pulse, carrier) at every length.
        out = np.multiply(out, np.exp(2j * np.pi * n * params.carrier_offset_hz / fs_hz))
    return SampleStream(
        samples=out, sample_rate_hz=fs_hz, annotations=tuple(annotations)
    )
