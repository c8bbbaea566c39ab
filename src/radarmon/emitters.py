"""Synthetic stand-ins for the coexisting secondary-user signals.

These generators are statistical emulations, not standards-compliant PHYs:
they reproduce the time/frequency/phase statistics that distinguish WLAN
bursts and LTE downlink from radar pulses (burst durations, envelope
constancy, bandwidth occupancy, reference-signal spikes), which is what the
classifier consumes.  Frames are not decodable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iqcore import Emitter, PulseAnnotation, SampleStream

_EPS = 1e-300


@dataclass(frozen=True)
class WlanParams:
    bandwidth_hz: float = 16.6e6
    burst_len_s: tuple[float, float] = (100e-6, 1e-3)
    idle_len_s: tuple[float, float] = (50e-6, 500e-6)
    center_offsets_hz: tuple[float, ...] = (0.0,)
    power: float = 1.0

    def __post_init__(self):
        if self.burst_len_s[0] <= 66e-6:
            raise ValueError("burst_len_s: WLAN bursts must be longer than 66 us")
        (burst_lo, burst_hi), (idle_lo, idle_hi) = self.burst_len_s, self.idle_len_s
        if burst_lo > burst_hi or not 0 <= idle_lo <= idle_hi:
            raise ValueError("burst_len_s and idle_len_s must be ordered (lo, hi) ranges >= 0")
        if not self.center_offsets_hz:
            raise ValueError("center_offsets_hz must not be empty")
        if self.power < 0:
            raise ValueError("power must be >= 0")


LTE_SYMBOL_S = 66.7e-6  # OFDM symbol length of the LTE numerology, not a tunable


@dataclass(frozen=True)
class LteParams:
    bandwidth_hz: float = 10e6
    load: float = 0.5
    power: float = 1.0

    def __post_init__(self):
        if not 1.4e6 <= self.bandwidth_hz <= 20e6:
            raise ValueError("bandwidth_hz must be within [1.4e6, 20e6] Hz for LTE")
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must be within [0, 1]")
        if self.power < 0:
            raise ValueError("power must be >= 0")


def _ofdm_noise(rng, n: int, bandwidth_hz: float, fs_hz: float, block: int = 64) -> np.ndarray:
    """Unit-power pseudo-noise from random QPSK subcarriers, cyclically assembled."""
    n_blocks = -(-n // block)
    freqs = np.fft.fftfreq(block, 1.0 / fs_hz)
    active = np.abs(freqs) <= bandwidth_hz / 2.0
    active[0] = True  # keep DC so very narrow bands still emit
    n_active = int(active.sum())
    symbols = (
        rng.integers(0, 2, (n_blocks, n_active)) * 2 - 1
        + 1j * (rng.integers(0, 2, (n_blocks, n_active)) * 2 - 1)
    ) / np.sqrt(2.0)
    spec = np.zeros((n_blocks, block), dtype=np.complex128)
    spec[:, active] = symbols
    x = np.fft.ifft(spec, axis=1).ravel()[:n]
    rms = np.sqrt(np.mean(np.abs(x) ** 2))
    return x / max(rms, _EPS)


def _limit_envelope(x: np.ndarray, lo: float = 0.7, hi: float = 1.5) -> np.ndarray:
    """Confine the envelope to [lo, hi] x RMS and renormalize to unit power."""
    rms = np.sqrt(np.mean(np.abs(x) ** 2))
    amp = np.abs(x)
    target = np.clip(amp, lo * rms, hi * rms)
    y = x * (target / np.maximum(amp, _EPS))
    return y / np.sqrt(np.mean(np.abs(y) ** 2))


def synth_wlan(params: WlanParams, duration_s: float, fs_hz: float, seed=0) -> SampleStream:
    """Bursty WLAN-like stream: idle gaps alternating with near-constant-envelope bursts."""
    if duration_s <= params.burst_len_s[0]:
        raise ValueError("duration must exceed the minimum burst length")
    rng = np.random.default_rng(seed)
    n_total = int(round(duration_s * fs_hz))
    out = np.zeros(n_total, dtype=np.complex128)
    annotations = []
    amp = np.sqrt(params.power)
    pos = 0
    while pos < n_total:
        idle = int(round(rng.uniform(*params.idle_len_s) * fs_hz))
        pos += idle
        if pos >= n_total:
            break
        n_burst = int(round(rng.uniform(*params.burst_len_s) * fs_hz))
        n_burst = min(n_burst, n_total - pos)
        if n_burst < 2:
            break
        burst = _limit_envelope(_ofdm_noise(rng, n_burst, params.bandwidth_hz, fs_hz))
        offset = rng.choice(params.center_offsets_hz)
        if offset:
            burst = burst * np.exp(2j * np.pi * np.arange(n_burst) * offset / fs_hz)
        burst = amp * burst
        out[pos : pos + n_burst] = burst
        if params.power > 0:
            annotations.append(PulseAnnotation(pos, n_burst, Emitter.WLAN))
        pos += n_burst
    return SampleStream(samples=out, sample_rate_hz=fs_hz, annotations=tuple(annotations))


def _lte_symbol(rng, n_sym: int, bandwidth_hz: float, fs_hz: float) -> np.ndarray:
    """One unit-power full-band OFDM-style symbol, edge-tapered against leakage."""
    freqs = np.fft.fftfreq(n_sym, 1.0 / fs_hz)
    active = np.abs(freqs) <= 0.45 * bandwidth_hz
    active[0] = True
    spec = np.zeros(n_sym, dtype=np.complex128)
    n_active = int(active.sum())
    spec[active] = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
    x = np.fft.ifft(spec)
    ramp = min(32, n_sym // 4)
    if ramp:
        edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        x[:ramp] *= edge
        x[-ramp:] *= edge[::-1]
    rms = np.sqrt(np.mean(np.abs(x) ** 2))
    return x / max(rms, _EPS)


_REFERENCE_BURST_S = 6e-6  # well under one OFDM symbol
_IDLE_SYMBOL_LEVEL = 0.05  # residual amplitude of an unloaded symbol


def synth_lte(params: LteParams, duration_s: float, fs_hz: float, seed=0) -> SampleStream:
    """Continuous LTE-like downlink: loaded symbols carry full-band pseudo-data,
    unloaded symbols carry only sparse wideband reference bursts."""
    n_sym = int(round(LTE_SYMBOL_S * fs_hz))
    if duration_s < LTE_SYMBOL_S:
        raise ValueError("duration must cover at least one symbol")
    rng = np.random.default_rng(seed)
    n_total = int(round(duration_s * fs_hz))
    out = np.zeros(n_total, dtype=np.complex128)
    annotations = []
    amp = np.sqrt(params.power)
    n_ref = max(2, int(round(_REFERENCE_BURST_S * fs_hz)))
    pos = 0
    while pos < n_total:
        n_fit = min(n_sym, n_total - pos)
        if n_fit < 2:
            break
        loaded = rng.uniform() < params.load
        if loaded:
            sym = _lte_symbol(rng, n_fit, params.bandwidth_hz, fs_hz)
            out[pos : pos + n_fit] = amp * sym
            if params.power > 0:
                annotations.append(PulseAnnotation(pos, n_fit, Emitter.LTE))
        else:
            sym = _IDLE_SYMBOL_LEVEL * _lte_symbol(rng, n_fit, params.bandwidth_hz, fs_hz)
            if n_fit > n_ref:
                start = int(rng.integers(0, n_fit - n_ref))
                burst = _lte_symbol(rng, n_ref, params.bandwidth_hz, fs_hz)
                sym[start : start + n_ref] += burst
                if params.power > 0:
                    annotations.append(PulseAnnotation(pos + start, n_ref, Emitter.LTE))
            out[pos : pos + n_fit] = amp * sym
        pos += n_fit
    return SampleStream(samples=out, sample_rate_hz=fs_hz, annotations=tuple(annotations))


def synth_noise(duration_s: float, fs_hz: float, power: float, seed=0) -> SampleStream:
    """Circular complex Gaussian noise with per-sample variance ``power``."""
    if power < 0:
        raise ValueError("power must be >= 0")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs_hz))
    scale = np.sqrt(power / 2.0)
    samples = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return SampleStream(samples=samples, sample_rate_hz=fs_hz, annotations=())
