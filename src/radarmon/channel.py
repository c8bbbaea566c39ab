"""Channel impairments: multipath dispersion, mixing with AWGN."""

from __future__ import annotations

import numpy as np

from .iqcore import Emitter, PulseAnnotation, SampleStream


def _merge_per_emitter(annotations) -> tuple[PulseAnnotation, ...]:
    """Sort by start index and merge same-emitter overlaps."""
    merged: list[PulseAnnotation] = []
    last: dict[Emitter, int] = {}
    for ann in sorted(annotations, key=lambda a: (a.start_idx, a.emitter.value)):
        idx = last.get(ann.emitter)
        if idx is not None and ann.start_idx < merged[idx].end_idx:
            prev = merged[idx]
            merged[idx] = PulseAnnotation(
                prev.start_idx, max(prev.end_idx, ann.end_idx) - prev.start_idx, prev.emitter
            )
        else:
            last[ann.emitter] = len(merged)
            merged.append(ann)
    return tuple(sorted(merged, key=lambda a: (a.start_idx, a.emitter.value)))


def apply_multipath(
    stream: SampleStream, taps: tuple[tuple[int, complex], ...]
) -> SampleStream:
    """Convolve with a sparse FIR; output truncated to the input length.

    Annotations are lengthened by the maximum tap delay (pulse dispersion).
    """
    if not taps or taps[0][0] != 0:
        raise ValueError("taps must start at delay 0")
    n = len(stream)
    max_delay = max(d for d, _ in taps)
    if max_delay >= n:
        raise ValueError("tap delay exceeds stream length")
    out = np.zeros(n, dtype=np.complex128)
    for delay, gain in taps:
        if delay:
            out[delay:] += gain * stream.samples[: n - delay]
        else:
            out += gain * stream.samples
    anns = [
        PulseAnnotation(a.start_idx, min(a.length + max_delay, n - a.start_idx), a.emitter)
        for a in stream.annotations
    ]
    return SampleStream(
        samples=out,
        sample_rate_hz=stream.sample_rate_hz,
        annotations=_merge_per_emitter(anns),
    )


def mix(streams: list[SampleStream], noise_power: float = 0.0, seed=0) -> SampleStream:
    """Sample-wise sum of aligned streams plus AWGN.

    The union of all input annotations is retained (same-emitter overlaps merged).
    """
    if not streams:
        raise ValueError("mix requires at least one stream")
    n = len(streams[0])
    fs = streams[0].sample_rate_hz
    for s in streams[1:]:
        if len(s) != n or s.sample_rate_hz != fs:
            raise ValueError("mixed streams must share length and sample rate")
    out = np.zeros(n, dtype=np.complex128)
    for s in streams:
        out += s.samples
    if noise_power > 0:
        rng = np.random.default_rng(seed)
        out += np.sqrt(noise_power / 2.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
    anns = [a for s in streams for a in s.annotations]
    return SampleStream(
        samples=out, sample_rate_hz=fs, annotations=_merge_per_emitter(anns)
    )
