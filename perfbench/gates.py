"""Correctness gates applied to the outputs of every timed operation.

Each gate returns a list of problems; an empty list means the output
passed.  A problem makes the run incorrect and its items count as failed.
"""

from __future__ import annotations

import numpy as np

# Batched and single-chunk inference run the same arithmetic in a different
# GEMM blocking; 1e-5 absolute on a probability admits float32 engines and
# still catches a batch that is misordered or mixed up.
PROB_TOL = 1e-5


def check_chunk(loaded, expected) -> list[str]:
    """A chunk read back from disk against the one synthesized for its index.

    Samples are stored as complex64, so they must equal the reference
    rounded to complex64; mask, label and provenance must match exactly.
    """
    problems = []
    want = np.asarray(expected.samples).astype(np.complex64).astype(np.complex128)
    got = np.asarray(loaded.samples)
    if got.shape != want.shape or not np.array_equal(got, want):
        problems.append("samples differ from the synthesized chunk")
    if not np.array_equal(np.asarray(loaded.radar_mask), np.asarray(expected.radar_mask)):
        problems.append("radar mask differs")
    if loaded.label != expected.label:
        problems.append(f"label {loaded.label} != {expected.label}")
    if loaded.provenance != expected.provenance:
        problems.append(f"provenance {loaded.provenance!r} != {expected.provenance!r}")
    return problems


def check_manifest(manifest, per_class: int) -> list[str]:
    """Entry count is 2 * per_class and labels alternate 0, 1, 0, ..."""
    problems = []
    if len(manifest.entries) != 2 * per_class:
        problems.append(f"{manifest.split}: {len(manifest.entries)} entries, expected {2 * per_class}")
    bad = [i for i, e in enumerate(manifest.entries) if e.label != i % 2]
    if bad:
        problems.append(f"{manifest.split}: labels do not alternate at entries {bad[:5]}")
    return problems


def check_training(losses, model) -> list[str]:
    """All losses and all parameters are finite."""
    problems = []
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0 or not np.all(np.isfinite(losses)):
        problems.append("non-finite or missing training loss")
    for li, params in enumerate(model.params()):
        for name, p in params.items():
            if not np.all(np.isfinite(p)):
                problems.append(f"layer {li} parameter {name} is not finite")
    return problems


def check_report(report, n: int) -> list[str]:
    """Confusion matrix sums to n; P(radar) is finite and within [0, 1]."""
    problems = []
    if int(np.asarray(report.confusion).sum()) != n:
        problems.append(f"confusion sums to {int(np.asarray(report.confusion).sum())}, expected {n}")
    p = np.asarray(report.probs_class0)
    if p.shape != (n,) or not np.all((p >= 0.0) & (p <= 1.0)):
        problems.append("probabilities missing or outside [0, 1]")
    return problems


def check_curves(curves, psnr_sets) -> list[str]:
    """Every PSNR set appears once, with n equal to its size and Pd in [0, 1]."""
    problems = []
    want = sorted((s.waveform, len(s.chunks)) for s in psnr_sets)
    got = sorted((c.waveform, p.n) for c in curves for p in c.points)
    if got != want:
        problems.append("Pd points do not match the PSNR sets one to one with their sizes")
    if any(not 0.0 <= p.pd <= 1.0 for c in curves for p in c.points):
        problems.append("Pd outside [0, 1]")
    return problems


def check_batched(batched, single, tol: float = PROB_TOL) -> list[str]:
    """Batched P(radar) against one nn.forward call per chunk."""
    batched = np.asarray(batched, dtype=np.float64)
    single = np.asarray(single, dtype=np.float64)
    if batched.shape != single.shape:
        return [f"batched shape {batched.shape} != per-chunk shape {single.shape}"]
    worst = float(np.max(np.abs(batched - single), initial=0.0))
    if not worst <= tol:
        return [f"batched and per-chunk probabilities differ by {worst:.3g} > {tol:g}"]
    return []
