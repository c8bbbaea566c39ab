"""Model scoring: an accuracy report, detection-probability curves, and their CSV files."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .dataset import DatasetManifest, PsnrSet, load_chunk
from .represent import model_batch


@dataclass(frozen=True)
class EvalReport:
    variant: str
    accuracy: float
    confusion: np.ndarray  # [true, predicted] counts
    probs_class0: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if int(self.confusion.sum()) != self.labels.size:
            raise ValueError("confusion counts must sum to dataset size")


@dataclass(frozen=True)
class PdPoint:
    psnr_db: float
    pd: float
    n: int


@dataclass(frozen=True)
class PdCurve:
    model_tag: str
    waveform: str
    points: tuple[PdPoint, ...]

    def __post_init__(self):
        psnrs = [p.psnr_db for p in self.points]
        if psnrs != sorted(psnrs):
            raise ValueError("curve points must be sorted by PSNR")


_BATCH = 200  # chunks per forward; bounds memory whatever the number scored


def _probs_class0(model: nn.CnnModel, chunks) -> np.ndarray:
    """P(radar) per chunk, from the model's own representation in ``_BATCH``-chunk batches."""
    probs = []
    for lo in range(0, len(chunks), _BATCH):
        x = model_batch(chunks[lo : lo + _BATCH], model.variant)
        probs.append(nn.forward(model, x, fused=True)[:, 0])
    return np.concatenate(probs) if probs else np.zeros(0)


def evaluate(model: nn.CnnModel, chunks, labels, threshold: float = 0.5) -> EvalReport:
    """Accuracy and confusion over labeled chunks; decisions by P(radar) >= threshold."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size == 0:
        raise ValueError("evaluation requires a non-empty dataset")
    if len(chunks) != labels.size:
        raise ValueError(f"{len(chunks)} chunks but {labels.size} labels")
    if not np.isin(labels, (0, 1)).all():
        bad = sorted(set(labels.tolist()) - {0, 1})
        raise ValueError(f"labels must be 0 (radar) or 1 (no radar), got {bad}")
    p0 = _probs_class0(model, chunks)
    decisions = ~(p0 >= threshold)  # 1: no radar, NaN included
    confusion = np.bincount(2 * labels + decisions, minlength=4).reshape(2, 2)
    return EvalReport(
        variant=model.variant,
        accuracy=float(np.trace(confusion) / labels.size),
        confusion=confusion,
        probs_class0=p0,
        labels=labels,
    )


def evaluate_manifest(model: nn.CnnModel, manifest: DatasetManifest, root,
                      threshold: float = 0.5) -> EvalReport:
    chunks = [load_chunk(root, e) for e in manifest.entries]
    labels = [e.label for e in manifest.entries]
    return evaluate(model, chunks, labels, threshold)


def pd_curve(model: nn.CnnModel, psnr_sets: list[PsnrSet],
             threshold: float = 0.5) -> list[PdCurve]:
    """Detection probability per PSNR set, one curve per waveform, tagged by the model variant.

    Every set's chunks are scored in one pass, whose batches run across set
    boundaries; a set's Pd is the mean of its slice of the decisions.  A
    chunk's P(radar) may differ in its last float32 bits from the one it
    gets in another batch, as batch shape moves BLAS summation order.
    """
    hits = _probs_class0(model, [c for pset in psnr_sets for c in pset.chunks]) >= threshold
    ends = np.cumsum([len(pset.chunks) for pset in psnr_sets], dtype=np.intp)
    by_waveform: dict[str, list[PdPoint]] = {}
    for pset, set_hits in zip(psnr_sets, np.split(hits, ends[:-1])):
        by_waveform.setdefault(pset.waveform, []).append(
            PdPoint(pset.measured_psnr_db, float(np.mean(set_hits)), set_hits.size)
        )
    return [
        PdCurve(model.variant, waveform, tuple(sorted(points, key=lambda p: p.psnr_db)))
        for waveform, points in sorted(by_waveform.items())
    ]


def emit_curves(report: EvalReport | None, curves: list[PdCurve], out_dir) -> list[Path]:
    """Write ``reports.csv`` and one ``pd_<model>_<waveform>.csv`` per curve under ``out_dir``.

    ``reports.csv`` holds a header and, given a report, its one row.  Output
    is deterministic: stable ordering, 6-decimal formatting.
    """
    tables = {"reports.csv": ["model,accuracy,n,c00,c01,c10,c11"]}
    if report is not None:
        c = report.confusion
        tables["reports.csv"].append(
            f"{report.variant},{report.accuracy:.6f},{report.labels.size},"
            f"{c[0, 0]},{c[0, 1]},{c[1, 0]},{c[1, 1]}"
        )
    for curve in sorted(curves, key=lambda c: (c.model_tag, c.waveform)):
        tables[f"pd_{curve.model_tag}_{curve.waveform}.csv"] = [
            "psnr_db,pd,n", *(f"{p.psnr_db:.6f},{p.pd:.6f},{p.n}" for p in curve.points)
        ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in tables.items():
        (out_dir / name).write_text("\n".join(lines) + "\n")
    return [out_dir / name for name in tables]
