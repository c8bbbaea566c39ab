"""Model scoring: accuracy reports, detection-probability curves, curve export."""

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
    p0 = _probs_class0(model, chunks)
    decisions = np.where(p0 >= threshold, 0, 1)
    confusion = np.zeros((2, 2), dtype=np.int64)
    for t, d in zip(labels, decisions):
        confusion[t, d] += 1
    accuracy = float(np.trace(confusion) / labels.size)
    return EvalReport(
        variant=model.variant,
        accuracy=accuracy,
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
    """Detection probability per PSNR set, one curve per waveform, tagged by the model variant."""
    by_waveform: dict[str, list[PdPoint]] = {}
    for pset in psnr_sets:
        p0 = _probs_class0(model, pset.chunks)
        pd = float(np.mean(p0 >= threshold))
        by_waveform.setdefault(pset.waveform, []).append(
            PdPoint(pset.measured_psnr_db, pd, len(pset.chunks))
        )
    return [
        PdCurve(model.variant, waveform, tuple(sorted(points, key=lambda p: p.psnr_db)))
        for waveform, points in sorted(by_waveform.items())
    ]


def emit_curves(reports: list[EvalReport], curves: list[PdCurve], out_dir) -> list[Path]:
    """Write one delimited table per curve plus accuracy and comparison tables.

    Output is deterministic: stable ordering, 6-decimal formatting.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    path = out_dir / "reports.csv"
    lines = ["model,accuracy,n,c00,c01,c10,c11"]
    for rep in sorted(reports, key=lambda r: r.variant):
        c = rep.confusion
        lines.append(
            f"{rep.variant},{rep.accuracy:.6f},{rep.labels.size},"
            f"{c[0, 0]},{c[0, 1]},{c[1, 0]},{c[1, 1]}"
        )
    path.write_text("\n".join(lines) + "\n")
    written.append(path)

    for curve in sorted(curves, key=lambda c: (c.model_tag, c.waveform)):
        path = out_dir / f"pd_{curve.model_tag}_{curve.waveform}.csv"
        lines = ["psnr_db,pd,n"]
        lines += [f"{p.psnr_db:.6f},{p.pd:.6f},{p.n}" for p in curve.points]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    path = out_dir / "comparison.csv"
    tags = sorted({c.model_tag for c in curves})
    lines = [",".join(["waveform", "psnr_db", *(f"pd_{t}" for t in tags), "n"])]
    by_key: dict[str, dict[str, PdCurve]] = {}
    for curve in curves:
        by_key.setdefault(curve.waveform, {})[curve.model_tag] = curve
    for waveform in sorted(by_key):
        group = by_key[waveform]
        n_points = max(len(c.points) for c in group.values())
        for i in range(n_points):
            row = None
            cells = []
            for tag in tags:
                curve = group.get(tag)
                if curve is not None and i < len(curve.points):
                    row = curve.points[i]
                    cells.append(f"{row.pd:.6f}")
                else:
                    cells.append("")
            lines.append(
                f"{waveform},{row.psnr_db:.6f}," + ",".join(cells) + f",{row.n}"
            )
    path.write_text("\n".join(lines) + "\n")
    written.append(path)
    return written
