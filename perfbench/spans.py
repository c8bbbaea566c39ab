"""In-memory span tracer and the per-layer metrics derived from its spans.

The benchmark records spans from its own side of the call boundary: while
an ``Instrumentation`` is active, every public radarmon function listed in
``TRACED_FUNCTIONS`` and every layer object's ``forward``/``backward`` is
replaced by a wrapper that opens a span around the original call.  Nothing
under ``src/`` is edited; the originals are restored on exit.

The workload runs in one thread, so spans nest strictly: a span's children
are disjoint sub-intervals of it, and its self time is its duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import weakref
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in the same list, -1 for a root

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Keeps spans and computed per-call quantities ("notes") in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[str, list[float]] = {}
        self.enabled = True
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def note(self, name: str, value: float) -> None:
        if self.enabled:
            self.notes.setdefault(name, []).append(float(value))

    @contextlib.contextmanager
    def paused(self):
        """Run gates and side passes without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def take(self) -> tuple[list[Span], dict[str, list[float]]]:
        """Return everything recorded so far and start empty."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = (self.spans, self.notes)
        self.spans, self.notes = [], {}
        return out


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.duration_ns
    return [span.duration_ns - c for span, c in zip(spans, child_ns)]


# Percentile levels in tenths of a percent, highest first.
_TAIL_LEVELS = (999, 990, 950, 900, 750, 500)


def tail(samples) -> tuple[float, float]:
    """(level, value) of the highest percentile with at least ten samples beyond it.

    With fewer than twenty samples no level qualifies; the maximum is
    returned with level 100.
    """
    n = len(samples)
    for level in _TAIL_LEVELS:
        if n * (1000 - level) >= 10 * 1000:
            return level / 10, float(np.percentile(samples, level / 10))
    return 100.0, float(max(samples))


# ---------------------------------------------------------------------------
# Instrumentation

# (module, function) pairs wrapped in every radarmon namespace that binds them.
TRACED_FUNCTIONS = (
    ("iqcore", "read_iq_file"),
    ("iqcore", "write_iq_file"),
    ("radar", "synth_pulse_train"),
    ("emitters", "synth_wlan"),
    ("emitters", "synth_lte"),
    ("channel", "mix"),
    ("channel", "apply_multipath"),
    ("dataset", "synth_entry_chunk"),
    ("dataset", "build_dataset"),
    ("dataset", "load_chunk"),
    ("dataset", "build_psnr_sets"),
    ("represent", "spectrogram"),
    ("represent", "ap_tensor"),
    ("represent", "model_input"),
    ("nn", "forward"),
    ("nn", "backward"),
    ("nn", "sgd_step"),
    ("nn", "build_model"),
    ("nn", "load_model"),
    ("evaluate", "evaluate_manifest"),
    ("evaluate", "pd_curve"),
)

_LAYER_PREFIX = {"conv": "conv", "maxpool": "pool", "dense": "dense"}


def _file_bytes(path) -> int:
    # payload plus the JSON sidecar iqcore documents at "<path>.json"
    total = 0
    for p in (str(path), str(path) + ".json"):
        with contextlib.suppress(OSError):
            total += os.stat(p).st_size
    return total


class Instrumentation:
    """Context manager that routes radarmon calls through a tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for mod_name, fn_name in TRACED_FUNCTIONS:
            module = sys.modules.get(f"radarmon.{mod_name}")
            orig = getattr(module, fn_name, None)
            if orig is not None:
                self._rebind(orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        return self

    def __exit__(self, *exc):
        for module, name, orig in reversed(self._undo):
            setattr(module, name, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "radarmon" and not mod_name.startswith("radarmon."):
                continue
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, orig))

    def _wrap(self, span_name: str, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(span_name, fn, *args, **kwargs)
            if span_name == "iqcore.write_iq_file":
                tracer.note("iqcore.bytes_written", _file_bytes(args[1]))
            elif span_name == "dataset.build_psnr_sets":
                waveforms, targets, per_set = args[:3]
                tracer.note("dataset.build_psnr_sets.chunks", len(waveforms) * len(targets) * per_set)
            elif span_name in ("nn.build_model", "nn.load_model"):
                self.wrap_layers(result)
            return result

        return traced

    def wrap_layers(self, model) -> None:
        """Give each layer object span-recording forward/backward methods."""
        counts: dict[str, int] = {}
        for layer in model.layers:
            kind = layer.spec()["kind"]
            if kind == "relu":
                name = "relu"
            elif kind in _LAYER_PREFIX:
                counts[kind] = counts.get(kind, 0) + 1
                name = f"{_LAYER_PREFIX[kind]}{counts[kind]}"
            else:
                continue
            layer.forward = self._layer_method(f"nn.{name}.fwd", layer, "forward", kind == "conv")
            layer.backward = self._layer_method(f"nn.{name}.bwd", layer, "backward", False)

    def _layer_method(self, span_name: str, layer, method: str, conv: bool):
        # The wrapper is stored on the layer, so it must reach the layer only
        # through a weak reference: a reference cycle would keep every model,
        # with its scratch buffers of up to GBs, alive until a cyclic GC pass.
        tracer = self.tracer
        fn = getattr(type(layer), method)
        ref = weakref.ref(layer)

        def traced(x, *args, **kwargs):
            out = tracer.call(span_name, fn, ref(), x, *args, **kwargs)
            if conv:
                _note_conv_shapes(tracer, span_name[: -len(".fwd")], ref().spec(), x, out)
            return out

        return traced


def _note_conv_shapes(tracer: Tracer, prefix: str, spec: dict, x, out) -> None:
    """GEMM GFLOP and im2col bytes of one conv forward, computed from shapes.

    The im2col matrix has one row per output pixel and kernel*kernel*in_ch
    columns; the GEMM multiplies it by the (columns x out_ch) weights.
    """
    rows = out.size // spec["out_ch"]
    cols = spec["kernel"] ** 2 * spec["in_ch"]
    tracer.note(f"{prefix}.gemm_gflop", 2.0 * rows * cols * spec["out_ch"] / 1e9)
    tracer.note(f"{prefix}.im2col_mb", rows * cols * out.dtype.itemsize / 2**20)


# ---------------------------------------------------------------------------
# Per-layer metrics

# Every layer runs once per nn.forward or nn.backward call (the ReLUs are
# summed per call), so the call counts of the nn layer metrics are
# nn.forward.n and nn.backward.self_ms.n rather than one count each.
NN_LAYERS = ("conv1", "conv2", "conv3", "conv4", "conv5",
             "pool1", "pool2", "pool3", "pool4", "dense1", "dense2", "relu")

_SCALE = {"ms": 1e-6, "us": 1e-3}

# (metric, span, statistic, unit, with call count).  "dur" is a span's
# duration, "self" its self time, "per_parent" the durations summed per
# enclosing span (all ReLU layers of one forward or backward pass).
TIMED = (
    *(
        (f"nn.{layer}.{d}_ms", f"nn.{layer}.{d}", "per_parent" if layer == "relu" else "dur", "ms", False)
        for layer in NN_LAYERS
        for d in ("fwd", "bwd")
    ),
    ("nn.backward.self_ms", "nn.backward", "self", "ms", True),
    ("nn.sgd_step.ms", "nn.sgd_step", "dur", "ms", True),
    ("represent.spectrogram.us", "represent.spectrogram", "dur", "us", True),
    ("represent.ap_tensor.us", "represent.ap_tensor", "dur", "us", True),
    ("represent.model_input.us", "represent.model_input", "dur", "us", True),
    ("dataset.load_chunk.ms", "dataset.load_chunk", "dur", "ms", True),
    ("iqcore.read_iq_file.ms", "iqcore.read_iq_file", "dur", "ms", True),
    ("dataset.synth_entry_chunk.self_ms", "dataset.synth_entry_chunk", "self", "ms", True),
    ("radar.synth_pulse_train.ms", "radar.synth_pulse_train", "dur", "ms", True),
    ("emitters.synth_wlan.ms", "emitters.synth_wlan", "dur", "ms", True),
    ("emitters.synth_lte.ms", "emitters.synth_lte", "dur", "ms", True),
    ("channel.mix.ms", "channel.mix", "dur", "ms", True),
    ("channel.apply_multipath.ms", "channel.apply_multipath", "dur", "ms", True),
    ("iqcore.write_iq_file.ms", "iqcore.write_iq_file", "dur", "ms", True),
    ("evaluate.evaluate_manifest.self_ms", "evaluate.evaluate_manifest", "self", "ms", True),
    ("evaluate.pd_curve.self_ms", "evaluate.pd_curve", "self", "ms", True),
)

# Quantities computed from array shapes rather than timed; they repeat exactly.
COMPUTED = tuple(
    (f"nn.conv{i}.{what}", unit) for i in range(1, 6)
    for what, unit in (("gemm_gflop", "GFLOP"), ("im2col_mb", "MiB"))
)

OTHER = (
    ("nn.forward.n", "count"),
    ("nn.forward.peak_alloc_mb", "MiB"),
    ("iqcore.files_written", "count"),
    ("iqcore.bytes_written", "bytes"),
    ("dataset.build_psnr_sets.ms_per_chunk", "ms/chunk"),
    ("evaluate.batches", "count"),
    ("trace.norm_items_per_s", "1/s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for metric, _, _, unit, with_n in TIMED:
        units[metric] = unit
        units[f"{metric}.tail"] = unit
        if with_n:
            units[f"{metric}.n"] = "count"
    units.update(COMPUTED)
    units.update(OTHER)
    return units


def _samples(spans: list[Span], selfs: list[int], span_name: str, stat: str) -> list[int]:
    idx = [i for i, s in enumerate(spans) if s.name == span_name]
    if stat == "self":
        return [selfs[i] for i in idx]
    if stat == "per_parent":
        summed: dict[int, int] = {}
        for i in idx:
            summed[spans[i].parent] = summed.get(spans[i].parent, 0) + spans[i].duration_ns
        return list(summed.values())
    return [spans[i].duration_ns for i in idx]


def _ancestor(spans: list[Span], i: int, name: str) -> int:
    """Index of the nearest enclosing span called name, or -1."""
    p = spans[i].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def _per_call(spans: list[Span], outer: str, inner: str, weights=None) -> float | None:
    """Median over the outer spans of the inner spans (or their weights) each encloses."""
    totals = {i: 0.0 for i, s in enumerate(spans) if s.name == outer}
    inner_idx = [i for i, s in enumerate(spans) if s.name == inner]
    for k, i in enumerate(inner_idx):
        a = _ancestor(spans, i, outer)
        if a >= 0:
            totals[a] += 1 if weights is None else weights[k]
    return float(np.median(list(totals.values()))) if totals else None


def layer_metrics(spans: list[Span], notes: dict[str, list[float]]) -> tuple[dict, dict]:
    """Per-layer metrics present in one span set, and the tail level of each timed one.

    A metric whose layer was never called is left out, so that a caller can
    fill it from another span set.
    """
    selfs = self_times_ns(spans)
    values: dict[str, float] = {}
    levels: dict[str, float] = {}
    for metric, span_name, stat, unit, with_n in TIMED:
        samples = _samples(spans, selfs, span_name, stat)
        if not samples:
            continue
        scaled = [s * _SCALE[unit] for s in samples]
        level, value = tail(scaled)
        values[metric] = float(np.median(scaled))
        values[f"{metric}.tail"] = value
        levels[metric] = level
        if with_n:
            values[f"{metric}.n"] = len(samples)
    for metric, _ in COMPUTED:
        if notes.get(metric):
            values[metric] = max(notes[metric])  # at the largest forward batch
    forwards = [i for i, s in enumerate(spans) if s.name == "nn.forward"]
    if forwards:
        values["nn.forward.n"] = len(forwards)
    if notes.get("nn.forward.peak_alloc_mb"):
        values["nn.forward.peak_alloc_mb"] = notes["nn.forward.peak_alloc_mb"][-1]
    # Counts per operation, so that they repeat exactly at a fixed seed: files
    # and bytes of one build_dataset call, forward batches of one
    # evaluate_manifest call plus one pd_curve call.
    files = _per_call(spans, "dataset.build_dataset", "iqcore.write_iq_file")
    if files is not None:
        values["iqcore.files_written"] = files
        values["iqcore.bytes_written"] = _per_call(
            spans, "dataset.build_dataset", "iqcore.write_iq_file", notes["iqcore.bytes_written"])
    psnr_ns = [s.duration_ns for s in spans if s.name == "dataset.build_psnr_sets"]
    if psnr_ns:
        values["dataset.build_psnr_sets.ms_per_chunk"] = (
            sum(psnr_ns) * 1e-6 / sum(notes["dataset.build_psnr_sets.chunks"])
        )
    batches = [_per_call(spans, f"evaluate.{fn}", "nn.forward") for fn in ("evaluate_manifest", "pd_curve")]
    if any(b is not None for b in batches):
        values["evaluate.batches"] = sum(b for b in batches if b is not None)
    return values, levels
