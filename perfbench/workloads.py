"""The benchmark workloads and the layer sweep of traced runs.

Each workload has the same life cycle, driven by ``run.py``:

* ``setup()`` builds the inputs from the seed; it is timed as ``setup_s``.
  It is deterministic, so repeating it between operations changes nothing.
* ``op(kind)`` runs one measured operation of one of the workload's
  ``KINDS`` and returns (items, seconds, output); ``seconds`` covers only
  the radarmon calls the throughput is about.  The kinds run in the order
  of ``SCHEDULE``, repeated.
* ``check(kind, output)`` applies the correctness gates to that output.
* ``finish()`` runs the gates that need the whole run, the quality record
  and the tracemalloc pass behind ``retained_mb``: the MiB still allocated
  after the operation returns, with its result kept alive.
* ``peak_alloc()`` (traced runs) measures one nn.forward under tracemalloc.

All radarmon calls go through module attributes so that a traced run can
wrap them (see ``spans.Instrumentation``).
"""

from __future__ import annotations

import gc
import importlib
import os
import shutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gates
from radarmon import dataset, nn, represent

# radarmon/__init__.py rebinds the name `radarmon.evaluate` to the evaluate()
# function, shadowing the submodule (which is also why the seed's
# `radarmon eval` command fails).  Take the module from the import system.
evaluate = importlib.import_module("radarmon.evaluate")


@dataclass(frozen=True)
class Sizes:
    setup_reps: int          # setups per untraced run, spread over it; setup_s is their median
    train_per_class: int     # train_AP dataset
    test_per_class: int
    train_steps: int         # SGD steps per timed nn.train call
    quality_steps: int       # SGD steps of the untimed training behind the quality record
    eval_per_class: int      # eval_S test manifest; 200 chunks fill one evaluate batch
    psnr_targets_db: tuple[float, ...]
    psnr_per_set: int
    sweep_per_class: int     # layer sweep of traced runs
    sweep_steps: int


SIZES = {
    "full": Sizes(
        setup_reps=13,
        train_per_class=100, test_per_class=50, train_steps=1, quality_steps=2,
        eval_per_class=100, psnr_targets_db=(10.0, 15.0, 20.0), psnr_per_set=16,
        sweep_per_class=25, sweep_steps=2,
    ),
    # a seconds-long run of every code path, for the benchmark's self-tests
    "tiny": Sizes(
        setup_reps=2,
        train_per_class=5, test_per_class=3, train_steps=1, quality_steps=2,
        eval_per_class=4, psnr_targets_db=(15.0,), psnr_per_set=2,
        sweep_per_class=5, sweep_steps=1,
    ),
}

MiB = 2**20


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def tree_mb(root: Path) -> float:
    """Apparent size in MiB of every file under root."""
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.stat(os.path.join(dirpath, f)).st_size for f in files)
    return total / MiB


def read_back(root: Path, manifests) -> list:
    """Every chunk of the manifests via load_chunk."""
    return [dataset.load_chunk(root, e) for m in manifests for e in m.entries]


def labels_of(manifest) -> np.ndarray:
    return np.array([e.label for e in manifest.entries], dtype=np.intp)


def traced_memory_mb(fn):
    """MiB still allocated after fn() returns, while its result is alive, and that result."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = fn()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return retained / MiB, kept


def forward_peak_alloc_mb(variant: str, x: np.ndarray, train: bool, seed: int) -> float:
    """tracemalloc peak of one nn.forward on a freshly built model."""
    model = nn.build_model(variant, seed=seed)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nn.forward(model, x, train=train)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / MiB


class Workload:
    name = ""
    KINDS: tuple[str, ...] = ()
    SCHEDULE: tuple[str, ...] = ()  # every kind at least once

    def __init__(self, work: Path, seed: int, size: Sizes):
        self.work = work
        self.seed = seed
        self.size = size
        self.root = work / "data"
        self.disk_mb = 0.0
        self.retained_mb = 0.0

    def sizes(self) -> dict:
        raise NotImplementedError

    def peak_alloc(self) -> float | None:
        return None


class TrainAP(Workload):
    """nn.train("AP") at batch 50 and full width on a dataset read back from disk."""

    name = "train_AP"
    KINDS = SCHEDULE = ("train",)

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        self.cfg = dataset.ScenarioConfig(
            train_per_class=size.train_per_class, test_per_class=size.test_per_class, seed=seed
        )

    def sizes(self):
        return {"train_chunks": 2 * self.size.train_per_class, "test_chunks": 2 * self.size.test_per_class,
                "steps_per_call": self.size.train_steps, "quality_steps": self.size.quality_steps,
                "batch": self.batch, "width_scale": 1.0}

    @property
    def batch(self) -> int:
        return min(nn.OptimizerState().batch_size, 2 * self.size.train_per_class)

    def setup(self):
        self.built = dataset.build_dataset(self.cfg, fresh_dir(self.root))
        built = self.built
        self.disk_mb = tree_mb(self.root)
        chunks = self.chunks = read_back(self.root, (built.train, built.test))
        x = np.stack([represent.model_input(c, "AP") for c in chunks])
        n_train = len(built.train.entries)
        self.x, self.y = x[:n_train], labels_of(built.train)
        self.x_test, self.y_test = x[n_train:], labels_of(built.test)

    def _train(self, steps: int):
        return nn.train("AP", (self.x, self.y), {"total_iterations": steps}, seed=self.seed)

    def op(self, kind):
        t0 = time.perf_counter()
        output = self._train(self.size.train_steps)
        return self.size.train_steps * self.batch, time.perf_counter() - t0, output

    def check(self, kind, output):
        model, losses = output
        return gates.check_training(losses, model)

    def check_dataset(self) -> list[str]:
        """Every chunk read back in setup against the one synthesized for its index."""
        problems = []
        expected = []
        for manifest, per_class in zip((self.built.train, self.built.test),
                                       (self.size.train_per_class, self.size.test_per_class)):
            problems += gates.check_manifest(manifest, per_class)
            expected += [dataset.synth_entry_chunk(self.cfg, manifest.split, i, i % 2)[0]
                         for i in range(2 * per_class)]
        if len(self.chunks) != len(expected):
            return problems + [f"read back {len(self.chunks)} chunks, expected {len(expected)}"]
        for i, (got, want) in enumerate(zip(self.chunks, expected)):
            problems += [f"chunk {i}: {p}" for p in gates.check_chunk(got, want)]
        return problems

    def finish(self):
        """The dataset gate, then the quality record of an untimed training.

        The training runs quality_steps steps under tracemalloc, which gives
        retained_mb.
        """
        problems = self.check_dataset()
        self.retained_mb, (model, losses) = traced_memory_mb(lambda: self._train(self.size.quality_steps))
        problems += gates.check_training(losses, model)
        p0 = np.concatenate([
            nn.forward(model, self.x_test[lo : lo + self.batch])[:, 0]
            for lo in range(0, len(self.x_test), self.batch)
        ])
        decisions = np.where(p0 >= 0.5, 0, 1)
        tail = losses[len(losses) // 2 :]
        # Informational: repeats exactly at a fixed seed and BLAS thread count.
        quality = {
            "steps": len(losses),
            "losses": [float(v) for v in losses],
            "tail_loss": float(np.mean(tail)),
            "heldout_accuracy": float(np.mean(decisions == self.y_test)),
            "heldout_chunks": int(len(self.y_test)),
        }
        failed = self.size.quality_steps * self.batch if problems else 0
        return failed, problems, {"quality": quality}

    def peak_alloc(self):
        return forward_peak_alloc_mb("AP", self.x[: self.batch], True, self.seed)


class EvalS(Workload):
    """evaluate_manifest and pd_curve with an S model loaded from disk.

    The kinds are the manifest, scored by a freshly loaded model, then
    pd_curve over the PSNR sets of one waveform at a time with that model.
    """

    name = "eval_S"
    KINDS = ("manifest", *(w.name for w in dataset.TABLE_WAVEFORMS))
    # The manifest op takes about six times as long as a pd_curve op and its
    # rescaled time is the least steady, so it runs twice per round: its
    # median then rests on about ten ops of a run instead of six.
    SCHEDULE = ("manifest", *KINDS[1:3], "manifest", *KINDS[3:])

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        self.cfg = dataset.ScenarioConfig(train_per_class=1, test_per_class=size.eval_per_class, seed=seed)
        self.first_probs: np.ndarray | None = None

    def sizes(self):
        return {"test_chunks": 2 * self.size.eval_per_class,
                "psnr_sets": len(dataset.TABLE_WAVEFORMS) * len(self.size.psnr_targets_db),
                "psnr_targets_db": list(self.size.psnr_targets_db),
                "chunks_per_psnr_set": self.size.psnr_per_set, "width_scale": 1.0}

    def setup(self):
        self.manifest = dataset.build_dataset(self.cfg, fresh_dir(self.root)).test
        self.disk_mb = tree_mb(self.root)
        chunks = read_back(self.root, (self.manifest,))
        self.x_single = [represent.model_input(c, "S") for c in chunks]
        psnr_sets = dataset.build_psnr_sets(
            dataset.TABLE_WAVEFORMS, self.size.psnr_targets_db, self.size.psnr_per_set, self.seed
        )
        self.psnr_sets = {k: [s for s in psnr_sets if s.waveform == k] for k in self.KINDS[1:]}
        self.model_path = self.root / "model_S.bin"
        nn.save_model(nn.build_model("S", seed=self.seed), self.model_path)

    def op(self, kind):
        if kind == "manifest":
            self.model = nn.load_model(self.model_path)
            t0 = time.perf_counter()
            report = evaluate.evaluate_manifest(self.model, self.manifest, self.root)
            return len(self.manifest.entries), time.perf_counter() - t0, report
        sets = self.psnr_sets[kind]
        t0 = time.perf_counter()
        curves = evaluate.pd_curve(self.model, sets)
        return sum(len(s.chunks) for s in sets), time.perf_counter() - t0, curves

    def check(self, kind, output):
        if kind != "manifest":
            return gates.check_curves(output, self.psnr_sets[kind])
        if self.first_probs is None:
            self.first_probs = np.asarray(output.probs_class0)
        return gates.check_report(output, len(self.manifest.entries))

    def finish(self):
        """Batched manifest probabilities against one nn.forward call per chunk.

        retained_mb is measured after evaluate_manifest, whose 200-chunk
        batch sets the scratch size; pd_curve's smaller batches would
        replace those buffers, so the pass stops before it.
        """
        self.model = None  # it may hold the scratch of a 200-chunk batch
        model = nn.load_model(self.model_path)
        single = [float(nn.forward(model, x)[0]) for x in self.x_single]
        problems = gates.check_batched(self.first_probs, single)
        failed = len(single) if problems else 0

        def run():
            model = nn.load_model(self.model_path)
            return model, evaluate.evaluate_manifest(model, self.manifest, self.root)

        self.retained_mb, _ = traced_memory_mb(run)
        return failed, problems, {"batched_vs_single_tol": gates.PROB_TOL}

    def peak_alloc(self):
        batch = np.stack(self.x_single[:200])
        return forward_peak_alloc_mb("S", batch, False, self.seed)


WORKLOADS = {w.name: w for w in (TrainAP, EvalS)}


# Traced runs report every per-layer metric on every workload.  A layer the
# workload never calls (nn in build, backward in eval_S, spectrogram in
# train_AP, ...) takes its numbers from a fixed small sweep instead, in two
# parts traced separately so that each metric has one meaning: nn layers
# from AP training at batch 50, evaluate and the S representation from an
# S model scoring a small manifest and one PSNR set per waveform.


def sweep_train(work: Path, seed: int, size: Sizes):
    """Build sweep_per_class chunks per class, read them back, nn.train("AP") at full width.

    Returns the dataset root, its test manifest and the AP training batch.
    """
    cfg = dataset.ScenarioConfig(
        train_per_class=size.sweep_per_class, test_per_class=max(1, size.sweep_per_class // 3), seed=seed
    )
    root = fresh_dir(work / "sweep")
    built = dataset.build_dataset(cfg, root)
    x = np.stack([represent.model_input(dataset.load_chunk(root, e), "AP") for e in built.train.entries])
    nn.train("AP", (x, labels_of(built.train)), {"total_iterations": size.sweep_steps}, seed=seed)
    return root, built.test, x[: min(nn.OptimizerState().batch_size, len(x))]


def sweep_eval(root: Path, manifest, seed: int, size: Sizes) -> None:
    """Score an S model on the sweep's test manifest and one PSNR set per waveform."""
    psnr_sets = dataset.build_psnr_sets(dataset.TABLE_WAVEFORMS, (15.0,), size.psnr_per_set, seed)
    model = nn.build_model("S", seed=seed)
    evaluate.evaluate_manifest(model, manifest, root)
    evaluate.pd_curve(model, psnr_sets)
