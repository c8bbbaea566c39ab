"""Minimal convolutional network engine with exact-gradient backpropagation.

Everything runs in float64 NCHW layout.  Convolutions are stride-1 and
zero-padded, lowered to matrix products with im2col; max pooling is 2x2
with deterministic first-maximum tie-breaking so training is bitwise
reproducible for a fixed BLAS thread count (GEMM results can differ in the
last bits between thread counts).  The classifier head is a two-way
softmax trained with cross-entropy under SGD with momentum and weight decay.

Four model variants share one conv stack (kernels 11, 5, 3, 3, 3 with a
ReLU after each conv and 2x2 max pools after convs 1, 2, 3 and 5):
S takes a 1x64x64 spectrogram, AP the 2x64x64 amplitude+phase stack, and
A / P a 1x32x32 reshape of the respective 1024-vector.  ``width_scale``
shrinks every conv width proportionally for CPU-friendly experiments.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .schema import check_types

CONV_WIDTHS = (32, 32, 64, 64, 64)
CONV_KERNELS = (11, 5, 3, 3, 3)
POOL_AFTER = (True, True, True, False, True)
DENSE_WIDTH = 128
N_CLASSES = 2

INPUT_SHAPES = {
    "S": (1, 64, 64),
    "AP": (2, 64, 64),
    "A": (1, 32, 32),
    "P": (1, 32, 32),
}

_MAGIC = b"RMONCNN1"
_VERSION = 1


class Conv2d:
    """Stride-1 zero-padded convolution lowered to one GEMM via im2col.

    Patch rows are gathered in NHWC order (contiguous innermost reads) and
    the large intermediates are kept as per-shape scratch buffers: this VM
    class pays heavy page-fault costs for fresh multi-hundred-MB
    allocations, so buffers are reused across iterations.  A layer is
    therefore not reentrant, matching the single-threaded training loop.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, pad: int, rng):
        std = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.w = rng.normal(0.0, std, (out_ch, in_ch, kernel, kernel))
        self.b = np.zeros(out_ch)
        self.kernel = kernel
        self.pad = pad
        self._scratch: dict = {}

    def spec(self) -> dict:
        out_ch, in_ch, k, _ = self.w.shape
        return {"kind": "conv", "in_ch": in_ch, "out_ch": out_ch, "kernel": k, "pad": self.pad}

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}

    def _buf(self, name: str, shape, mode: str = "empty") -> np.ndarray:
        """Per-shape scratch buffer; mode is 'empty', 'zeros' or 'zeros_once'."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape:
            buf = self._scratch[name] = (
                np.empty(shape) if mode == "empty" else np.zeros(shape)
            )
        elif mode == "zeros":
            buf.fill(0.0)
        return buf

    def _w2(self) -> np.ndarray:
        # (out, in, kh, kw) -> (kh*kw*in, out) matching the im2col patch-row order
        return np.ascontiguousarray(self.w.transpose(2, 3, 1, 0).reshape(-1, self.w.shape[0]))

    def _im2col(self, x: np.ndarray):
        n, c, h, w = x.shape
        k, pad = self.kernel, self.pad
        ho = h + 2 * pad - k + 1
        wo = w + 2 * pad - k + 1
        xp = self._buf("xpad", (n, h + 2 * pad, w + 2 * pad, c), mode="zeros_once")
        xp[:, pad : pad + h, pad : pad + w, :] = x.transpose(0, 2, 3, 1)
        s0, s1, s2, s3 = xp.strides
        view = np.lib.stride_tricks.as_strided(
            xp, (n, ho, wo, k, k, c), (s0, s1, s2, s1, s2, s3), writeable=False
        )
        cols = self._buf("cols", (n * ho * wo, k * k * c))
        np.copyto(cols.reshape(n, ho, wo, k, k, c), view)
        return cols, ho, wo

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n = x.shape[0]
        out_ch = self.w.shape[0]
        cols, ho, wo = self._im2col(x)
        out2 = self._buf("out2", (n * ho * wo, out_ch))
        np.matmul(cols, self._w2(), out=out2)
        out2 += self.b
        if train:
            self._xshape = x.shape
            self._hw = (ho, wo)
        return np.ascontiguousarray(
            out2.reshape(n, ho, wo, out_ch).transpose(0, 3, 1, 2)
        )

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, out_ch = dout.shape[:2]
        in_ch = self.w.shape[1]
        ho, wo = self._hw
        k, pad = self.kernel, self.pad
        h, w = self._xshape[2:]
        cols = self._scratch["cols"]
        d2 = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, out_ch)
        dw2 = cols.T @ d2  # (kh*kw*C, out)
        self._grads = {
            "w": np.ascontiguousarray(
                dw2.reshape(k, k, in_ch, out_ch).transpose(3, 2, 0, 1)
            ),
            "b": d2.sum(axis=0),
        }
        # transposed patch gradients: each (i, j) tap is a contiguous plane
        dcols_t = self._buf("dcols_t", (k * k * in_ch, n * ho * wo))
        np.matmul(self._w2(), d2.T, out=dcols_t)
        d6 = dcols_t.reshape(k, k, in_ch, n, ho, wo)
        dxp = self._buf("dxpad", (in_ch, n, h + 2 * pad, w + 2 * pad), mode="zeros")
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + ho, j : j + wo] += d6[i, j]
        dx = dxp[:, :, pad : pad + h, pad : pad + w]
        return np.ascontiguousarray(dx.transpose(1, 0, 2, 3))


class Relu:
    def spec(self) -> dict:
        return {"kind": "relu"}

    def params(self) -> dict:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask


class MaxPool2:
    """2x2 max pooling, stride 2; ties route the gradient to the first maximum."""

    def spec(self) -> dict:
        return {"kind": "maxpool"}

    def params(self) -> dict:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        xr = (
            x.reshape(n, c, h // 2, 2, w // 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h // 2, w // 2, 4)
        )
        idx = xr.argmax(axis=-1)
        out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        if train:
            self._idx = idx
            self._xshape = x.shape
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, ho, wo = dout.shape
        dxr = np.zeros((n, c, ho, wo, 4))
        np.put_along_axis(dxr, self._idx[..., None], dout[..., None], axis=-1)
        return (
            dxr.reshape(n, c, ho, wo, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(self._xshape)
        )


class Dense:
    """Fully connected layer; flattens whatever spatial input it receives."""

    def __init__(self, in_features: int, out_features: int, rng):
        std = np.sqrt(2.0 / in_features)
        self.w = rng.normal(0.0, std, (out_features, in_features))
        self.b = np.zeros(out_features)

    def spec(self) -> dict:
        out_f, in_f = self.w.shape
        return {"kind": "dense", "in_features": in_f, "out_features": out_f}

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x2 = x.reshape(x.shape[0], -1)
        if train:
            self._x2 = x2
            self._xshape = x.shape
        return x2 @ self.w.T + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self._grads = {"w": dout.T @ self._x2, "b": dout.sum(axis=0)}
        dx = dout @ self.w
        self._x2 = None
        return dx.reshape(self._xshape)


class Softmax:
    def spec(self) -> dict:
        return {"kind": "softmax"}

    def params(self) -> dict:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        if train:
            self._p = p
        return p

    def backward(self, dout: np.ndarray) -> np.ndarray:
        p = self._p
        return p * (dout - (dout * p).sum(axis=-1, keepdims=True))


_LAYER_KINDS = {"conv": Conv2d, "relu": Relu, "maxpool": MaxPool2, "dense": Dense, "softmax": Softmax}


@dataclass
class CnnModel:
    variant: str
    input_shape: tuple[int, int, int]
    width_scale: float
    layers: list

    def params(self) -> list[dict]:
        return [layer.params() for layer in self.layers]

    def num_params(self) -> int:
        return sum(p.size for d in self.params() for p in d.values())


def build_model(variant: str, width_scale: float = 1.0, seed=0) -> CnnModel:
    """Assemble an initialized classifier for one of the S/A/P/AP variants."""
    if variant not in INPUT_SHAPES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(INPUT_SHAPES)}")
    rng = np.random.default_rng(seed)
    in_ch, side, _ = INPUT_SHAPES[variant]
    layers: list = []
    ch = in_ch
    for width, kernel, pool in zip(CONV_WIDTHS, CONV_KERNELS, POOL_AFTER):
        out_ch = max(1, round(width * width_scale))
        layers.append(Conv2d(ch, out_ch, kernel, kernel // 2, rng))
        layers.append(Relu())
        if pool:
            layers.append(MaxPool2())
            side //= 2
        ch = out_ch
    layers.append(Dense(ch * side * side, DENSE_WIDTH, rng))
    layers.append(Relu())
    layers.append(Dense(DENSE_WIDTH, N_CLASSES, rng))
    layers.append(Softmax())
    return CnnModel(variant, INPUT_SHAPES[variant], width_scale, layers)


def _as_batch(model: CnnModel, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    if x.shape == tuple(model.input_shape):
        return x[None, ...], True
    if x.ndim == len(model.input_shape) + 1 and x.shape[1:] == tuple(model.input_shape):
        return x, False
    raise ValueError(f"input shape {x.shape} does not match model {model.input_shape}")


def forward(model: CnnModel, x: np.ndarray, train: bool = False) -> np.ndarray:
    """Class probabilities; index 0 is P(radar present)."""
    batch, single = _as_batch(model, x)
    out = batch
    for layer in model.layers:
        out = layer.forward(out, train=train)
    return out[0] if single else out


def backward(model: CnnModel, x: np.ndarray, label) -> tuple[list[dict], float]:
    """Mean cross-entropy loss over the batch and its gradient per parameter tensor."""
    batch, single = _as_batch(model, x)
    y = np.atleast_1d(np.asarray(label, dtype=np.intp))
    if y.shape != (batch.shape[0],):
        raise ValueError("labels must match the batch size")
    probs = forward(model, batch, train=True)
    n = batch.shape[0]
    p_true = probs[np.arange(n), y]
    loss = float(-np.mean(np.log(np.maximum(p_true, 1e-300))))
    # fused softmax + cross-entropy gradient
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if not isinstance(model.layers[-1], Softmax):
        raise ValueError("model must end with a softmax layer")
    d = dlogits
    for layer in reversed(model.layers[:-1]):
        d = layer.backward(d)
    grads = [getattr(layer, "_grads", {}) if layer.params() else {} for layer in model.layers]
    return grads, loss


@dataclass
class OptimizerState:
    """SGD with momentum, L2 weight decay, and a stepped learning-rate schedule."""

    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.001
    lr_drop_every: int = 5000
    lr_drop_factor: float = 10.0
    batch_size: int = 50
    total_iterations: int = 25000
    iteration: int = field(default=0, init=False)
    velocities: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        check_types(self)
        if min(self.base_lr, self.momentum, self.weight_decay) < 0:
            raise ValueError("base_lr, momentum and weight_decay must be non-negative")
        if self.lr_drop_every < 1 or self.batch_size < 1:
            raise ValueError("lr_drop_every and batch_size must be >= 1")
        if self.total_iterations < 0:
            raise ValueError("total_iterations must be >= 0")
        if self.lr_drop_factor <= 0:
            raise ValueError("lr_drop_factor must be positive")

    @property
    def learning_rate(self) -> float:
        return self.base_lr / self.lr_drop_factor ** (self.iteration // self.lr_drop_every)


def sgd_step(model: CnnModel, grads: list[dict], opt: OptimizerState) -> None:
    """v <- momentum*v - lr*(g + weight_decay*theta); theta <- theta + v."""
    lr = opt.learning_rate
    for li, (layer, layer_grads) in enumerate(zip(model.layers, grads)):
        params = layer.params()
        for name, g in layer_grads.items():
            p = params[name]
            v = opt.velocities.get((li, name))
            if v is None:
                v = opt.velocities[(li, name)] = np.zeros_like(p)
            v *= opt.momentum
            v -= lr * (g + opt.weight_decay * p)
            p += v
    opt.iteration += 1


def train(
    variant: str,
    dataset: tuple[np.ndarray, np.ndarray],
    opt_overrides: dict | None = None,
    seed=0,
    width_scale: float = 1.0,
):
    """Train a variant on (inputs, labels); returns the model and per-iteration losses.

    Deterministic given the seed, for a fixed BLAS thread count: parameter
    init and epoch shuffles derive from the seed, and every other step is
    sequential.  ``opt_overrides`` are ``OptimizerState`` keyword arguments.
    """
    x, y = dataset
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.intp)
    if x.ndim != 4 or x.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (N, C, H, W) array")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be one per example")
    opt = OptimizerState(**(opt_overrides or {}))
    model = build_model(variant, width_scale=width_scale, seed=seed)
    n = x.shape[0]
    batch = min(opt.batch_size, n)
    shuffle_rng = np.random.default_rng([seed, 1])
    order = shuffle_rng.permutation(n)
    pos = 0
    losses = []
    for _ in range(opt.total_iterations):
        if pos + batch > n:
            order = shuffle_rng.permutation(n)
            pos = 0
        idx = order[pos : pos + batch]
        pos += batch
        grads, loss = backward(model, x[idx].astype(np.float64), y[idx])
        sgd_step(model, grads, opt)
        losses.append(loss)
    return model, np.asarray(losses)


def _param_arrays(model: CnnModel):
    for layer in model.layers:
        for name in sorted(layer.params()):
            yield layer.params()[name]


def save_model(model: CnnModel, path) -> None:
    """Versioned binary container: JSON layer header + float64 parameter payload."""
    header = {
        "variant": model.variant,
        "input_shape": list(model.input_shape),
        "width_scale": model.width_scale,
        "layers": [layer.spec() for layer in model.layers],
    }
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(hb)))
        fh.write(hb)
        for arr in _param_arrays(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _layer_from_spec(spec: dict, rng):
    kind = spec["kind"]
    if kind == "conv":
        return Conv2d(spec["in_ch"], spec["out_ch"], spec["kernel"], spec["pad"], rng)
    if kind == "dense":
        return Dense(spec["in_features"], spec["out_features"], rng)
    if kind in ("relu", "maxpool", "softmax"):
        return _LAYER_KINDS[kind]()
    raise ValueError(f"unknown layer kind {kind!r}")


def load_model(path) -> CnnModel:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a model file")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        header = json.loads(fh.read(hlen))
        rng = np.random.default_rng(0)
        layers = [_layer_from_spec(spec, rng) for spec in header["layers"]]
        model = CnnModel(
            header["variant"],
            tuple(header["input_shape"]),
            header["width_scale"],
            layers,
        )
        for arr in _param_arrays(model):
            raw = fh.read(arr.size * 8)
            if len(raw) != arr.size * 8:
                raise ValueError(f"{path}: truncated parameter payload")
            arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    return model
