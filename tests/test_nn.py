import copy
import functools
import math
import multiprocessing
import re
import tracemalloc
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from radarmon import dataset, nn, represent

# seeds verified to keep finite-difference checks clear of ReLU kinks and
# pool ties (see fd tests); perturbation-induced activation flips otherwise
# corrupt the numeric gradient
FD_SEEDS = {"S": 1, "AP": 2}


def ap_batch(n, seed=0, dtype=np.float32):
    """``represent.model_batch`` of n synthesized chunks, both classes: AP tensors whose rows repeat in fours."""
    cfg = dataset.ScenarioConfig(seed=seed)
    chunks = [dataset.synth_entry_chunk(cfg, "train", i, i % 2)[0] for i in range(n)]
    return represent.model_batch(chunks, "AP").astype(dtype, copy=False)


def blas_ready(a):
    """Whether ``np.matmul`` hands the matrix in ``a``'s last two axes to BLAS as it is.

    numpy does so only if one stride is the itemsize and the other a
    multiple of it that covers the matrix's extent along the first: a
    row-major matrix, or a column-major one (a transposed operand).  Else
    the result is the same, but numpy 2.4 first copies the operand (2x
    slower on S conv1's strips) and numpy 1.x runs its own loop.
    """
    *_, rows, cols = a.strides
    *_, m, n = a.shape
    return any(inner == a.itemsize and lead % a.itemsize == 0 and lead >= extent * a.itemsize
               for lead, inner, extent in ((rows, cols, n), (cols, rows, m)))


def model_loss(model, x, y):
    p = np.atleast_2d(nn.forward(model, x))
    yy = np.atleast_1d(y)
    return float(-np.mean(np.log(p[np.arange(len(yy)), yy])))


def fd_model_worst(model, x, y, samples_per_tensor=8, h=1e-5, pick_seed=5):
    """Max relative error between analytic and central-difference gradients."""
    grads, _ = nn.backward(model, x, y)
    rng = np.random.default_rng(pick_seed)
    worst = 0.0
    for layer, layer_grads in zip(model.layers, grads):
        for name, grad in layer_grads.items():
            p = layer.params()[name]
            flat_p, flat_g = p.ravel(), grad.ravel()
            if samples_per_tensor and flat_p.size > samples_per_tensor:
                idxs = rng.choice(flat_p.size, samples_per_tensor, replace=False)
            else:
                idxs = np.arange(flat_p.size)
            for i in idxs:
                orig = flat_p[i]
                flat_p[i] = orig + h
                lp = model_loss(model, x, y)
                flat_p[i] = orig - h
                lm = model_loss(model, x, y)
                flat_p[i] = orig
                num = (lp - lm) / (2 * h)
                worst = max(worst, abs(flat_g[i] - num) / max(abs(flat_g[i]), abs(num), 1e-6))
    return worst


def fd_layer_worst(layer, x, h=1e-5, seed=0):
    """Isolated layer check: loss = sum(C * layer(x)) for a fixed random C.

    Verifies the input gradient and (for parametric layers) every parameter
    gradient against central differences.
    """
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    c = rng.standard_normal(out.shape)
    dx = layer.backward(c)
    worst = 0.0

    def loss():
        return float(np.sum(c * layer.forward(x)))

    flat_x, flat_dx = x.ravel(), dx.ravel()
    for i in rng.choice(flat_x.size, min(24, flat_x.size), replace=False):
        orig = flat_x[i]
        flat_x[i] = orig + h
        lp = loss()
        flat_x[i] = orig - h
        lm = loss()
        flat_x[i] = orig
        num = (lp - lm) / (2 * h)
        worst = max(worst, abs(flat_dx[i] - num) / max(abs(flat_dx[i]), abs(num), 1e-6))

    grads = getattr(layer, "_grads", {})
    for name, grad in grads.items():
        p = layer.params()[name]
        flat_p, flat_g = p.ravel(), grad.ravel()
        for i in rng.choice(flat_p.size, min(24, flat_p.size), replace=False):
            orig = flat_p[i]
            flat_p[i] = orig + h
            lp = loss()
            flat_p[i] = orig - h
            lm = loss()
            flat_p[i] = orig
            num = (lp - lm) / (2 * h)
            worst = max(worst, abs(flat_g[i] - num) / max(abs(flat_g[i]), abs(num), 1e-6))
    return worst


class TestForward:
    def test_zeroed_model_outputs_half(self):
        model = nn.build_model("S", width_scale=1 / 16, seed=0)
        for layer in model.layers:
            for p in layer.params().values():
                p[...] = 0.0
        probs = nn.forward(model, np.zeros((1, 64, 64)))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_softmax_shift_invariance(self):
        soft = nn.Softmax()
        for z in (-100.0, 0.0, 3.7, 250.0):
            p = soft.forward(np.array([[z, z]]))
            np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-15)

    def test_probabilities_sum_to_one(self):
        model = nn.build_model("AP", width_scale=1 / 16, seed=2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 2, 64, 64))
        probs = nn.forward(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_shape_mismatch_rejected(self):
        model = nn.build_model("S", width_scale=1 / 16, seed=0)
        with pytest.raises(ValueError, match="shape"):
            nn.forward(model, np.zeros((2, 64, 64)))

    def test_hand_computed_toy_network(self):
        # 4x4 input, valid 3x3 conv, ReLU, dense to two logits, softmax;
        # intermediates worked out by hand with integer weights
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(1, 1, 3, 0, rng)
        conv.w[...] = np.array([[[[1, 0, -1], [0, 2, 0], [-1, 0, 1]]]], dtype=float)
        conv.b[...] = [1.0]
        dense = nn.Dense(4, 2, rng)
        dense.w[...] = np.array([[1, -1, 2, 0], [0, 1, -1, 1]], dtype=float)
        dense.b[...] = [0.0, 1.0]
        model = nn.CnnModel("toy", (1, 4, 4), 1.0, [conv, nn.Relu(), dense, nn.Softmax()])
        x = np.array([[[1, 2, 0, 1], [0, 1, 3, 1], [2, 0, 1, 0], [1, 1, 0, 2]]], dtype=float)

        conv_out = conv.forward(x[None])
        np.testing.assert_array_equal(conv_out.reshape(4), [3.0, 8.0, -3.0, 4.0])
        # ReLU -> [3, 8, 0, 4]; logits: [3-8+0+0, 8-0+4+1] = [-5, 13]
        probs = nn.forward(model, x)
        expected_p0 = math.exp(-18.0) / (1.0 + math.exp(-18.0))
        assert probs[0] == pytest.approx(expected_p0, rel=1e-12)
        assert probs[1] == pytest.approx(1.0 - expected_p0, rel=1e-12)


class TestConvOracle:
    def conv_oracle(self, x, w, b, pad):
        n, c, h, wd = x.shape
        o, _, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ho, wo = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
        out = np.zeros((n, o, ho, wo))
        for ni in range(n):
            for oi in range(o):
                for i in range(ho):
                    for j in range(wo):
                        acc = 0.0
                        for ci in range(c):
                            for ki in range(kh):
                                for kj in range(kw):
                                    acc += w[oi, ci, ki, kj] * xp[ni, ci, i + ki, j + kj]
                        out[ni, oi, i, j] = acc + b[oi]
        return out

    def test_exact_match_on_integer_tensors(self):
        # integer-valued tensors make every product and sum exact in float64,
        # so GEMM reassociation cannot change the result
        rng = np.random.default_rng(13)
        for _ in range(8):
            c, o = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            conv = nn.Conv2d(c, o, k, k // 2, rng)
            conv.w[...] = rng.integers(-8, 9, conv.w.shape)
            conv.b[...] = rng.integers(-8, 9, conv.b.shape)
            x = rng.integers(-8, 9, (2, c, 6, 7)).astype(float)
            got = conv.forward(x)
            want = self.conv_oracle(x, conv.w, conv.b, conv.pad)
            np.testing.assert_array_equal(got, want)

    def test_close_match_on_float_tensors(self):
        rng = np.random.default_rng(14)
        conv = nn.Conv2d(2, 3, 3, 1, rng)
        x = rng.standard_normal((2, 2, 8, 8))
        want = self.conv_oracle(x, conv.w, conv.b, conv.pad)
        np.testing.assert_allclose(conv.forward(x), want, rtol=1e-12, atol=1e-14)


class TestGradients:
    def test_conv_layer_finite_difference(self):
        rng = np.random.default_rng(21)
        layer = nn.Conv2d(2, 3, 3, 1, rng)
        x = rng.standard_normal((2, 2, 8, 8))
        assert fd_layer_worst(layer, x, seed=1) < 1e-6

    @pytest.mark.parametrize("in_ch,out_ch", [(2, 3), (1, 1)])
    @pytest.mark.parametrize("k,pad", [(3, 0), (3, 2), (5, 0), (5, 4)])
    def test_conv_finite_difference_at_extreme_pads(self, k, pad, in_ch, out_ch):
        rng = np.random.default_rng([k, pad, in_ch])
        layer = nn.Conv2d(in_ch, out_ch, k, pad, rng)
        layer.b[...] = rng.standard_normal(out_ch)
        x = rng.standard_normal((2, in_ch, 7, 8))
        assert fd_layer_worst(layer, x, seed=k + pad) < 1e-6

    @pytest.mark.parametrize("pad", [-1, 3, 4])
    def test_conv_rejects_pad_outside_kernel(self, pad):
        with pytest.raises(ValueError, match="pad"):
            nn.Conv2d(1, 1, 3, pad, np.random.default_rng(0))

    def test_dense_layer_finite_difference(self):
        rng = np.random.default_rng(22)
        layer = nn.Dense(12, 5, rng)
        x = rng.standard_normal((3, 12))
        assert fd_layer_worst(layer, x, seed=2) < 1e-6

    def test_relu_finite_difference_away_from_kinks(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(0.05, 1.0, (3, 4, 6, 6)) * rng.choice([-1.0, 1.0], (3, 4, 6, 6))
        assert fd_layer_worst(nn.Relu(), x, seed=3) < 1e-6

    def test_maxpool_finite_difference(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((3, 2, 8, 8))
        assert fd_layer_worst(nn.MaxPool2(), x, seed=4) < 1e-6

    @pytest.mark.parametrize("variant", ["S", "AP"])
    def test_full_model_finite_difference(self, variant):
        seed = FD_SEEDS[variant]
        model = nn.build_model(variant, width_scale=1 / 16, seed=seed)
        rng = np.random.default_rng([seed, 99])
        x = rng.standard_normal((2, *model.input_shape))
        y = np.array([0, 1])
        assert fd_model_worst(model, x, y) < 1e-4

    def test_ap_model_finite_difference_on_ap_tensors(self):
        # the rows of AP tensors repeat, so conv1 runs on its source rows
        model = nn.build_model("AP", width_scale=1 / 16, seed=FD_SEEDS["AP"])
        x = ap_batch(2, seed=4, dtype=np.float64)
        assert nn._row_repeat(x) == 4
        assert fd_model_worst(model, x, np.array([0, 1])) < 1e-4

    def test_saturated_output_layer_gradient_zero(self):
        rng = np.random.default_rng(26)
        dense = nn.Dense(3, 2, rng)
        dense.w[...] = 0.0
        dense.b[...] = [500.0, -500.0]  # probability of class 0 saturates at 1
        model = nn.CnnModel("toy", (3,), 1.0, [dense, nn.Softmax()])
        x = rng.standard_normal((4, 3))
        grads, loss = nn.backward(model, x, np.zeros(4, dtype=int))
        assert loss == 0.0
        np.testing.assert_allclose(grads[0]["w"], 0.0, atol=1e-200)
        np.testing.assert_allclose(grads[0]["b"], 0.0, atol=1e-200)

    def test_batch_gradient_is_mean_of_per_example(self):
        model = nn.build_model("S", width_scale=1 / 16, seed=4)
        rng = np.random.default_rng(27)
        x = rng.standard_normal((5, 1, 64, 64))
        y = rng.integers(0, 2, 5)
        batch_grads, batch_loss = nn.backward(model, x, y)
        acc = None
        losses = []
        for i in range(5):
            g, l = nn.backward(model, x[i : i + 1], y[i : i + 1])
            losses.append(l)
            if acc is None:
                acc = [{k: v.copy() for k, v in d.items()} for d in g]
            else:
                for d, di in zip(acc, g):
                    for k in d:
                        d[k] += di[k]
        assert batch_loss == pytest.approx(np.mean(losses), rel=1e-12)
        for bd, ad in zip(batch_grads, acc):
            for k in bd:
                np.testing.assert_allclose(bd[k], ad[k] / 5, rtol=1e-10, atol=1e-12)


def held_arrays(model):
    """Names of arrays a layer keeps besides its parameters and ``_grads``."""
    held = []
    for i, layer in enumerate(model.layers):
        params = [id(p) for p in layer.params().values()]
        for name, value in vars(layer).items():
            values = value.values() if isinstance(value, dict) and name != "_grads" else [value]
            if any(isinstance(v, np.ndarray) and id(v) not in params for v in values):
                held.append(f"{i}.{name}")
    return held


class TestFloat32:
    @pytest.mark.parametrize("variant", ["S", "AP"])
    def test_gradients_match_float64(self, variant):
        model = nn.build_model(variant, width_scale=1 / 16, seed=FD_SEEDS[variant])
        rng = np.random.default_rng([FD_SEEDS[variant], 7])
        x = rng.standard_normal((4, *model.input_shape))
        y = np.array([0, 1, 1, 0])
        g64, loss64 = nn.backward(model, x, y)
        g32, loss32 = nn.backward(model, x.astype(np.float32), y)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for d64, d32 in zip(g64, g32):
            for k in d64:
                assert d32[k].dtype == np.float32
                np.testing.assert_allclose(d32[k], d64[k], rtol=1e-3, atol=1e-6 * np.abs(d64[k]).max())

    @pytest.mark.parametrize("variant", ["S", "AP"])
    def test_forward_matches_float64(self, variant):
        model = nn.build_model(variant, width_scale=1 / 16, seed=3)
        x = np.random.default_rng(8).random((6, *model.input_shape))
        p32 = nn.forward(model, x.astype(np.float32))
        assert p32.dtype == np.float32
        np.testing.assert_allclose(p32, nn.forward(model, x), rtol=0, atol=1e-5)

    def test_parameters_stay_float64(self):
        x = np.random.default_rng(9).random((8, 1, 32, 32))
        model, _ = nn.train("A", (x, np.arange(8) % 2), {"total_iterations": 2, "batch_size": 4},
                            width_scale=0.1)
        assert all(p.dtype == np.float64 for d in model.params() for p in d.values())

    def test_underflowing_true_class_probability_gives_finite_loss(self):
        rng = np.random.default_rng(28)
        dense = nn.Dense(3, 2, rng)
        dense.w[...] = 0.0
        dense.b[...] = [0.0, -200.0]  # exp(-200) is 0 in float32
        model = nn.CnnModel("toy", (3,), 1.0, [dense, nn.Softmax()])
        x = rng.standard_normal((4, 3)).astype(np.float32)
        grads, loss = nn.backward(model, x, np.ones(4, dtype=int))
        assert loss == pytest.approx(-np.log(np.finfo(np.float32).tiny))
        assert all(np.all(np.isfinite(g)) for g in grads[0].values())


class TestMaxPool:
    def test_tie_sends_gradient_to_top_left(self):
        pool = nn.MaxPool2()
        x = np.full((1, 1, 2, 2), 3.0)
        np.testing.assert_array_equal(pool.forward(x, train=True), [[[[3.0]]]])
        dx = pool.backward(np.array([[[[5.0]]]]))
        np.testing.assert_array_equal(dx, [[[[5.0, 0.0], [0.0, 0.0]]]])

    def test_tie_among_later_window_elements_takes_the_first(self):
        pool = nn.MaxPool2()
        x = np.array([[[[0.0, 1.0], [2.0, 2.0]]]])
        pool.forward(x, train=True)
        np.testing.assert_array_equal(pool.backward(np.ones((1, 1, 1, 1))), [[[[0.0, 0.0], [1.0, 0.0]]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_code_is_the_first_maximum_on_ties(self, monkeypatch, dtype):
        rng = np.random.default_rng(17)
        x = rng.integers(-2, 3, (12, 3, 8, 8)).astype(dtype)  # about one window in three ties for its max
        x[:, 1, :4] = 1.0  # all-equal windows
        x[5] = 0.0
        windows = np.stack([x[:, :, i::2, j::2] for i, j in nn._POOL_WINDOW])
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(nn, "_TILE_BYTES", 2 * x[:1].nbytes)  # blocks of 2 samples: each range runs several
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            pool = nn.MaxPool2()
            assert np.array_equal(pool.forward(x, train=True), windows.max(axis=0))
            assert np.array_equal(pool._code, np.argmax(windows, axis=0)), workers  # argmax takes the first

    @pytest.mark.parametrize("h,w", [(5, 4), (4, 5)])
    @pytest.mark.parametrize("fused", [True, False])  # the fused conv pass, then the pool layer
    def test_odd_size_is_rejected_not_floored(self, h, w, fused):
        rng = np.random.default_rng(29)
        dense = nn.Dense(3 * (h // 2) * (w // 2), 2, rng)
        layers = [nn.Conv2d(1, 3, 3, 1, rng), nn.Relu(), nn.MaxPool2(), dense, nn.Softmax()]
        model = nn.CnnModel("toy", (1, h, w), 1.0, layers)
        with pytest.raises(ValueError, match=re.escape(f"got shape (2, 3, {h}, {w})")):
            nn.forward(model, rng.standard_normal((2, 1, h, w)), fused=fused)


class TestRetainedMemory:
    def test_inference_keeps_no_arrays(self):
        model = nn.build_model("S", width_scale=1 / 16, seed=0)
        nn.forward(model, np.zeros((3, 1, 64, 64), dtype=np.float32))
        assert held_arrays(model) == []

    def test_training_keeps_only_parameters_and_gradients(self):
        x = np.random.default_rng(10).random((8, 2, 64, 64))
        model, _ = nn.train("AP", (x, np.arange(8) % 2), {"total_iterations": 2, "batch_size": 4},
                            width_scale=1 / 16)
        assert held_arrays(model) == []
        nn.forward(model, x[:2])
        assert held_arrays(model) == []


class TestTiling:
    @staticmethod
    def run(layer, x, dout):
        out = layer.forward(x, train=True)
        dx = layer.backward(dout)
        return [out, layer._grads["w"], layer._grads["b"], dx]

    @pytest.mark.parametrize("in_ch,r", [(1, 1), (2, 1), (2, 4)], ids=["1", "2", "2-rows-in-fours"])
    def test_split_batch_matches_one_tile(self, monkeypatch, in_ch, r):
        rng = np.random.default_rng(40 + in_ch)
        layer = nn.Conv2d(in_ch, 3, 3, 1, rng)
        layer.b[...] = rng.standard_normal(3)
        x = repeated_rows(rng, (5, in_ch, 8, 8), r)
        dout = rng.standard_normal((5, 3, 8, 8))
        monkeypatch.setattr(nn, "_TILE_BYTES", 2**40)
        whole = self.run(layer, x, dout)

        tiles = []

        def spy(gather):
            def tiles_of(xp, lo, hi, buf, *rest):
                for a, z, operand in gather(xp, lo, hi, buf, *rest):
                    tiles.append((gather.__name__, xp.shape[1 if rest[-1] else -1], a, z))  # a tap-major xp is NCHW
                    yield a, z, operand
            return tiles_of

        # room for the im2col rows of exactly two samples of the input's source rows
        monkeypatch.setattr(nn, "_TILE_BYTES", 2 * (8 // r) * 8 * 3 * 3 * in_ch * 8)
        for name in ("_strip_tiles", "_im2col_tiles"):
            monkeypatch.setattr(nn, name, spy(getattr(nn, name)))
        split = self.run(layer, x, dout)
        assert layer._repeat == r
        tiles.sort()  # workers gather their ranges concurrently

        def gathered(name, channels):
            return [t[2:] for t in tiles if t[:2] == (name, channels)]

        # the forward gathers strips and the weight gradient im2col rows, both
        # in tiles of 2, 2 and 1 samples; the input gradient gathers strips
        # over 3 channels, one sample at a time
        assert gathered("_strip_tiles", in_ch) == [(0, 2), (2, 4), (4, 5)]
        assert gathered("_im2col_tiles", in_ch) == [(0, 2), (2, 4), (4, 5)]
        assert gathered("_strip_tiles", 3) == [(i, i + 1) for i in range(5)]
        assert len(tiles) == 11
        for got, want in zip(split, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_oracle_exact_match_with_one_sample_tiles(self, monkeypatch):
        monkeypatch.setattr(nn, "_TILE_BYTES", 1)
        TestConvOracle().test_exact_match_on_integer_tensors()

    @pytest.mark.parametrize("variant", ["S", "AP", "A", "P"])
    @pytest.mark.parametrize("width", [1, 0.25])
    def test_every_strip_gemm_can_go_to_blas(self, monkeypatch, variant, width):
        strips, calls = [], []
        gather, matmul = nn._strip_tiles, np.matmul

        def gather_spy(*args):
            for a, z, operand in gather(*args):
                strips.append(operand)
                yield a, z, operand

        def matmul_spy(a, b, out):
            calls.append((a, b, out))
            return matmul(a, b, out=out)

        monkeypatch.setattr(nn, "_strip_tiles", gather_spy)
        monkeypatch.setattr(np, "matmul", matmul_spy)
        model = nn.build_model(variant, width_scale=width, seed=0)
        rng = np.random.default_rng(43)
        x = rng.random((2, *model.input_shape), dtype=np.float32)
        batches = [x, ap_batch(2)] if variant == "AP" else [x]  # AP tensors take conv1's row-phase path
        for x in batches:
            for layer, pooled in zip([l for l in model.layers if isinstance(l, nn.Conv2d)], nn.POOL_AFTER):
                y = layer.forward(x, pool_relu=pooled)
                out = layer.forward(x, train=True)
                layer.backward(rng.random(out.shape, dtype=np.float32))
                x = np.maximum(y, 0) if pooled else y
        assert len(strips) >= 3 * 5 * len(batches)  # every conv's fused and training forward, and its input gradient
        for operand in strips:
            [(a, b, out)] = [call for call in calls if operand is call[0] or operand is call[1]]
            assert blas_ready(operand) and blas_ready(out)

    @pytest.mark.parametrize("variant", ["S", "AP", "A", "P"])
    @pytest.mark.parametrize("width", [1, 0.25])
    def test_every_weight_gradient_is_one_blas_gemm_per_tile(self, monkeypatch, variant, width):
        tiles, calls = [], []
        gather, matmul = nn._im2col_tiles, np.matmul

        def gather_spy(xp, lo, hi, buf, *rest):
            for a, z, cols in gather(xp, lo, hi, buf, *rest):
                tiles.append((cols, buf))
                yield a, z, cols

        def matmul_spy(a, b, out):
            calls.append((a, b, out))
            return matmul(a, b, out=out)

        monkeypatch.setattr(nn, "_im2col_tiles", gather_spy)
        monkeypatch.setattr(np, "matmul", matmul_spy)
        model = nn.build_model(variant, width_scale=width, seed=0)
        rng = np.random.default_rng(44)
        # 5 samples: some convs end in a partial tile, AP conv1 at r = 4 among them
        x = rng.random((5, *model.input_shape), dtype=np.float32)
        batches = [x, ap_batch(5)] if variant == "AP" else [x]  # AP tensors take conv1's row-phase path
        for x in batches:
            for layer, pooled in zip([l for l in model.layers if isinstance(l, nn.Conv2d)], nn.POOL_AFTER):
                out = layer.forward(x, train=True)
                layer.backward(rng.random(out.shape, dtype=np.float32), need_dx=False)
                x = layer.forward(x, pool_relu=pooled) if pooled else np.maximum(out, 0)
        assert len(tiles) >= 5 * len(batches)
        for cols, buf in tiles:
            [gemm] = [call for call in calls if cols is call[0] or cols is call[1]]
            assert all(m.ndim == 2 and blas_ready(m) for m in gemm)
            assert np.shares_memory(cols, buf)  # the gather's own buffer, not a copy


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestConvMemory:
    def test_training_forward_keeps_only_the_padded_input(self):
        model = nn.build_model("AP", width_scale=1 / 16, seed=0)
        x = np.random.default_rng(11).random((3, 2, 64, 64), dtype=np.float32)
        nn.forward(model, x, train=True)
        convs = [i for i, layer in enumerate(model.layers) if isinstance(layer, nn.Conv2d)]
        assert [h for h in held_arrays(model) if int(h.split(".")[0]) in convs] == [f"{i}._xp" for i in convs]
        first = model.layers[0]
        assert first._xp.shape == (3, 64 + 2 * first.pad, 64 + 2 * first.pad, 2)

    def test_row_repeated_training_keeps_only_the_padded_source_rows(self):
        model = nn.build_model("AP", width_scale=1 / 16, seed=0)
        x = ap_batch(3)
        nn.forward(model, x, train=True)
        convs = [i for i, layer in enumerate(model.layers) if isinstance(layer, nn.Conv2d)]
        assert [h for h in held_arrays(model) if int(h.split(".")[0]) in convs] == [f"{i}._xp" for i in convs]
        first = model.layers[0]  # every fourth row, padded by ceil(5 / 4) rows and 5 columns
        assert first._xp.shape == (3, 2, 64 // 4 + 2 * 2, 64 + 2 * first.pad)
        nn.backward(model, x, np.arange(3) % 2)
        assert held_arrays(model) == []
        nn.forward(model, x)
        nn.forward(model, x, fused=True)
        assert held_arrays(model) == []

    def test_full_width_training_step_peak_on_ap_tensors(self):
        # 35 MiB when this bound was set: with the ReLU after the pool, no
        # two 25 MiB conv1-sized gradients are alive at once
        model = nn.build_model("AP", seed=0)
        x = ap_batch(50)
        assert traced_peak_mb(nn.backward, model, x, np.arange(50) % 2) < 45

    def test_full_width_ap_conv1_peaks_on_ap_tensors(self):
        # the 25 MiB output plus a few MiB of tiles per worker; a whole-batch
        # row-phase product or output-gradient buffer would add 25 MiB
        conv = nn.build_model("AP", seed=0).layers[0]
        assert traced_peak_mb(conv.forward, ap_batch(50), True) < 40
        dout = np.ones((50, 32, 64, 64), dtype=np.float32)
        assert traced_peak_mb(functools.partial(conv.backward, need_dx=False), dout) < 16

    def test_strip_buffers_per_worker(self, monkeypatch):
        # 0.82 MiB when this bound was set: a conv4 or conv5 tile of 14
        # samples' strips.  S conv1's strips are 0.2 MiB a sample against its
        # 1.9 MiB of im2col rows, and conv2's 0.7 against 3.1
        sizes = []
        tile_buffers = nn._tile_buffers

        def spy(*args, strips=False, **kwargs):
            ranges, bufs = tile_buffers(*args, strips=strips, **kwargs)
            if strips:
                sizes.append(max(buf.nbytes for buf in bufs) / 2**20)
            return ranges, bufs

        monkeypatch.setattr(nn, "_tile_buffers", spy)
        x = np.random.default_rng(15).random((200, 1, 64, 64), dtype=np.float32)
        model = nn.build_model("S", seed=0)
        nn.forward(model, x, fused=True)
        nn.backward(model, x[:50], np.arange(50) % 2)
        nn.backward(nn.build_model("AP", seed=0), ap_batch(50), np.arange(50) % 2)
        assert len(sizes) == 5 + 5 + 4 + 5 + 4  # passes: S fused, then per model 5 training forwards, 4 input gradients
        assert max(sizes) < 1

    def test_full_width_inference_peak(self):
        model = nn.build_model("S", seed=0)
        x = np.zeros((200, 1, 64, 64), dtype=np.float32)
        assert traced_peak_mb(nn.forward, model, x) < 300

    def test_full_width_training_step_peak(self):
        model = nn.build_model("AP", seed=0)
        x = np.random.default_rng(12).random((50, 2, 64, 64), dtype=np.float32)
        assert traced_peak_mb(nn.backward, model, x, np.arange(50) % 2) < 150

    def test_unfused_s_inference_peak(self):
        # the peak is conv1's 100 MiB output plus pool1's 25 MiB; the ReLU
        # after each pool allocates only its quarter-size output (126 MiB
        # when this bound was set)
        model = nn.build_model("S", seed=0)
        x = np.zeros((200, 1, 64, 64), dtype=np.float32)
        assert traced_peak_mb(nn.forward, model, x) < 150

    def test_fused_inference_peak(self):
        # each conv1 tile is pooled in cache, so only the 25 MiB pooled
        # output exists, not the 100 MiB full-resolution one
        model = nn.build_model("S", seed=0)
        x = np.zeros((200, 1, 64, 64), dtype=np.float32)
        assert traced_peak_mb(functools.partial(nn.forward, fused=True), model, x) < 90

    @pytest.mark.parametrize("fused, bound", [(False, 150), (True, 90)])
    def test_s_inference_peaks_without_repetition(self, fused, bound):
        # The three S tests above feed all-zero batches, whose rows repeat
        # (r = 64 at conv1, and every later conv sees a constant input too),
        # so they gate the row-phase path.  This gates the general path that
        # S spectrograms take with their bounds; 150 MiB implies the 300.
        x = np.random.default_rng(14).random((200, 1, 64, 64), dtype=np.float32)
        assert nn._row_repeat(x) == 1
        model = nn.build_model("S", seed=0)
        assert traced_peak_mb(functools.partial(nn.forward, fused=fused), model, x) < bound

    def test_forward_leaves_the_callers_batch_alone(self):
        rng = np.random.default_rng(13)
        relu_first = nn.CnnModel("toy", (3,), 1.0, [nn.Relu(), nn.Dense(3, 2, rng), nn.Softmax()])
        x = rng.standard_normal((4, 3))
        kept = x.copy()
        nn.forward(relu_first, x)
        np.testing.assert_array_equal(x, kept)


def _forward_into(conn, model, x):
    conn.send(nn.forward(model, x))
    conn.close()


class TestWorkers:
    """Samples split across worker threads give the results of one thread, bit for bit."""

    @staticmethod
    def outputs(variant, batch):
        rng = np.random.default_rng([batch, 31])
        model = nn.build_model(variant, width_scale=1 / 8, seed=batch)
        x = rng.standard_normal((batch, *model.input_shape)).astype(np.float32)
        y = np.arange(batch) % 2
        probs = nn.forward(model, x)
        grads, loss = nn.backward(model, x, y)
        trained, losses = nn.train(variant, (x, y), {"total_iterations": 2, "batch_size": batch},
                                   seed=batch, width_scale=1 / 8)
        arrays = [probs, np.float64(loss), losses]
        arrays += [g for d in grads for _, g in sorted(d.items())]
        arrays += [p for d in trained.params() for _, p in sorted(d.items())]
        return arrays

    @pytest.mark.parametrize("variant", ["S", "AP"])
    @pytest.mark.parametrize("batch", [1, 2, 5, 50])
    def test_bitwise_equal_at_any_worker_count(self, monkeypatch, variant, batch):
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)  # split every pass, however small
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            results[workers] = self.outputs(variant, batch)
        for workers in (2, 3):
            assert len(results[workers]) == len(results[1])
            for got, want in zip(results[workers], results[1]):
                assert np.array_equal(got, want)

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 2)
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)
        model = nn.build_model("S", width_scale=1 / 8, seed=0)
        x = np.random.default_rng(14).random((4, 1, 64, 64), dtype=np.float32)
        want = nn.forward(model, x)  # the parent's pool threads are running now
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forward_into, args=(send, model, x))
        child.start()
        send.close()
        try:
            got = recv.recv() if recv.poll(30) else None
        finally:
            child.join(30)
            alive = child.is_alive()
            if alive:
                child.kill()
                child.join(5)
        assert not alive, "forked child hung in nn.forward"
        assert got is not None and np.array_equal(got, want)

    def test_pool_threads_let_go_of_the_pass(self, monkeypatch):
        # A pool thread resolves its future a moment before it drops its
        # task.  Whatever a pass reaches must be freeable as soon as _run
        # returns all the same, or its buffers count as memory the engine keeps.
        kept = []

        class LingeringPool:
            def submit(self, fn, *args):
                kept.append((fn, args))
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(nn, "_WORKERS", 3)
        monkeypatch.setattr(nn, "_executor", lambda pid, threads: LingeringPool())
        out = np.zeros(3)

        def work(_, lo, hi):
            out[lo:hi] = 1.0

        gone = weakref.ref(work)
        nn._run(work, [(0, 1), (1, 2), (2, 3)])
        del work
        assert len(kept) == 2 and gone() is None
        assert out.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("env,cpus,workers", [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),
    ])
    def test_worker_count_fills_the_cpus_blas_leaves_idle(self, env, cpus, workers):
        assert nn._workers_for(env, cpus) == workers

    def test_split_gives_each_range_the_floor_of_work(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 3)
        floor = nn._MIN_RANGE_BYTES
        assert nn._split(10, floor // 10) == [(0, 10)]
        assert nn._split(10, floor // 4) == [(0, 5), (5, 10)]
        assert nn._split(10, floor, step=4) == [(0, 4), (4, 8), (8, 10)]  # whole tiles of 4

    @pytest.mark.parametrize("width,batch,dtype,ranges", [
        (1 / 16, 2, np.float64, 1),
        (1 / 8, 5, np.float32, 1),
        (1 / 4, 50, np.float32, 2),
    ])
    def test_conv_ranges_count_gemm_work(self, monkeypatch, width, batch, dtype, ranges):
        # AP conv1 gathers megabytes per sample at any width, but only its
        # GEMM, which narrow models barely have, runs faster on two threads
        monkeypatch.setattr(nn, "_WORKERS", 2)
        conv = nn.build_model("AP", width_scale=width).layers[0]
        xp = np.zeros((batch, 64 + 2 * conv.pad, 64 + 2 * conv.pad, 2), dtype=dtype)
        assert len(nn._tile_buffers(xp, conv.kernel, conv.w.shape[0])[0]) == ranges


def largest_im2col_sample_bytes(model, itemsize):
    side, most = model.input_shape[1], 0
    for layer in model.layers:
        if isinstance(layer, nn.Conv2d):
            _, in_ch, k, _ = layer.w.shape
            most = max(most, side * side * k * k * in_ch * itemsize)
        elif isinstance(layer, nn.MaxPool2):
            side //= 2
    return most


class TestFusedInference:
    """A fused forward runs each conv -> pool -> ReLU triple as one tiled pass, bitwise equal to the three layers."""

    @pytest.mark.parametrize("variant", ["S", "AP", "A", "P"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tile_samples", [None, 1, 2])  # None: tiles of _TILE_BYTES
    def test_bitwise_equal_to_the_layer_by_layer_forward(self, monkeypatch, variant, dtype, tile_samples):
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)  # split every pass, however small
        for batch in (1, 2, 5, 50):
            model = nn.build_model(variant, width_scale=1 / 8, seed=batch)
            x = np.random.default_rng([batch, 41]).standard_normal((batch, *model.input_shape)).astype(dtype)
            if tile_samples:  # the largest conv's tiles hold this many samples, the others as many or more
                tile_bytes = tile_samples * largest_im2col_sample_bytes(model, x.itemsize)
                monkeypatch.setattr(nn, "_TILE_BYTES", tile_bytes)
            for workers in (1, 2, 3):
                monkeypatch.setattr(nn, "_WORKERS", workers)
                fused = nn.forward(model, x, fused=True)
                assert fused.dtype == dtype
                assert np.array_equal(fused, nn.forward(model, x)), (batch, workers)

    def test_only_a_fused_forward_skips_layers(self):
        model = nn.build_model("A", width_scale=1 / 8)
        called = []
        for layer in model.layers:
            layer.forward = functools.partial(lambda f, name, *a, **k: called.append(name) or f(*a, **k),
                                              layer.forward, type(layer).__name__)
        nn.forward(model, np.zeros((2, 1, 32, 32)))
        assert called == [type(layer).__name__ for layer in model.layers]
        called.clear()
        nn.forward(model, np.zeros((2, 1, 32, 32)), fused=True)
        assert called == ["Conv2d"] * 3 + ["Conv2d", "Relu", "Conv2d", "Dense", "Relu", "Dense", "Softmax"]

    def test_pool_relu_is_inference_only(self):
        conv = nn.Conv2d(1, 2, 3, 1, np.random.default_rng(30))
        with pytest.raises(ValueError, match="inference"):
            conv.forward(np.zeros((1, 1, 4, 4)), train=True, pool_relu=True)
        with pytest.raises(ValueError, match="inference"):
            nn.forward(nn.build_model("A", width_scale=1 / 8), np.zeros((1, 1, 32, 32)), train=True, fused=True)


def relu_first_order(model):
    """A copy of ``model`` whose pooled blocks run Conv2d -> Relu -> MaxPool2, the order of older model files."""
    layers = copy.deepcopy(model.layers)
    for i in [i for i, layer in enumerate(layers) if isinstance(layer, nn.MaxPool2)]:
        layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return nn.CnnModel(model.variant, model.input_shape, model.width_scale, layers)


class TestBlockOrder:
    """A block that pools before its ReLU computes what one that rectifies first does, gradients included, bit for bit."""

    def test_relu_first_model_file_loads_fuses_and_scores_the_same(self, monkeypatch, tmp_path):
        model = nn.build_model("S", width_scale=1 / 8, seed=3)
        path = tmp_path / "relu_first.cnn"
        nn.save_model(relu_first_order(model), path)
        old = nn.load_model(path)
        kinds = [layer.spec()["kind"] for layer in old.layers]
        assert kinds[:7] == ["conv", "relu", "maxpool", "conv", "relu", "maxpool", "conv"]
        x = np.random.default_rng(18).standard_normal((3, *model.input_shape))
        want = nn.forward(model, x)
        assert np.array_equal(nn.forward(model, x, fused=True), want)
        calls = []
        conv_forward = nn.Conv2d.forward

        def spy(layer, x, train=False, pool_relu=False):
            calls.append(pool_relu)
            return conv_forward(layer, x, train, pool_relu)

        monkeypatch.setattr(nn.Conv2d, "forward", spy)
        assert np.array_equal(nn.forward(old, x, fused=True), want)
        assert calls == list(nn.POOL_AFTER)
        assert np.array_equal(nn.forward(old, x), want)

    @pytest.mark.parametrize("variant", ["S", "A", "P", "AP"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_and_training_equal_the_relu_first_order(self, monkeypatch, variant, dtype):
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)  # split every pass, however small
        model = nn.build_model(variant, width_scale=1 / 8, seed=4)
        old = relu_first_order(model)
        rng = np.random.default_rng(19)
        shape = (4, *model.input_shape)
        batches = [rng.standard_normal(shape), np.zeros(shape), np.round(2 * rng.standard_normal(shape))]
        y = np.arange(4) % 2
        build = nn.build_model
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            for x in batches:
                x = x.astype(dtype)
                (g_new, loss_new), (g_old, loss_old) = nn.backward(model, x, y), nn.backward(old, x, y)
                assert loss_new == loss_old
                assert [sorted(g) for g in g_new] == [sorted(g) for g in g_old]
                assert all(np.array_equal(a[k], b[k]) for a, b in zip(g_new, g_old) for k in a)
                trained, second = [], []
                for order in (lambda m: m, relu_first_order):
                    monkeypatch.setattr(nn, "build_model", lambda *a, **k: order(build(*a, **k)))
                    m, losses = nn.train(variant, (x, y), {"total_iterations": 3, "batch_size": 2}, seed=5,
                                         width_scale=1 / 8)
                    trained.append([losses, *(p for d in m.params() for _, p in sorted(d.items()))])
                    second.append(type(m.layers[1]))
                monkeypatch.setattr(nn, "build_model", build)
                assert second == [nn.MaxPool2, nn.Relu]
                assert all(np.array_equal(a, b) for a, b in zip(*trained))


def repeated_rows(rng, shape, r, dtype=np.float64):
    """A random NCHW batch whose rows repeat in aligned groups of r."""
    n, c, h, w = shape
    return rng.standard_normal((n, c, h // r, w)).repeat(r, axis=2).astype(dtype)


def close(got, want, rtol):
    return all(np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w)) for g, w in zip(got, want))


class TestRowRepeat:
    """A "same" conv of a batch whose rows repeat in groups of r runs on its source rows, as the general path up to rounding."""

    @staticmethod
    def run(layer, x, dout):
        """The repeat factor the training forward chose, and TestTiling.run's output and gradients."""
        out = layer.forward(x, train=True)
        rows = layer._repeat
        dx = layer.backward(dout)
        return rows, [out, layer._grads["w"], layer._grads["b"], dx]

    @pytest.mark.parametrize("r", [2, 4, 16])
    @pytest.mark.parametrize("in_ch,k", [(2, 11), (1, 3), (3, 5)])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_the_general_path(self, monkeypatch, r, in_ch, k, dtype, rtol):
        rng = np.random.default_rng([r, in_ch, k])
        layer = nn.Conv2d(in_ch, 4, k, k // 2, rng)
        layer.b[...] = rng.standard_normal(4)
        x = repeated_rows(rng, (3, in_ch, 16, 12), r, dtype)
        dout = rng.standard_normal((3, 4, 16, 12)).astype(dtype)  # one upstream gradient for both paths
        rows, got = self.run(layer, x, dout)
        monkeypatch.setattr(nn, "_row_repeat", lambda x: 1)
        general, want = self.run(layer, x, dout)
        assert (rows, general) == (r, 1)
        assert all(g.dtype == dtype for g in got)
        assert close(got, want, rtol)

    @pytest.mark.parametrize("r", [2, 4, 16])
    @pytest.mark.parametrize("tile_samples", [1, 2])
    def test_layer_bitwise_equal_at_any_worker_count(self, monkeypatch, r, tile_samples):
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)  # split every pass, however small
        rng = np.random.default_rng([r, tile_samples, 3])
        layer = nn.Conv2d(2, 3, 11, 5, rng)
        layer.b[...] = rng.standard_normal(3)
        x = repeated_rows(rng, (5, 2, 16, 12), r, np.float32)
        dout = rng.standard_normal((5, 3, 16, 12)).astype(np.float32)
        # a source-row tile's im2col rows or its (r x 3)-column product, whichever is larger
        kh = 2 * -(-5 // r) + 1
        monkeypatch.setattr(nn, "_TILE_BYTES", tile_samples * (16 // r) * 12 * max(kh * 11 * 2, r * 3) * 4)
        xs = nn._padded(x, 5, r)
        assert len(nn._tile_buffers(xs, 11, r * 3, kh=kh, tap_major=True)[1][0]) == tile_samples
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            rows, arrays = self.run(layer, x, dout)
            assert rows == r
            results[workers] = arrays + [layer.forward(x, pool_relu=True)]
        for workers in (2, 3):
            assert all(np.array_equal(got, want) for got, want in zip(results[workers], results[1]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tile_samples", [1, 2])
    def test_model_on_ap_tensors_bitwise_at_any_worker_count_and_fused(self, monkeypatch, dtype, tile_samples):
        monkeypatch.setattr(nn, "_MIN_RANGE_BYTES", 1)
        x, y = ap_batch(5, dtype=dtype), np.arange(5) % 2
        # conv1's tiles: 16 source rows x 64 columns of 5 x 11 x 2 taps per sample
        monkeypatch.setattr(nn, "_TILE_BYTES", tile_samples * 16 * 64 * 110 * x.itemsize)
        assert len(nn._tile_buffers(nn._padded(x, 5, 4), 11, 16, kh=5, tap_major=True)[1][0]) == tile_samples
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            model = nn.build_model("AP", width_scale=1 / 8, seed=5)
            probs = nn.forward(model, x)
            assert np.array_equal(nn.forward(model, x, fused=True), probs)
            grads, loss = nn.backward(model, x, y)
            assert model.layers[0]._repeat == 4
            trained, losses = nn.train("AP", (x, y), {"total_iterations": 2, "batch_size": 5},
                                       seed=5, width_scale=1 / 8)
            arrays = [probs, np.float64(loss), losses]
            arrays += [g for d in grads for _, g in sorted(d.items())]
            results[workers] = arrays + [p for d in trained.params() for _, p in sorted(d.items())]
        for workers in (2, 3):
            assert all(np.array_equal(got, want) for got, want in zip(results[workers], results[1]))

    @staticmethod
    def edge_case(case):
        rng = np.random.default_rng(51)
        if case == "random":
            return rng.random((4, 2, 64, 64))
        x = ap_batch(4, seed=2, dtype=np.float64)
        if case == "changed element in the last sample":
            x[-1, 1, 6, 9] += 0.25
        elif case == "silent first sample":
            x = rng.random((4, 2, 64, 64))
            x[0] = 0.0
        elif case == "silent first sample of AP tensors":
            x[0] = 0.0
        elif case == "all zero":
            x[...] = 0.0
        return x

    @pytest.mark.parametrize("case,r", [
        ("random", 1),
        ("changed element in the last sample", 1),
        ("silent first sample", 1),
        ("AP tensors", 4),
        ("silent first sample of AP tensors", 4),
        ("all zero", 64),
    ])
    def test_detection_edge_cases(self, monkeypatch, case, r):
        x = self.edge_case(case)
        assert nn._row_repeat(x) == r
        rng = np.random.default_rng(52)
        layer = nn.Conv2d(2, 3, 11, 5, rng)
        layer.b[...] = rng.standard_normal(3)
        dout = rng.standard_normal((4, 3, 64, 64))
        rows, got = self.run(layer, x, dout)
        fused = layer.forward(x, pool_relu=True)
        monkeypatch.setattr(nn, "_row_repeat", lambda x: 1)
        _, want = self.run(layer, x, dout)
        want_fused = layer.forward(x, pool_relu=True)
        assert rows == r
        if r == 1:  # no repetition: the general path itself
            assert all(np.array_equal(g, w) for g, w in zip([*got, fused], [*want, want_fused]))
        else:
            assert close([*got, fused], [*want, want_fused], 1e-12)

    @pytest.mark.parametrize("rows,r", [
        ([0, 0, 0, 0, 1, 1, 2, 2], 2),  # groups of 4 and of 2 both fit only 2
        ([0, 0, 0, 1, 1, 1], 1),  # groups of 3: r is a power of two
        ([5, 5, 5, 5, 5, 5], 2),
        ([0, 0, 1, 1, 1, 1], 2),
        ([0, 1], 1),
        ([0], 1),
    ])
    def test_repeat_factor_is_the_largest_fitting_divisor(self, rows, r):
        x = np.asarray(rows, dtype=float)[None, None, :, None] * np.ones((2, 3, 1, 5))
        assert nn._row_repeat(x) == r

    @pytest.mark.parametrize("group,r", [(3, 1), (6, 2)])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_rows_repeating_in_threes_and_sixes(self, monkeypatch, group, r, dtype, rtol):
        # a fused pool pairs adjacent row phases, which needs an even r
        rng = np.random.default_rng([group, 55])
        layer = nn.Conv2d(2, 4, 5, 2, rng)
        layer.b[...] = rng.standard_normal(4)
        x = repeated_rows(rng, (3, 2, 24, 12), group, dtype)
        assert nn._row_repeat(x) == r

        def unfused_and_fused():
            return nn.MaxPool2().forward(nn.Relu().forward(layer.forward(x))), layer.forward(x, pool_relu=True)

        unfused, fused = unfused_and_fused()
        assert np.array_equal(fused, unfused)
        monkeypatch.setattr(nn, "_row_repeat", lambda x: 1)
        want, _ = unfused_and_fused()
        assert close([unfused, fused], [want, want], rtol)

    def test_nan_rows_never_repeat(self):
        x = np.full((2, 1, 4, 3), np.nan)
        assert nn._row_repeat(x) == 1

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_only_a_same_padded_conv_takes_the_path(self, pad):
        layer = nn.Conv2d(1, 2, 3, pad, np.random.default_rng(53))
        x = repeated_rows(np.random.default_rng(54), (2, 1, 8, 8), 4)
        layer.forward(x, train=True)
        assert layer._repeat == (4 if pad == 1 else 1)


class TestOptimizer:
    def make_scalar_model(self, w0):
        rng = np.random.default_rng(0)
        dense = nn.Dense(1, 1, rng)
        dense.w[...] = [[w0]]
        dense.b[...] = [0.0]
        return nn.CnnModel("toy", (1,), 1.0, [dense, nn.Softmax()])

    def test_update_rule_arithmetic(self):
        model = self.make_scalar_model(1.0)
        opt = nn.OptimizerState(base_lr=0.01, momentum=0.9, weight_decay=0.001)
        grads = [{"w": np.array([[1.0]]), "b": np.array([0.0])}, {}]
        nn.sgd_step(model, grads, opt)
        assert model.layers[0].w[0, 0] == pytest.approx(0.98999, abs=1e-12)
        assert opt.velocities[(0, "w")][0, 0] == pytest.approx(-0.01001, abs=1e-12)
        assert opt.iteration == 1

    def test_zero_gradient_leaves_params(self):
        model = self.make_scalar_model(0.7)
        opt = nn.OptimizerState(weight_decay=0.0)
        grads = [{"w": np.zeros((1, 1)), "b": np.zeros(1)}, {}]
        nn.sgd_step(model, grads, opt)
        assert model.layers[0].w[0, 0] == 0.7

    def test_learning_rate_schedule(self):
        opt = nn.OptimizerState()
        opt.iteration = 4999
        assert opt.learning_rate == pytest.approx(0.01)
        opt.iteration = 5000
        assert opt.learning_rate == pytest.approx(0.001)
        opt.iteration = 10000
        assert opt.learning_rate == pytest.approx(0.0001)

    def test_config_validation(self):
        with pytest.raises(TypeError, match="total_iterations"):
            nn.OptimizerState(total_iterations="3")
        with pytest.raises(ValueError, match="batch_size"):
            nn.OptimizerState(batch_size=0)
        with pytest.raises(TypeError):
            nn.OptimizerState(iteration=5)  # training state, not a setting

    def test_defaults_match_training_recipe(self):
        opt = nn.OptimizerState()
        assert (opt.base_lr, opt.momentum, opt.weight_decay) == (0.01, 0.9, 0.001)
        assert (opt.lr_drop_every, opt.batch_size, opt.total_iterations) == (5000, 50, 25000)


class TestBuildModel:
    def test_input_shapes(self):
        assert nn.build_model("S", seed=0).input_shape == (1, 64, 64)
        assert nn.build_model("AP", seed=0).input_shape == (2, 64, 64)
        assert nn.build_model("A", seed=0).input_shape == (1, 32, 32)
        assert nn.build_model("P", seed=0).input_shape == (1, 32, 32)

    def test_ap_first_conv_kernel(self):
        model = nn.build_model("AP", seed=0)
        assert model.layers[0].w.shape == (32, 2, 11, 11)

    def test_stacks_identical_after_first_conv(self):
        s = [l.spec() for l in nn.build_model("S", seed=0).layers]
        ap = [l.spec() for l in nn.build_model("AP", seed=0).layers]
        assert s[0]["in_ch"] == 1 and ap[0]["in_ch"] == 2
        assert s[1:] == ap[1:]

    def test_conv_widths_and_kernels(self):
        model = nn.build_model("S", seed=0)
        convs = [l for l in model.layers if isinstance(l, nn.Conv2d)]
        assert [c.w.shape[0] for c in convs] == [32, 32, 64, 64, 64]
        assert [c.kernel for c in convs] == [11, 5, 3, 3, 3]

    def test_spatial_reduction_to_dense(self):
        model = nn.build_model("S", seed=0)
        dense = next(l for l in model.layers if isinstance(l, nn.Dense))
        assert dense.w.shape == (128, 64 * 4 * 4)
        small = nn.build_model("A", seed=0)
        dense = next(l for l in small.layers if isinstance(l, nn.Dense))
        assert dense.w.shape == (128, 64 * 2 * 2)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            nn.build_model("Q")


class TestTrain:
    def tiny_dataset(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, n)
        x = rng.standard_normal((n, 1, 32, 32)) * 0.1
        x[y == 0, :, :16, :] += 0.8  # separable structure
        return x, y

    def test_zero_iterations_returns_initialized_model(self):
        x, y = self.tiny_dataset()
        model, losses = nn.train("A", (x, y), {"total_iterations": 0}, seed=3, width_scale=0.1)
        ref = nn.build_model("A", width_scale=0.1, seed=3)
        assert losses.size == 0
        for got, want in zip(model.params(), ref.params()):
            for k in got:
                np.testing.assert_array_equal(got[k], want[k])

    def test_loss_decreases(self):
        x, y = self.tiny_dataset(n=128, seed=1)
        _, losses = nn.train(
            "A", (x, y), {"total_iterations": 60, "batch_size": 16},
            seed=1, width_scale=0.1,
        )
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_training_is_deterministic(self):
        x, y = self.tiny_dataset(n=48, seed=2)
        overrides = {"total_iterations": 12, "batch_size": 16}
        m1, l1 = nn.train("A", (x, y), overrides, seed=5, width_scale=0.1)
        m2, l2 = nn.train("A", (x, y), overrides, seed=5, width_scale=0.1)
        np.testing.assert_array_equal(l1, l2)
        for d1, d2 in zip(m1.params(), m2.params()):
            for k in d1:
                np.testing.assert_array_equal(d1[k], d2[k])

    def test_fixed_batch_descent_is_monotone(self):
        # plain gradient descent with a small step never increases the loss
        x, y = self.tiny_dataset(n=16, seed=3)
        model = nn.build_model("A", width_scale=0.1, seed=7)
        opt = nn.OptimizerState(base_lr=1e-4, momentum=0.0, weight_decay=0.0)
        losses = []
        for _ in range(10):
            grads, loss = nn.backward(model, x.astype(np.float64), y)
            losses.append(loss)
            nn.sgd_step(model, grads, opt)
        _, final = nn.backward(model, x.astype(np.float64), y)
        losses.append(final)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_minibatches_are_the_float32_rows_of_the_shuffle(self, dtype):
        # the loop of nn.train, spelled out with a float32 copy of each minibatch
        x, y = self.tiny_dataset(n=20, seed=4)
        x = x.astype(dtype)
        overrides = {"total_iterations": 7, "batch_size": 8}
        model, losses = nn.train("A", (x, y), overrides, seed=6, width_scale=0.1)
        ref = nn.build_model("A", width_scale=0.1, seed=6)
        opt = nn.OptimizerState(**overrides)
        shuffle_rng = np.random.default_rng([6, 1])
        order, pos, ref_losses = shuffle_rng.permutation(20), 0, []
        for _ in range(7):
            if pos + 8 > 20:
                order, pos = shuffle_rng.permutation(20), 0
            idx = order[pos : pos + 8]
            pos += 8
            grads, loss = nn.backward(ref, x[idx].astype(np.float32), y[idx])
            nn.sgd_step(ref, grads, opt)
            ref_losses.append(loss)
        np.testing.assert_array_equal(losses, ref_losses)
        for got, want in zip(model.params(), ref.params()):
            for k in got:
                np.testing.assert_array_equal(got[k], want[k])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            nn.train("A", (np.zeros((0, 1, 32, 32)), np.zeros(0, dtype=int)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = nn.build_model("AP", width_scale=0.25, seed=9)
        path = tmp_path / "m.cnn"
        nn.save_model(model, path)
        back = nn.load_model(path)
        assert back.variant == model.variant
        assert back.input_shape == model.input_shape
        for d1, d2 in zip(model.params(), back.params()):
            for k in d1:
                np.testing.assert_array_equal(d1[k], d2[k])
        # serialized form is itself deterministic
        nn.save_model(back, tmp_path / "m2.cnn")
        assert path.read_bytes() == (tmp_path / "m2.cnn").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.cnn"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError, match="not a model"):
            nn.load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = nn.build_model("A", width_scale=0.1, seed=0)
        path = tmp_path / "m.cnn"
        nn.save_model(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            nn.load_model(path)

    @pytest.mark.parametrize("cut", [10, 20])  # inside the version/length field; inside the JSON header
    def test_truncated_header_names_the_file(self, tmp_path, cut):
        path = tmp_path / "m.cnn"
        nn.save_model(nn.build_model("A", width_scale=0.1, seed=0), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated")):
            nn.load_model(path)
