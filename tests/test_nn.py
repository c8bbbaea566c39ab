import math

import numpy as np
import pytest

from radarmon import nn

# seeds verified to keep finite-difference checks clear of ReLU kinks and
# pool ties (see fd tests); perturbation-induced activation flips otherwise
# corrupt the numeric gradient
FD_SEEDS = {"S": 1, "AP": 2}


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

    def test_softmax_finite_difference(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((4, 2))
        assert fd_layer_worst(nn.Softmax(), x, seed=5) < 1e-6

    @pytest.mark.parametrize("variant", ["S", "AP"])
    def test_full_model_finite_difference(self, variant):
        seed = FD_SEEDS[variant]
        model = nn.build_model(variant, width_scale=1 / 16, seed=seed)
        rng = np.random.default_rng([seed, 99])
        x = rng.standard_normal((2, *model.input_shape))
        y = np.array([0, 1])
        assert fd_model_worst(model, x, y) < 1e-4

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
