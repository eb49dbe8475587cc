import math

import numpy as np
import pytest

from zok import learner
from zok.learner import (MlpModel, TrainConfig,
                         asymmetric_loss, compute_class_frequencies, forward,
                         init_model, loss_gradient, predict_labels, read_model,
                         sgd_step, train, write_model, zero_velocity)


class TestClassFrequencies:
    def test_balanced(self):
        f = compute_class_frequencies(np.array([0, 1]))
        assert np.allclose(f, [0.5, 0.5])

    def test_counts(self):
        f = compute_class_frequencies(np.array([0, 0, 0, 1]))
        assert np.allclose(f, [0.75, 0.25])

    def test_pixel_basis(self):
        f = compute_class_frequencies(np.array([0, 1]), weights=np.array([10, 30]))
        assert np.allclose(f, [0.25, 0.75])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_class_frequencies(np.array([], dtype=np.int64))

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=100)
        f = compute_class_frequencies(labels, num_classes=7)
        assert f.sum() == pytest.approx(1.0, abs=1e-9)


def linear_model(weights, biases, d=None):
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(biases, dtype=np.float64)
    d = d or w.shape[1]
    return MlpModel([w], [b], np.zeros(d), np.ones(d))


class TestForward:
    def test_zero_weights_uniform(self):
        model = linear_model(np.zeros((4, 3)), np.zeros(4))
        probs = forward(model, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(probs, 0.25)

    def test_hand_logits(self):
        model = linear_model(np.zeros((2, 1)), np.array([0.0, math.log(3)]))
        probs = forward(model, np.array([0.0]))
        assert np.allclose(probs, [0.25, 0.75])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = init_model([5, 8, 4], seed=0)
        probs = forward(model, rng.normal(size=(10, 5)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        x = rng.normal(size=(6, 4))
        p1 = forward(linear_model(w, b), x)
        p2 = forward(linear_model(w, b + 17.0), x)
        assert np.allclose(p1, p2, atol=1e-6)

    def test_dim_mismatch(self):
        model = linear_model(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            forward(model, np.zeros(4))


class TestAsymmetricLoss:
    def test_perfect_prediction_zero_loss(self):
        probs = np.eye(3)[np.array([0, 1, 2])]
        f = np.array([1 / 3, 1 / 3, 1 / 3])
        assert asymmetric_loss(probs, np.array([0, 1, 2]), f) == pytest.approx(0.0)

    def test_uniform_frequencies_identity(self):
        rng = np.random.default_rng(3)
        c = 5
        probs = rng.dirichlet(np.ones(c), size=20)
        labels = rng.integers(0, c, size=20)
        f = np.full(c, 1 / c)
        plain = -np.log(probs[np.arange(20), labels]).mean()
        assert asymmetric_loss(probs, labels, f) == pytest.approx(c * plain, rel=1e-9)

    def test_hand_value(self):
        probs = np.array([[0.5, 0.5], [0.75, 0.25]])
        labels = np.array([0, 1])
        val = asymmetric_loss(probs, labels, np.array([0.8, 0.2]))
        # -(1/2) * (1.25*ln 0.5 + 5*ln 0.25)
        assert val == pytest.approx(3.898953, abs=1e-5)

    def test_probability_floor(self):
        probs = np.array([[0.0, 1.0]])
        val = asymmetric_loss(probs, np.array([0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(-math.log(1e-12) * 2)

    def test_label_absent_from_frequencies_rejected(self):
        probs = np.full((1, 3), 1 / 3)
        with pytest.raises(ValueError, match="zero recorded frequency"):
            asymmetric_loss(probs, np.array([2]), np.array([0.5, 0.5, 0.0]))


class TestTrainConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)

    def test_dropout_needs_a_hidden_layer(self):
        with pytest.raises(ValueError, match="dropout=0.5 needs a hidden layer"):
            TrainConfig(dropout=0.5)
        TrainConfig(dropout=0.5, hidden=(4,))

    def test_bad_loss_name(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    def test_negative_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-3)


def numeric_gradient(model, x, labels, f, h=1e-3):
    """Central finite differences on every parameter (float64)."""
    num_w, num_b = [], []
    for arr, grads in ((model.weights, num_w), (model.biases, num_b)):
        for param in arr:
            g = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = asymmetric_loss(forward(model, x), labels, f)
                param[idx] = orig - h
                down = asymmetric_loss(forward(model, x), labels, f)
                param[idx] = orig
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return num_w, num_b


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestLossGradient:
    def test_onehot_prediction_zero_output_gradient(self):
        # a model whose logits give probability ~1 on the right class
        model = linear_model(np.array([[60.0], [-60.0]]), np.zeros(2))
        gw, gb = loss_gradient(model, np.array([[1.0]]), np.array([0]),
                               np.array([0.5, 0.5]))
        assert np.all(np.abs(gw[0]) < 1e-20)
        assert np.all(np.abs(gb[0]) < 1e-20)

    def test_single_linear_layer_hand_formula(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 4))
        model = linear_model(w, rng.normal(size=3))
        x = rng.normal(size=(1, 4))
        y = np.array([1])
        f = np.array([0.5, 0.25, 0.25])
        probs = forward(model, x)
        delta = probs.copy()
        delta[0, 1] -= 1.0
        expected_w = np.outer(delta[0], x[0]) / f[1]
        gw, gb = loss_gradient(model, x, y, f)
        assert np.allclose(gw[0], expected_w)
        assert np.allclose(gb[0], delta[0] / f[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model([3, 4, 3], seed=seed)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        f = rng.dirichlet(np.ones(3))
        gw, gb = loss_gradient(model, x, labels, f)
        nw, nb = numeric_gradient(model, x, labels, f)
        for a, n in zip(gw + gb, nw + nb):
            assert rel_err(a, n) < 1e-4


def reference_backprop(model, x, output_delta, dropout_masks=None):
    """Gradients for caller-supplied dLoss/dLogits rows: a forward pass
    over x for the activations, then the backward pass."""
    acts, _ = learner._forward_pass(model, x, dropout_masks)
    return learner._backward(model, acts, output_delta, dropout_masks)


def reference_loss_gradient(model, x, labels, freqs, dropout_masks=None):
    """loss_gradient before it shared one forward pass with the backward
    pass, kept verbatim as its oracle."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels)
    probs = learner._softmax(learner._forward_pass(model, x, dropout_masks)[1])
    delta = probs.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    f = np.asarray(freqs, dtype=np.float64)
    delta *= (1.0 / (f[labels] * len(labels)))[:, None]
    return reference_backprop(model, x, delta, dropout_masks)


class TestLossGradientOracle:
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, hidden, dropout, seed):
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(1, 40)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x = rng.normal(0.0, 3.0, size=(n, d))
        model = init_model([d, *hidden, c], seed=seed, mean=x.mean(axis=0), std=x.std(axis=0))
        labels = rng.integers(0, c, size=n)
        f = rng.dirichlet(np.ones(c))
        masks = None
        if dropout:
            masks = [(rng.random((n, h)) >= 0.3) / 0.7 for h in hidden]
        got = loss_gradient(model, x, labels, f, masks)
        want = reference_loss_gradient(model, x, labels, f, masks)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a.tobytes() == b.tobytes()


class TestSgdStep:
    def cfg(self, lr=0.1, momentum=0.0, wd=0.0):
        return TrainConfig(learning_rate=lr, momentum=momentum, weight_decay=wd)

    def test_zero_gradient_zero_velocity_unchanged(self):
        model = linear_model(np.ones((2, 2)), np.zeros(2))
        before = [w.copy() for w in model.weights]
        grads = ([np.zeros((2, 2))], [np.zeros(2)])
        sgd_step(model, grads, self.cfg(), zero_velocity(model))
        assert np.array_equal(model.weights[0], before[0])

    def test_plain_gradient_descent(self):
        model = linear_model(np.array([[1.0]]), np.array([0.0]))
        grads = ([np.array([[0.5]])], [np.array([0.25])])
        sgd_step(model, grads, self.cfg(lr=0.1), zero_velocity(model))
        assert model.weights[0][0, 0] == pytest.approx(0.95)
        assert model.biases[0][0] == pytest.approx(-0.025)

    def test_two_momentum_steps_hand_values(self):
        model = linear_model(np.array([[1.0]]), np.array([0.0]))
        cfg = self.cfg(lr=0.1, momentum=0.9)
        vel = zero_velocity(model)
        grads = ([np.array([[0.5]])], [np.array([0.0])])
        sgd_step(model, grads, cfg, vel)
        # v1 = -0.05, w1 = 0.95
        assert model.weights[0][0, 0] == pytest.approx(0.95)
        sgd_step(model, grads, cfg, vel)
        # v2 = 0.9*(-0.05) - 0.05 = -0.095, w2 = 0.855
        assert model.weights[0][0, 0] == pytest.approx(0.855)

    def test_weight_decay_pulls_to_zero(self):
        model = linear_model(np.array([[2.0]]), np.array([0.0]))
        grads = ([np.array([[0.0]])], [np.array([0.0])])
        sgd_step(model, grads, self.cfg(lr=0.1, wd=0.5), zero_velocity(model))
        assert model.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def two_blobs(n=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(n // 2, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(n // 2, 2))
    x = np.concatenate([a, b])
    y = np.repeat([0, 1], n // 2)
    return x, y


class TestTrain:
    def test_separable_blobs(self):
        x, y = two_blobs()
        cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=0.1,
                          momentum=0.9, weight_decay=0.0, seed=1, hidden=(8,))
        model = train(x, y, cfg)
        acc = (predict_labels(model, x) == y).mean()
        assert acc >= 0.99

    def test_same_seed_bit_identical(self):
        x, y = two_blobs()
        cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=0.05,
                          seed=7, hidden=(6,), dropout=0.2)
        m1 = train(x, y, cfg)
        m2 = train(x, y, cfg)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert a.tobytes() == b.tobytes()

    def test_convex_full_batch_loss_decreases(self):
        x, y = two_blobs(60, seed=2)
        cfg = TrainConfig(epochs=15, batch_size=60, learning_rate=0.05,
                          momentum=0.0, weight_decay=0.0, seed=3, hidden=())
        model = train(x, y, cfg)
        losses = model.epoch_losses
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_symmetric_loss_option(self):
        x, y = two_blobs(40, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.05,
                          seed=5, loss="symmetric")
        model = train(x, y, cfg)
        assert len(model.epoch_losses) == 3

    # case -> (labels, num_classes, sample_weights, text the error holds)
    BAD_INPUTS = {
        "label-above-classes": ([0, 1, 0, 3], 3, None, "labels"),
        "negative-label": ([0, -1, 0, 1], None, None, "labels"),
        "labels-short": ([0, 1, 0], None, None, "labels"),
        "labels-long": ([0, 1, 0, 1, 0], None, None, "labels"),
        "labels-2d": ([[0, 1, 0, 1]], None, None, "labels"),
        "weights-short": ([0, 1, 0, 1], None, [1.0, 1.0, 1.0], "sample_weights"),
        "weights-all-zero": ([0, 1, 0, 1], None, [0.0] * 4, "sample_weights"),
        "weights-negative": ([0, 1, 0, 1], None, [1.0, -1.0, 1.0, 1.0], "sample_weights"),
        "weights-nan": ([0, 1, 0, 1], None, [1.0, np.nan, 1.0, 1.0], "sample_weights"),
    }

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_inputs_rejected(self, case):
        labels, num_classes, weights, text = self.BAD_INPUTS[case]
        with pytest.raises(ValueError, match=text):
            train(np.zeros((4, 2)), np.array(labels), TrainConfig(epochs=1),
                  num_classes=num_classes,
                  sample_weights=None if weights is None else np.array(weights))


class TestPredictLabels:
    def test_uniform_probs_class_zero(self):
        model = linear_model(np.zeros((3, 2)), np.zeros(3))
        assert predict_labels(model, np.ones((4, 2))).tolist() == [0, 0, 0, 0]

    def test_matches_forward_argmax(self):
        rng = np.random.default_rng(8)
        model = init_model([4, 6, 3], seed=8)
        x = rng.normal(size=(9, 4))
        assert np.array_equal(predict_labels(model, x),
                              np.argmax(forward(model, x), axis=1))


class TestModelFile:
    def test_roundtrip_byte_identical(self, tmp_path):
        x, y = two_blobs(40, seed=9)
        cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.05,
                          seed=9, hidden=(5,))
        model = train(x, y, cfg)
        p1, p2 = tmp_path / "a.zom", tmp_path / "b.zom"
        write_model(model, p1)
        write_model(read_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_like_saved(self, tmp_path):
        x, y = two_blobs(40, seed=10)
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.05, seed=10)
        model = train(x, y, cfg)
        write_model(model, tmp_path / "m.zom")
        back = read_model(tmp_path / "m.zom")
        # f32 serialization rounds parameters; labels still agree
        assert np.array_equal(predict_labels(back, x), predict_labels(model, x))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.zom"
        path.write_bytes(b"ZOMX" + bytes(20))
        from zok.core_io import FormatError
        with pytest.raises(FormatError, match="wrong magic"):
            read_model(path)
