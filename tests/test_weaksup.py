import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_learner import reference_backprop
from zok import learner, weaksup
from zok.weaksup import (LocalizerConfig, _argmax_losses, diverse_sample_bg,
                         diverse_sample_fg, normalize_features, sample_foreground,
                         sample_points, score_field, spatial_diverse_sample, topk_sample,
                         train_localizers)


# --- the paper's image-level probabilities, as weaksup computed them before
# training came to need only _argmax_losses; kept verbatim as references


def reference_pixel_softmax_prob(s, sbar):
    """Max over locations of the per-location foreground probability."""
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty score grid")
    m = np.maximum(s, sbar)
    es = np.exp(s - m)
    return float((es / (es + np.exp(sbar - m))).max())


def reference_global_softmax_prob(s, sbar):
    """Foreground probability from separately max-pooled score maps."""
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty score grid")
    a, b = s.max(), sbar.max()
    m = max(a, b)
    return float(np.exp(a - m) / (np.exp(a - m) + np.exp(b - m)))


REFERENCE_PROB = {"pixel": reference_pixel_softmax_prob,
                  "global": reference_global_softmax_prob}


def grid_loss_and_grad(s, sbar, present, model):
    """_argmax_losses on two score grids as one lane, its gradients
    scattered onto grids shaped like them: returns (loss, dS, dSbar)."""
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    scores = np.stack([s.ravel(), sbar.ravel()], axis=1)[None]
    (loss,), (i,), (j,), (gs,), (gsbar,) = _argmax_losses(scores, np.array([present]), model)
    ds = np.zeros_like(s)
    dsbar = np.zeros_like(sbar)
    ds.flat[i] = gs
    dsbar.flat[j] = gsbar
    return loss, ds, dsbar


class TestPixelSoftmax:
    def test_equal_scores_half(self):
        s = np.zeros((3, 3))
        assert reference_pixel_softmax_prob(s, s) == pytest.approx(0.5)

    def test_ln3_margin(self):
        s = np.full((2, 2), -1.0)
        sbar = np.full((2, 2), 0.0)
        s[1, 1] = math.log(3)
        sbar[1, 1] = 0.0
        assert reference_pixel_softmax_prob(s, sbar) == pytest.approx(0.75)

    def test_single_location_equals_global(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(1, 1))
        sbar = rng.normal(size=(1, 1))
        assert reference_pixel_softmax_prob(s, sbar) == pytest.approx(
            reference_global_softmax_prob(s, sbar))

    def test_stable_at_large_scores(self):
        s = np.array([[800.0]])
        sbar = np.array([[799.0]])
        p = reference_pixel_softmax_prob(s, sbar)
        assert 0.7 < p < 0.74


class TestGlobalSoftmax:
    def test_equal_maxima_half(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 0, size=(3, 4))
        s[0, 0] = 0.0
        sbar = rng.uniform(-1, 0, size=(3, 4))
        sbar[2, 1] = 0.0
        assert reference_global_softmax_prob(s, sbar) == pytest.approx(0.5)

    def test_ln3_margin(self):
        s = np.array([[math.log(3), -5.0]])
        sbar = np.array([[0.0, -7.0]])
        assert reference_global_softmax_prob(s, sbar) == pytest.approx(0.75)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(4, 4))
        sbar = rng.normal(size=(4, 4))
        assert reference_global_softmax_prob(s + 11.0, sbar + 11.0) == pytest.approx(
            reference_global_softmax_prob(s, sbar))

    def test_both_probabilities_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(3, 3))
        sbar = rng.normal(size=(3, 3))
        for fn in (reference_pixel_softmax_prob, reference_global_softmax_prob):
            base = fn(s, sbar)
            assert 0.0 < base < 1.0
            for idx in np.ndindex(3, 3):
                bumped = s.copy()
                bumped[idx] += 0.3
                assert fn(bumped, sbar) >= base - 1e-12


class TestImageLossAndGrad:
    def test_confident_present_near_zero(self):
        s = np.zeros((2, 2))
        s[0, 1] = 20.0
        sbar = np.zeros((2, 2))
        for model in ("pixel", "global"):
            loss, ds, dsbar = grid_loss_and_grad(s, sbar, True, model)
            assert loss < 1e-6
            assert np.abs(ds).max() < 1e-6 and np.abs(dsbar).max() < 1e-6

    def test_pixel_gradient_support_single_location(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(3, 4))
        sbar = rng.normal(size=(3, 4))
        _, ds, dsbar = grid_loss_and_grad(s, sbar, True, "pixel")
        assert (ds != 0).sum() == 1
        assert (dsbar != 0).sum() == 1
        assert np.argmax(np.abs(ds)) == np.argmax(np.abs(dsbar))

    def test_global_gradient_support_two_cells(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 4))
        sbar = rng.normal(size=(3, 4))
        _, ds, dsbar = grid_loss_and_grad(s, sbar, False, "global")
        assert (ds != 0).sum() == 1 and (dsbar != 0).sum() == 1
        cells = {np.flatnonzero(ds.ravel())[0], np.flatnonzero(dsbar.ravel())[0]}
        assert len(cells) in (1, 2)

    @pytest.mark.parametrize("model", ["pixel", "global"])
    @pytest.mark.parametrize("present", [True, False])
    def test_matches_finite_differences(self, model, present):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(3, 3))
        sbar = rng.normal(size=(3, 3))
        _, ds, dsbar = grid_loss_and_grad(s, sbar, present, model)
        h = 1e-6
        for grid, grad in ((s, ds), (sbar, dsbar)):
            for idx in np.ndindex(3, 3):
                orig = grid[idx]
                grid[idx] = orig + h
                up = grid_loss_and_grad(s, sbar, present, model)[0]
                grid[idx] = orig - h
                down = grid_loss_and_grad(s, sbar, present, model)[0]
                grid[idx] = orig
                num = (up - down) / (2 * h)
                assert abs(grad[idx] - num) <= 1e-4 * max(abs(num), 1e-6)


    @pytest.mark.parametrize("model", ["pixel", "global"])
    @pytest.mark.parametrize("present", [True, False])
    def test_loss_matches_the_paper_probability(self, model, present):
        # -log p for a present class, -log(1 - p) for an absent one
        rng = np.random.default_rng(17)
        for _ in range(50):
            shape = tuple(rng.integers(1, 6, size=2))
            s = rng.normal(0.0, rng.uniform(0.1, 4.0), size=shape)
            sbar = rng.normal(0.0, rng.uniform(0.1, 4.0), size=shape)
            p = REFERENCE_PROB[model](s, sbar)
            want = -math.log(p) if present else -math.log1p(-p)
            loss = grid_loss_and_grad(s, sbar, present, model)[0]
            assert loss == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestNormalizeFeatures:
    def test_identical_vectors_become_invalid(self):
        fields = [np.full((3, 2, 2), 4.0)]
        z = normalize_features(fields)
        assert np.allclose(z[0], 0.0)

    def test_two_sample_hand_case(self):
        fields = [np.array([[[-1.0, 1.0]]])]  # one dim, two locations
        z = normalize_features(fields)
        mean, std = weaksup._field_stats([fields[0].reshape(1, -1)])
        assert mean[0] == pytest.approx(0.0)
        assert std[0] == pytest.approx(1.0)
        assert np.allclose(z[0][0], [-1.0, 1.0])

    def test_unit_norms(self):
        rng = np.random.default_rng(7)
        fields = [rng.normal(size=(5, 4, 6)) for _ in range(3)]
        zs = normalize_features(fields)
        for z in zs:
            norms = np.sqrt((z**2).sum(axis=0))
            assert np.allclose(norms, 1.0, atol=1e-5)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        fields = [rng.normal(size=(4, 3, 5)) for _ in range(2)]
        scale = rng.uniform(0.5, 3.0, size=4)[:, None, None]
        shift = rng.normal(size=4)[:, None, None]
        z1 = normalize_features(fields)
        z2 = normalize_features([f * scale + shift for f in fields])
        for a, b in zip(z1, z2):
            assert np.allclose(a, b, atol=1e-5)


def zfield(vectors, h, w):
    """(D, h, w) field from a list of per-location vectors (row-major)."""
    arr = np.array(vectors, dtype=np.float64).T
    return arr.reshape(arr.shape[0], h, w)


def oracle_diverse_fg(scores, zf, k):
    """Independent step-by-step evaluation of the greedy foreground rule."""
    flat = scores.ravel()
    n = flat.size
    chosen = []
    for step in range(k):
        best_i, best_v = None, None
        for i in range(n):
            if i in chosen or flat[i] <= 0:
                continue
            if np.linalg.norm(zf[i]) == 0:
                continue
            if step == 0:
                v = flat[i]
            else:
                pen = max(abs(float(zf[i] @ zf[j])) for j in chosen)
                v = flat[i] * (1 - pen)
            if best_v is None or v > best_v:
                best_i, best_v = i, v
        if best_i is None:
            break
        chosen.append(best_i)
    return chosen


def oracle_diverse_bg(zf, fg_idx, k):
    """Independent step-by-step evaluation of the background argmin rule."""
    n = len(zf)
    chosen = []
    for _ in range(k):
        best_i, best_v = None, None
        for i in range(n):
            if i in chosen or i in fg_idx or np.linalg.norm(zf[i]) == 0:
                continue
            v = max(abs(float(zf[i] @ zf[j])) for j in list(fg_idx) + chosen)
            if best_v is None or v < best_v:
                best_i, best_v = i, v
        chosen.append(best_i)
    return chosen


class TestDiverseSampleFg:
    def test_k1_is_argmax(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0.1, 1.0, size=(4, 5))
        z = rng.normal(size=(3, 4, 5))
        pts = diverse_sample_fg(scores, z, 1)
        assert len(pts) == 1
        assert tuple(pts[0]) == np.unravel_index(np.argmax(scores), scores.shape)

    def test_duplicate_feature_never_selected_second(self):
        scores = np.array([[5.0, 4.0, 1.0]])
        z = zfield([[1, 0], [1, 0], [0, 1]], 1, 3)
        pts = diverse_sample_fg(scores, z, 2)
        assert tuple(pts[0]) == (0, 0)
        assert tuple(pts[1]) == (0, 2)  # the duplicate at (0,1) is skipped

    def test_orthogonal_features_give_topk(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(0.1, 1.0, size=(2, 3))
        z = zfield(list(np.eye(6)), 2, 3)
        pts = diverse_sample_fg(scores, z, 4)
        assert np.array_equal(pts, topk_sample(scores, 4))

    def test_no_repeats_and_prefix_stable(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0.0, 1.0, size=(5, 5))
        z = rng.normal(size=(4, 5, 5))
        full = diverse_sample_fg(scores, z, 10)
        assert len({tuple(p) for p in full}) == 10
        for j in (1, 3, 7):
            assert np.array_equal(diverse_sample_fg(scores, z, j), full[:j])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(-0.2, 1.0, size=(2, 2))
        z = rng.normal(size=(3, 2, 2))
        zf = z.reshape(3, -1).T
        pts = diverse_sample_fg(scores, z, 3)
        expected = oracle_diverse_fg(scores, zf, 3)
        got = [int(r) * 2 + int(c) for r, c in pts[: len(expected)]]
        assert got == expected

    def test_negative_scores_fall_back_to_score_order(self):
        scores = np.array([[-3.0, -1.0, -2.0]])
        z = zfield([[1, 0], [0, 1], [1, 1]], 1, 3)
        pts = diverse_sample_fg(scores, z, 2)
        assert [tuple(p) for p in pts] == [(0, 1), (0, 2)]

    def test_fallback_skips_picks_and_zero_norm_locations(self):
        # one positive score: the greedy pick, then the rest in score order,
        # never repeating a pick and stopping where the zero-norm ones begin
        scores = np.array([[-1.0, 2.0, -2.0, -0.5, -3.0]])
        z = zfield([[1, 0], [0, 1], [1, 1], [0, 0], [1, 2]], 1, 5)
        for k, want in ((1, [1]), (2, [1, 0]), (4, [1, 0, 2, 4]), (5, [1, 0, 2, 4])):
            assert [int(c) for _, c in diverse_sample_fg(scores, z, k)] == want

    def test_k_larger_than_grid_rejected(self):
        with pytest.raises(ValueError):
            diverse_sample_fg(np.ones((2, 2)), np.ones((1, 2, 2)), 5)


class TestDiverseSampleBg:
    def test_orthogonal_location_chosen_first(self):
        z = zfield([[1, 0], [0.9, 0.1], [0, 1]], 1, 3)
        z = z / np.linalg.norm(z, axis=0, keepdims=True)
        pts = diverse_sample_bg(z, np.array([[0, 0]]), 1)
        assert tuple(pts[0]) == (0, 2)

    def test_identical_features_pick_smallest_indices(self):
        z = zfield([[1, 0]] * 6, 2, 3)
        pts = diverse_sample_bg(z, np.array([[1, 2]]), 3)
        assert [tuple(p) for p in pts] == [(0, 0), (0, 1), (0, 2)]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(3, 2, 2))
        z = z / np.sqrt((z**2).sum(axis=0, keepdims=True))
        zf = z.reshape(3, -1).T
        pts = diverse_sample_bg(z, np.array([[0, 0]]), 3)
        expected = oracle_diverse_bg(zf, [0], 3)
        got = [int(r) * 2 + int(c) for r, c in pts]
        assert got == expected

    def test_requires_foreground(self):
        with pytest.raises(ValueError):
            diverse_sample_bg(np.ones((2, 1, 1)), np.empty((0, 2)), 1)


class TestBaselineSamplers:
    def test_topk_k1_is_argmax(self):
        rng = np.random.default_rng(14)
        scores = rng.normal(size=(3, 4))
        pts = topk_sample(scores, 1)
        assert tuple(pts[0]) == np.unravel_index(np.argmax(scores), scores.shape)

    def test_topk_decreasing_scores(self):
        scores = np.arange(12, 0, -1, dtype=np.float64).reshape(3, 4)
        pts = topk_sample(scores, 5)
        assert [int(r) * 4 + int(c) for r, c in pts] == [0, 1, 2, 3, 4]

    def test_topk_tie_smallest_index(self):
        scores = np.array([[1.0, 2.0], [2.0, 0.0]])
        pts = topk_sample(scores, 2)
        assert [tuple(p) for p in pts] == [(0, 1), (1, 0)]

    def test_spatial_k1_is_argmax(self):
        rng = np.random.default_rng(15)
        scores = rng.uniform(0.1, 1.0, size=(4, 4))
        pts = spatial_diverse_sample(scores, 1)
        assert tuple(pts[0]) == np.unravel_index(np.argmax(scores), scores.shape)

    def test_spatial_spreads_on_uniform_scores(self):
        scores = np.ones((9, 9))
        k = 4
        pts = spatial_diverse_sample(scores, k).astype(float)
        diag = math.hypot(8, 8)
        for i in range(k):
            for j in range(i + 1, k):
                d = math.hypot(*(pts[i] - pts[j]))
                assert d >= diag / (2 * k)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("mode", ["diverse", "topk", "spatial"])
    def test_k_below_one_rejected(self, mode, k):
        scores = np.ones((5, 6))
        with pytest.raises(ValueError, match="k must be >= 1"):
            sample_foreground(scores, np.ones((2, 5, 6)), k, mode)

    def test_sample_foreground_dispatches_by_mode(self):
        rng = np.random.default_rng(16)
        scores = rng.uniform(0.1, 1.0, size=(5, 6))
        z = normalize_features([rng.normal(size=(3, 5, 6))])
        for mode, expected in (("diverse", diverse_sample_fg(scores, z[0], 4)),
                               ("topk", topk_sample(scores, 4)),
                               ("spatial", spatial_diverse_sample(scores, 4))):
            assert np.array_equal(sample_foreground(scores, z[0], 4, mode), expected)
        with pytest.raises(ValueError, match="unknown sampling mode"):
            sample_foreground(scores, z[0], 4, "random")


class TestLocalizer:
    def make_dataset(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        fields, present = [], []
        for i in range(n):
            f = rng.normal(0.0, 0.3, size=(3, 6, 6))
            has = i % 2 == 0
            if has:
                r, c = rng.integers(0, 6, size=2)
                f[:, r, c] = [4.0, 0.0, 0.0]
            fields.append(f)
            present.append(has)
        return fields, present

    # the pixel model routes gradient through one location per image and
    # trains slower than the global model, hence the larger epoch budget
    @pytest.mark.parametrize("model,epochs", [("global", 10), ("pixel", 30)])
    def test_learns_image_level_classification(self, model, epochs):
        fields, present = self.make_dataset()
        cfg = LocalizerConfig(hidden=8, learning_rate=0.03, epochs=epochs, seed=1, model=model)
        net = train_localizers([(fields, present, cfg)])[0]
        probs = [REFERENCE_PROB[model](*score_field(net, f)) for f in fields]
        correct = sum((p > 0.5) == is_pos for p, is_pos in zip(probs, present))
        assert correct / len(fields) >= 0.9

    def test_scores_localize_the_signal(self):
        fields, present = self.make_dataset(seed=3)
        cfg = LocalizerConfig(hidden=8, learning_rate=0.03, epochs=10, seed=2)
        net = train_localizers([(fields, present, cfg)])[0]
        hits = total = 0
        for f, is_pos in zip(fields, present):
            if not is_pos:
                continue
            s, _ = score_field(net, f)
            total += 1
            hits += np.unravel_index(np.argmax(s), s.shape) == \
                np.unravel_index(np.argmax(f[0]), s.shape)
        assert hits / total >= 0.8

    @pytest.mark.parametrize("key,value", [
        ("restarts", 0), ("restarts", -5), ("epochs", -1), ("hidden", 0),
        ("learning_rate", 0.0), ("model", "x"), ("momentum", -5), ("momentum", 1.0),
        ("weight_decay", -1e-4), ("learning_rate", math.nan), ("weight_decay", math.nan),
    ])
    def test_config_rejects_bad_values(self, key, value):
        with pytest.raises(ValueError, match=key.replace("_", " ")):
            LocalizerConfig(**{key: value})


class TestFieldShapes:
    """Every training field is (D, H, W) with the first field's D; another
    depth would otherwise be reshaped by the first field's D into garbage
    rows."""

    def mixed(self):
        rng = np.random.default_rng(0)
        return [rng.normal(size=(3, 2, 2)), rng.normal(size=(6, 2, 2))]

    def test_train_localizers_refuses_a_second_depth(self):
        cfg = LocalizerConfig(hidden=4, epochs=1, restarts=1)
        with pytest.raises(ValueError, match="field 1 has depth 6, field 0 has depth 3"):
            weaksup.train_localizers([(self.mixed(), [True, False], cfg)])

    def test_pipeline_refuses_a_second_depth(self):
        cfg = learner.TrainConfig(epochs=1, hidden=())
        with pytest.raises(ValueError, match="field 1 has depth 6, field 0 has depth 3"):
            weaksup.point_supervision_pipeline(self.mixed(), [{1}, set()], 2, 1,
                                               classifier_cfg=cfg)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2, 2), (5,)])
    def test_field_not_3d_refused(self, shape):
        fields = [np.zeros((3, 2, 2)), np.zeros(shape)]
        cfg = LocalizerConfig(hidden=4, epochs=1, restarts=1)
        with pytest.raises(ValueError, match=r"field 1 must be \(D, H, W\)"):
            train_localizers([(fields, [True, False], cfg)])[0]


def test_pipeline_requires_classifier_cfg():
    fields = [np.zeros((2, 3, 3))]
    with pytest.raises(TypeError, match="classifier_cfg"):
        weaksup.point_supervision_pipeline(fields, [{1}], 2, 1, "diverse", seed=0)


# --- the localizer's training loop before it was rewritten, kept verbatim
# (but for the epoch losses it now records) as the oracle for the lanes of
# weaksup._lane_runs and for _argmax_losses


def _softplus(x):
    return np.log1p(np.exp(-abs(x))) + max(x, 0.0)


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def reference_image_loss_and_grad(s, sbar, present, model="global"):
    """Binary image-level log-loss and its gradient on the score grids.

    The gradient is nonzero only at the argmax location(s): one location
    (both channels) for the pixel model; the argmax of S and the argmax
    of Sbar separately for the global model.  Returns (loss, dS, dSbar).
    """
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    ds = np.zeros_like(s)
    dsbar = np.zeros_like(sbar)
    if model == "pixel":
        t = s - sbar
        i = np.unravel_index(np.argmax(t), t.shape)  # argmax of p = argmax of t
        margin = t[i]
        p = _sigmoid(margin)
        if present:
            loss = _softplus(-margin)
            ds[i] = p - 1.0
            dsbar[i] = 1.0 - p
        else:
            loss = _softplus(margin)
            ds[i] = p
            dsbar[i] = -p
        return loss, ds, dsbar
    if model == "global":
        i = np.unravel_index(np.argmax(s), s.shape)
        j = np.unravel_index(np.argmax(sbar), sbar.shape)
        margin = s[i] - sbar[j]
        p = _sigmoid(margin)
        if present:
            loss = _softplus(-margin)
            ds[i] = p - 1.0
            dsbar[j] = 1.0 - p
        else:
            loss = _softplus(margin)
            ds[i] = p
            dsbar[j] = -p
        return loss, ds, dsbar
    raise ValueError(f"unknown model {model!r}")


def reference_localizer_run(flats, shapes, present, cfg, mean, std, seed):
    d = flats[0].shape[0]
    model = learner.init_model([d, cfg.hidden, 2], seed, mean, std)
    opt = learner.TrainConfig(
        learning_rate=cfg.learning_rate, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, seed=seed)
    velocity = learner.zero_velocity(model)
    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        epoch_total = 0.0
        for img in rng.permutation(len(flats)):
            x = flats[img].T
            out = learner.logits(model, x)
            s = out[:, 0].reshape(shapes[img])
            sbar = out[:, 1].reshape(shapes[img])
            loss, ds, dsbar = reference_image_loss_and_grad(s, sbar, present[img], cfg.model)
            epoch_total += loss
            rows = np.nonzero((ds.ravel() != 0) | (dsbar.ravel() != 0))[0]
            delta = np.stack([ds.ravel()[rows], dsbar.ravel()[rows]], axis=1)
            grads = reference_backprop(model, x[rows], delta)
            learner.sgd_step(model, grads, opt, velocity)
        model.epoch_losses.append(epoch_total / len(flats))
    total = 0.0
    for img in range(len(flats)):
        out = learner.logits(model, flats[img].T)
        s = out[:, 0].reshape(shapes[img])
        sbar = out[:, 1].reshape(shapes[img])
        total += reference_image_loss_and_grad(s, sbar, present[img], cfg.model)[0]
    return model, total / len(flats)


def reference_inputs(fields):
    """(flats, shapes, mean, std) that reference_localizer_run takes."""
    d = fields[0].shape[0]
    flats = [np.asarray(f, dtype=np.float64).reshape(d, -1) for f in fields]
    shapes = [f.shape[1:] for f in fields]
    allv = np.concatenate(flats, axis=1)
    mean = allv.mean(axis=1)
    std = np.maximum(allv.std(axis=1), 1e-8)
    return flats, shapes, mean, std


def lane_runs(tasks):
    """(lane, reference) results of every (fields, present, cfg) task's
    restarts: weaksup._lane_runs on all tasks at once, and
    reference_localizer_run on each run alone."""
    pairs = []
    for (fields, present, cfg), runs in zip(tasks, weaksup._lane_runs(tasks)):
        flats, shapes, mean, std = reference_inputs(fields)
        for r, run in enumerate(runs):
            pairs.append((run, reference_localizer_run(flats, shapes, present, cfg, mean, std,
                                                       cfg.seed + 1000 * r)))
    return pairs


def run_both(fields, present, cfg, seed):
    """(lane, reference) results of one localizer run on the same inputs."""
    return lane_runs([(fields, present, dataclasses.replace(cfg, seed=seed, restarts=1))])[0]


def assert_same_run(new, ref):
    (model, loss), (ref_model, ref_loss) = new, ref
    for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        assert got.tobytes() == want.tobytes()
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert np.array(model.epoch_losses).tobytes() == np.array(ref_model.epoch_losses).tobytes()


def assert_same_lanes(tasks):
    """Every lane of the tasks equals its reference run, and train_localizers
    returns each task's lowest-loss lane."""
    pairs = lane_runs(tasks)
    for new, ref in pairs:
        assert_same_run(new, ref)
    chosen = weaksup.train_localizers(tasks)
    for model, (fields, present, cfg) in zip(chosen, tasks):
        runs, pairs = pairs[: cfg.restarts], pairs[cfg.restarts:]
        best = min(runs, key=lambda pair: pair[1][1])[1][0]
        assert_same_run((model, 0.0), (best, 0.0))


def random_task(rng, d, hidden, model, **cfg):
    """Fields of random sizes (1 x 1 up to 6 x 6), random tags and epochs."""
    fields = [rng.normal(0.0, rng.uniform(0.1, 5.0), size=(d, *rng.integers(1, 7, size=2)))
              for _ in range(int(rng.integers(1, 7)))]
    present = [bool(v) for v in rng.integers(0, 2, size=len(fields))]
    return fields, present, LocalizerConfig(
        hidden=hidden, learning_rate=0.1, epochs=int(rng.integers(0, 7)), model=model,
        seed=int(rng.integers(0, 100)), restarts=int(rng.integers(1, 4)), **cfg)


def saturating_tasks(model):
    """Tasks whose lanes, at some step, have 0, 1 and (global model) 2 rows."""
    rng = np.random.default_rng(2)
    cfg = dict(hidden=6, learning_rate=5.0, restarts=1, model=model)
    return [
        ([rng.normal(size=(3, 4, 4)) for _ in range(3)], [True] * 3,
         LocalizerConfig(epochs=40, seed=5, **cfg)),
        ([rng.normal(size=(3, 1, 1)) for _ in range(4)], [True, False, True, False],
         LocalizerConfig(epochs=20, seed=6, **cfg)),
        ([rng.normal(size=(3, *rng.integers(2, 5, size=2))) for _ in range(5)],
         [True, False, True, False, True], LocalizerConfig(epochs=10, seed=7, **cfg)),
    ]


def lanes_of_mixed_tasks(seed):
    """Both models, tasks of different lengths and grid sizes, some sharing
    their lanes' lockstep group and one (other hidden size) alone."""
    rng = np.random.default_rng(300 + seed)
    d = int(rng.integers(1, 4))
    tasks = [random_task(rng, d, 4, model) for model in ("global", "pixel") for _ in range(3)]
    tasks.append(random_task(rng, d, 3, "global"))
    return tasks


class TestLocalizerOracle:
    @pytest.mark.parametrize("model", ["global", "pixel"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_match_reference(self, model, seed):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 5))
        # grids of different sizes, so the shared buffers are used partly
        fields = [rng.normal(0.0, rng.uniform(0.1, 5.0), size=(d, *rng.integers(1, 7, size=2)))
                  for _ in range(int(rng.integers(2, 7)))]
        present = [bool(v) for v in rng.integers(0, 2, size=len(fields))]
        cfg = LocalizerConfig(hidden=int(rng.integers(2, 9)), learning_rate=rng.uniform(0.005, 0.3),
                              epochs=int(rng.integers(2, 8)), model=model)
        assert_same_run(*run_both(fields, present, cfg, seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_lanes_match_reference(self, seed):
        assert_same_lanes(lanes_of_mixed_tasks(seed))

    @pytest.mark.parametrize("model", ["global", "pixel"])
    def test_argmax_ties_match_reference(self, model):
        # few distinct feature vectors per grid, so the score maxima repeat,
        # in lanes that step beside lanes of random grids
        rng = np.random.default_rng(7)
        fields = [rng.integers(0, 2, size=(2, 4, 5)).astype(np.float64) for _ in range(4)]
        fields.append(np.ones((2, 3, 3)))  # a constant grid: every location ties
        present = [True, False, True, False, True]
        tasks = [(fields, present, LocalizerConfig(hidden=4, epochs=6, seed=3, model=model))]
        tasks += [random_task(rng, 2, 4, model) for _ in range(2)]
        assert_same_lanes([(f, p, dataclasses.replace(c, learning_rate=0.05)) for f, p, c in tasks])

    @pytest.mark.parametrize("model", ["global", "pixel"])
    def test_saturated_margin_matches_reference(self, model, monkeypatch):
        # a large step size, so that margins grow until p == 1.0 (or 0.0),
        # after which a lane's step has no gradient rows and only weight
        # decay and momentum move its weights; 1 x 1 grids always have one
        # argmax row, larger global-model grids mostly two
        rows_per_step, last = [], []
        argmax_losses, sgd_step = weaksup._argmax_losses, learner.sgd_step

        def recording_argmax_losses(scores, present, model):
            out = argmax_losses(scores, present, model)
            _, i, j, gs, gsbar = out
            # each lane's gradient row count: 0 when its gradient vanished
            last[:] = np.where((gs == 0) & (gsbar == 0), 0, np.where(i == j, 1, 2)).tolist()
            return out

        def recording_sgd_step(model, grads, cfg, velocity):
            if model.weights[0].ndim == 3:  # the lanes' stacked update
                assert len(last) == len(model.weights[0])
                rows_per_step.append(list(last))
            return sgd_step(model, grads, cfg, velocity)

        monkeypatch.setattr(weaksup, "_argmax_losses", recording_argmax_losses)
        monkeypatch.setattr(learner, "sgd_step", recording_sgd_step)
        assert_same_lanes(saturating_tasks(model))
        kinds = {0, 1, 2} if model == "global" else {0, 1}
        assert any(set(counts) == kinds for counts in rows_per_step)

    @pytest.mark.parametrize("model", ["global", "pixel"])
    def test_restarts_pick_the_lowest_loss_reference_run(self, model):
        # every restart trains on the rows normalized once, by the statistics
        # of the fields it is given (in the pipeline, one class's subset)
        rng = np.random.default_rng(41)
        fields = [rng.normal(0.0, rng.uniform(0.5, 3.0), size=(3, *rng.integers(2, 6, size=2)))
                  for _ in range(5)]
        present = [True, False, True, True, False]
        cfg = LocalizerConfig(hidden=5, learning_rate=0.2, epochs=5, seed=6, model=model)
        flats, shapes, mean, std = reference_inputs(fields)
        runs = [reference_localizer_run(flats, shapes, present, cfg, mean, std,
                                        cfg.seed + 1000 * r) for r in range(cfg.restarts)]
        losses = [loss for _, loss in runs]
        assert len(set(losses)) == cfg.restarts and np.argmin(losses) != 0  # a later run wins
        want = runs[int(np.argmin(losses))][0]
        got = train_localizers([(fields, present, cfg)])[0]
        for a, b in zip(got.weights + got.biases + [got.mean, got.std],
                        want.weights + want.biases + [want.mean, want.std]):
            assert a.tobytes() == b.tobytes()


def reference_train_localizers(tasks):
    """Each task's lowest-loss reference_localizer_run, one run at a time."""
    models = []
    for fields, present, cfg in tasks:
        flats, shapes, mean, std = reference_inputs(fields)
        runs = [reference_localizer_run(flats, shapes, present, cfg, mean, std,
                                        cfg.seed + 1000 * r) for r in range(cfg.restarts)]
        models.append(min(runs, key=lambda run: run[1])[0])
    return models


def tagged_blobs(seed, count=10, size=6):
    """(D=3, size, size) noise fields, each with 1-2 of classes 1..3 painted
    at random cells in its own color; returns (fields, presence)."""
    rng = np.random.default_rng(seed)
    colors = rng.normal(0.0, 3.0, size=(4, 3))
    fields, presence = [], []
    for _ in range(count):
        f = rng.normal(0.0, 0.5, size=(3, size, size))
        classes = set(rng.choice([1, 2, 3], size=int(rng.integers(1, 3)), replace=False).tolist())
        for c in classes:
            r, col = rng.integers(0, size - 1, size=2)
            f[:, r : r + 2, col : col + 2] = colors[c][:, None, None]
        fields.append(f)
        presence.append(classes)
    return fields, presence


@pytest.mark.parametrize("seed", range(8))
def test_pipeline_matches_per_class_reference(seed, monkeypatch):
    fields, presence = tagged_blobs(seed)
    cfg = learner.TrainConfig(epochs=20, batch_size=16, learning_rate=0.1, hidden=(8,))

    def predict():
        return np.stack(weaksup.point_supervision_pipeline(
            fields, presence, 4, 3, "diverse", seed=seed, classifier_cfg=cfg))

    got = predict()
    monkeypatch.setattr(weaksup, "train_localizers", reference_train_localizers)
    want = predict()
    assert len(np.unique(want)) > 1
    assert got.tobytes() == want.tobytes()


def test_lanes_match_reference_under_the_prescott_blas_kernel():
    # each slice of a batched matmul must get the bytes of its own 2-D call
    # under any BLAS kernel, not only the one this host picks
    code = ("import test_weaksup as t\n"
            "for seed in range(2): t.assert_same_lanes(t.lanes_of_mixed_tasks(seed))\n"
            "for model in ('global', 'pixel'): t.assert_same_lanes(t.saturating_tasks(model))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(weaksup.__file__).parents[1]), str(here)]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestImageLossOracle:
    @pytest.mark.parametrize("model", ["global", "pixel"])
    @pytest.mark.parametrize("present", [True, False])
    def test_grids_match_reference(self, model, present):
        rng = np.random.default_rng(21)
        grids = [(rng.normal(size=(3, 4)), rng.normal(size=(3, 4))) for _ in range(20)]
        grids.append((np.zeros((2, 3)), np.zeros((2, 3))))              # every location ties
        grids.append((np.full((2, 2), 50.0), np.zeros((2, 2))))         # p == 1.0
        grids.append((np.full((2, 2), -800.0), np.zeros((2, 2))))       # p == 0.0
        grids.append((rng.normal(size=(4, 3)).T, rng.normal(size=(4, 3)).T))  # Fortran order
        for s, sbar in grids:
            got = grid_loss_and_grad(s, sbar, present, model)
            want = reference_image_loss_and_grad(s, sbar, present, model)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_ties_go_to_smallest_index(self):
        s = np.zeros((2, 3))
        sbar = np.zeros((2, 3))
        sbar[1, 2] = sbar[0, 1] = 1.0
        _, ds, dsbar = grid_loss_and_grad(s, sbar, True, "global")
        assert np.flatnonzero(ds.ravel()).tolist() == [0]
        assert np.flatnonzero(dsbar.ravel()).tolist() == [1]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            grid_loss_and_grad(np.zeros((2, 2)), np.zeros((2, 2)), True, "mean")


# --- the two greedy loops that weaksup._greedy replaced, kept verbatim as
# the oracles for the foreground and background samplers


def reference_greedy_diverse(scores_flat, sim_to, k):
    """Shared greedy loop: maximize score * (1 - current max similarity)."""
    maxsim = np.zeros(scores_flat.size)
    available = scores_flat > 0
    chosen = []
    for _ in range(k):
        if not available.any():
            break
        obj = np.where(available, scores_flat * (1.0 - maxsim), -np.inf)
        pick = int(np.argmax(obj))
        chosen.append(pick)
        available[pick] = False
        np.maximum(maxsim, sim_to(pick), out=maxsim)
    if len(chosen) < k:
        # the rest in score order, up to the first excluded (-inf) location
        order = weaksup._score_order(scores_flat)
        order = order[np.logical_and.accumulate(scores_flat[order] != -np.inf)]
        chosen += order[~np.isin(order, chosen)][: k - len(chosen)].tolist()
    return chosen


def reference_diverse_sample_bg(z, fg_points, k_bg):
    """Background picks most dissimilar to foreground and prior picks."""
    fg_points = np.asarray(fg_points)
    if fg_points.size == 0:
        raise ValueError("foreground samples must be nonempty")
    zf, available = weaksup._unit_rows(z)
    w = np.shape(z)[2]
    fg_idx = fg_points[:, 0] * w + fg_points[:, 1]
    obj = np.abs(zf @ zf[fg_idx].T).max(axis=1)
    available[fg_idx] = False
    chosen = []
    for _ in range(k_bg):
        if not available.any():
            break
        cand = np.where(available, obj, np.inf)
        pick = int(np.argmin(cand))
        chosen.append(pick)
        available[pick] = False
        np.maximum(obj, np.abs(zf @ zf[pick]), out=obj)
    return weaksup._flat_points(np.array(chosen, dtype=np.int64), w)


def random_sampler_case(rng):
    """(scores, unit field) on a small grid; integer draws make ties and zero rows."""
    h, w, d = (int(v) for v in rng.integers(1, 7, size=3))
    ties = rng.random() < 0.4
    field = (rng.integers(-1, 2, size=(d, h, w)).astype(np.float64) if ties
             else rng.normal(size=(d, h, w)))
    scores = (rng.integers(-2, 3, size=(h, w)).astype(np.float64) if ties
              else rng.normal(size=(h, w)))
    return scores, normalize_features([field])[0]


class TestGreedyOracle:
    def test_foreground_loop_matches_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            scores, z = random_sampler_case(rng)
            zf, valid = weaksup._unit_rows(z)
            flat = scores.ravel().copy()
            flat[~valid] = -np.inf
            k = int(rng.integers(1, flat.size + 1))

            def sim_to(pick):
                return np.abs(zf @ zf[pick])
            assert weaksup._greedy_diverse(flat, sim_to, k) == \
                reference_greedy_diverse(flat, sim_to, k)

    def test_background_matches_reference_bytes(self):
        # k_bg up to the grid size runs the candidates out
        rng = np.random.default_rng(32)
        cases = 0
        for _ in range(400):
            scores, z = random_sampler_case(rng)
            fg = diverse_sample_fg(scores, z, int(rng.integers(1, scores.size + 1)))
            if not len(fg):  # every feature vector is zero
                continue
            k_bg = int(rng.integers(1, scores.size + 1))
            got = diverse_sample_bg(z, fg, k_bg)
            want = reference_diverse_sample_bg(z, fg, k_bg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            cases += 1
        assert cases > 300


class TestSamplePoints:
    @pytest.mark.parametrize("mode", ["diverse", "topk", "spatial"])
    @pytest.mark.parametrize("bg", [False, True])
    def test_foreground_per_grid_then_background(self, mode, bg):
        rng = np.random.default_rng(33)
        grids = rng.uniform(0.1, 1.0, size=(3, 5, 6))
        z = normalize_features([rng.normal(size=(4, 5, 6))])[0]
        want = [sample_foreground(g, z, 4, mode) for g in grids]
        if bg:
            want.append(diverse_sample_bg(z, np.concatenate(want), 4))
        got = sample_points(grids, z, 4, mode, bg)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mode", ["diverse", "topk", "spatial"])
    def test_grid_mismatch_rejected(self, mode):
        z = normalize_features([np.random.default_rng(34).normal(size=(3, 4, 4))])[0]
        with pytest.raises(ValueError, match=r"score grid \(8, 8\) != feature grid \(4, 4\)"):
            sample_points(np.ones((2, 8, 8)), z, 2, mode, bg=False)
