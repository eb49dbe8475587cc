import math

import numpy as np
import pytest

from zok import learner, weaksup
from zok.weaksup import (LocalizerConfig, _sigmoid, _softplus, diverse_sample_bg,
                         diverse_sample_fg, global_softmax_prob,
                         image_loss_and_grad, normalize_features,
                         pixel_softmax_prob, score_field,
                         spatial_diverse_sample, topk_sample, train_localizer)


class TestPixelSoftmax:
    def test_equal_scores_half(self):
        s = np.zeros((3, 3))
        assert pixel_softmax_prob(s, s) == pytest.approx(0.5)

    def test_ln3_margin(self):
        s = np.full((2, 2), -1.0)
        sbar = np.full((2, 2), 0.0)
        s[1, 1] = math.log(3)
        sbar[1, 1] = 0.0
        assert pixel_softmax_prob(s, sbar) == pytest.approx(0.75)

    def test_single_location_equals_global(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(1, 1))
        sbar = rng.normal(size=(1, 1))
        assert pixel_softmax_prob(s, sbar) == pytest.approx(global_softmax_prob(s, sbar))

    def test_stable_at_large_scores(self):
        s = np.array([[800.0]])
        sbar = np.array([[799.0]])
        p = pixel_softmax_prob(s, sbar)
        assert 0.7 < p < 0.74


class TestGlobalSoftmax:
    def test_equal_maxima_half(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 0, size=(3, 4))
        s[0, 0] = 0.0
        sbar = rng.uniform(-1, 0, size=(3, 4))
        sbar[2, 1] = 0.0
        assert global_softmax_prob(s, sbar) == pytest.approx(0.5)

    def test_ln3_margin(self):
        s = np.array([[math.log(3), -5.0]])
        sbar = np.array([[0.0, -7.0]])
        assert global_softmax_prob(s, sbar) == pytest.approx(0.75)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(4, 4))
        sbar = rng.normal(size=(4, 4))
        assert global_softmax_prob(s + 11.0, sbar + 11.0) == pytest.approx(
            global_softmax_prob(s, sbar))

    def test_both_probabilities_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(3, 3))
        sbar = rng.normal(size=(3, 3))
        for fn in (pixel_softmax_prob, global_softmax_prob):
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
            loss, ds, dsbar = image_loss_and_grad(s, sbar, True, model)
            assert loss < 1e-6
            assert np.abs(ds).max() < 1e-6 and np.abs(dsbar).max() < 1e-6

    def test_pixel_gradient_support_single_location(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(3, 4))
        sbar = rng.normal(size=(3, 4))
        _, ds, dsbar = image_loss_and_grad(s, sbar, True, "pixel")
        assert (ds != 0).sum() == 1
        assert (dsbar != 0).sum() == 1
        assert np.argmax(np.abs(ds)) == np.argmax(np.abs(dsbar))

    def test_global_gradient_support_two_cells(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 4))
        sbar = rng.normal(size=(3, 4))
        _, ds, dsbar = image_loss_and_grad(s, sbar, False, "global")
        assert (ds != 0).sum() == 1 and (dsbar != 0).sum() == 1
        cells = {np.flatnonzero(ds.ravel())[0], np.flatnonzero(dsbar.ravel())[0]}
        assert len(cells) in (1, 2)

    @pytest.mark.parametrize("model", ["pixel", "global"])
    @pytest.mark.parametrize("present", [True, False])
    def test_matches_finite_differences(self, model, present):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(3, 3))
        sbar = rng.normal(size=(3, 3))
        _, ds, dsbar = image_loss_and_grad(s, sbar, present, model)
        h = 1e-6
        for grid, grad in ((s, ds), (sbar, dsbar)):
            for idx in np.ndindex(3, 3):
                orig = grid[idx]
                grid[idx] = orig + h
                up = image_loss_and_grad(s, sbar, present, model)[0]
                grid[idx] = orig - h
                down = image_loss_and_grad(s, sbar, present, model)[0]
                grid[idx] = orig
                num = (up - down) / (2 * h)
                assert abs(grad[idx] - num) <= 1e-4 * max(abs(num), 1e-6)


class TestNormalizeFeatures:
    def test_identical_vectors_become_invalid(self):
        fields = [np.full((3, 2, 2), 4.0)]
        z, _, _ = normalize_features(fields)
        assert np.allclose(z[0], 0.0)

    def test_two_sample_hand_case(self):
        fields = [np.array([[[-1.0, 1.0]]])]  # one dim, two locations
        z, mean, std = normalize_features(fields)
        assert mean[0] == pytest.approx(0.0)
        assert std[0] == pytest.approx(1.0)
        assert np.allclose(z[0][0], [-1.0, 1.0])

    def test_unit_norms(self):
        rng = np.random.default_rng(7)
        fields = [rng.normal(size=(5, 4, 6)) for _ in range(3)]
        zs, _, _ = normalize_features(fields)
        for z in zs:
            norms = np.sqrt((z**2).sum(axis=0))
            assert np.allclose(norms, 1.0, atol=1e-5)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        fields = [rng.normal(size=(4, 3, 5)) for _ in range(2)]
        scale = rng.uniform(0.5, 3.0, size=4)[:, None, None]
        shift = rng.normal(size=4)[:, None, None]
        z1, _, _ = normalize_features(fields)
        z2, _, _ = normalize_features([f * scale + shift for f in fields])
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
        pts = spatial_diverse_sample(scores, None, 1)
        assert tuple(pts[0]) == np.unravel_index(np.argmax(scores), scores.shape)

    def test_spatial_spreads_on_uniform_scores(self):
        scores = np.ones((9, 9))
        k = 4
        pts = spatial_diverse_sample(scores, None, k).astype(float)
        diag = math.hypot(8, 8)
        for i in range(k):
            for j in range(i + 1, k):
                d = math.hypot(*(pts[i] - pts[j]))
                assert d >= diag / (2 * k)


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
        net = train_localizer(fields, present, cfg)
        prob_fn = global_softmax_prob if model == "global" else pixel_softmax_prob
        probs = [prob_fn(*score_field(net, f)) for f in fields]
        correct = sum((p > 0.5) == is_pos for p, is_pos in zip(probs, present))
        assert correct / len(fields) >= 0.9

    def test_scores_localize_the_signal(self):
        fields, present = self.make_dataset(seed=3)
        cfg = LocalizerConfig(hidden=8, learning_rate=0.03, epochs=10, seed=2)
        net = train_localizer(fields, present, cfg)
        hits = total = 0
        for f, is_pos in zip(fields, present):
            if not is_pos:
                continue
            s, _ = score_field(net, f)
            total += 1
            hits += np.unravel_index(np.argmax(s), s.shape) == \
                np.unravel_index(np.argmax(f[0]), s.shape)
        assert hits / total >= 0.8


# --- the localizer's training loop before it was rewritten, kept verbatim
# as the oracle for weaksup._localizer_run and image_loss_and_grad


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
        for img in rng.permutation(len(flats)):
            x = flats[img].T
            out = learner.logits(model, x)
            s = out[:, 0].reshape(shapes[img])
            sbar = out[:, 1].reshape(shapes[img])
            _, ds, dsbar = reference_image_loss_and_grad(s, sbar, present[img], cfg.model)
            rows = np.nonzero((ds.ravel() != 0) | (dsbar.ravel() != 0))[0]
            delta = np.stack([ds.ravel()[rows], dsbar.ravel()[rows]], axis=1)
            grads = learner.backprop(model, x[rows], delta)
            learner.sgd_step(model, grads, opt, velocity)
    total = 0.0
    for img in range(len(flats)):
        out = learner.logits(model, flats[img].T)
        s = out[:, 0].reshape(shapes[img])
        sbar = out[:, 1].reshape(shapes[img])
        total += reference_image_loss_and_grad(s, sbar, present[img], cfg.model)[0]
    return model, total / len(flats)


def run_both(fields, present, cfg, seed):
    """(new, reference) results of one localizer run on the same inputs."""
    d = fields[0].shape[0]
    flats = [np.asarray(f, dtype=np.float64).reshape(d, -1) for f in fields]
    shapes = [f.shape[1:] for f in fields]
    allv = np.concatenate(flats, axis=1)
    mean = allv.mean(axis=1)
    std = np.maximum(allv.std(axis=1), 1e-8)
    new = weaksup._localizer_run(flats, present, cfg, mean, std, seed)
    ref = reference_localizer_run(flats, shapes, present, cfg, mean, std, seed)
    return new, ref


def assert_same_run(new, ref):
    (model, loss), (ref_model, ref_loss) = new, ref
    for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        assert got.tobytes() == want.tobytes()
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()


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

    @pytest.mark.parametrize("model", ["global", "pixel"])
    def test_argmax_ties_match_reference(self, model):
        # few distinct feature vectors per grid, so the score maxima repeat
        rng = np.random.default_rng(7)
        fields = [rng.integers(0, 2, size=(2, 4, 5)).astype(np.float64) for _ in range(4)]
        fields.append(np.ones((2, 3, 3)))  # a constant grid: every location ties
        present = [True, False, True, False, True]
        cfg = LocalizerConfig(hidden=4, learning_rate=0.05, epochs=6, model=model)
        assert_same_run(*run_both(fields, present, cfg, 3))

    @pytest.mark.parametrize("model", ["global", "pixel"])
    def test_saturated_margin_matches_reference(self, model, monkeypatch):
        # all images present and a large step size: the margin grows until
        # p == 1.0, after which a step has no gradient rows and only weight
        # decay and momentum move the weights
        rng = np.random.default_rng(11)
        fields = [rng.normal(size=(3, 4, 4)) for _ in range(3)]
        cfg = LocalizerConfig(hidden=6, learning_rate=5.0, epochs=40, model=model)
        rows_per_step = []
        backward = learner._backward

        def counting_backward(net, acts, delta, masks=None):
            rows_per_step.append(len(delta))
            return backward(net, acts, delta, masks)

        monkeypatch.setattr(learner, "_backward", counting_backward)
        new, ref = run_both(fields, [True] * 3, cfg, 5)
        assert 0 in rows_per_step
        assert_same_run(new, ref)


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
            got = image_loss_and_grad(s, sbar, present, model)
            want = reference_image_loss_and_grad(s, sbar, present, model)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_ties_go_to_smallest_index(self):
        s = np.zeros((2, 3))
        sbar = np.zeros((2, 3))
        sbar[1, 2] = sbar[0, 1] = 1.0
        _, ds, dsbar = image_loss_and_grad(s, sbar, True, "global")
        assert np.flatnonzero(ds.ravel()).tolist() == [0]
        assert np.flatnonzero(dsbar.ravel()).tolist() == [1]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            image_loss_and_grad(np.zeros((2, 2)), np.zeros((2, 2)), True, "mean")
