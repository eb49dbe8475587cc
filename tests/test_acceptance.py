"""Acceptance suite: every criterion asserts its stated tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from test_weaksup import grid_loss_and_grad
from zok import cli, crf, learner, metrics, weaksup
from zok.core_io import (read_pgm, read_ppm, read_tensor, rgb_to_lab,
                         write_pgm, write_ppm, write_tensor)
from zok.slic import SlicParams, run_slic
from zok.synth import SyntheticSpec, lab_to_rgb, synth_generate


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_1_oracle_labeling_exact(tmp_path):
    with criterion("1 oracle labeling reaches mIoU 1.0 on aligned ground truth"):
        start = time.perf_counter()
        spec = SyntheticSpec(size=64, num_classes=5, kind="blobs", noise_sigma=6.0)
        synth_generate(spec, 3, seed=5, out_dir=tmp_path)
        from zok.synth import load_dataset
        total = np.zeros((5, 5), dtype=np.int64)
        for img, gt in load_dataset(tmp_path):
            res = run_slic(rgb_to_lab(img), SlicParams(k=64, m=15))
            aligned = metrics.oracle_labels(gt, res.spmap)  # constant per superpixel
            relabeled = metrics.oracle_labels(aligned, res.spmap)
            assert np.array_equal(relabeled, aligned)
            total += metrics.confusion(relabeled, aligned, 5)
        assert metrics.mean_iou(total) == 1.0
        assert time.perf_counter() - start < 1.0


def test_2_slic_quality():
    with criterion("2 SLIC purity, boundary recall and determinism"):
        start = time.perf_counter()
        img = np.empty((64, 64, 3), dtype=np.uint8)
        img[:32, :32] = (40, 40, 40)
        img[:32, 32:] = (220, 50, 50)
        img[32:, :32] = (50, 220, 50)
        img[32:, 32:] = (50, 50, 220)
        res = run_slic(rgb_to_lab(img), SlicParams(k=4, m=10))
        for ys, xs in [(slice(0, 32), slice(0, 32)), (slice(0, 32), slice(32, 64)),
                       (slice(32, 64), slice(0, 32)), (slice(32, 64), slice(32, 64))]:
            quad = res.spmap[ys, xs]
            assert np.bincount(quad.ravel()).max() / quad.size >= 0.95

        edge = np.full((64, 64, 3), 30, dtype=np.uint8)
        edge[:, 32:] = (200, 200, 200)
        sp = run_slic(rgb_to_lab(edge), SlicParams(k=64, m=10)).spmap
        pred = np.zeros((64, 64), dtype=bool)
        pred[:, :-1] |= sp[:, :-1] != sp[:, 1:]
        pred[:-1, :] |= sp[:-1, :] != sp[1:, :]
        hits = sum(pred[max(0, y - 1):y + 2, 30:33].any() for y in range(64))
        assert hits / 64 >= 0.99

        again = run_slic(rgb_to_lab(img), SlicParams(k=4, m=10))
        assert res.spmap.tobytes() == again.spmap.tobytes()
        assert time.perf_counter() - start < 0.5


def _numeric_grad(fn, arr, h=1e-3):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = fn()
        arr[idx] = orig - h
        down = fn()
        arr[idx] = orig
        g[idx] = (up - down) / (2 * h)
    return g


def _kink_safe_batch(rng, model, n):
    """Inputs whose hidden pre-activations stay clear of the ReLU kink,
    where central differences would measure a one-sided slope."""
    for _ in range(200):
        x = rng.normal(size=(n, 3))
        z = (x - model.mean) / model.std @ model.weights[0].T + model.biases[0]
        if np.abs(z).min() > 0.05:
            return x
    raise RuntimeError("no kink-safe batch found")


def test_3_gradient_oracles():
    with criterion("3 analytic gradients match finite differences (rel < 1e-4)"):
        start = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = learner.init_model([3, 4, 3], seed=seed)
            x = _kink_safe_batch(rng, model, 4)
            labels = rng.integers(0, 3, size=4)
            f = rng.dirichlet(np.ones(3))
            gw, gb = learner.loss_gradient(model, x, labels, f)

            def loss():
                return learner.asymmetric_loss(learner.forward(model, x), labels, f)

            for params, grads in ((model.weights, gw), (model.biases, gb)):
                for param, grad in zip(params, grads):
                    num = _numeric_grad(loss, param)
                    assert np.linalg.norm(grad - num) < 1e-4 * max(np.linalg.norm(num), 1e-8)

        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            s = rng.normal(size=(3, 3))
            sbar = rng.normal(size=(3, 3))
            present = bool(seed % 2)
            for mode in ("pixel", "global"):
                _, ds, dsbar = grid_loss_and_grad(s, sbar, present, mode)
                for grid, grad in ((s, ds), (sbar, dsbar)):
                    num = _numeric_grad(
                        lambda: grid_loss_and_grad(s, sbar, present, mode)[0],
                        grid, h=1e-6)
                    denom = max(np.linalg.norm(num), 1e-6)
                    assert np.linalg.norm(grad - num) < 1e-4 * max(denom, 1.0)
        assert time.perf_counter() - start < 5.0


def test_4_loss_identity():
    with criterion("4 uniform frequencies: asymmetric = C x mean log-loss (1e-6 rel)"):
        rng = np.random.default_rng(0)
        for c in (2, 5, 21):
            for _ in range(5):
                probs = rng.dirichlet(np.ones(c), size=32)
                labels = rng.integers(0, c, size=32)
                asym = learner.asymmetric_loss(probs, labels, np.full(c, 1.0 / c))
                plain = -np.log(probs[np.arange(32), labels]).mean()
                assert abs(asym - c * plain) <= 1e-6 * abs(c * plain)


def test_5_diverse_sampling_oracles():
    with criterion("5 diverse sampling matches argmax/top-k/exhaustive oracles"):
        rng = np.random.default_rng(1)
        # k = 1 equals plain argmax
        scores = rng.uniform(0.1, 1.0, size=(5, 5))
        z = rng.normal(size=(4, 5, 5))
        pts = weaksup.diverse_sample_fg(scores, z, 1)
        assert tuple(pts[0]) == np.unravel_index(np.argmax(scores), scores.shape)

        # mutually orthogonal features reduce to top-k
        scores = rng.uniform(0.1, 1.0, size=(3, 3))
        zo = np.eye(9).reshape(9, 3, 3)
        assert np.array_equal(weaksup.diverse_sample_fg(scores, zo, 5),
                              weaksup.topk_sample(scores, 5))

        # duplicated feature vector is never picked second
        dup_scores = np.array([[5.0, 4.0, 1.0]])
        dup_z = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]).reshape(2, 1, 3)
        got = weaksup.diverse_sample_fg(dup_scores, dup_z, 2)
        assert [tuple(p) for p in got] == [(0, 0), (0, 2)]

        # 4-point instances match exhaustive greedy evaluation
        for seed in range(10):
            rng = np.random.default_rng(10 + seed)
            scores = rng.uniform(-0.5, 1.0, size=(2, 2))
            z = rng.normal(size=(3, 2, 2))
            z /= np.sqrt((z**2).sum(axis=0, keepdims=True))
            zf = z.reshape(3, -1).T
            fg = weaksup.diverse_sample_fg(scores, z, 2)
            flat = scores.ravel()
            pool = [i for i in range(4) if flat[i] > 0]
            if pool:
                first = min((i for i in pool), key=lambda i: (-flat[i], i))
                assert fg[0][0] * 2 + fg[0][1] == first
                rest = [i for i in pool if i != first]
                if rest:
                    best = min(rest, key=lambda i: (-flat[i] * (1 - abs(zf[i] @ zf[first])), i))
                    assert fg[1][0] * 2 + fg[1][1] == best
            bg = weaksup.diverse_sample_bg(z, fg[:1], 2)
            chosen = []
            cand = [i for i in range(4) if i != fg[0][0] * 2 + fg[0][1]]
            for _ in range(2):
                objs = [(max(abs(zf[i] @ zf[j])
                             for j in [fg[0][0] * 2 + fg[0][1]] + chosen), i)
                        for i in cand if i not in chosen]
                chosen.append(min(objs)[1])
            assert [p[0] * 2 + p[1] for p in bg] == chosen


# --- weak-supervision benchmark -----------------------------------------

_BG = np.array([55.0, 0.0, 0.0])
_SHADE_A = np.array([[55.0, 60.0, 30.0], [45.0, 10.0, -55.0], [65.0, 55.0, -15.0]])
_SHADE_B = np.array([[55.0, -55.0, 40.0], [82.0, -5.0, 75.0], [70.0, -30.0, -20.0]])


def _variant_blobs(count, seed, size=64, noise=4.0):
    """Blob images where each class has a common shade and a rarer variant
    that usually co-occurs with it but sometimes appears alone."""
    rng = np.random.default_rng(seed)
    images, gts = [], []
    ys, xs = np.mgrid[0:size, 0:size]
    for _ in range(count):
        gt = np.zeros((size, size), dtype=np.int32)
        lab = np.tile(_BG, (size, size, 1)).astype(np.float64)
        classes = rng.choice([1, 2, 3], size=rng.integers(1, 3), replace=False)
        for cls in classes:
            r = rng.uniform()
            shades = [0, 1] if r < 0.6 else ([0] if r < 0.8 else [1])
            for sh in shades:
                cy, cx = rng.uniform(10, size - 10, size=2)
                ry, rx = rng.uniform(8, 13, size=2)
                mask = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
                gt[mask] = cls
                lab[mask] = (_SHADE_A if sh == 0 else _SHADE_B)[cls - 1]
        rgb = lab_to_rgb(lab).astype(np.float64) + rng.normal(0, noise, (size, size, 3))
        images.append(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))
        gts.append(gt)
    return images, gts


def _grid_field(img, cell=2):
    lab = rgb_to_lab(img)
    h, w = lab.shape[:2]
    f = lab.reshape(h // cell, cell, w // cell, cell, 3).mean(axis=(1, 3))
    return np.moveaxis(f, 2, 0)


def _weaksup_miou(fields, presence, gts, mode, k, cell=2):
    preds = weaksup.point_supervision_pipeline(
        fields, presence, 4, k, mode, seed=0,
        classifier_cfg=learner.TrainConfig(
            epochs=150, batch_size=128, learning_rate=0.1, momentum=0.9,
            weight_decay=1e-4, seed=0, loss="asymmetric", hidden=(32,)))
    cm = np.zeros((4, 4), dtype=np.int64)
    for p, g in zip(preds, gts):
        up = np.kron(p, np.ones((cell, cell), dtype=np.int32))
        cm += metrics.confusion(up, g, 4)
    return metrics.mean_iou(cm)


def test_6_weak_supervision_trend():
    with criterion("6 diverse k=20 >= top-k=20 and k=20 >= k=1 (pipeline mIoU)"):
        start = time.perf_counter()
        images, gts = _variant_blobs(200, seed=123)
        fields = [_grid_field(im) for im in images]
        presence = [set(int(v) for v in np.unique(g)) - {0} for g in gts]
        diverse20 = _weaksup_miou(fields, presence, gts, "diverse", 20)
        topk20 = _weaksup_miou(fields, presence, gts, "topk", 20)
        diverse1 = _weaksup_miou(fields, presence, gts, "diverse", 1)
        print(f"  mIoU diverse k=20: {diverse20:.4f}, top-k=20: {topk20:.4f}, "
              f"k=1: {diverse1:.4f}")
        assert diverse20 >= topk20
        assert diverse20 >= diverse1
        assert time.perf_counter() - start < 180.0


def test_7_crf_oracles():
    with criterion("7 CRF brute force, hand energies, free energy, MAP match"):
        # exact normalization
        rng = np.random.default_rng(0)
        unary = rng.normal(size=(4, 3))
        model = crf.CrfModel(unary, [crf.Kernel(0.5, [1.0, 1.0], rng.normal(size=(4, 2)))])
        _, probs = crf.gibbs_distribution_bruteforce(model)
        assert abs(probs.sum() - 1.0) <= 1e-9

        # 2-node hand arithmetic
        unary = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = crf.CrfModel(unary, [crf.Kernel(2.0, [1.0], [[0.0], [1.0]])])
        k01 = math.exp(-0.5)
        assert crf.gibbs_energy([0, 1], model) == pytest.approx(1 + 4 + 2 * k01)
        assert crf.gibbs_energy([0, 0], model) == pytest.approx(4.0)

        # 3-node hand arithmetic
        unary3 = np.array([[0.5, 1.0], [2.0, 0.25], [1.5, 1.0]])
        model3 = crf.CrfModel(unary3, [crf.Kernel(1.0, [1.0], [[0.0], [1.0], [3.0]])])
        x = [0, 1, 0]
        hand = (0.5 + 0.25 + 1.5
                + math.exp(-0.5 * 1.0)       # nodes 0,1 differ, delta 1
                + math.exp(-0.5 * 4.0))      # nodes 1,2 differ, delta 2
        assert crf.gibbs_energy(x, model3) == pytest.approx(hand)

        # sequential damped mean field: free energy never increases; MAP match
        # (coupling strengths in the moderate regime CRF refinement targets)
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(100):
            unary = rng.normal(0.0, 1.5, size=(4, 2))
            weight = float(rng.uniform(0.2, 1.5))
            lam = float(rng.uniform(0.5, 4.0))
            model = crf.CrfModel(unary, [crf.Kernel(weight, [lam, lam], rng.normal(size=(4, 2)))])
            state = crf.mean_field_refine(model, iters=30, damping=0.3, mode="sequential")
            assert np.all(np.diff(state.free_energies) <= 1e-10)
            labelings, probs = crf.gibbs_distribution_bruteforce(model)
            hits += np.array_equal(crf.map_labels(state.q), labelings[np.argmax(probs)])
        assert hits / 100 >= 0.9


def test_8_end_to_end_segmentation(tmp_path):
    with criterion("8 end-to-end synthetic segmentation mIoU >= 0.85, CRF safe"):
        start = time.perf_counter()
        spec = SyntheticSpec(size=128, num_classes=5, kind="blobs", noise_sigma=8.0)
        synth_generate(spec, 100, seed=1, out_dir=tmp_path / "train")
        synth_generate(spec, 20, seed=2, out_dir=tmp_path / "test")
        config = {
            "train_dir": str(tmp_path / "train"),
            "test_dir": str(tmp_path / "test"),
            "classes": 5,
            "slic": {"k": 128, "m": 15},
            "proximal_radius": 2,
            "train": {"hidden": [64], "epochs": 30, "learning_rate": 0.02,
                      "batch_size": 128, "seed": 0, "loss": "asymmetric"},
            "crf": {"iters": 5, "damping": 0.5, "w_appearance": 2.0, "w_smooth": 0.5,
                    "sigma_xy": 20.0, "sigma_lab": 8.0, "sigma_xy_smooth": 5.0},
        }
        report = cli.pipeline_run(config)
        print(f"  mIoU: {report['mIoU']:.4f}, with CRF: {report['crf']['mIoU']:.4f}")
        assert report["mIoU"] >= 0.85
        assert report["crf"]["mIoU"] >= report["mIoU"] - 0.01
        assert time.perf_counter() - start < 120.0


def test_9_format_fidelity(tmp_path):
    with criterion("9 file formats round-trip exactly; depth hand values hold"):
        rng = np.random.default_rng(3)

        img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        write_ppm(img, tmp_path / "i.ppm")
        assert np.array_equal(read_ppm(tmp_path / "i.ppm"), img)
        write_ppm(read_ppm(tmp_path / "i.ppm"), tmp_path / "i2.ppm")
        assert (tmp_path / "i.ppm").read_bytes() == (tmp_path / "i2.ppm").read_bytes()

        labels = rng.integers(0, 300, size=(5, 5))
        write_pgm(labels, tmp_path / "l.pgm")
        assert np.array_equal(read_pgm(tmp_path / "l.pgm"), labels)
        write_pgm(read_pgm(tmp_path / "l.pgm"), tmp_path / "l2.pgm")
        assert (tmp_path / "l.pgm").read_bytes() == (tmp_path / "l2.pgm").read_bytes()

        for arr in (rng.random((2, 3, 4)).astype(np.float32),
                    rng.integers(0, 2**16, size=(6,), dtype=np.uint16),
                    rng.integers(0, 2**32, size=(3, 3), dtype=np.uint32)):
            write_tensor(arr, tmp_path / "t.zot")
            assert np.array_equal(read_tensor(tmp_path / "t.zot"), arr)
            write_tensor(read_tensor(tmp_path / "t.zot"), tmp_path / "t2.zot")
            assert (tmp_path / "t.zot").read_bytes() == (tmp_path / "t2.zot").read_bytes()

        x = np.concatenate([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
        y = np.repeat([0, 1], 20)
        model = learner.train(x, y, learner.TrainConfig(epochs=3, batch_size=10,
                                                        learning_rate=0.05, seed=0))
        learner.write_model(model, tmp_path / "m.zom")
        learner.write_model(learner.read_model(tmp_path / "m.zom"), tmp_path / "m2.zom")
        assert (tmp_path / "m.zom").read_bytes() == (tmp_path / "m2.zom").read_bytes()

        gt = rng.uniform(1.0, 5.0, size=(8, 8))
        scores = metrics.depth_metrics(1.2 * gt, gt)
        assert scores["delta_1"] == 1.0
        assert scores["rmse_log"] == pytest.approx(0.18232, abs=1e-4)
