"""Weakly-supervised localization scoring and point sampling.

A per-location head produces two score grids per class: S(c, i) for
foreground and Sbar(c, i) for background.  Image-level class probability
comes from either the per-pixel softmax model

    p(c) = max_i exp S_i / (exp S_i + exp Sbar_i)

or the global softmax model

    p(c) = exp(max S) / (exp(max S) + exp(max Sbar)),

and the binary image-level log-loss routes its gradient through the
argmax location(s) only.  Trained score maps are turned into point-wise
supervision by greedy diverse sampling: pick the highest-scoring
location, then repeatedly pick the location maximizing

    S(i) * (1 - max_{chosen} |z_i . z_chosen|)

over unit-norm feature vectors z; background points are the locations
most dissimilar to everything picked so far.  Ties always break to the
smallest row-major index, and previously chosen locations are excluded.

Scores may be negative, which would make the penalized objective favor
duplicates, so candidates are restricted to S(i) > 0; when no positive
score exists the sampler falls back to plain score order.
"""

from dataclasses import dataclass

import numpy as np

from . import learner

_STD_FLOOR = 1e-8
_NORM_EPS = 1e-12


def _softplus(x):
    return np.log1p(np.exp(-abs(x))) + max(x, 0.0)


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def pixel_softmax_prob(s, sbar):
    """Max over locations of the per-location foreground probability."""
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty score grid")
    m = np.maximum(s, sbar)
    es = np.exp(s - m)
    return float((es / (es + np.exp(sbar - m))).max())


def global_softmax_prob(s, sbar):
    """Foreground probability from separately max-pooled score maps."""
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty score grid")
    a, b = s.max(), sbar.max()
    m = max(a, b)
    return float(np.exp(a - m) / (np.exp(a - m) + np.exp(b - m)))


def _argmax_loss(s, sbar, present, model):
    """Image-level loss and its gradient at the argmax location(s).

    s, sbar: flat score vectors.  Returns (loss, rows, delta): rows are
    the sorted distinct argmax indices (ties to the smallest index) and
    delta[r] holds dLoss/dS and dLoss/dSbar at rows[r].  The pixel model
    routes both channels through argmax(S - Sbar); the global model
    routes S through argmax(S) and Sbar through argmax(Sbar).
    """
    if model == "pixel":
        i = j = int(np.argmax(s - sbar))  # argmax of p = argmax of the margin
    elif model == "global":
        i, j = int(np.argmax(s)), int(np.argmax(sbar))
    else:
        raise ValueError(f"unknown model {model!r}")
    margin = s[i] - sbar[j]
    p = _sigmoid(margin)
    if present:
        loss, gs, gsbar = _softplus(-margin), p - 1.0, 1.0 - p
    else:
        loss, gs, gsbar = _softplus(margin), p, -p
    rows = np.array(sorted({i, j}))
    delta = np.zeros((len(rows), 2))
    delta[rows == i, 0] = gs
    delta[rows == j, 1] = gsbar
    return loss, rows, delta


def image_loss_and_grad(s, sbar, present, model="global"):
    """Binary image-level log-loss and its gradient on the score grids.

    The gradient is nonzero only at the argmax location(s): one location
    (both channels) for the pixel model; the argmax of S and the argmax
    of Sbar separately for the global model.  Returns (loss, dS, dSbar).
    """
    s = np.asarray(s, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    loss, rows, delta = _argmax_loss(s.ravel(), sbar.ravel(), present, model)
    ds = np.zeros_like(s)
    dsbar = np.zeros_like(sbar)
    ds.flat[rows] = delta[:, 0]
    dsbar.flat[rows] = delta[:, 1]
    return loss, ds, dsbar


def normalize_features(fields):
    """Two-stage normalization of (D, H, W) feature fields.

    Stage 1 standardizes each dimension to zero mean / unit variance with
    statistics over every location of every field (std floored at 1e-8);
    stage 2 scales each location vector to unit Euclidean norm.  Vectors
    that standardize to zero stay zero and are excluded from sampling.
    Returns (z_fields, mean, std).
    """
    if not fields:
        raise ValueError("need at least one field")
    flats = [np.asarray(f, dtype=np.float64).reshape(f.shape[0], -1) for f in fields]
    allv = np.concatenate(flats, axis=1)
    mean = allv.mean(axis=1)
    std = np.maximum(allv.std(axis=1), _STD_FLOOR)
    out = []
    for f in fields:
        z = (np.asarray(f, dtype=np.float64) - mean[:, None, None]) / std[:, None, None]
        norms = np.sqrt((z**2).sum(axis=0))
        safe = np.where(norms > _NORM_EPS, norms, 1.0)
        out.append(np.where(norms[None] > _NORM_EPS, z / safe[None], 0.0))
    return out, mean, std


def _flat_points(indices, width):
    return np.stack([indices // width, indices % width], axis=1).astype(np.int64)


def _score_order(scores_flat):
    """Indices by descending score, smallest index first on ties."""
    return np.argsort(-scores_flat, kind="stable")


def _greedy_diverse(scores_flat, sim_to, k):
    """Shared greedy loop: maximize score * (1 - current max similarity)."""
    n = scores_flat.size
    maxsim = np.zeros(n)
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
        taken = set(chosen)
        for idx in _score_order(scores_flat):
            if len(chosen) == k or scores_flat[idx] == -np.inf:
                break
            if int(idx) not in taken:
                chosen.append(int(idx))
                taken.add(int(idx))
    return chosen


def diverse_sample_fg(scores, z, k):
    """Greedy feature-diverse foreground sampling; returns (k, 2) row/col.

    The first pick is the plain score argmax; subsequent picks maximize
    the similarity-penalized score.  Zero-norm feature vectors are never
    candidates.  Falls back to raw score order when positive-score
    candidates run out.
    """
    scores = np.asarray(scores, dtype=np.float64)
    w = scores.shape[1]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > scores.size:
        raise ValueError(f"k={k} exceeds grid size {scores.size}")
    zf = np.asarray(z, dtype=np.float64).reshape(z.shape[0], -1).T  # (N, D)
    flat = scores.ravel().copy()
    valid = (zf**2).sum(axis=1) > _NORM_EPS
    flat[~valid] = -np.inf  # excluded from both greedy picks and fallback
    chosen = _greedy_diverse(flat, sim_to=lambda pick: np.abs(zf @ zf[pick]), k=k)
    return _flat_points(np.array(chosen), w)


def diverse_sample_bg(z, fg_points, k_bg):
    """Background picks most dissimilar to foreground and prior picks.

    fg_points: (M, 2) row/col array of all foreground samples from the
    image.  Each pick minimizes max(|z . z_fg|, |z . z_prior_bg|); ties go
    to the smallest row-major index.  Returns (k_bg, 2) row/col.
    """
    fg_points = np.asarray(fg_points)
    if fg_points.size == 0:
        raise ValueError("foreground samples must be nonempty")
    z = np.asarray(z, dtype=np.float64)
    w = z.shape[2]
    zf = z.reshape(z.shape[0], -1).T
    valid = (zf**2).sum(axis=1) > _NORM_EPS
    fg_idx = fg_points[:, 0] * w + fg_points[:, 1]
    obj = np.abs(zf @ zf[fg_idx].T).max(axis=1)
    available = valid.copy()
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
    return _flat_points(np.array(chosen, dtype=np.int64), w)


def topk_sample(scores, k):
    """Top-k locations by score; ties to the smallest row-major index."""
    scores = np.asarray(scores, dtype=np.float64)
    if k > scores.size:
        raise ValueError(f"k={k} exceeds grid size {scores.size}")
    order = _score_order(scores.ravel())[:k]
    return _flat_points(order, scores.shape[1])


def spatial_diverse_sample(scores, positions, k):
    """Diverse sampling with spatial similarity 1 - dist/diag.

    positions: (H, W, 2) coordinate array, or None for the pixel grid.
    """
    scores = np.asarray(scores, dtype=np.float64)
    h, w = scores.shape
    if k > scores.size:
        raise ValueError(f"k={k} exceeds grid size {scores.size}")
    if positions is None:
        ry, rx = np.mgrid[0:h, 0:w]
        positions = np.stack([ry, rx], axis=2).astype(np.float64)
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    span = pos.max(axis=0) - pos.min(axis=0)
    diag = max(np.hypot(span[0], span[1]), _NORM_EPS)

    def sim_to(pick):
        d = np.sqrt(((pos - pos[pick]) ** 2).sum(axis=1))
        return 1.0 - d / diag

    chosen = _greedy_diverse(scores.ravel().copy(), sim_to, k)
    return _flat_points(np.array(chosen), w)


@dataclass
class LocalizerConfig:
    hidden: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 30
    seed: int = 0
    model: str = "global"     # image-level pooling scheme
    restarts: int = 3         # random-init restarts; best training loss wins


def _localizer_run(flats, present, cfg, mean, std, seed):
    d = flats[0].shape[0]
    model = learner.init_model([d, cfg.hidden, 2], seed, mean, std)
    opt = learner.TrainConfig(
        learning_rate=cfg.learning_rate, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, seed=seed)
    velocity = learner.zero_velocity(model)
    rng = np.random.default_rng(seed)
    # learner.logits, inlined so that each image is normalized once and
    # every full-grid pass writes into the same two buffers
    normed = [(f.T - model.mean) / model.std for f in flats]
    rows_max = max(len(a) for a in normed)
    hidden_buf = np.empty((rows_max, cfg.hidden))
    out_buf = np.empty((rows_max, 2))
    (w1, w2), (b1, b2) = model.weights, model.biases  # sgd_step updates these in place

    def hidden(a, buf=None):
        h = np.matmul(a, w1.T, out=buf)
        np.add(h, b1, out=h)
        return np.maximum(h, 0.0, out=h)

    def scores(img):
        a = normed[img]
        out = np.matmul(hidden(a, hidden_buf[: len(a)]), w2.T, out=out_buf[: len(a)])
        np.add(out, b2, out=out)
        return out[:, 0], out[:, 1]

    for _ in range(cfg.epochs):
        for img in rng.permutation(len(flats)):
            _, rows, delta = _argmax_loss(*scores(img), present[img], cfg.model)
            keep = (delta != 0).any(axis=1)
            # the gradient rows get their own forward pass: slicing them
            # out of the full-grid buffer differs in the last bits
            a = normed[img][rows[keep]]
            grads = learner._backward(model, [a, hidden(a)], delta[keep])
            learner.sgd_step(model, grads, opt, velocity)
    total = 0.0
    for img in range(len(flats)):
        total += _argmax_loss(*scores(img), present[img], cfg.model)[0]
    return model, total / len(flats)


def train_localizer(fields, present, cfg):
    """Train a per-location foreground/background scorer for one class.

    fields: list of (D, H, W) feature fields; present: parallel booleans.
    The scorer is an MLP applied at every location, producing S and Sbar;
    the image-level loss backpropagates through its argmax location(s).
    The argmax routing makes training sensitive to initialization, so
    cfg.restarts seeded runs are trained and the one with the lowest
    training-set image loss wins.
    """
    if not fields:
        raise ValueError("no training fields")
    d = fields[0].shape[0]
    flats = [np.asarray(f, dtype=np.float64).reshape(d, -1) for f in fields]
    allv = np.concatenate(flats, axis=1)
    mean = allv.mean(axis=1)
    std = np.maximum(allv.std(axis=1), _STD_FLOOR)
    best = None
    best_loss = np.inf
    for r in range(max(1, cfg.restarts)):
        model, loss = _localizer_run(flats, present, cfg, mean, std,
                                     cfg.seed + 1000 * r)
        if loss < best_loss:
            best, best_loss = model, loss
    return best


def score_field(model, field):
    """Apply a localizer to a (D, H, W) field; returns (S, Sbar) grids."""
    d = field.shape[0]
    out = learner.logits(model, np.asarray(field, dtype=np.float64).reshape(d, -1).T)
    return out[:, 0].reshape(field.shape[1:]), out[:, 1].reshape(field.shape[1:])


def point_supervision_pipeline(fields, presence, num_classes, k, mode="diverse",
                               seed=0, localizer_cfg=None, classifier_cfg=None):
    """Weakly-supervised segmentation from image-level tags.

    fields: list of (D, H, W) feature fields; presence: list of sets of
    foreground class ids (1..num_classes-1) present per image; class 0 is
    background.  Trains one localizer per foreground class on its positive
    images plus an equal number of seeded negative samples, samples k
    points per present class per image with the requested strategy
    ("diverse", "topk" or "spatial"; background points always use
    dissimilarity sampling with k_bg = k), trains a point classifier and
    returns a list of (H, W) predicted grid label maps.
    """
    rng = np.random.default_rng(seed)
    if localizer_cfg is None:
        localizer_cfg = LocalizerConfig(seed=seed)
    if classifier_cfg is None:
        classifier_cfg = learner.TrainConfig(
            epochs=60, batch_size=64, learning_rate=0.05, momentum=0.9,
            weight_decay=1e-4, seed=seed, loss="asymmetric", hidden=(32,))
    z_fields, _, _ = normalize_features(fields)

    localizers = {}
    n = len(fields)
    for c in range(1, num_classes):
        pos = [i for i in range(n) if c in presence[i]]
        neg_pool = [i for i in range(n) if c not in presence[i]]
        if not pos or not neg_pool:
            continue
        neg = list(rng.choice(neg_pool, size=min(len(pos), len(neg_pool)), replace=False))
        subset = pos + neg
        cfg_c = LocalizerConfig(**{**localizer_cfg.__dict__, "seed": localizer_cfg.seed + c})
        localizers[c] = train_localizer(
            [fields[i] for i in subset],
            [c in presence[i] for i in subset],
            cfg_c,
        )

    xs, ys = [], []
    for i in range(n):
        fg_pts = []
        d = fields[i].shape[0]
        flat = np.asarray(fields[i], dtype=np.float64).reshape(d, -1).T
        width = fields[i].shape[2]
        for c in sorted(presence[i]):
            if c not in localizers:
                continue
            s, _ = score_field(localizers[c], fields[i])
            if mode == "diverse":
                pts = diverse_sample_fg(s, z_fields[i], k)
            elif mode == "topk":
                pts = topk_sample(s, k)
            elif mode == "spatial":
                pts = spatial_diverse_sample(s, None, k)
            else:
                raise ValueError(f"unknown sampling mode {mode!r}")
            fg_pts.append(pts)
            xs.append(flat[pts[:, 0] * width + pts[:, 1]])
            ys.append(np.full(len(pts), c))
        if fg_pts:
            bg = diverse_sample_bg(z_fields[i], np.concatenate(fg_pts), k)
            xs.append(flat[bg[:, 0] * width + bg[:, 1]])
            ys.append(np.zeros(len(bg), dtype=np.int64))

    clf = learner.train(np.concatenate(xs), np.concatenate(ys).astype(np.int64),
                        classifier_cfg, num_classes=num_classes)
    preds = []
    for i in range(n):
        d = fields[i].shape[0]
        flat = np.asarray(fields[i], dtype=np.float64).reshape(d, -1).T
        labels = learner.predict_labels(clf, flat)
        preds.append(labels.reshape(fields[i].shape[1:]).astype(np.int32))
    return preds
