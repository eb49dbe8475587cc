"""Weakly-supervised localization scoring and point sampling.

A per-location head produces two score grids per class: S(c, i) for
foreground and Sbar(c, i) for background.  Image-level class probability
comes from either the per-pixel softmax model

    p(c) = max_i exp S_i / (exp S_i + exp Sbar_i)

or the global softmax model

    p(c) = exp(max S) / (exp(max S) + exp(max Sbar)),

and the binary image-level log-loss routes its gradient through the
argmax location(s) only; the reference code for both p(c) lives in the
tests.  Trained score maps are turned into point-wise supervision by
greedy diverse sampling: pick the highest-scoring location, then
repeatedly pick the location maximizing

    S(i) * (1 - max_{chosen} |z_i . z_chosen|)

over unit-norm feature vectors z; background points are the locations
most dissimilar to everything picked so far.  Ties always break to the
smallest row-major index, and previously chosen locations are excluded.

Scores may be negative, which would make the penalized objective favor
duplicates, so candidates are restricted to S(i) > 0; when no positive
score exists the sampler falls back to plain score order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import learner

_NORM_EPS = 1e-12


def _softplus(x):
    return np.log1p(np.exp(-abs(x))) + max(x, 0.0)


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


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


def _field_stats(flats):
    """Per-dimension mean and floored std over the columns of (D, n) arrays."""
    allv = np.concatenate(flats, axis=1)
    return allv.mean(axis=1), np.maximum(allv.std(axis=1), learner._STD_FLOOR)


def normalize_features(fields):
    """Two-stage normalization of (D, H, W) feature fields.

    Stage 1 standardizes each dimension to zero mean / unit variance with
    statistics over every location of every field (std floored at 1e-8);
    stage 2 scales each location vector to unit Euclidean norm.  Vectors
    that standardize to zero stay zero and are excluded from sampling.
    Returns the list of z fields.
    """
    if not fields:
        raise ValueError("need at least one field")
    mean, std = _field_stats(
        [np.asarray(f, dtype=np.float64).reshape(f.shape[0], -1) for f in fields])
    out = []
    for f in fields:
        z = (np.asarray(f, dtype=np.float64) - mean[:, None, None]) / std[:, None, None]
        norms = np.sqrt((z**2).sum(axis=0))
        safe = np.where(norms > _NORM_EPS, norms, 1.0)
        out.append(np.where(norms[None] > _NORM_EPS, z / safe[None], 0.0))
    return out


def _unit_rows(z):
    """(N, D) rows of a (D, H, W) unit field, and the mask of its nonzero rows."""
    zf = np.asarray(z, dtype=np.float64).reshape(np.shape(z)[0], -1).T
    return zf, (zf**2).sum(axis=1) > _NORM_EPS


def _flat_points(indices, width):
    return np.stack([indices // width, indices % width], axis=1).astype(np.int64)


def _check_k(k, size):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > size:
        raise ValueError(f"k={k} exceeds grid size {size}")


def _score_order(scores_flat):
    """Indices by descending score, smallest index first on ties."""
    return np.argsort(-scores_flat, kind="stable")


def _greedy(gain, available, maxsim, sim_to, k):
    """Up to k picks, each the first available argmax of gain(maxsim)."""
    chosen = []
    for _ in range(k):
        if not available.any():
            break
        pick = int(np.argmax(np.where(available, gain(maxsim), -np.inf)))
        chosen.append(pick)
        available[pick] = False
        np.maximum(maxsim, sim_to(pick), out=maxsim)
    return chosen


def _greedy_diverse(scores_flat, sim_to, k):
    """Maximize score * (1 - max similarity to the picks) over positive scores."""
    chosen = _greedy(lambda maxsim: scores_flat * (1.0 - maxsim), scores_flat > 0,
                     np.zeros(scores_flat.size), sim_to, k)
    if len(chosen) < k:
        # the rest in score order, up to the first excluded (-inf) location
        order = _score_order(scores_flat)
        order = order[np.logical_and.accumulate(scores_flat[order] != -np.inf)]
        chosen += order[~np.isin(order, chosen)][: k - len(chosen)].tolist()
    return chosen


def diverse_sample_fg(scores, z, k):
    """Greedy feature-diverse foreground sampling; at most k row/col points.

    The first pick is the plain score argmax; subsequent picks maximize
    the similarity-penalized score.  Zero-norm feature vectors are never
    candidates.  Falls back to raw score order when positive-score
    candidates run out.
    """
    scores = np.asarray(scores, dtype=np.float64)
    _check_k(k, scores.size)
    zf, valid = _unit_rows(z)
    flat = scores.ravel().copy()
    flat[~valid] = -np.inf  # excluded from both greedy picks and fallback
    chosen = _greedy_diverse(flat, sim_to=lambda pick: np.abs(zf @ zf[pick]), k=k)
    return _flat_points(np.array(chosen), scores.shape[1])


def diverse_sample_bg(z, fg_points, k_bg):
    """Background picks most dissimilar to foreground and prior picks.

    fg_points: (M, 2) row/col array of all foreground samples from the
    image.  Each pick minimizes max(|z . z_fg|, |z . z_prior_bg|); ties go
    to the smallest row-major index.  Returns at most k_bg row/col points.
    """
    fg_points = np.asarray(fg_points)
    if fg_points.size == 0:
        raise ValueError("foreground samples must be nonempty")
    zf, available = _unit_rows(z)
    w = np.shape(z)[2]
    fg_idx = fg_points[:, 0] * w + fg_points[:, 1]
    maxsim = np.abs(zf @ zf[fg_idx].T).max(axis=1)
    available[fg_idx] = False
    # the argmax of -maxsim is the argmin of maxsim, ties included
    chosen = _greedy(np.negative, available, maxsim, lambda pick: np.abs(zf @ zf[pick]), k_bg)
    return _flat_points(np.array(chosen, dtype=np.int64), w)


def topk_sample(scores, k):
    """Top-k locations by score; ties to the smallest row-major index."""
    scores = np.asarray(scores, dtype=np.float64)
    _check_k(k, scores.size)
    order = _score_order(scores.ravel())[:k]
    return _flat_points(order, scores.shape[1])


def spatial_diverse_sample(scores, k):
    """Diverse sampling with spatial similarity 1 - dist/diag on the pixel grid."""
    scores = np.asarray(scores, dtype=np.float64)
    h, w = scores.shape
    _check_k(k, scores.size)
    ry, rx = np.mgrid[0:h, 0:w]
    pos = np.stack([ry, rx], axis=2).astype(np.float64).reshape(-1, 2)
    span = pos.max(axis=0) - pos.min(axis=0)
    diag = max(np.hypot(span[0], span[1]), _NORM_EPS)

    def sim_to(pick):
        d = np.sqrt(((pos - pos[pick]) ** 2).sum(axis=1))
        return 1.0 - d / diag

    chosen = _greedy_diverse(scores.ravel().copy(), sim_to, k)
    return _flat_points(np.array(chosen), w)


def sample_foreground(scores, z, k, mode="diverse"):
    """At most k row/col foreground points of an (H, W) score grid.

    mode is "diverse" (diverse_sample_fg over the unit feature field z),
    "topk" or "spatial"; the last two do not read z.
    """
    if mode == "diverse":
        return diverse_sample_fg(scores, z, k)
    if mode == "topk":
        return topk_sample(scores, k)
    if mode == "spatial":
        return spatial_diverse_sample(scores, k)
    raise ValueError(f"unknown sampling mode {mode!r}")


def sample_points(score_grids, z, k, mode, bg):
    """One image's row/col point sets of at most k points each: sample_foreground's
    for each score grid, then, when bg, diverse_sample_bg's against all of them
    (an empty set when they are all empty).  Every grid must be the (H, W)
    of z, the image's (D, H, W) unit field."""
    bad = [np.shape(s) for s in score_grids if np.shape(s) != np.shape(z)[1:]]
    if bad:
        raise ValueError(f"score grid {bad[0]} != feature grid {np.shape(z)[1:]}")
    points = [sample_foreground(scores, z, k, mode) for scores in score_grids]
    if bg:
        fg = np.concatenate(points)
        points.append(diverse_sample_bg(z, fg, k) if len(fg) else fg)
    return points


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
    # the SGD settings above as the learner.TrainConfig every run steps with
    sgd: learner.TrainConfig = field(init=False, repr=False)

    def __post_init__(self):
        try:
            self.sgd = learner.TrainConfig(
                epochs=self.epochs, learning_rate=self.learning_rate, momentum=self.momentum,
                weight_decay=self.weight_decay, hidden=(self.hidden,))
        except ValueError as exc:
            raise ValueError(f"LocalizerConfig {exc}") from None
        if self.model not in ("pixel", "global"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


def _localizer_run(normed, present, cfg, mean, std, seed):
    """One seeded run on the fields' normalized (n, D) rows; returns (model, mean loss)."""
    model = learner.init_model([normed[0].shape[1], cfg.hidden, 2], seed, mean, std)
    velocity = learner.zero_velocity(model)
    rng = np.random.default_rng(seed)
    # learner.logits, inlined so that every full-grid pass writes into the
    # same two buffers
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
        for img in rng.permutation(len(normed)):
            _, rows, delta = _argmax_loss(*scores(img), present[img], cfg.model)
            keep = (delta != 0).any(axis=1)
            # the gradient rows get their own forward pass: slicing them
            # out of the full-grid buffer differs in the last bits
            a = normed[img][rows[keep]]
            grads = learner._backward(model, [a, hidden(a)], delta[keep])
            learner.sgd_step(model, grads, cfg.sgd, velocity)
    total = 0.0
    for img in range(len(normed)):
        total += _argmax_loss(*scores(img), present[img], cfg.model)[0]
    return model, total / len(normed)


def train_localizer(fields, present, cfg):
    """Train a per-location foreground/background scorer for one class.

    fields: list of (D, H, W) feature fields; present: parallel booleans.
    The scorer is an MLP applied at every location, producing S and Sbar;
    the image-level loss backpropagates through its argmax location(s).
    The argmax routing makes training sensitive to initialization, so
    cfg.restarts seeded runs are trained on the same normalized rows and
    the first one with the lowest training-set image loss wins.
    """
    if not fields:
        raise ValueError("no training fields")
    d = fields[0].shape[0]
    flats = [np.asarray(f, dtype=np.float64).reshape(d, -1) for f in fields]
    mean, std = _field_stats(flats)
    normed = [(f.T - mean) / std for f in flats]
    runs = [_localizer_run(normed, present, cfg, mean, std, cfg.seed + 1000 * r)
            for r in range(cfg.restarts)]
    return min(runs, key=lambda run: run[1])[0]


def score_field(model, field):
    """Apply a localizer to a (D, H, W) field; returns (S, Sbar) grids."""
    d = field.shape[0]
    out = learner.logits(model, np.asarray(field, dtype=np.float64).reshape(d, -1).T)
    return out[:, 0].reshape(field.shape[1:]), out[:, 1].reshape(field.shape[1:])


def point_supervision_pipeline(fields, presence, num_classes, k, mode="diverse",
                               seed=0, *, classifier_cfg):
    """Weakly-supervised segmentation from image-level tags.

    fields: list of (D, H, W) feature fields; presence: list of sets of
    foreground class ids (1..num_classes-1) present per image; class 0 is
    background.  Trains one localizer per foreground class on its positive
    images plus an equal number of seeded negative samples, samples k
    points per present class per image with the requested strategy
    ("diverse", "topk" or "spatial"; background points always use
    dissimilarity sampling with k_bg = k), trains a point classifier and
    returns a list of (H, W) predicted grid label maps.  classifier_cfg is
    the learner.TrainConfig of the point classifier.
    """
    rng = np.random.default_rng(seed)
    z_fields = normalize_features(fields)

    localizers = {}
    n = len(fields)
    for c in range(1, num_classes):
        pos = [i for i in range(n) if c in presence[i]]
        neg_pool = [i for i in range(n) if c not in presence[i]]
        if not pos or not neg_pool:
            continue
        neg = list(rng.choice(neg_pool, size=min(len(pos), len(neg_pool)), replace=False))
        subset = pos + neg
        localizers[c] = train_localizer(
            [fields[i] for i in subset],
            [c in presence[i] for i in subset],
            LocalizerConfig(seed=seed + c),
        )

    # (H*W, D) rows of every field, for sampled points and predictions
    flats = [np.asarray(f, dtype=np.float64).reshape(f.shape[0], -1).T for f in fields]
    xs, ys = [], []
    for f, z, flat, present in zip(fields, z_fields, flats, presence):
        classes = [c for c in sorted(present) if c in localizers]
        if not classes:
            continue
        grids = [score_field(localizers[c], f)[0] for c in classes]
        for c, pts in zip(classes + [0], sample_points(grids, z, k, mode, bg=True)):
            xs.append(flat[pts[:, 0] * f.shape[2] + pts[:, 1]])
            ys.append(np.full(len(pts), c))

    clf = learner.train(np.concatenate(xs), np.concatenate(ys).astype(np.int64),
                        classifier_cfg, num_classes=num_classes)
    return [learner.predict_labels(clf, flat).reshape(f.shape[1:]).astype(np.int32)
            for f, flat in zip(fields, flats)]
