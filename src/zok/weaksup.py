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


def _argmax_losses(scores, present, model):
    """Image-level losses of stacked score grids and their argmax gradients.

    scores: (lanes, rows, 2) S and Sbar per location; present: (lanes,)
    booleans.  Returns per-lane arrays (loss, i, j, gs, gsbar): the binary
    log-loss, the argmax rows of S and of Sbar (ties to the smallest
    index) and dLoss/dS at row i and dLoss/dSbar at row j.  The pixel model
    routes both channels through argmax(S - Sbar), so i == j; the global
    model routes S through argmax(S) and Sbar through argmax(Sbar).
    """
    s, sbar = scores[..., 0], scores[..., 1]
    if model == "pixel":
        i = j = np.argmax(s - sbar, axis=1)  # argmax of p = argmax of the margin
    elif model == "global":
        i, j = np.argmax(s, axis=1), np.argmax(sbar, axis=1)
    else:
        raise ValueError(f"unknown model {model!r}")
    lane = np.arange(len(scores))
    margin = s[lane, i] - sbar[lane, j]
    # exp only of -|margin|, so it never overflows: sigmoid(m) is 1/(1+e)
    # for m >= 0 and e/(1+e) below, softplus(x) is log1p(e) + max(x, 0)
    e = np.exp(-np.abs(margin))
    p = np.where(margin >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    loss = np.log1p(e) + np.maximum(np.where(present, -margin, margin), 0.0)
    return loss, i, j, np.where(present, p - 1.0, p), np.where(present, 1.0 - p, -p)


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


class _Lane:
    """One seeded run of a task, on the normalized rows rows[first : first + n]."""

    def __init__(self, model, seed, first, n, epochs):
        self.model, self.first, self.n = model, first, n
        self.rng = np.random.default_rng(seed)
        self.steps = epochs * n
        self.order = self.loss = None


def _lane_gradients(running, rows, images, i, j, gs, gsbar):
    """sgd_step gradients of the running lanes, stacked like their parameters.

    Each lane backpropagates its step's _argmax_losses gradient from its
    argmax row(s) of rows[images[q]], in one pass over every lane per row
    count (1, then 2) and kept from its own count's, whose slice has the
    bytes of a pass of its own; a lane whose gradient vanished gets zeros,
    as the scalar 0.0 that sgd_step broadcasts when every lane's did.
    """
    # every lane's argmax rows, sorted, and dLoss/dLogits on them: S's
    # gradient in row i's place, Sbar's in row j's (row 0 for both when
    # i == j, and row 1 is then unused)
    lane = np.arange(len(images))
    picked = np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)
    delta = np.zeros((len(images), 2, 2))
    delta[lane, (i > j).astype(np.intp), 0] = gs
    delta[lane, (j > i).astype(np.intp), 1] = gsbar
    live = (gs != 0) | (gsbar != 0)  # p - 1 and 1 - p (p and -p) vanish together
    grads = [0.0] * 4
    for count in (1, 2):
        keep = live & ((i != j) == (count == 2))
        if not keep.any():
            continue
        # the gradient rows get their own forward pass: slicing them out of
        # the full-grid buffer differs in the last bits
        a = np.array([rows[img].take(r, axis=0)
                      for img, r in zip(images.tolist(), picked[:, :count])])
        h = np.matmul(a, running.weights[0].transpose(0, 2, 1))
        np.add(h, running.biases[0][:, None], out=h)
        np.maximum(h, 0.0, out=h)
        gw, gb = learner._backward(running.weights, [a, h], delta[:, :count])
        grads = [np.where(keep.reshape(-1, *[1] * (g.ndim - 1)), g, old)
                 for g, old in zip(gw + gb, grads)]
    return grads[:2], grads[2:]


def _train_lanes(lanes, rows, present, cfg):
    """Train lanes that share D, cfg.hidden, cfg.model and cfg.sgd in lockstep.

    Each step scores every running lane's image on the full grid, one lane
    at a time into shared buffers, then computes all their losses, the
    backward passes grouped by gradient row count and one sgd_step over
    the stacked parameters.  Sets each lane's model.epoch_losses and its
    loss, the mean image loss of the trained model.
    """
    lanes = sorted(lanes, key=lambda lane: -lane.steps)  # running lanes are a prefix
    stack = learner.MlpModel([np.stack(w) for w in zip(*(lane.model.weights for lane in lanes))],
                             [np.stack(b) for b in zip(*(lane.model.biases for lane in lanes))],
                             None, None)
    for q, lane in enumerate(lanes):  # each model views its slot, which sgd_step updates
        lane.model.weights = [w[q] for w in stack.weights]
        lane.model.biases = [b[q] for b in stack.biases]
    velocity = learner.zero_velocity(stack)
    hidden = np.empty((max(len(rows[lane.first + img]) for lane in lanes for img in range(lane.n)),
                       cfg.hidden))
    scores = np.zeros((len(lanes), len(hidden), 2))  # finite where no grid was written yet
    # padding below a smaller grid loses every argmax: of S, of Sbar and of S - Sbar
    pad = (-np.inf, -np.inf if cfg.model == "global" else 0.0)

    def losses(active, images):
        """Each lane's full-grid scores on its image, into scores[q]; their _argmax_losses."""
        short = []
        for q, (lane, img) in enumerate(zip(active, images)):
            a = rows[img]
            w1, w2 = lane.model.weights
            h = np.matmul(a, w1.T, out=hidden[: len(a)])
            np.add(h, lane.model.biases[0], out=h)
            np.maximum(h, 0.0, out=h)
            np.matmul(h, w2.T, out=scores[q, : len(a)])
            if len(a) < len(hidden):
                short.append((q, len(a)))
        out = scores[: len(active)]
        # the output bias, one add per channel over every lane's whole grid
        b2 = np.array([lane.model.biases[1] for lane in active])
        out[..., 0] += b2[:, 0, None]
        out[..., 1] += b2[:, 1, None]
        for q, n in short:
            out[q, n:] = pad
        return _argmax_losses(out, present[images], cfg.model)

    totals = np.zeros(len(lanes))
    k = len(lanes)
    running, running_velocity = stack, velocity  # the slots of the running lanes
    for t in range(lanes[0].steps):
        while lanes[k - 1].steps <= t:
            k -= 1
        images, ends = [], []
        for q, lane in enumerate(lanes[:k]):
            pos = t % lane.n
            if pos == 0:
                lane.order = lane.rng.permutation(lane.n)
            if pos == lane.n - 1:
                ends.append(q)
            images.append(lane.first + lane.order[pos])
        images = np.array(images)
        loss, i, j, gs, gsbar = losses(lanes[:k], images)
        totals[:k] += loss
        for q in ends:
            lanes[q].model.epoch_losses.append(float(totals[q] / lanes[q].n))
            totals[q] = 0.0
        if len(running.weights[0]) != k:
            running = learner.MlpModel([w[:k] for w in stack.weights],
                                       [b[:k] for b in stack.biases], None, None)
            running_velocity = tuple([v[:k] for v in vs] for vs in velocity)
        grads = _lane_gradients(running, rows, images, i, j, gs, gsbar)
        learner.sgd_step(running, grads, cfg.sgd, running_velocity)

    # the trained models' losses, one pass over each lane's images in order
    lanes.sort(key=lambda lane: -lane.n)
    totals[:] = 0.0
    k = len(lanes)
    for t in range(lanes[0].n):
        while lanes[k - 1].n <= t:
            k -= 1
        totals[:k] += losses(lanes[:k], np.array([lane.first + t for lane in lanes[:k]]))[0]
    for lane, total in zip(lanes, totals):
        lane.loss = total / lane.n


def _lane_runs(tasks):
    """Every (fields, present, cfg) task's cfg.restarts seeded runs.

    Returns, per task, the (model, loss) of each restart in seed order.
    The runs of all tasks whose D, hidden, model and SGD settings agree
    train together as lanes of one _train_lanes call.
    """
    stats = []
    for fields, flags, cfg in tasks:
        if not fields:
            raise ValueError("no training fields")
        if len(flags) != len(fields):
            raise ValueError(f"{len(flags)} presence flags for {len(fields)} fields")
        for i, f in enumerate(fields):
            if np.ndim(f) != 3:
                raise ValueError(f"training field {i} must be (D, H, W), got shape {np.shape(f)}")
            if len(f) != len(fields[0]):
                raise ValueError(f"training field {i} has depth {len(f)}, "
                                 f"field 0 has depth {len(fields[0])}")
        d = len(fields[0])
        flats = [np.asarray(f, dtype=np.float64).reshape(d, -1) for f in fields]
        if min(f.shape[1] for f in flats) == 0:
            raise ValueError("a training field has no locations")
        # all statistics first, so that their temporaries never add to the rows
        stats.append((flats, *_field_stats(flats)))
    rows, present, groups, runs = [], [], {}, []
    for (_, flags, cfg), (flats, mean, std) in zip(tasks, stats):
        d = len(mean)
        lanes = [_Lane(learner.init_model([d, cfg.hidden, 2], cfg.seed + 1000 * r, mean, std),
                       cfg.seed + 1000 * r, len(rows), len(flats), cfg.epochs)
                 for r in range(cfg.restarts)]
        rows += [(f.T - mean) / std for f in flats]
        present += flags
        key = (d, cfg.hidden, cfg.model, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        groups.setdefault(key, (cfg, []))[1].extend(lanes)
        runs.append(lanes)
    present = np.array(present, dtype=bool)
    for cfg, lanes in groups.values():
        _train_lanes(lanes, rows, present, cfg)
    return [[(lane.model, lane.loss) for lane in lanes] for lanes in runs]


def train_localizers(tasks):
    """Train a per-location foreground/background scorer per (fields, present, cfg) task.

    fields: list of (D, H, W) feature fields; present: parallel booleans.
    The scorer is an MLP applied at every location, producing S and Sbar;
    the image-level loss backpropagates through its argmax location(s).
    The argmax routing makes training sensitive to initialization, so
    cfg.restarts seeded runs are trained on the same normalized rows and
    the first one with the lowest training-set image loss wins.  Its
    epoch_losses[e] is the mean image loss of epoch e, each image's taken
    before the step it drove.

    All tasks' restarts train as lanes stepping together, so each SGD step
    costs one batched update instead of one per run.  A task's model is the
    same, byte for byte, whether it trains alone or beside others.
    """
    return [min(runs, key=lambda run: run[1])[0] for runs in _lane_runs(tasks)]


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
    classes, tasks = [], []
    n = len(fields)
    for c in range(1, num_classes):
        pos = [i for i in range(n) if c in presence[i]]
        neg_pool = [i for i in range(n) if c not in presence[i]]
        if not pos or not neg_pool:
            continue
        neg = list(rng.choice(neg_pool, size=min(len(pos), len(neg_pool)), replace=False))
        subset = pos + neg
        classes.append(c)
        tasks.append(([fields[i] for i in subset], [c in presence[i] for i in subset],
                      LocalizerConfig(seed=seed + c)))
    localizers = dict(zip(classes, train_localizers(tasks)))
    z_fields = normalize_features(fields)  # after training, which holds every class's rows

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
