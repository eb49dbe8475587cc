"""Softmax classifiers over zoom-out features.

A feed-forward network with 0..2 ReLU hidden layers and a softmax output,
trained by momentum SGD on the class-rebalanced log-loss

    loss = -(1/N) * sum_i (1/f_{y_i}) * log p_hat(y_i | x_i)

where f_c is the frequency of class c in the training data (sum 1).  With
uniform frequencies this reduces to C times the plain mean log-loss.  The
model stores per-dimension normalization statistics applied inside
forward(), and serializes to the little-endian "ZOM1" format.

Parameters are held in float64 for exact, reproducible arithmetic and are
written to disk as float32.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .core_io import FormatError, _reader

_STD_FLOOR = 1e-8
_PROB_FLOOR = 1e-12
_F32_OVERFLOW = float.fromhex("0x1.ffffffp+127")  # 2**128 - 2**103 rounds to float32 inf


@dataclass
class MlpModel:
    weights: list            # per layer (out, in) float64
    biases: list             # per layer (out,) float64
    mean: np.ndarray         # (D,) feature normalization; None: rows come normalized
    std: np.ndarray          # (D,) feature normalization, floored > 0; None with mean
    # train()'s loss per epoch, over the probabilities its minibatch passes
    # computed, each before its step and with its dropout masks
    epoch_losses: list = field(default_factory=list)

    @property
    def num_classes(self):
        return self.weights[-1].shape[0]


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 1e-3
    dropout: float = 0.0
    seed: int = 0
    loss: str = "asymmetric"   # or "symmetric"
    hidden: tuple = ()

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # written so that NaN fails every range check
        if not self.learning_rate > 0:
            raise ValueError(f"learning rate must be > 0, got learning_rate={self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight decay must be >= 0, got weight_decay={self.weight_decay}")
        if any(size < 1 for size in self.hidden):
            raise ValueError(f"hidden layer sizes must be >= 1, got {list(self.hidden)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dropout > 0 and not self.hidden:
            raise ValueError(f"dropout={self.dropout} needs a hidden layer, and hidden is empty")
        if self.loss not in ("asymmetric", "symmetric"):
            raise ValueError(f"unknown loss {self.loss!r}")


def compute_class_frequencies(labels, weights=None, num_classes=None):
    """(C,) weighted per-class frequencies: zero for absent classes, summing to 1.

    weights defaults to 1 per sample; pass superpixel pixel counts for the
    pixel basis.
    """
    labels = np.asarray(labels)
    if weights is None:
        weights = np.ones(labels.shape, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("no labeled samples")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    counts = np.bincount(labels, weights=weights, minlength=num_classes)
    return counts / counts.sum()


def init_model(layer_sizes, seed, mean=None, std=None):
    """Glorot-uniform initialized model; biases start at zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    d = layer_sizes[0]
    if mean is None:
        mean = np.zeros(d)
    if std is None:
        std = np.ones(d)
    return MlpModel(weights, biases, np.asarray(mean, dtype=np.float64),
                    np.maximum(np.asarray(std, dtype=np.float64), _STD_FLOOR))


def _softmax(logits):
    """Softmax along the last axis, of one row or of each row."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_pass(model, x, dropout_masks=None):
    """Returns (activations per layer incl. normalized input, logits)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"features must be (N, D) or (D,), got shape {x.shape}")
    if x.shape[1] != model.weights[0].shape[1]:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {model.weights[0].shape[1]}")
    a = x if model.mean is None else (x - model.mean) / model.std
    acts = [a]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        if i < last:
            a = np.maximum(z, 0.0)
            if dropout_masks is not None:
                a = a * dropout_masks[i]
            acts.append(a)
        else:
            return acts, z


def logits(model, x):
    """Pre-softmax scores; used by score-field heads."""
    return _forward_pass(model, x)[1]


def forward(model, x):
    """Class probabilities for (N, D) or (D,) features; rows sum to 1."""
    single = np.asarray(x).ndim == 1
    probs = _softmax(_forward_pass(model, x)[1])
    return probs[0] if single else probs


def asymmetric_loss(probs, labels, freqs):
    """Inverse-frequency weighted log-loss over a batch.

    probs: (N, C) predicted distributions; freqs: (C,) per-class
    frequencies.  Probabilities are floored at 1e-12 inside the log.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.asarray(labels)
    f = np.asarray(freqs, dtype=np.float64)
    if np.any(f[labels] <= 0):
        raise ValueError("label with zero recorded frequency")
    p = np.clip(probs[np.arange(len(labels)), labels], _PROB_FLOOR, None)
    return float(-(np.log(p) / f[labels]).mean())


def _backward(weights, acts, output_delta, dropout_masks=None):
    """Gradients of all weights/biases given dLoss/dLogits rows, from the
    activations _forward_pass returned.  Every array may carry a leading
    axis of stacked models, each slice computed as it would be alone."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = output_delta
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = np.swapaxes(delta, -1, -2) @ acts[i]
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ weights[i]
            if dropout_masks is not None:
                delta = delta * dropout_masks[i - 1]
            delta = delta * (acts[i] > 0)
    return grads_w, grads_b


def loss_gradient(model, x, labels, freqs, dropout_masks=None, probs_out=None):
    """Analytic gradient of asymmetric_loss(forward(model, x), labels, f).

    Output-layer error is (1/(N * f_y)) * (p_hat - onehot(y)).  One
    forward pass supplies both the probabilities and the activations the
    backward pass reuses; p_hat is also copied into probs_out (an (N, C)
    array) when one is given.
    """
    labels = np.asarray(labels)
    acts, z = _forward_pass(model, x, dropout_masks)
    delta = _softmax(z)
    if probs_out is not None:
        probs_out[...] = delta
    delta[np.arange(len(labels)), labels] -= 1.0
    delta *= (1.0 / (np.asarray(freqs, dtype=np.float64)[labels] * len(labels)))[:, None]
    return _backward(model.weights, acts, delta, dropout_masks)


def zero_velocity(model):
    return ([np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases])


def sgd_step(model, grads, cfg, velocity):
    """Classical momentum update: v <- mu*v - lr*(g + wd*w); w <- w + v.

    Mutates the model and the zero_velocity-shaped velocity in place and
    returns the model.
    """
    for p, g, v in zip(model.weights + model.biases, grads[0] + grads[1],
                       velocity[0] + velocity[1]):
        t = cfg.weight_decay * p  # one temporary: lr * (wd*p + g), as addition commutes
        t += g
        t *= cfg.learning_rate
        v *= cfg.momentum
        v -= t
        p += v
    return model


def train(features, labels, cfg, num_classes=None, sample_weights=None):
    """Train an MLP classifier; deterministic for a fixed seed.

    features: (N, D); labels: (N,) ints in 0..num_classes-1.
    sample_weights, (N,) >= 0 with a finite positive sum, feed the class
    frequency computation (pixel basis); the asymmetric loss also needs a
    positive sum over each class in labels.  Normalization statistics come
    from the training features, which are normalized once into one (N, D)
    float64 copy that every minibatch is drawn from.  model.epoch_losses[e]
    is the weighted loss of every sample as epoch e's minibatch pass scored
    it: before that batch's step, with its dropout masks.  An overflow or
    NaN in SGD, or in the trained model's logits on the training features,
    raises ValueError.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or len(features) == 0:
        raise ValueError("features must be a nonempty (N, D) matrix")
    n = len(features)
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},) to match the features, got {labels.shape}")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must be in 0..{num_classes - 1}, "
                         f"got {labels.min()}..{labels.max()}")
    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != (n,):
            raise ValueError(f"sample_weights must be ({n},) to match the features, "
                             f"got {sample_weights.shape}")
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            total = sample_weights.sum()
        # written so that NaN fails
        if not ((sample_weights >= 0).all() and 0 < total < np.inf):
            raise ValueError("sample_weights must be >= 0 with a finite positive sum")
    sizes = [features.shape[1], *cfg.hidden, num_classes]
    model = init_model(sizes, cfg.seed, features.mean(axis=0), features.std(axis=0))
    if cfg.loss == "asymmetric":
        f = compute_class_frequencies(labels, sample_weights, num_classes)
        unweighted = labels[f[labels] == 0]
        if unweighted.size:
            raise ValueError(f"sample_weights sum to 0 over class {unweighted.min()}, "
                             "which has samples; the asymmetric loss cannot weight it")
        f[f == 0] = 1.0  # absent classes never occur in labels
    else:
        # Plain mean log-loss: constant unit weight per sample.
        f = np.ones(num_classes)
    # the minibatches and the final check run on rows normalized once, through
    # a view sharing the model's parameters but no statistics
    normalized = MlpModel(model.weights, model.biases, None, None)
    rng = np.random.default_rng(cfg.seed)
    velocity = zero_velocity(model)
    probs = np.empty((n, num_classes))  # row i: p_hat of sample order[i]
    try:
        with np.errstate(over="raise", invalid="raise"):
            rows = features - model.mean
            rows /= model.std
            for _ in range(cfg.epochs):
                order = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    masks = None
                    if cfg.dropout > 0:
                        # Inverted dropout on hidden activations.
                        masks = [
                            (rng.random((len(idx), hsize)) >= cfg.dropout) / (1.0 - cfg.dropout)
                            for hsize in cfg.hidden
                        ]
                    grads = loss_gradient(normalized, rows[idx], labels[idx], f, masks,
                                          probs[start : start + cfg.batch_size])
                    sgd_step(model, grads, cfg, velocity)
                model.epoch_losses.append(asymmetric_loss(probs, labels[order], f))
            if cfg.epochs:
                # The last step can leave finite weights whose training-set
                # logits overflow; no minibatch pass sees them, this one does.
                forward(normalized, rows)
    except FloatingPointError as exc:
        raise ValueError(f"training diverged ({exc}); lower the learning rate") from None
    return model


def predict_labels(model, features):
    """Argmax class per row; ties go to the smallest class id."""
    probs = np.atleast_2d(forward(model, features))
    return np.argmax(probs, axis=1)


def write_model(model, path):
    """Serialize to ZOM1: magic, u32 C, u32 L, per-layer dims + f32 params,
    then f32 mean and std vectors.  Refuses, before opening the file, a
    parameter that is NaN or would overflow float32."""
    params = [*model.weights, *model.biases, model.mean, model.std]
    if not all((np.abs(p) < _F32_OVERFLOW).all() for p in params):  # no cast, no warning
        raise ValueError("model parameters are NaN or beyond float32 range")
    with open(path, "wb") as fh:
        fh.write(b"ZOM1")
        fh.write(struct.pack("<II", model.num_classes, len(model.weights)))
        for w, b in zip(model.weights, model.biases):
            out_dim, in_dim = w.shape
            fh.write(struct.pack("<II", in_dim, out_dim))
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())
        fh.write(model.mean.astype("<f4").tobytes())
        fh.write(model.std.astype("<f4").tobytes())


@_reader(b"ZOM1")
def read_model(data):
    """Read a ZOM1 model file.

    A truncated or inconsistent file, or one with a NaN or inf parameter,
    raises FormatError.
    """
    pos = 4

    def take(nbytes, what):
        nonlocal pos
        if pos + nbytes > len(data):
            raise FormatError(f"truncated {what}: needs {nbytes} bytes at offset {pos}, "
                              f"file has {len(data)}")
        pos += nbytes
        return data[pos - nbytes : pos]

    def floats(count, what):
        values = np.frombuffer(take(count * 4, what), dtype="<f4")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite {what}")
        return values.astype(np.float64)

    num_classes, nlayers = struct.unpack("<II", take(8, "header"))
    if nlayers == 0:
        raise FormatError("model has no layers")
    weights, biases = [], []
    for layer in range(nlayers):
        in_dim, out_dim = struct.unpack("<II", take(8, f"layer {layer} header"))
        if weights and in_dim != weights[-1].shape[0]:
            raise FormatError(f"layer {layer} input size {in_dim} != previous output size "
                              f"{weights[-1].shape[0]}")
        weights.append(floats(in_dim * out_dim, f"layer {layer} weights").reshape(out_dim, in_dim))
        biases.append(floats(out_dim, f"layer {layer} bias"))
    d = weights[0].shape[1]
    mean = floats(d, "mean")
    std = floats(d, "std")
    if pos != len(data):
        raise FormatError("payload size mismatch")
    if weights[-1].shape[0] != num_classes:
        raise FormatError("declared class count disagrees with final layer")
    return MlpModel(weights, biases, mean, std)
