"""Fully-connected pairwise CRF energies and naive mean-field inference.

The energy of a labeling x over N nodes is

    E(x) = sum_i psi_i(x_i) + sum_{i<j} mu(x_i, x_j) * sum_m w_m k_m(f_i, f_j)

with Gaussian kernels k_m(f_i, f_j) = exp(-1/2 (f_i-f_j)^T Lambda (f_i-f_j))
over per-node feature vectors, and a label compatibility mu (Potts by
default: 0 on the diagonal, 1 off it).  A CrfModel is the whole instance:
its unaries, its compatibility and its kernels, each kernel holding its
own (N, d) node features, so no function here takes features beside the
model.  The Gibbs distribution P(x) = exp(-E(x)) / Z can be evaluated
exactly on tiny instances by full enumeration; larger unary predictions
are refined by naive O(N^2 C) mean field, either with damped parallel
updates or with damped sequential sweeps (whose variational free energy
never increases, since the exact per-node update minimizes a convex
restriction).

Everything is desk scale: no lattice acceleration, N up to a few
thousand nodes.  Building the dense kernel matrix K takes two (N, N)
float64 buffers, K itself and one kernel's cross term; the rest of each
kernel runs over blocks of rows of about _BLOCK_CELLS cells, and exp is
evaluated only where it can be nonzero.
"""

from dataclasses import dataclass, field

import numpy as np

from .learner import _softmax

BRUTE_FORCE_LIMIT = 2**20
_PROB_FLOOR = 1e-12
# Cells of K one row block of kernel_sum_matrix covers (whole rows, at
# least one): its scratch buffer stays in cache whatever N is.
_BLOCK_CELLS = 1 << 16
# exp(x) is exactly 0.0 for every float64 x below about -745.13, so an
# exponent below this is set to 0.0 without calling exp, which is slow on
# arguments that underflow.
_EXP_DEAD = -760.0


@dataclass
class Kernel:
    weight: float
    precision: np.ndarray       # diagonal of Lambda, entries > 0
    features: np.ndarray        # (N, d) per-node features, d = len(precision)

    def __post_init__(self):
        self.precision = np.asarray(self.precision, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if not 0 <= self.weight < np.inf:  # NaN fails
            raise ValueError(f"kernel weight must be finite and >= 0, got {self.weight}")
        if not np.all(self.precision > 0):
            raise ValueError("precision entries must be > 0")
        if self.features.ndim != 2 or self.features.shape[1:] != self.precision.shape:
            raise ValueError("feature/precision dimension mismatch")
        if not np.isfinite(self.features).all():
            raise ValueError("kernel features must be finite (found NaN or inf)")


def potts_compat(num_labels):
    """mu(a, b) = [a != b]."""
    return 1.0 - np.eye(num_labels)


@dataclass
class CrfModel:
    unary: np.ndarray           # (N, C) costs
    kernels: list
    compat: np.ndarray = None   # (C, C); defaults to Potts

    def __post_init__(self):
        self.unary = np.asarray(self.unary, dtype=np.float64)
        if self.compat is None:
            self.compat = potts_compat(self.unary.shape[1])
        self.compat = np.asarray(self.compat, dtype=np.float64)
        if not np.allclose(self.compat, self.compat.T):
            raise ValueError("compatibility must be symmetric")
        if any(len(kern.features) != self.num_nodes for kern in self.kernels):
            raise ValueError("kernel feature rows != node count")

    @property
    def num_nodes(self):
        return self.unary.shape[0]

    @property
    def num_labels(self):
        return self.unary.shape[1]


@dataclass
class MeanFieldState:
    q: np.ndarray               # (N, C) per-node distributions
    free_energies: list = field(default_factory=list)


def kernel_sum_matrix(model):
    """(N, N) matrix K_ij = sum_m w_m k_m(f_i, f_j), zero diagonal.

    Each kernel takes one full (N, d) @ (d, N) matmul for the cross term
    (2a)^T b into an (N, N) buffer; the rest, max(|a|^2 + |b|^2 - cross, 0)
    then exp(-d2/2) * w added into K, runs elementwise over blocks of rows
    of about _BLOCK_CELLS cells in one block-sized scratch buffer.  An
    exponent below _EXP_DEAD is set to 0.0 without evaluating exp, which
    is what exp gives there; the test is x < _EXP_DEAD, so NaN stays live
    and exp keeps it NaN.  The bytes are those of the same chain run on
    whole (N, N) arrays, and K plus the cross term are the only (N, N)
    buffers.
    """
    n = model.num_nodes
    total = np.zeros((n, n))
    cross = np.empty((n, n))
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    block = np.empty((min(rows, n), n))
    dead = np.empty(block.shape, dtype=bool)
    for kern in model.kernels:
        scaled = kern.features * np.sqrt(kern.precision)
        sq = (scaled**2).sum(axis=1)
        np.matmul(2.0 * scaled, scaled.T, out=cross)
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            x, x_dead = block[: r1 - r0], dead[: r1 - r0]
            np.add(sq[r0:r1, None], sq[None, :], out=x)
            x -= cross[r0:r1]
            np.maximum(x, 0.0, out=x)
            x *= -0.5
            np.less(x, _EXP_DEAD, out=x_dead)
            np.exp(x, out=x, where=~x_dead)
            np.copyto(x, 0.0, where=x_dead)
            x *= kern.weight
            total[r0:r1] += x
    np.fill_diagonal(total, 0.0)
    return total


def gibbs_energy(x, model):
    """E(x) over the complete graph, each unordered pair counted once."""
    x = np.asarray(x)
    if len(x) != model.num_nodes:
        raise ValueError("labeling length != node count")
    if np.any((x < 0) | (x >= model.num_labels)):
        raise ValueError("label out of range")
    ksum = kernel_sum_matrix(model)
    e = float(model.unary[np.arange(len(x)), x].sum())
    mu = model.compat[x[:, None], x[None, :]]
    e += float((mu * ksum).sum() / 2.0)
    return e


def gibbs_distribution_bruteforce(model):
    """Exact Gibbs distribution by enumerating all C^N labelings.

    Returns (labelings, probs) with labelings in lexicographic order
    (node 0 most significant).  Guarded to C^N <= 2^20.
    """
    n, c = model.num_nodes, model.num_labels
    if c**n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large: {c}^{n} labelings")
    ksum = kernel_sum_matrix(model)
    labelings = np.stack(
        np.meshgrid(*([np.arange(c)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    energies = model.unary[np.arange(n)[None, :], labelings].sum(axis=1)
    iu, ju = np.triu_indices(n, k=1)
    if len(iu):
        energies = energies + (
            model.compat[labelings[:, iu], labelings[:, ju]] * ksum[iu, ju]
        ).sum(axis=1)
    z = energies - energies.min()
    probs = np.exp(-z)
    probs /= probs.sum()
    return labelings, probs


def unary_from_probs(probs):
    """psi = -log p with the probabilities floored at 1e-12."""
    return -np.log(np.clip(np.asarray(probs, dtype=np.float64), _PROB_FLOOR, None))


def free_energy(q, model, kq):
    """Variational free energy F(Q) = E_Q[E] - H(Q), given kq = K Q.

    The pairwise term tr(Q^T K Q mu) / 2 is summed as the elementwise
    product of (K Q) and (Q mu), in O(N C^2) time once K Q is known.
    """
    q = np.asarray(q, dtype=np.float64)
    e = float((q * model.unary).sum())
    e += float((kq * (q @ model.compat)).sum() / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(q > 0, q * np.log(q), 0.0).sum()
    return e + float(ent)


def check_mean_field(iters, damping, mode="parallel"):
    """Raise ValueError unless mean_field_refine accepts these settings."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")


def mean_field_refine(model, iters=10, damping=0.5, mode="parallel"):
    """Naive mean-field refinement of the unary prediction.

    Q starts at the per-node softmax of -psi.  Each update sets
    Q_i(l) proportional to exp(-psi_i(l) - sum_{j!=i} mu(l,.) K_ij Q_j),
    then mixes with the previous Q by the damping factor.  "parallel"
    updates every node from the previous sweep; "sequential" updates
    nodes in index order using current values.  Both modes record the
    free energy of the initial Q and after every sweep; K Q is formed once
    per sweep and serves that energy and the next parallel message.  An
    overflow or NaN in K or in a message raises ValueError.
    """
    check_mean_field(iters, damping, mode)
    try:
        with np.errstate(over="raise", invalid="raise"):
            ksum = kernel_sum_matrix(model)
            q = _softmax(-model.unary)
            kq = ksum @ q
            energies = [free_energy(q, model, kq)]
            for _ in range(iters):
                if mode == "parallel":
                    qnew = _softmax(-model.unary - kq @ model.compat)
                    q = (1.0 - damping) * qnew + damping * q
                else:
                    for i in range(model.num_nodes):
                        qi = _softmax(-model.unary[i] - (ksum[i] @ q) @ model.compat)
                        q[i] = (1.0 - damping) * qi + damping * q[i]
                kq = ksum @ q
                energies.append(free_energy(q, model, kq))
    except FloatingPointError as exc:
        raise ValueError(f"mean field left the float64 range ({exc}); lower the kernel "
                         "weights or widen the kernels") from None
    return MeanFieldState(q, energies)


def map_labels(q):
    """Per-node argmax of Q; ties go to the smallest label."""
    return np.argmax(q, axis=1).astype(np.int32)


def check_image_crf(w_appearance, w_smooth, sigma_xy, sigma_lab, sigma_xy_smooth):
    """Raise ValueError unless image_crf accepts these settings; return the
    precisions 1/sigma^2 of sigma_xy, sigma_lab and sigma_xy_smooth.

    Kernel weights must be finite and >= 0.  Each sigma must be > 0 with a
    precision that is finite and > 0, so a sigma whose square underflows
    to 0 or overflows fails, as NaN fails every check.
    """
    for name, weight in (("w_appearance", w_appearance), ("w_smooth", w_smooth)):
        if not 0 <= weight < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {weight}")
    precisions = []
    for name, sigma in (("sigma_xy", sigma_xy), ("sigma_lab", sigma_lab),
                        ("sigma_xy_smooth", sigma_xy_smooth)):
        try:
            precision = 1 / sigma**2
        except (ZeroDivisionError, OverflowError):  # the square underflowed or overflowed
            precision = np.inf
        if not (sigma > 0 and 0 < precision < np.inf):
            raise ValueError(f"{name} must be > 0 with 1/{name}^2 finite and > 0, got {sigma}")
        precisions.append(precision)
    return precisions


def image_crf(lab, probs, positions, w_appearance=3.0, w_smooth=1.0,
              sigma_xy=10.0, sigma_lab=10.0, sigma_xy_smooth=3.0):
    """Build the CrfModel for nodes with Lab colors and positions.

    lab: (N, 3) mean Lab per node; positions: (N, 2) x,y per node, which
    is required; probs: (N, C) unary probabilities.  Two kernels:
    appearance over (x, y, l, a, b) and a smoothness kernel over position
    only.  Kernel widths enter as diagonal precisions 1/sigma^2, as
    check_image_crf computes and bounds them; the weights must be finite
    and >= 0.
    """
    p_xy, p_lab, p_smooth = check_image_crf(w_appearance, w_smooth, sigma_xy, sigma_lab,
                                            sigma_xy_smooth)
    kernels = [
        Kernel(w_appearance, [p_xy, p_xy, p_lab, p_lab, p_lab],
               np.concatenate([positions, lab], axis=1)),
        Kernel(w_smooth, [p_smooth, p_smooth], positions),
    ]
    return CrfModel(unary_from_probs(probs), kernels)
