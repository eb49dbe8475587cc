"""SLIC superpixel oversegmentation.

k-means-like clustering in the joint [l a b x y] space with a windowed
2S x 2S search around each cluster center, where S = sqrt(N/k) is the
seeding grid interval.  The distance between a pixel and a center is

    D = d_lab + (m / S) * d_xy

with d_lab and d_xy Euclidean in color and position; the compactness
weight m trades spatial regularity against color adherence.

Cluster centers are stored as an (K, 5) float64 array with columns
(l, a, b, x, y).  Superpixel maps are (H, W) int32 arrays with
contiguous ids; every pixel is assigned.  All operations are
deterministic: ties are always broken toward the smallest index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core_io import rgb_to_lab
from .zoomout import region_means

# x and y columns of the (K, 5) labxy center array
X, Y = 3, 4


@dataclass
class SlicParams:
    k: int
    m: float = 15.0
    max_iters: int = 10
    residual_threshold: float = 1.0
    enforce_connectivity: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.m <= 0:
            raise ValueError("m must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SlicResult:
    spmap: np.ndarray            # (H, W) int32, ids contiguous 0..K'-1
    centers: np.ndarray          # (K', 5) mean labxy of each final region
    iterations_run: int
    history: list                # residual E per iteration; the last is final


def grid_interval(num_pixels, k):
    """Seeding grid interval S = sqrt(num_pixels / k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if num_pixels < k:
        raise ValueError(f"k={k} exceeds pixel count {num_pixels}")
    return math.sqrt(num_pixels / k)


def init_centers(lab, s):
    """Seed ceil(W/S) * ceil(H/S) centers on a regular grid of interval S.

    Centers sit at (S/2 + i*S, S/2 + j*S), clipped to at most the last
    pixel coordinate, and carry the Lab value of their containing pixel.
    Row-major order: y varies slowest.
    """
    if s < 1:
        raise ValueError("grid interval must be >= 1")
    h, w = lab.shape[:2]
    xs = np.minimum(s / 2.0 + np.arange(math.ceil(w / s)) * s, w - 1.0)
    ys = np.minimum(s / 2.0 + np.arange(math.ceil(h / s)) * s, h - 1.0)
    centers = np.empty((len(ys) * len(xs), 5))
    i = 0
    for cy in ys:
        for cx in xs:
            centers[i, :3] = lab[int(cy), int(cx)]
            centers[i, X] = cx
            centers[i, Y] = cy
            i += 1
    return centers


def gradient_map(lab):
    """Squared central-difference gradient summed over Lab channels.

    G(x, y) = ||Lab(x+1,y) - Lab(x-1,y)||^2 + ||Lab(x,y+1) - Lab(x,y-1)||^2
    with coordinates clamped at the borders.
    """
    h, w = lab.shape[:2]
    xp = lab[:, np.minimum(np.arange(w) + 1, w - 1), :]
    xm = lab[:, np.maximum(np.arange(w) - 1, 0), :]
    yp = lab[np.minimum(np.arange(h) + 1, h - 1), :, :]
    ym = lab[np.maximum(np.arange(h) - 1, 0), :, :]
    return ((xp - xm) ** 2).sum(axis=2) + ((yp - ym) ** 2).sum(axis=2)


def perturb_centers(lab, centers):
    """Move each center to the lowest-gradient spot in its 3x3 neighborhood.

    A center moves only when a strictly lower gradient exists (so a flat
    image leaves every center untouched); among strictly better spots the
    smallest row-major index wins.  Moved centers land on integer pixel
    positions and resample Lab there.
    """
    h, w = lab.shape[:2]
    grad = gradient_map(lab)
    out = centers.copy()
    for i in range(len(centers)):
        ax, ay = int(centers[i, X]), int(centers[i, Y])
        best = grad[ay, ax]
        bx = by = -1
        for ny in range(max(0, ay - 1), min(h, ay + 2)):
            for nx in range(max(0, ax - 1), min(w, ax + 2)):
                if grad[ny, nx] < best:
                    best = grad[ny, nx]
                    bx, by = nx, ny
        if bx >= 0:
            out[i, :3] = lab[by, bx]
            out[i, X] = bx
            out[i, Y] = by
    return out


def assign_pixels(lab, centers, m, s):
    """Assign every pixel to its best center; returns (spmap, best distance).

    Each center only competes inside its 2S x 2S window; ties go to the
    smallest center id.  Pixels covered by no window fall back to the
    globally nearest center.
    """
    if len(centers) == 0:
        raise ValueError("centers must be nonempty")
    h, w = lab.shape[:2]
    ratio = m / s
    best = np.full((h, w), np.inf)
    ids = np.full((h, w), -1, dtype=np.int32)
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    for cid in range(len(centers)):
        cl, ca, cb, cx, cy = centers[cid]
        x0 = max(0, math.ceil(cx - s))
        x1 = min(w - 1, math.floor(cx + s))
        y0 = max(0, math.ceil(cy - s))
        y1 = min(h - 1, math.floor(cy + s))
        if x0 > x1 or y0 > y1:
            continue
        win = lab[y0 : y1 + 1, x0 : x1 + 1]
        d_lab = np.sqrt(
            (win[:, :, 0] - cl) ** 2 + (win[:, :, 1] - ca) ** 2 + (win[:, :, 2] - cb) ** 2
        )
        d_xy = np.sqrt(
            (xs[x0 : x1 + 1][None, :] - cx) ** 2 + (ys[y0 : y1 + 1][:, None] - cy) ** 2
        )
        d = d_lab + ratio * d_xy
        bwin = best[y0 : y1 + 1, x0 : x1 + 1]
        upd = d < bwin
        bwin[upd] = d[upd]
        ids[y0 : y1 + 1, x0 : x1 + 1][upd] = cid
    missed = ids < 0
    if missed.any():
        my, mx = np.nonzero(missed)
        pix = np.concatenate(
            [lab[my, mx], mx[:, None].astype(np.float64), my[:, None].astype(np.float64)],
            axis=1,
        )
        d_lab = np.sqrt(((pix[:, None, :3] - centers[None, :, :3]) ** 2).sum(axis=2))
        d_xy = np.sqrt(((pix[:, None, 3:] - centers[None, :, 3:]) ** 2).sum(axis=2))
        d = d_lab + ratio * d_xy
        ids[my, mx] = np.argmin(d, axis=1)  # argmin takes the first = smallest id
        best[my, mx] = d[np.arange(len(my)), ids[my, mx]]
    return ids, best


def window_eval_count(centers, s, shape):
    """Number of center/pixel distance evaluations one assignment pass does."""
    h, w = shape
    total = 0
    for cx, cy in centers[:, 3:]:
        nx = min(w - 1, math.floor(cx + s)) - max(0, math.ceil(cx - s)) + 1
        ny = min(h - 1, math.floor(cy + s)) - max(0, math.ceil(cy - s)) + 1
        total += max(0, nx) * max(0, ny)
    return total


def labxy_means(lab, spmap, k=None):
    """(K, 5) mean (l, a, b, x, y) of each superpixel; NaN for an empty one."""
    planes = [*np.moveaxis(lab, 2, 0), *np.indices(spmap.shape, dtype=np.float64)[::-1]]
    return region_means(spmap, planes, k)


def update_centers(lab, spmap, centers):
    """Move each center to the mean labxy of its pixels; returns (centers, E).

    E is the total Euclidean labxy movement; empty clusters keep their
    previous center and contribute zero.
    """
    means = labxy_means(lab, spmap, len(centers))
    new = np.where(np.isnan(means), centers, means)
    residual = float(np.sqrt(((new - centers) ** 2).sum(axis=1)).sum())
    return new, residual


def compact_ids(spmap):
    """Renumber ids to a contiguous 0..K'-1 range, preserving order."""
    used = np.unique(spmap)
    remap = np.full(used.max() + 1 if len(used) else 1, -1, dtype=np.int32)
    remap[used] = np.arange(len(used), dtype=np.int32)
    return remap[spmap]


def _label_components(spmap):
    """4-connected components of equal-id regions, labeled in raster order.

    Returns (component map, sizes, id of each component's superpixel).
    Component labels follow the row-major order of each component's first
    pixel, so smaller labels mean earlier first pixels.

    Every pixel starts as its own root; each round hooks the larger root of
    every same-id 4-neighbor edge onto the smaller one, then pointer jumping
    flattens the trees.  At the fixed point each pixel points at the first
    (smallest flat index) pixel of its component.
    """
    h, w = spmap.shape
    index = np.arange(spmap.size)
    grid = index.reshape(h, w)
    same_x = spmap[:, :-1] == spmap[:, 1:]
    same_y = spmap[:-1, :] == spmap[1:, :]
    u = np.concatenate([grid[:, :-1][same_x], grid[:-1, :][same_y]])
    v = np.concatenate([grid[:, 1:][same_x], grid[1:, :][same_y]])
    parent = index.copy()
    while True:
        pu, pv = parent[u], parent[v]
        unmerged = pu != pv
        if not unmerged.any():
            break
        u, v, pu, pv = u[unmerged], v[unmerged], pu[unmerged], pv[unmerged]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots = np.nonzero(parent == index)[0]
    rank = np.empty(spmap.size, dtype=np.int32)
    rank[roots] = np.arange(len(roots), dtype=np.int32)
    comp = rank[parent]
    return comp.reshape(h, w), np.bincount(comp), spmap.ravel()[roots].astype(np.int64)


def _kept_components(sizes, ids):
    """Mark, per superpixel id, its largest component (earliest on ties)."""
    order = np.lexsort((np.arange(len(sizes)), -sizes, ids))
    first = np.ones(len(order), dtype=bool)
    first[1:] = ids[order[1:]] != ids[order[:-1]]
    kept = np.zeros(len(sizes), dtype=bool)
    kept[order[first]] = True
    return kept


def _boundary_votes(comp, sources):
    """Count 4-neighbor pixel pairs from each source component to the others.

    Returns (src, dst, count) sorted by (src, dst): `count` ordered pixel
    pairs (p, q) are 4-adjacent with p in component src and q in dst != src.
    """
    n = int(comp.max()) + 1
    a = np.concatenate([comp[:, :-1].ravel(), comp[:-1, :].ravel()]).astype(np.int64)
    b = np.concatenate([comp[:, 1:].ravel(), comp[1:, :].ravel()]).astype(np.int64)
    cross = a != b
    src = np.concatenate([a[cross], b[cross]])
    dst = np.concatenate([b[cross], a[cross]])
    keep = sources[src]
    pairs, counts = np.unique(src[keep] * n + dst[keep], return_counts=True)
    src, dst = np.divmod(pairs, n)
    return src, dst, counts


def enforce_connectivity(spmap):
    """Make every superpixel 4-connected.

    Each id keeps its largest component (the earliest in raster order on
    ties).  Stray components smaller than (area/K)/4 are absorbed one at a
    time, in raster order of their first pixel, into the id most common
    among their 4-neighbor pixels (smallest id on ties).  Votes read the
    current ids, so a stray sees the absorptions of every earlier stray of
    the same pass; passes repeat until no small stray is left.
    Disconnected leftovers at least that large become new superpixels.
    Ids come out contiguous; an already-connected map is returned unchanged.
    """
    spmap = np.asarray(spmap, dtype=np.int32)
    k = int(spmap.max()) + 1
    threshold = spmap.size / k / 4.0
    cur = spmap

    while True:
        comp, sizes, ids = _label_components(cur)
        kept = _kept_components(sizes, ids)
        small = ~kept & (sizes < threshold)
        if not small.any():
            break
        strays = np.nonzero(small)[0]
        src, dst, counts = _boundary_votes(comp, small)
        starts = np.searchsorted(src, strays)
        ends = np.searchsorted(src, strays, side="right")
        cur_id = ids.copy()
        for c, lo, hi in zip(strays.tolist(), starts.tolist(), ends.tolist()):
            cur_id[c] = np.bincount(cur_id[dst[lo:hi]], weights=counts[lo:hi]).argmax()
        # Merges changed the partition; relabel and rescan.
        cur = cur_id[comp].astype(np.int32)

    # Fresh ids for the remaining (large) disconnected leftovers; the last
    # pass labeled the final map, so its components are reused.
    final_id = ids.copy()
    orphans = ~kept
    final_id[orphans] = k + np.arange(np.count_nonzero(orphans))
    return compact_ids(final_id[comp].astype(np.int32))


def run_slic(img, params):
    """Run the full SLIC pipeline on an (H, W, 3) uint8 image.

    Seeds a grid of centers, perturbs them off edges, then alternates
    windowed assignment and center updates until the residual drops below
    params.residual_threshold or max_iters is reached.  Ids are compacted
    and, unless disabled, post-processed for 4-connectivity.  The returned
    centers are the mean labxy of each final region.
    """
    lab = rgb_to_lab(img)
    h, w = lab.shape[:2]
    s = grid_interval(h * w, params.k)
    centers = init_centers(lab, s)
    centers = perturb_centers(lab, centers)
    residual = math.inf
    history = []
    iterations = 0
    spmap = None
    while iterations < params.max_iters and residual >= params.residual_threshold:
        spmap, _ = assign_pixels(lab, centers, params.m, s)
        centers, residual = update_centers(lab, spmap, centers)
        history.append(residual)
        iterations += 1
    spmap = compact_ids(spmap)
    if params.enforce_connectivity:
        spmap = enforce_connectivity(spmap)
    return SlicResult(spmap, labxy_means(lab, spmap), iterations, history)
