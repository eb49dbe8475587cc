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
from numpy.lib.stride_tricks import sliding_window_view

from .core_io import rgb_to_lab
from .zoomout import boundary_pairs, region_means

# Padded window cells one block of assign_pixels evaluates at most (unless
# a single window is larger); bounds the block's temporaries, a few arrays
# of this many float64, whatever the image size.
_BLOCK_CELLS = 1 << 15


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
        if not 0 < self.m < math.inf:
            raise ValueError(f"m must be finite and > 0, got {self.m}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if math.isnan(self.residual_threshold):
            raise ValueError("residual_threshold must not be NaN")


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
    cx, cy = np.stack(np.meshgrid(xs, ys)).reshape(2, -1)
    return np.column_stack([lab[cy.astype(int), cx.astype(int)], cx, cy])


def gradient_map(lab):
    """Squared central-difference gradient summed over Lab channels.

    G(x, y) = ||Lab(x+1,y) - Lab(x-1,y)||^2 + ||Lab(x,y+1) - Lab(x,y-1)||^2
    with coordinates clamped at the borders.
    """
    p = np.pad(lab, ((1, 1), (1, 1), (0, 0)), mode="edge")
    return (((p[1:-1, 2:] - p[1:-1, :-2]) ** 2).sum(axis=2)
            + ((p[2:, 1:-1] - p[:-2, 1:-1]) ** 2).sum(axis=2))


def perturb_centers(lab, centers):
    """Move each center to the lowest-gradient spot in its 3x3 neighborhood.

    A center moves only when a strictly lower gradient exists (so a flat
    image leaves every center untouched); among strictly better spots the
    smallest row-major index wins.  Moved centers land on integer pixel
    positions and resample Lab there.
    """
    grad = gradient_map(lab)
    ax, ay = centers[:, 3:].astype(int).T
    # each center's 3x3 neighborhood in row-major order; off-image cells
    # are +inf, so argmin picks the first minimum inside the image
    dy, dx = np.divmod(np.arange(9), 3)
    hood = np.pad(grad, 1, constant_values=np.inf)[ay[:, None] + dy, ax[:, None] + dx]
    pick = hood.argmin(axis=1)
    by, bx = ay + dy[pick] - 1, ax + dx[pick] - 1
    moved = grad[by, bx] < grad[ay, ax]
    return np.where(moved[:, None], np.column_stack([lab[by, bx], bx, by]), centers)


def _windows(centers, s, shape):
    """(K, 4) int rows (x0, x1, y0, y1): each center's inclusive search window
    ceil(c - S)..floor(c + S), clipped to the image; empty where x0 > x1 or
    y0 > y1."""
    h, w = shape
    lo = np.maximum(np.ceil(centers[:, 3:] - s), 0)
    hi = np.minimum(np.floor(centers[:, 3:] + s), [w - 1, h - 1])
    return np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]]).astype(np.int64)


def _distance(pixels, centers, ratio):
    """D = d_lab + ratio * d_xy between broadcastable (l, a, b, x, y) pixel
    and center coordinate sequences; ratio is m / S.

    The l difference must already have the result's shape.  Every step
    runs in place, in the order of d_lab = sqrt((l-cl)^2 + (a-ca)^2 +
    (b-cb)^2), d_xy = sqrt((x-cx)^2 + (y-cy)^2), then d_lab + ratio*d_xy.
    """
    l, a, b, x, y = pixels
    cl, ca, cb, cx, cy = centers
    d = np.square(np.subtract(l, cl))
    t = np.empty_like(d)
    d += np.square(np.subtract(a, ca, out=t), out=t)
    d += np.square(np.subtract(b, cb, out=t), out=t)
    np.sqrt(d, out=d)
    np.sqrt(np.add(np.square(x - cx), np.square(y - cy), out=t), out=t)
    d += np.multiply(t, ratio, out=t)
    return d


def assign_pixels(lab, centers, m, s):
    """Assign every pixel to its best center; returns (spmap, best distance).

    Each center only competes inside its 2S x 2S window.  A pixel takes the
    smallest distance of the windows that cover it and, among the centers
    at that distance, the smallest id: what visiting the centers in id
    order and replacing only on a strictly smaller distance gives.  A NaN
    or +inf distance never wins.  Pixels where no window gives a distance
    below +inf fall back to the globally nearest center.

    The windows are evaluated in blocks of consecutive center ids, as many
    per block as fit in _BLOCK_CELLS cells of the largest window, each
    window padded to its block's largest.  Blocks run from the highest ids
    down.  A block lowers `best` with one scattered fmin, and every pixel
    where one of its distances equals the new best takes the smaller of
    its id and the block's smallest center at that distance.  Every later
    block holds smaller ids only, so a later tie or a later strictly
    smaller distance both take over, as in the id-order visit.
    """
    if len(centers) == 0:
        raise ValueError("centers must be nonempty")
    h, w = lab.shape[:2]
    ratio = m / s
    # the slot past the last pixel takes the padding cells
    best = np.full(h * w + 1, np.inf)
    ids = np.full(h * w + 1, np.iinfo(np.int32).max, dtype=np.int32)
    bounds = _windows(centers, s, (h, w))
    live = np.flatnonzero((bounds[:, 0] <= bounds[:, 1]) & (bounds[:, 2] <= bounds[:, 3]))
    x0, x1, y0, y1 = bounds[live].T
    widths, heights = x1 - x0 + 1, y1 - y0 + 1
    step = max(1, _BLOCK_CELLS // int(widths.max(initial=1) * heights.max(initial=1)))
    for lo in reversed(range(0, len(live), step)):
        blk = slice(lo, lo + step)
        bw, bh = int(widths[blk].max()), int(heights[blk].max())
        # a padded window slides back inside the image; it still covers its
        # center's window, and its cells outside that window go to the slot
        sx, sy = np.minimum(x0[blk], w - bw), np.minimum(y0[blk], h - bh)
        cols = sx[:, None] + np.arange(bw)
        rows = sy[:, None] + np.arange(bh)
        win = sliding_window_view(lab, (bh, bw), axis=(0, 1))[sy, sx]  # (K, 3, bh, bw)
        d = _distance((*np.moveaxis(win, 1, 0), cols[:, None, :], rows[:, :, None]),
                      centers[live[blk]].T[:, :, None, None], ratio).ravel()
        del win  # the gathered Lab copy is the block's largest temporary
        flat = (rows * w)[:, :, None] + cols[:, None, :]
        flat[((cols < x0[blk, None]) | (cols > x1[blk, None]))[:, None, :]
             | ((rows < y0[blk, None]) | (rows > y1[blk, None]))[:, :, None]] = h * w
        flat = flat.ravel()
        np.fmin.at(best, flat, d)
        won = np.flatnonzero(d == best.take(flat))
        per_center = np.diff(np.searchsorted(won, np.arange(len(cols) + 1) * (bh * bw)))
        np.minimum.at(ids, flat.take(won), np.repeat(live[blk].astype(np.int32), per_center))
    ids, best = ids[:-1].reshape(h, w), best[:-1].reshape(h, w)
    missed = best == np.inf  # the id-order visit would have taken no distance here
    if missed.any():
        my, mx = np.nonzero(missed)
        pixels = (*lab[my, mx].T[:, :, None], mx[:, None].astype(np.float64),
                  my[:, None].astype(np.float64))
        d = _distance(pixels, centers.T[:, None, :], ratio)
        ids[my, mx] = np.argmin(d, axis=1)  # argmin takes the first = smallest id
        best[my, mx] = d[np.arange(len(my)), ids[my, mx]]
    return ids, best


def window_eval_count(centers, s, shape):
    """Number of center/pixel distance evaluations one assignment pass does."""
    x0, x1, y0, y1 = _windows(centers, s, shape).T
    return int((np.maximum(x1 - x0 + 1, 0) * np.maximum(y1 - y0 + 1, 0)).sum())


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
    return np.unique(spmap, return_inverse=True)[1].reshape(spmap.shape).astype(np.int32)


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
    src, dst = boundary_pairs(comp)
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
    s = grid_interval(lab.shape[0] * lab.shape[1], params.k)
    centers = perturb_centers(lab, init_centers(lab, s))
    residual = math.inf
    history = []
    while len(history) < params.max_iters and residual >= params.residual_threshold:
        spmap, _ = assign_pixels(lab, centers, params.m, s)
        centers, residual = update_centers(lab, spmap, centers)
        history.append(residual)
    spmap = compact_ids(spmap)
    if params.enforce_connectivity:
        spmap = enforce_connectivity(spmap)
    return SlicResult(spmap, labxy_means(lab, spmap), len(history), history)
