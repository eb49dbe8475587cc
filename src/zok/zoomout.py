"""Region geometry and zoom-out feature construction over superpixels.

A superpixel is described by descriptors computed on a nested sequence of
regions around it: the superpixel itself (local), a ball of graph
neighbors (proximal), the bounding box of a wider ball (subscene) and the
whole image (scene).  Dense feature maps are ingested as (C, H', W')
arrays, upsampled to image resolution and mean-pooled over superpixels;
hand-crafted local descriptors cover color histograms, entropies and
normalized location.  Per-level vectors are concatenated into one (K, D)
feature matrix.

Per-superpixel accumulation always runs in pixel row-major order, so
results are bit-stable.
"""

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fixed histogram ranges per Lab channel; out-of-range values clamp to the
# end bins.
_CHANNEL_RANGES = ((0.0, 100.0), (-110.0, 110.0), (-110.0, 110.0))
_FINE_BINS = 32
_COARSE_BINS = 8
LOCAL_COLOR_DIM = 3 * (_FINE_BINS + _COARSE_BINS) * 2 + 3  # fixed + entropy + adaptive


def _as_lab(lab):
    """lab as (H, W, 3) float64; another shape or a dtype that is not float
    (the uint8 RGB image, say) raises ValueError."""
    lab = np.asarray(lab)
    if lab.shape[2:] != (3,) or lab.dtype.kind != "f":
        raise ValueError(f"expected an (H, W, 3) float Lab image (core_io.rgb_to_lab), "
                         f"got {lab.shape} {lab.dtype}")
    return lab.astype(np.float64, copy=False)


def boundary_pairs(labels):
    """Labels (src, dst) of every ordered pair of 4-adjacent pixels whose
    labels differ, as int64 arrays; each unordered pair appears both ways."""
    labels = np.asarray(labels)
    a = np.concatenate([labels[:, :-1].ravel(), labels[:-1, :].ravel()]).astype(np.int64)
    b = np.concatenate([labels[:, 1:].ravel(), labels[1:, :].ravel()]).astype(np.int64)
    cross = a != b
    a, b = a[cross], b[cross]
    return np.concatenate([a, b]), np.concatenate([b, a])


def build_adjacency(spmap):
    """Adjacency lists of superpixels sharing a 4-connected boundary.

    Returns a list of sorted int arrays; the relation is symmetric and has
    no self-loops.
    """
    spmap = np.asarray(spmap)
    k = int(spmap.max()) + 1
    src, dst = boundary_pairs(spmap)
    keys = np.unique(src * k + dst)  # sorted by (row, neighbour)
    bounds = np.searchsorted(keys, np.arange(1, k, dtype=np.int64) * k)
    return np.split(keys % k, bounds)


def neighbor_balls(graph, radius):
    """Sorted hop-radius balls of every node, as a CSR pair (indptr, indices).

    Node s's ball, itself included, is indices[indptr[s]:indptr[s + 1]].
    graph is a list of neighbour-id arrays, one per node, and is followed
    as given (edge s -> graph[s]).  All balls grow together: each hop
    expands every (source, frontier node) pair over the flattened lists.
    """
    k = len(graph)
    degree = np.fromiter(map(len, graph), dtype=np.int64, count=k)
    adj = np.concatenate(graph).astype(np.int64)
    if adj.size and (adj.min() < 0 or adj.max() >= k):
        raise ValueError(f"neighbour ids must be in 0..{k - 1}")
    start = np.cumsum(degree) - degree
    source = np.arange(k, dtype=np.int64)
    frontier = source
    ball = source * k + source              # sorted (source, member) keys
    for _ in range(radius):
        count = degree[frontier]
        offset = np.repeat(np.cumsum(count) - count, count)
        pos = np.arange(len(offset)) - offset + np.repeat(start[frontier], count)
        reached = np.repeat(source, count) * k + adj[pos]
        known = len(ball)
        # a key is new when its first occurrence lies past the known ball
        ball, first = np.unique(np.concatenate([ball, reached]), return_index=True)
        fresh = ball[first >= known]
        if not len(fresh):
            break
        source, frontier = np.divmod(fresh, k)
    indptr = np.searchsorted(ball, np.arange(k + 1, dtype=np.int64) * k)
    return indptr, ball % k


def upsample_featuremap(fm, height, width, mode="nearest"):
    """Upsample a (C, H', W') feature map to (C, height, width).

    nearest uses floor(i * H'/H) source sampling; bilinear uses the
    align-corners-false convention.
    """
    fm = np.asarray(fm)
    _, hs, ws = fm.shape
    if mode == "nearest":
        iy = (np.arange(height) * hs // height).astype(np.int64)
        ix = (np.arange(width) * ws // width).astype(np.int64)
        return fm[:, iy[:, None], ix[None, :]]
    if mode == "bilinear":
        fy = np.clip((np.arange(height) + 0.5) * hs / height - 0.5, 0, hs - 1)
        fx = np.clip((np.arange(width) + 0.5) * ws / width - 0.5, 0, ws - 1)
        y0 = np.floor(fy).astype(np.int64)
        x0 = np.floor(fx).astype(np.int64)
        y1 = np.minimum(y0 + 1, hs - 1)
        x1 = np.minimum(x0 + 1, ws - 1)
        wy = (fy - y0)[None, :, None]
        wx = (fx - x0)[None, None, :]
        cols = fm[:, :, x0] * (1 - wx) + fm[:, :, x1] * wx  # along x, then along y
        return cols[:, y0] * (1 - wy) + cols[:, y1] * wy
    raise ValueError(f"unknown mode {mode!r}")


def region_means(spmap, channels, k=None):
    """(K, C) mean of each of C channel planes over each superpixel.

    channels holds C arrays shaped like spmap (a (C, H, W) map works);
    sums run in float64 over pixels in row-major order.  K defaults to
    spmap.max() + 1; a superpixel with no pixels gets NaN.
    """
    flat = np.asarray(spmap).ravel()
    k = int(flat.max()) + 1 if k is None else k
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    sums = np.stack(
        [np.bincount(flat, weights=np.ravel(c), minlength=k) for c in channels], axis=1)
    with np.errstate(invalid="ignore"):
        return sums / counts[:, None]


def pool_over_superpixels(fm, spmap):
    """Mean of a full-resolution (C, H, W) feature map over each superpixel.

    Accumulates in float64; returns (num_superpixels, C).
    """
    fm = np.asarray(fm)
    spmap = np.asarray(spmap)
    if fm.shape[1:] != spmap.shape:
        raise ValueError(f"feature map grid {fm.shape[1:]} != map grid {spmap.shape}")
    return region_means(spmap, fm)


def _histograms(flat_ids, k, values, value_range=None):
    """Normalized per-superpixel (32-bin, 8-bin) histograms of one channel.

    The bins split value_range into equal widths; without a range their
    edges are the channel's per-image quantiles.  Values outside the bins
    clamp to the end bins.  An 8-bin count sums four 32-bin counts, as
    t*32 is exactly 4*(t*8) and the 8-bin quantile edges are the 32-bin [::4].
    A superpixel with no pixels gets NaN rows, as in region_means.
    """
    if value_range is None:
        # the same order statistics as from values, found faster in sorted order
        edges = np.quantile(np.sort(values), np.linspace(0.0, 1.0, _FINE_BINS + 1))
        idx = np.searchsorted(edges, values, side="right") - 1
    else:
        lo, hi = value_range
        idx = np.floor((values - lo) / (hi - lo) * _FINE_BINS).astype(np.int64)
    idx = np.clip(idx, 0, _FINE_BINS - 1)
    fine = np.bincount(flat_ids * _FINE_BINS + idx, minlength=k * _FINE_BINS).reshape(k, -1)
    coarse = fine.reshape(k, _COARSE_BINS, -1).sum(axis=2)
    with np.errstate(invalid="ignore"):
        return tuple(hist / hist.sum(axis=1, keepdims=True) for hist in (fine, coarse))


def local_color_features(lab, spmap):
    """243-dim color descriptor per superpixel.

    Per Lab channel: 32- and 8-bin equal-width histograms over fixed
    ranges (120 dims), the natural-log entropy of each 32-bin histogram
    (3 dims), and 32- and 8-bin histograms with per-image quantile bin
    edges (120 dims).  All histograms are normalized to sum 1.
    """
    lab = np.asarray(lab)
    spmap = np.asarray(spmap)
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    fixed, entropies, adaptive = [], [], []
    for ch in range(3):
        values = lab[:, :, ch].ravel()
        fine, coarse = _histograms(flat, k, values, _CHANNEL_RANGES[ch])
        fixed += [fine, coarse]
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(fine > 0, fine * np.log(fine), 0.0)
        entropies.append(-plogp.sum(axis=1))
        adaptive += _histograms(flat, k, values)
    out = np.concatenate(fixed + [np.stack(entropies, axis=1)] + adaptive, axis=1)
    assert out.shape[1] == LOCAL_COLOR_DIM
    return out


def location_features_all(spmap):
    """(K, 4) location descriptor: normalized centroid and its magnitude.

    Centroids use pixel-center coordinates (x + 0.5) and are mapped to
    [(cx - W/2)/(W/2), (cy - H/2)/(H/2)], followed by the absolute values
    of both.  Mirroring the image negates the first coordinate up to
    rounding: the mirrored centroid's quotient rounds on its own.
    """
    spmap = np.asarray(spmap)
    h, w = spmap.shape
    cx, cy = region_means(spmap, np.indices((h, w), dtype=np.float64)[::-1] + 0.5).T
    nx = (cx - w / 2.0) / (w / 2.0)
    ny = (cy - h / 2.0) / (h / 2.0)
    return np.stack([nx, ny, np.abs(nx), np.abs(ny)], axis=1)


def proximal_average(local_feats, graph, radius=2):
    """Unweighted mean of local feature rows over each hop-radius ball."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    local_feats = np.asarray(local_feats)
    if len(graph) != len(local_feats):
        raise ValueError(f"graph has {len(graph)} nodes, features {len(local_feats)} rows")
    indptr, indices = neighbor_balls(graph, radius)
    out = np.empty_like(local_feats, dtype=np.float64)
    # one mean per ball: np.add.reduceat sums in another order (last bits differ)
    for s in range(len(local_feats)):
        out[s] = local_feats[indices[indptr[s] : indptr[s + 1]]].mean(axis=0)
    return out


def superpixel_bboxes(spmap):
    """(K, 4) tight bounding boxes as (x0, y0, x1, y1), inclusive."""
    spmap = np.asarray(spmap)
    h, w = spmap.shape
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    xs = np.tile(np.arange(w), h)
    ys = np.repeat(np.arange(h), w)
    x0, y0, x1, y1 = np.full(k, w), np.full(k, h), np.full(k, -1), np.full(k, -1)
    np.minimum.at(x0, flat, xs)
    np.minimum.at(y0, flat, ys)
    np.maximum.at(x1, flat, xs)
    np.maximum.at(y1, flat, ys)
    return np.stack([x0, y0, x1, y1], axis=1).astype(np.int64)


def subscene_bboxes(spmap, graph, radius=3):
    """(K, 4) bounding boxes (x0, y0, x1, y1) of each radius-hop ball.

    The per-superpixel boxes are computed once and reduced over each
    superpixel's ball with min/max.
    """
    boxes = superpixel_bboxes(spmap)
    indptr, indices = neighbor_balls(graph, radius)
    members = boxes[indices]
    return np.concatenate(
        [np.minimum.reduceat(members[:, :2], indptr[:-1], axis=0),
         np.maximum.reduceat(members[:, 2:], indptr[:-1], axis=0)],
        axis=1,
    )


# Levels that take a hop radius, with its default; the others take none.
_RADIUS_LEVELS = {"proximal": 2, "subscene": 3}
# Levels that read the (C, H, W) feature map.
FEATMAP_LEVELS = ("pooled", "subscene", "scene")


def _parse_levels(text):
    """[(name, radius)] from a spec such as "local,proximal:2,scene".

    Names are local, proximal[:r], pooled, subscene[:r] and scene; r is a
    hop radius >= 1 (default 2 for proximal, 3 for subscene) and is None
    for the levels that take no radius.
    """
    levels = []
    for item in filter(None, (part.strip() for part in text.split(","))):
        name, colon, arg = item.partition(":")
        if name not in ("local", "proximal", *FEATMAP_LEVELS):
            raise ValueError(f"unknown level {name!r}")
        if name not in _RADIUS_LEVELS:
            if colon:
                raise ValueError(f"level {name!r} takes no radius, got {item!r}")
            levels.append((name, None))
            continue
        try:
            radius = int(arg) if colon else _RADIUS_LEVELS[name]
        except ValueError:
            raise ValueError(f"level {name!r} needs an integer radius, got {item!r}") from None
        if radius < 1:
            raise ValueError(f"level {name!r} needs a radius >= 1, got {radius}")
        levels.append((name, radius))
    if not levels:
        raise ValueError("need at least one level")
    return levels


def _box_sums(featmap, boxes, sums):
    """sums[s] = the sum of featmap over boxes[s], for every s; an overflow raises."""
    with np.errstate(over="raise"):
        for s, (x0, y0, x1, y1) in enumerate(boxes.tolist()):
            np.add.reduce(featmap[:, y0 : y1 + 1, x0 : x1 + 1], axis=(1, 2), dtype=sums.dtype,
                          out=sums[s])


def _box_means(featmap, boxes):
    """(len(boxes), C) means of a (C, H, W) map over inclusive boxes (x0, y0, x1, y1).

    Each box is summed in the map's dtype (float64 for an integer map),
    then every sum is divided once by its cell count and rounded back to
    that dtype: for float32, float64 and integer maps, the bytes of
    featmap[:, y0:y1 + 1, x0:x1 + 1].mean(axis=(1, 2)).  A float64 quotient
    rounded to float32 is the float32 quotient, since 53 >= 2 * 24 + 2.
    An empty box gets NaN; a sum that overflows raises FloatingPointError.

    The boxes are summed in min(CPUs in the affinity mask, len(boxes))
    contiguous chunks, each on a thread of a pool made for this call.  Every
    row is summed by the same numpy call whatever the number of chunks, so
    the bytes are too.  Every chunk runs to its end; then the first error in
    chunk order is raised.
    """
    dtype = featmap.dtype if featmap.dtype.kind == "f" else np.dtype(np.float64)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sums = np.empty((len(boxes), featmap.shape[0]), dtype=dtype)
    count = max(1, min(cpus or 1, len(boxes)))
    with ThreadPoolExecutor(count) as pool:
        chunks = pool.map(functools.partial(_box_sums, featmap), np.array_split(boxes, count),
                          np.array_split(sums, count))
    list(chunks)  # read once every chunk has finished, so none is cancelled
    counts = (boxes[:, 2] - boxes[:, 0] + 1).clip(0) * (boxes[:, 3] - boxes[:, 1] + 1).clip(0)
    with np.errstate(invalid="ignore"):
        return (sums / counts[:, None]).astype(dtype)


def build_features(lab, spmap, levels="local,proximal:2", featmap=None, mirror=False):
    """(K, D) zoom-out features of every superpixel of a Lab image (core_io.rgb_to_lab).

    levels is a _parse_levels spec; its levels are concatenated in order.
    local is the color descriptor plus location, proximal its mean over
    hop balls.  pooled, subscene (the mean over each ball's bounding box)
    and scene read featmap, a (C, H, W) map at image resolution.

    mirror max-fuses the features with those of the left-right mirrored
    image and map.  A mirrored superpixel keeps its colours and its
    neighbours, and its location only negates nx (up to rounding), so the
    local and proximal blocks are the unmirrored ones with |nx|, and the
    scene mean is computed once.  Only the pooled means and the subscene
    boxes are computed again for the mirror, whose boxes are summed in the
    same _box_means call as the original's.  The mirror's pooled and
    subscene levels still read featmap unmirrored, so they pool the map on
    the other side of the image: a known fault, left for ROADMAP item 1a.
    """
    levels = _parse_levels(levels)
    spmap = np.asarray(spmap)
    maps = (spmap, spmap[:, ::-1]) if mirror else (spmap,)
    graph = build_adjacency(spmap)
    local = np.concatenate(
        [local_color_features(_as_lab(lab), spmap), location_features_all(spmap)], axis=1)
    blocks = []
    for name, radius in levels:
        if name in FEATMAP_LEVELS and featmap is None:
            raise ValueError(f"level {name!r} requires a feature map")
        if name in ("local", "proximal"):
            block = local if name == "local" else proximal_average(local, graph, radius)
            if mirror:  # on a copy, as proximal must average the signed nx
                block = block.copy()
                block[:, LOCAL_COLOR_DIM] = np.abs(block[:, LOCAL_COLOR_DIM])
            blocks.append(block)
        elif name == "pooled":
            pooled = [pool_over_superpixels(featmap, m) for m in maps]
            blocks.append(functools.reduce(np.maximum, pooled))
        elif name == "scene":
            blocks.append(np.tile(scene_pool(featmap), (len(local), 1)))
        else:
            boxes = subscene_bboxes(spmap, graph, radius)
            if mirror:  # then the mirrored map's boxes, in closed form
                x0, y0, x1, y1 = boxes.T
                w = spmap.shape[1]
                boxes = np.concatenate([boxes, np.stack([w - 1 - x1, y0, w - 1 - x0, y1], axis=1)])
            try:
                sub = _box_means(featmap, boxes)
            except FloatingPointError:
                raise ValueError(f"level 'subscene:{radius}' overflows summing the feature "
                                 f"map over a box in {featmap.dtype}") from None
            blocks.append(functools.reduce(np.maximum, np.split(sub, len(maps))))
    return np.concatenate(blocks, axis=1, dtype=np.float64)


def rect_regions(width, height, count):
    """Partition the image into a grid of near-equal rectangles.

    Produces ceil(sqrt(count*W/H)) columns by ceil(sqrt(count*H/W)) rows,
    ids in row-major order; a rectangular-region baseline for superpixels.
    count must be between 1 and W*H, the number of pixels.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if width < 1 or height < 1:
        raise ValueError(f"width and height must be >= 1, got {width}x{height}")
    if count > width * height:
        raise ValueError(f"count must be <= width * height = {width * height}, got {count}")
    ncols = min(int(np.ceil(np.sqrt(count * width / height))), width)
    nrows = min(int(np.ceil(np.sqrt(count * height / width))), height)
    col_of = np.minimum(np.arange(width) * ncols // width, ncols - 1)
    row_of = np.minimum(np.arange(height) * nrows // height, nrows - 1)
    return (row_of[:, None] * ncols + col_of[None, :]).astype(np.int32)


def scene_pool(fm):
    """Global per-channel mean of a (C, H, W) feature map."""
    fm = np.asarray(fm, dtype=np.float64)
    return fm.mean(axis=(1, 2))
