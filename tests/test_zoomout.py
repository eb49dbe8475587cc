import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zok import zoomout
from zok.core_io import rgb_to_lab
from zok.slic import SlicParams, run_slic
from zok.synth import SyntheticSpec, generate_dataset
from zok.zoomout import (LOCAL_COLOR_DIM, boundary_pairs, build_adjacency, build_features,
                         local_color_features, location_features_all,
                         neighbor_balls,
                         pool_over_superpixels, proximal_average,
                         rect_regions, region_means, scene_pool, subscene_bboxes,
                         superpixel_bboxes, upsample_featuremap)


class TestAdjacency:
    def test_vertical_split_single_edge(self):
        spmap = np.array([[0, 0, 1, 1]] * 3, dtype=np.int32)
        graph = build_adjacency(spmap)
        assert list(graph[0]) == [1] and list(graph[1]) == [0]

    def test_3x3_singletons_rook_adjacency(self):
        spmap = np.arange(9, dtype=np.int32).reshape(3, 3)
        graph = build_adjacency(spmap)
        edges = sum(len(n) for n in graph) // 2
        assert edges == 12
        assert list(graph[4]) == [1, 3, 5, 7]  # the center touches 4 sides

    def test_single_region_no_edges(self):
        graph = build_adjacency(np.zeros((4, 4), dtype=np.int32))
        assert list(graph[0]) == []

    def test_symmetric_no_self_loops(self):
        rng = np.random.default_rng(0)
        spmap = rng.integers(0, 5, size=(8, 8)).astype(np.int32)
        graph = build_adjacency(spmap)
        for i, nbrs in enumerate(graph):
            assert i not in nbrs
            for j in nbrs:
                assert i in graph[j]

    @pytest.mark.parametrize("shape", [(7, 9), (1, 6), (5, 1), (1, 1)])
    def test_boundary_pairs_are_every_differing_neighbour_both_ways(self, shape):
        labels = np.random.default_rng(2).integers(0, 4, size=shape).astype(np.uint32)
        h, w = shape
        want = []
        for y in range(h):
            for x in range(w):
                for y2, x2 in ((y, x + 1), (y + 1, x)):
                    if y2 < h and x2 < w and labels[y, x] != labels[y2, x2]:
                        want += [(labels[y, x], labels[y2, x2]), (labels[y2, x2], labels[y, x])]
        src, dst = boundary_pairs(labels)
        assert src.dtype == dst.dtype == np.int64
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(want)


def reference_build_adjacency(spmap):
    """Adjacency lists of superpixels sharing a 4-connected boundary."""
    spmap = np.asarray(spmap)
    k = int(spmap.max()) + 1
    pairs = []
    a, b = spmap[:, :-1].ravel(), spmap[:, 1:].ravel()
    mask = a != b
    pairs.append(np.stack([a[mask], b[mask]], axis=1))
    a, b = spmap[:-1, :].ravel(), spmap[1:, :].ravel()
    mask = a != b
    pairs.append(np.stack([a[mask], b[mask]], axis=1))
    edges = np.concatenate(pairs, axis=0)
    if len(edges):
        edges = np.unique(np.sort(edges, axis=1), axis=0)
    neighbors = [[] for _ in range(k)]
    for i, j in edges:
        neighbors[i].append(int(j))
        neighbors[j].append(int(i))
    return [np.array(sorted(n), dtype=np.int64) for n in neighbors]


def reference_neighbors_within_radius(graph, s, radius):
    """Sorted BFS ball of hop radius around superpixel s (inclusive)."""
    if s >= len(graph):
        raise ValueError(f"superpixel {s} out of range")
    ball = {int(s)}
    frontier = [int(s)]
    for _ in range(radius):
        nxt = []
        for node in frontier:
            for nb in graph[node]:
                if nb not in ball:
                    ball.add(int(nb))
                    nxt.append(int(nb))
        if not nxt:
            break
        frontier = nxt
    return np.array(sorted(ball), dtype=np.int64)


def reference_proximal_average(local_feats, graph, radius):
    """Mean of the local rows over each BFS ball, one ball at a time."""
    out = np.empty_like(local_feats, dtype=np.float64)
    for s in range(len(local_feats)):
        out[s] = local_feats[reference_neighbors_within_radius(graph, s, radius)].mean(axis=0)
    return out


def ball(graph, s, radius):
    indptr, indices = neighbor_balls(graph, radius)
    return list(indices[indptr[s] : indptr[s + 1]])


class TestNeighborsWithinRadius:
    def path_graph(self, n):
        spmap = np.repeat(np.arange(n, dtype=np.int32), 2).reshape(1, -1)
        return build_adjacency(spmap)

    def test_radius_zero(self):
        g = self.path_graph(4)
        assert ball(g, 2, 0) == [2]

    def test_path_graph_ball(self):
        g = self.path_graph(4)
        assert ball(g, 0, 2) == [0, 1, 2]

    def test_complete_graph_radius_one(self):
        g = [np.array([j for j in range(4) if j != i]) for i in range(4)]
        assert ball(g, 1, 1) == [0, 1, 2, 3]

    def test_monotone_in_radius(self):
        g = self.path_graph(6)
        prev = set()
        for r in range(5):
            cur = set(ball(g, 2, r))
            assert prev <= cur
            prev = cur


@st.composite
def oracle_maps(draw):
    """Random id maps, mirrored rectangle grids and one-superpixel maps."""
    kind = draw(st.sampled_from(["random", "mirrored", "single"]))
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    if kind == "random":
        num_ids = draw(st.integers(1, 8))
        return draw(arrays(np.int32, (h, w), elements=st.integers(0, num_ids - 1)))
    if kind == "mirrored":
        # row-major grid ids, read right to left: not in raster order
        return rect_regions(w, h, draw(st.integers(1, 40)))[:, ::-1]
    return np.zeros((h, w), dtype=np.int32)


@st.composite
def directed_graphs(draw):
    """Hand-built neighbour lists: one-way edges, repeats, self-loops, plain lists."""
    k = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), max_size=5), min_size=k, max_size=k))
    as_array = draw(st.booleans())
    return [np.array(r, dtype=np.int64) if as_array else r for r in rows]


class TestNeighborBallsOracle:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(oracle_maps(), st.integers(0, 4), st.integers(0, 2**31))
    def test_random_maps_match_reference(self, spmap, radius, seed):
        graph = build_adjacency(spmap)
        ref_graph = reference_build_adjacency(spmap)
        assert len(graph) == len(ref_graph)
        for got, want in zip(graph, ref_graph):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        indptr, indices = neighbor_balls(graph, radius)
        assert indptr.dtype == indices.dtype == np.int64
        assert len(indptr) == len(graph) + 1 and indptr[-1] == len(indices)
        for s in range(len(graph)):
            want = reference_neighbors_within_radius(ref_graph, s, radius)
            assert indices[indptr[s] : indptr[s + 1]].tolist() == want.tolist()
        local = np.random.default_rng(seed).normal(size=(len(graph), 7))
        if radius >= 1:
            assert (proximal_average(local, graph, radius).tobytes()
                    == reference_proximal_average(local, ref_graph, radius).tobytes())
        sub = subscene_bboxes(spmap, graph, radius)
        for s in range(len(graph)):
            assert tuple(sub[s]) == reference_subscene_bbox(spmap, ref_graph, s, radius)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(directed_graphs(), st.integers(0, 4))
    def test_hand_built_graphs_match_reference(self, graph, radius):
        indptr, indices = neighbor_balls(graph, radius)
        for s in range(len(graph)):
            want = reference_neighbors_within_radius(graph, s, radius)
            assert indices[indptr[s] : indptr[s + 1]].tolist() == want.tolist()

    def test_out_of_range_neighbour_rejected(self):
        with pytest.raises(ValueError):
            neighbor_balls([np.array([1]), np.array([2])], 1)


def reference_upsample_bilinear(fm, height, width):
    """Bilinear upsampling in its four-gather form: the top and bottom rows
    of each output's source cell are each blended along x, then along y."""
    _, hs, ws = fm.shape
    fy = np.clip((np.arange(height) + 0.5) * hs / height - 0.5, 0, hs - 1)
    fx = np.clip((np.arange(width) + 0.5) * ws / width - 0.5, 0, ws - 1)
    y0 = np.floor(fy).astype(np.int64)
    x0 = np.floor(fx).astype(np.int64)
    y1 = np.minimum(y0 + 1, hs - 1)
    x1 = np.minimum(x0 + 1, ws - 1)
    wy = (fy - y0)[None, :, None]
    wx = (fx - x0)[None, None, :]
    top = fm[:, y0[:, None], x0[None, :]] * (1 - wx) + fm[:, y0[:, None], x1[None, :]] * wx
    bot = fm[:, y1[:, None], x0[None, :]] * (1 - wx) + fm[:, y1[:, None], x1[None, :]] * wx
    return top * (1 - wy) + bot * wy


class TestUpsample:
    def test_nearest_block_replication(self):
        fm = np.arange(4, dtype=np.float64).reshape(1, 2, 2)
        out = upsample_featuremap(fm, 4, 4, "nearest")
        expected = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])
        assert np.array_equal(out[0], expected)

    def test_identity_size(self):
        fm = np.random.default_rng(1).random((3, 4, 5))
        for mode in ("nearest", "bilinear"):
            assert np.allclose(upsample_featuremap(fm, 4, 5, mode), fm)

    def test_constant_map_stays_constant(self):
        fm = np.full((2, 3, 3), 7.0)
        for mode in ("nearest", "bilinear"):
            assert np.allclose(upsample_featuremap(fm, 9, 6, mode), 7.0)

    def test_bilinear_midpoint(self):
        fm = np.array([[[0.0, 1.0]]])  # 1x2
        out = upsample_featuremap(fm, 1, 4, "bilinear")
        assert np.allclose(out[0, 0], [0.0, 0.25, 0.75, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bilinear_matches_four_gather_reference_bytes(self, dtype):
        # up- and downsampling, 1-pixel sources included, values over 10^+-30
        rng = np.random.default_rng(17)
        for _ in range(150):
            c, hs, ws = rng.integers(1, 4), rng.integers(1, 9), rng.integers(1, 9)
            height, width = rng.integers(1, 17, size=2)
            fm = (rng.normal(size=(c, hs, ws))
                  * 10.0 ** rng.uniform(-30, 30, size=(c, hs, ws))).astype(dtype)
            out = upsample_featuremap(fm, height, width, "bilinear")
            ref = reference_upsample_bilinear(fm, height, width)
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


class TestPooling:
    def test_constant_featuremap(self):
        fm = np.full((3, 4, 4), 2.5)
        spmap = np.array([[0, 0, 1, 1]] * 4, dtype=np.int32)
        pooled = pool_over_superpixels(fm, spmap)
        assert np.allclose(pooled, 2.5)

    def test_single_superpixel_global_mean(self):
        rng = np.random.default_rng(3)
        fm = rng.random((2, 3, 5))
        pooled = pool_over_superpixels(fm, np.zeros((3, 5), dtype=np.int32))
        assert np.allclose(pooled[0], fm.mean(axis=(1, 2)))

    def test_hand_two_regions(self):
        fm = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        spmap = np.array([[0, 1], [0, 1]], dtype=np.int32)
        pooled = pool_over_superpixels(fm, spmap)
        assert np.allclose(pooled, [[2.0], [3.0]])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pool_over_superpixels(np.zeros((1, 2, 2)), np.zeros((3, 3), dtype=np.int32))

    def test_pooling_is_linear(self):
        rng = np.random.default_rng(4)
        fa = rng.random((3, 6, 6))
        fb = rng.random((3, 6, 6))
        spmap = rng.integers(0, 4, size=(6, 6)).astype(np.int32)
        lhs = pool_over_superpixels(fa + fb, spmap)
        rhs = pool_over_superpixels(fa, spmap) + pool_over_superpixels(fb, spmap)
        assert np.allclose(lhs, rhs, rtol=1e-5)

    def test_single_pixel_regions_reproduce_map(self):
        rng = np.random.default_rng(5)
        fm = rng.random((2, 3, 4))
        spmap = np.arange(12, dtype=np.int32).reshape(3, 4)
        pooled = pool_over_superpixels(fm, spmap)
        assert np.allclose(pooled, fm.reshape(2, -1).T)


class TestLocalColorFeatures:
    def test_single_color_one_hot_and_zero_entropy(self):
        lab = np.tile(np.array([50.0, 10.0, -20.0]), (3, 3, 1))
        feats = local_color_features(lab, np.zeros((3, 3), dtype=np.int32))
        assert feats.shape == (1, LOCAL_COLOR_DIM)
        hists = feats[0, :120].reshape(6, -1)
        for h in hists:
            assert h.max() == pytest.approx(1.0) and h.sum() == pytest.approx(1.0)
        assert np.allclose(feats[0, 120:123], 0.0)

    def test_two_bin_entropy_ln2(self):
        lab = np.zeros((1, 2, 3))
        lab[0, 0] = (10.0, 0.0, 0.0)
        lab[0, 1] = (90.0, 0.0, 0.0)
        feats = local_color_features(lab, np.zeros((1, 2), dtype=np.int32))
        assert feats[0, 120] == pytest.approx(math.log(2))
        assert feats[0, 121] == pytest.approx(0.0)
        assert feats[0, 122] == pytest.approx(0.0)

    def test_dimension_count(self):
        # 3 channels * (32 + 8) fixed + 3 entropies + 3 * (32 + 8) adaptive
        assert LOCAL_COLOR_DIM == 3 * (32 + 8) + 3 + 3 * (32 + 8) == 243

    def test_out_of_range_clamps_to_end_bins(self):
        lab = np.zeros((1, 1, 3))
        lab[0, 0] = (150.0, -300.0, 300.0)
        feats = local_color_features(lab, np.zeros((1, 1), dtype=np.int32))
        l32 = feats[0, 0:32]
        a32 = feats[0, 40:72]
        b32 = feats[0, 80:112]
        assert l32[-1] == 1.0 and a32[0] == 1.0 and b32[-1] == 1.0


class TestLocationFeatures:
    def test_centered_superpixel_is_zero(self):
        spmap = np.zeros((4, 4), dtype=np.int32)
        assert np.allclose(location_features_all(spmap)[0], 0.0)

    def test_top_left_corner(self):
        spmap = np.ones((8, 8), dtype=np.int32)
        spmap[0, 0] = 0
        vec = location_features_all(spmap)[0]
        assert np.allclose(vec, [-1 + 1 / 8, -1 + 1 / 8, 1 - 1 / 8, 1 - 1 / 8])
        assert np.all(np.abs(vec - [-1, -1, 1, 1]) <= 1 / 8)  # half-pixel convention

    def test_mirror_negates_first_coordinate(self):
        rng = np.random.default_rng(6)
        spmap = rng.integers(0, 4, size=(6, 10)).astype(np.int32)
        feats = location_features_all(spmap)
        mirrored = location_features_all(spmap[:, ::-1])
        assert np.allclose(mirrored[:, 0], -feats[:, 0])
        assert np.allclose(mirrored[:, 2], feats[:, 2])


class TestProximalAverage:
    def test_isolated_superpixel_keeps_own_vector(self):
        feats = np.array([[1.0, 2.0]])
        graph = [np.array([], dtype=np.int64)]
        assert np.allclose(proximal_average(feats, graph, 2), feats)

    def test_identical_vectors_unchanged(self):
        spmap = np.arange(4, dtype=np.int32).reshape(2, 2)
        graph = build_adjacency(spmap)
        feats = np.tile([3.0, -1.0], (4, 1))
        assert np.allclose(proximal_average(feats, graph, 1), feats)

    def test_path_graph_ball_mean(self):
        spmap = np.repeat(np.arange(4, dtype=np.int32), 2).reshape(1, -1)
        graph = build_adjacency(spmap)
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        out = proximal_average(feats, graph, 1)
        assert out[0, 0] == pytest.approx(0.5)      # mean of {0, 1}
        assert out[1, 0] == pytest.approx(1.0)      # mean of {0, 1, 2}
        out2 = proximal_average(feats, graph, 2)
        assert out2[0, 0] == pytest.approx(1.0)     # mean of {0, 1, 2}

    def test_graph_length_mismatch_rejected(self):
        graph = [np.array([1]), np.array([0])]
        with pytest.raises(ValueError):
            proximal_average(np.zeros((3, 2)), graph, 1)


def reference_subscene_bbox(spmap, graph, s, radius=3):
    """Bounding box (x0, y0, x1, y1) of the radius-hop ball around s."""
    members = reference_neighbors_within_radius(graph, s, radius)
    boxes = superpixel_bboxes(spmap)[members]
    return (
        int(boxes[:, 0].min()),
        int(boxes[:, 1].min()),
        int(boxes[:, 2].max()),
        int(boxes[:, 3].max()),
    )


@st.composite
def id_maps(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    num_ids = draw(st.integers(1, 8))
    return draw(arrays(np.int32, (h, w), elements=st.integers(0, num_ids - 1)))


class TestSubsceneBbox:
    def test_single_superpixel_own_bbox(self):
        spmap = np.zeros((3, 5), dtype=np.int32)
        graph = build_adjacency(spmap)
        assert subscene_bboxes(spmap, graph, 3).tolist() == [[0, 0, 4, 2]]

    def test_stacked_regions_union(self):
        spmap = np.zeros((4, 2), dtype=np.int32)
        spmap[2:] = 1
        graph = build_adjacency(spmap)
        assert tuple(subscene_bboxes(spmap, graph, 1)[0]) == (0, 0, 1, 3)

    def test_contains_own_bbox(self):
        rng = np.random.default_rng(7)
        spmap = rng.integers(0, 5, size=(8, 8)).astype(np.int32)
        graph = build_adjacency(spmap)
        boxes = superpixel_bboxes(spmap)
        sub = subscene_bboxes(spmap, graph, 3)
        for s in range(5):
            x0, y0, x1, y1 = sub[s]
            assert x0 <= boxes[s, 0] and y0 <= boxes[s, 1]
            assert x1 >= boxes[s, 2] and y1 >= boxes[s, 3]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(id_maps(), st.integers(0, 4))
    def test_random_maps_match_reference(self, spmap, radius):
        graph = build_adjacency(spmap)
        sub = subscene_bboxes(spmap, graph, radius)
        assert sub.dtype == np.int64 and sub.shape == (len(graph), 4)
        for s in range(len(graph)):
            assert tuple(sub[s]) == reference_subscene_bbox(spmap, graph, s, radius)


class TestRectRegions:
    @pytest.mark.parametrize("width, height", [(-5, 4), (0, 4), (4, 0)])
    def test_size_below_one_rejected(self, width, height):
        with pytest.raises(ValueError, match="width and height"):
            rect_regions(width, height, 3)

    def test_4x4_count_4(self):
        spmap = rect_regions(4, 4, 4)
        assert np.array_equal(spmap, [[0, 0, 1, 1], [0, 0, 1, 1],
                                      [2, 2, 3, 3], [2, 2, 3, 3]])

    def test_count_one(self):
        assert np.all(rect_regions(5, 5, 1) == 0)

    def test_partition_property(self):
        spmap = rect_regions(13, 7, 10)
        k = spmap.max() + 1
        assert np.array_equal(np.unique(spmap), np.arange(k))
        assert spmap.shape == (7, 13)

    def test_aspect_ratio_scaling(self):
        spmap = rect_regions(100, 25, 16)
        # ceil(sqrt(16*4)) = 8 columns, ceil(sqrt(16/4)) = 2 rows
        assert spmap.max() + 1 == 16
        assert spmap[0, 99] == 7 and spmap[24, 0] == 8


class TestScenePool:
    def test_constant(self):
        assert np.allclose(scene_pool(np.full((2, 3, 3), 4.0)), 4.0)

    def test_single_pixel(self):
        fm = np.array([[[3.0]], [[5.0]]])
        assert np.allclose(scene_pool(fm), [3.0, 5.0])

    def test_hand_means(self):
        fm = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.allclose(scene_pool(fm), [2.5])


def reference_pool_over_superpixels(fm, spmap):
    """The per-channel bincount mean that pool_over_superpixels replaced."""
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    out = np.empty((k, fm.shape[0]))
    for c in range(fm.shape[0]):
        out[:, c] = np.bincount(flat, weights=fm[c].ravel().astype(np.float64), minlength=k)
    return out / counts[:, None]


def reference_location_features_all(spmap):
    """The centroid bincounts that location_features_all replaced."""
    h, w = spmap.shape
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    xs = np.tile(np.arange(w, dtype=np.float64) + 0.5, h)
    ys = np.repeat(np.arange(h, dtype=np.float64) + 0.5, w)
    cx = np.bincount(flat, weights=xs, minlength=k) / counts
    cy = np.bincount(flat, weights=ys, minlength=k) / counts
    nx = (cx - w / 2.0) / (w / 2.0)
    ny = (cy - h / 2.0) / (h / 2.0)
    return np.stack([nx, ny, np.abs(nx), np.abs(ny)], axis=1)


def reference_superpixel_stats(lab, spmap):
    """Mean Lab and mean (x, y) per superpixel, as the CRF stage computed them."""
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    h, w = spmap.shape
    mean_lab = np.stack(
        [np.bincount(flat, weights=lab[:, :, c].ravel(), minlength=k) / counts for c in range(3)],
        axis=1,
    )
    xs = np.tile(np.arange(w, dtype=np.float64), h)
    ys = np.repeat(np.arange(h, dtype=np.float64), w)
    mean_pos = np.stack(
        [np.bincount(flat, weights=xs, minlength=k) / counts,
         np.bincount(flat, weights=ys, minlength=k) / counts],
        axis=1,
    )
    return mean_lab, mean_pos


def reference_zoomout_features(img, spmap, proximal_radius=2):
    """The local + proximal composition build_features replaced."""
    lab = rgb_to_lab(img)
    graph = build_adjacency(spmap)
    local = np.concatenate(
        [local_color_features(lab, spmap), location_features_all(spmap)], axis=1)
    proximal = proximal_average(local, graph, proximal_radius)
    return np.concatenate([local, proximal], axis=1)


def slic_maps(count=3, size=48, k=32):
    """(image, SLIC result) pairs on noisy blob images."""
    spec = SyntheticSpec(size=size, num_classes=4, kind="blobs", noise_sigma=8.0)
    return [(img, run_slic(img, SlicParams(k=k))) for img, _ in generate_dataset(spec, count, 5)]


class TestRegionMeansOracle:
    def test_lab_xy_means_equal_slic_centers(self):
        for img, res in slic_maps():
            lab = rgb_to_lab(img)
            planes = [*np.moveaxis(lab, 2, 0), *np.indices(res.spmap.shape, dtype=np.float64)[::-1]]
            means = region_means(res.spmap, planes)
            assert means.tobytes() == res.centers.tobytes()
            mean_lab, mean_pos = reference_superpixel_stats(lab, res.spmap)
            assert means.tobytes() == np.concatenate([mean_lab, mean_pos], axis=1).tobytes()

    def test_empty_superpixel_is_nan_without_warning(self):
        spmap = np.array([[0, 0, 2, 2]], dtype=np.int32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = region_means(spmap, [np.array([[1.0, 3.0, 5.0, 9.0]])], k=4)
        assert means[0, 0] == 2.0 and means[2, 0] == 7.0
        assert np.isnan(means[1, 0]) and np.isnan(means[3, 0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(3))
    def test_pooled_and_location_match_reference_bytes(self, dtype, seed):
        rng = np.random.default_rng(seed)
        spmap = rng.permutation(np.arange(7 * 9) % 11).reshape(7, 9).astype(np.int32)
        fm = (rng.normal(size=(5, 7, 9)) * 100).astype(dtype)
        assert (pool_over_superpixels(fm, spmap).tobytes()
                == reference_pool_over_superpixels(fm, spmap).tobytes())
        assert (location_features_all(spmap).tobytes()
                == reference_location_features_all(spmap).tobytes())

    def test_slic_maps_match_reference_bytes(self):
        for img, res in slic_maps():
            fm = upsample_featuremap(
                np.random.default_rng(1).normal(size=(4, 6, 6)).astype(np.float32),
                *res.spmap.shape)
            assert (pool_over_superpixels(fm, res.spmap).tobytes()
                    == reference_pool_over_superpixels(fm, res.spmap).tobytes())
            assert (location_features_all(res.spmap).tobytes()
                    == reference_location_features_all(res.spmap).tobytes())


class TestBuildFeatures:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_local_proximal_matches_reference_bytes(self, radius):
        for img, res in slic_maps():
            got = build_features(img, res.spmap, f"local,proximal:{radius}")
            ref = reference_zoomout_features(img, res.spmap, radius)
            assert got.tobytes() == ref.tobytes()

    def test_default_radii(self):
        img, res = slic_maps(count=1)[0]
        fm = np.ones((2, *res.spmap.shape))
        assert np.array_equal(
            build_features(img, res.spmap, "proximal,subscene", fm),
            build_features(img, res.spmap, "proximal:2,subscene:3", fm))

    @pytest.mark.parametrize("levels", ["proximal:0", "subscene:0", "subscene:-1", "local:5",
                                        "pooled:3", "scene:1", "bogus", "proximal:x", ""])
    def test_bad_level_spec_rejected(self, levels):
        spmap = np.array([[0, 1], [0, 1]], dtype=np.int32)
        with pytest.raises(ValueError):
            build_features(np.zeros((2, 2, 3), dtype=np.uint8), spmap, levels, np.ones((1, 2, 2)))

    def test_featmap_levels_need_a_featmap(self):
        spmap = np.array([[0, 1], [0, 1]], dtype=np.int32)
        with pytest.raises(ValueError, match="feature map"):
            build_features(np.zeros((2, 2, 3), dtype=np.uint8), spmap, "local,scene")


# --- the two binnings per channel that zoomout._histograms replaced, kept
# verbatim as the oracle for local_color_features


def reference_histograms(flat_ids, k, values, nbins, value_range=None):
    """Normalized per-superpixel histograms of one channel."""
    if value_range is None:
        edges = np.quantile(values, np.linspace(0.0, 1.0, nbins + 1))
        idx = np.searchsorted(edges, values, side="right") - 1
    else:
        lo, hi = value_range
        idx = np.floor((values - lo) / (hi - lo) * nbins).astype(np.int64)
    idx = np.clip(idx, 0, nbins - 1)
    hist = np.bincount(flat_ids * nbins + idx, minlength=k * nbins).reshape(k, nbins)
    return hist / hist.sum(axis=1, keepdims=True)


def reference_local_color_features(lab, spmap):
    """local_color_features with a 32-bin and an 8-bin pass per histogram."""
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    fixed, entropies, adaptive = [], [], []
    for ch in range(3):
        values = lab[:, :, ch].ravel()
        fine = reference_histograms(flat, k, values, 32, zoomout._CHANNEL_RANGES[ch])
        fixed.append(fine)
        fixed.append(reference_histograms(flat, k, values, 8, zoomout._CHANNEL_RANGES[ch]))
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(fine > 0, fine * np.log(fine), 0.0)
        entropies.append(-plogp.sum(axis=1))
        adaptive.append(reference_histograms(flat, k, values, 32))
        adaptive.append(reference_histograms(flat, k, values, 8))
    return np.concatenate(fixed + [np.stack(entropies, axis=1)] + adaptive, axis=1)


class TestLocalColorFeaturesOracle:
    def assert_same(self, lab, spmap):
        got = local_color_features(lab, spmap)
        assert got.tobytes() == reference_local_color_features(lab, spmap).tobytes()

    def test_slic_and_rect_maps_match_reference_bytes(self):
        for img, res in slic_maps(count=2, size=64, k=64):
            lab = rgb_to_lab(img)
            for spmap in (res.spmap, rect_regions(64, 64, 100)):
                self.assert_same(lab, spmap)
                # a shifted and stretched copy puts values outside the fixed ranges
                self.assert_same(lab * 2.5 - 60.0, spmap)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_maps_and_repeated_values_match_reference_bytes(self, seed):
        # values drawn from a few levels give runs of equal quantile edges,
        # and grids of fewer than 33 pixels put several edges between two values
        rng = np.random.default_rng(seed)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 12, size=2))
            lab = rng.normal(size=(h, w, 3)) * 80.0
            if rng.random() < 0.5:
                lab = np.round(lab / 60.0) * 60.0
            spmap = np.unique(rng.integers(0, 4, size=(h, w)), return_inverse=True)[1]
            self.assert_same(lab, spmap.reshape(h, w))

    def test_duplicate_quantile_edges(self):
        # three levels over 64 pixels: most of the 33 quantile edges repeat
        lab = np.repeat(np.array([10.0, 50.0, 90.0]), [40, 16, 8])[:, None].repeat(3, axis=1)
        edges = np.quantile(lab[:, 0], np.linspace(0.0, 1.0, 33))
        assert len(np.unique(edges)) < 10
        spmap = np.arange(64).reshape(8, 8) // 16
        self.assert_same(lab.reshape(8, 8, 3), spmap)
