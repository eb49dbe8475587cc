import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zok import slic
from zok.core_io import rgb_to_lab
from zok.slic import (SlicParams, _label_components, assign_pixels,
                      compact_ids, enforce_connectivity, gradient_map,
                      grid_interval, init_centers, perturb_centers, run_slic,
                      update_centers, window_eval_count)
from zok.synth import SyntheticSpec, generate_dataset


def flat_image(h, w, color):
    return np.full((h, w, 3), color, dtype=np.uint8)


class TestGridInterval:
    def test_hand_values(self):
        assert grid_interval(10000, 100) == pytest.approx(10.0)
        assert grid_interval(25, 1) == pytest.approx(5.0)

    def test_one_pixel_per_superpixel(self):
        assert grid_interval(144, 144) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            grid_interval(100, 0)
        with pytest.raises(ValueError):
            grid_interval(3, 4)


class TestInitCenters:
    def test_10x10_s5(self):
        lab = rgb_to_lab(flat_image(10, 10, 128))
        centers = init_centers(lab, 5.0)
        got = {(x, y) for x, y in centers[:, 3:]}
        assert got == {(2.5, 2.5), (7.5, 2.5), (2.5, 7.5), (7.5, 7.5)}

    def test_big_interval_single_center(self):
        lab = rgb_to_lab(flat_image(6, 8, 0))
        assert len(init_centers(lab, 8.0)) == 1

    def test_9x9_s3(self):
        lab = rgb_to_lab(flat_image(9, 9, 0))
        centers = init_centers(lab, 3.0)
        assert len(centers) == 9
        assert sorted(set(centers[:, 3])) == [1.5, 4.5, 7.5]

    def test_centers_inside_image(self):
        lab = rgb_to_lab(flat_image(7, 5, 0))
        centers = init_centers(lab, 3.0)
        assert np.all(centers[:, 3] < 5) and np.all(centers[:, 4] < 7)


class TestPerturbCenters:
    def test_flat_image_leaves_centers_unchanged(self):
        lab = rgb_to_lab(flat_image(10, 10, 77))
        centers = init_centers(lab, 5.0)
        out = perturb_centers(lab, centers)
        assert np.array_equal(out, centers)
        # and each stays within its original 3x3 neighborhood
        assert np.all(np.abs(out[:, 3:] - centers[:, 3:]) <= 1.5)

    def test_center_moves_off_step_edge(self):
        # columns 0-1 black, 2-4 red: the gradient is nonzero only at
        # columns 1 and 2, so a center on column 2 must move to column 3,
        # picking the smallest row-major zero-gradient cell (3, 1).
        img = flat_image(5, 5, 0)
        img[:, 2:] = (200, 30, 30)
        lab = rgb_to_lab(img)
        centers = np.array([[*lab[2, 2], 2.0, 2.0]])
        out = perturb_centers(lab, centers)
        assert (out[0, 3], out[0, 4]) == (3.0, 1.0)
        assert np.allclose(out[0, :3], lab[1, 3])

    def test_1x1_image(self):
        lab = rgb_to_lab(flat_image(1, 1, 9))
        centers = np.array([[*lab[0, 0], 0.0, 0.0]])
        assert np.array_equal(perturb_centers(lab, centers), centers)


def reference_slic_distance(center, pixel_labxy, m, s):
    """Distance D = d_lab + (m/S) * d_xy between a center and one pixel."""
    if m <= 0 or s <= 0:
        raise ValueError("m and S must be > 0")
    center = np.asarray(center, dtype=np.float64)
    pixel = np.asarray(pixel_labxy, dtype=np.float64)
    d_lab = math.sqrt(((center[:3] - pixel[:3]) ** 2).sum())
    d_xy = math.sqrt(((center[3:] - pixel[3:]) ** 2).sum())
    return d_lab + (m / s) * d_xy


class TestSlicDistance:
    def test_zero_at_center(self):
        c = np.array([10, 5, -3, 4.0, 7.0])
        assert reference_slic_distance(c, c, 10, 7) == 0.0

    def test_hand_values(self):
        center = np.array([3.0, 0, 0, 4.0, 0.0])
        pixel = np.array([0.0, 0, 0, 0.0, 0.0])
        # d_lab=3, d_xy=4, m=10, S=10 -> 3 + 1*4
        assert reference_slic_distance(center, pixel, 10, 10) == pytest.approx(7.0)
        center = np.array([0.0, 0, 0, 5.0, 0.0])
        # d_lab=0, d_xy=5, m=15, S=10 -> 7.5
        assert reference_slic_distance(center, pixel, 15, 10) == pytest.approx(7.5)

    def test_requires_positive_m_and_s(self):
        c = np.zeros(5)
        with pytest.raises(ValueError):
            reference_slic_distance(c, c, 0, 1)


class TestAssignPixels:
    def test_single_center_covers_all(self):
        lab = rgb_to_lab(flat_image(4, 4, 100))
        centers = np.array([[*lab[1, 1], 1.0, 1.0]])
        ids, dists = assign_pixels(lab, centers, 10, 4)
        assert np.all(ids == 0)
        assert np.all(np.isfinite(dists))

    def test_two_color_partition(self):
        # 4x2 image, left half black / right half red; centers sit inside
        # each half, so color dominates and the split lands on the boundary.
        img = flat_image(2, 4, 0)
        img[:, 2:] = (210, 40, 40)
        lab = rgb_to_lab(img)
        centers = np.array([[*lab[0, 1], 1.0, 0.5], [*lab[0, 2], 2.0, 0.5]])
        ids, _ = assign_pixels(lab, centers, 1, 2)
        assert np.array_equal(ids, [[0, 0, 1, 1], [0, 0, 1, 1]])

    def test_equidistant_tie_goes_to_smaller_id(self):
        lab = rgb_to_lab(flat_image(1, 3, 50))
        centers = np.array([[*lab[0, 0], 0.0, 0.0], [*lab[0, 2], 2.0, 0.0]])
        ids, _ = assign_pixels(lab, centers, 10, 3)
        assert ids[0, 1] == 0

    def test_fallback_assigns_uncovered_pixels(self):
        lab = rgb_to_lab(flat_image(1, 9, 50))
        centers = np.array([[*lab[0, 0], 0.0, 0.0]])
        ids, dists = assign_pixels(lab, centers, 10, 2)  # window covers x<=2 only
        assert np.all(ids == 0)
        assert np.all(np.isfinite(dists))

    def test_best_distance_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        lab = rgb_to_lab(img)
        s = grid_interval(36, 4)
        centers = perturb_centers(lab, init_centers(lab, s))
        ids, dists = assign_pixels(lab, centers, 10, s)
        for y in range(6):
            for x in range(6):
                pix = np.array([*lab[y, x], x, y])
                covering = [
                    cid for cid in range(len(centers))
                    if abs(centers[cid, 3] - x) <= s and abs(centers[cid, 4] - y) <= s
                ]
                best = min(reference_slic_distance(centers[c], pix, 10, s) for c in covering)
                assert dists[y, x] == pytest.approx(best)
                assert (reference_slic_distance(centers[ids[y, x]], pix, 10, s)
                        == pytest.approx(best))


class TestUpdateCenters:
    def test_fixed_point_has_zero_residual(self):
        lab = rgb_to_lab(flat_image(2, 2, 30))
        # one cluster per pixel, centers already at the per-pixel centroids
        spmap = np.array([[0, 1], [2, 3]], dtype=np.int32)
        centers = np.array(
            [[*lab[0, 0], 0, 0], [*lab[0, 1], 1, 0], [*lab[1, 0], 0, 1], [*lab[1, 1], 1, 1]],
            dtype=np.float64,
        )
        new, e = update_centers(lab, spmap, centers)
        assert e == pytest.approx(0.0)
        assert np.allclose(new, centers)

    def test_mean_position(self):
        lab = rgb_to_lab(flat_image(1, 3, 30))
        spmap = np.array([[0, 1, 0]], dtype=np.int32)
        centers = np.array([[*lab[0, 0], 0.0, 0.0], [*lab[0, 1], 1.0, 0.0]])
        new, _ = update_centers(lab, spmap, centers)
        assert new[0, 3] == pytest.approx(1.0)  # mean of x=0 and x=2

    def test_hand_two_cluster_case(self):
        img = np.zeros((1, 3, 3), dtype=np.uint8)
        img[0, 2] = (255, 255, 255)
        lab = rgb_to_lab(img)
        spmap = np.array([[0, 0, 1]], dtype=np.int32)
        centers = np.array([[*lab[0, 0], 0.0, 0.0], [*lab[0, 2], 2.0, 0.0]])
        new, e = update_centers(lab, spmap, centers)
        assert new[0, 3] == pytest.approx(0.5)
        assert np.allclose(new[0, :3], lab[0, :2].mean(axis=0))
        assert np.allclose(new[1], centers[1])
        assert e == pytest.approx(0.5)  # only center 0 moved, by 0.5 in x

    def test_empty_cluster_keeps_center(self):
        lab = rgb_to_lab(flat_image(1, 2, 10))
        spmap = np.zeros((1, 2), dtype=np.int32)
        centers = np.array([[*lab[0, 0], 0.5, 0.0], [99.0, 0, 0, 1.0, 0.0]])
        new, _ = update_centers(lab, spmap, centers)
        assert np.array_equal(new[1], centers[1])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_bytes_with_empty_clusters(self, seed):
        spec = SyntheticSpec(size=48, num_classes=4, kind="blobs", noise_sigma=8.0)
        img, _ = generate_dataset(spec, 1, seed)[0]
        lab = rgb_to_lab(img)
        rng = np.random.default_rng(seed)
        # ids 0..39 over 48 clusters: clusters 40..47 (and any unused id) are empty
        spmap = rng.integers(0, 40, size=(48, 48)).astype(np.int32)
        centers = rng.normal(size=(48, 5)) * 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, e = update_centers(lab, spmap, centers)
        ref, ref_e = reference_update_centers(lab, spmap, centers)
        assert new.tobytes() == ref.tobytes() and e == ref_e
        assert np.array_equal(new[40:], centers[40:])


def reference_update_centers(lab, spmap, centers):
    """The per-column bincount update that update_centers replaced."""
    h, w = lab.shape[:2]
    k = len(centers)
    flat = spmap.ravel()
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    new = centers.copy()
    cols = [lab[:, :, 0].ravel(), lab[:, :, 1].ravel(), lab[:, :, 2].ravel()]
    cols.append(np.tile(np.arange(w, dtype=np.float64), h))
    cols.append(np.repeat(np.arange(h, dtype=np.float64), w))
    nonempty = counts > 0
    for dim, col in enumerate(cols):
        sums = np.bincount(flat, weights=col, minlength=k)
        new[nonempty, dim] = sums[nonempty] / counts[nonempty]
    return new, float(np.sqrt(((new - centers) ** 2).sum(axis=1)).sum())


def quadrant_image(size=64):
    img = np.empty((size, size, 3), dtype=np.uint8)
    h = size // 2
    img[:h, :h] = (40, 40, 40)
    img[:h, h:] = (220, 50, 50)
    img[h:, :h] = (50, 220, 50)
    img[h:, h:] = (50, 50, 220)
    return img


def quadrant_purity(spmap, size=64):
    h = size // 2
    purities = []
    for ys, xs in [(slice(0, h), slice(0, h)), (slice(0, h), slice(h, size)),
                   (slice(h, size), slice(0, h)), (slice(h, size), slice(h, size))]:
        quad = spmap[ys, xs]
        counts = np.bincount(quad.ravel())
        purities.append(counts.max() / quad.size)
    return purities


class TestRunSlic:
    def test_quadrants_high_purity(self):
        res = run_slic(rgb_to_lab(quadrant_image()), SlicParams(k=4, m=10))
        assert min(quadrant_purity(res.spmap)) >= 0.95

    def test_flat_image_near_equal_areas(self):
        res = run_slic(rgb_to_lab(flat_image(64, 64, 128)), SlicParams(k=4, m=10))
        areas = np.bincount(res.spmap.ravel()) / (64 * 64)
        assert len(areas) == 4
        assert np.all(np.abs(areas - 0.25) <= 0.10)

    def test_k_equals_num_pixels(self):
        # Degenerate geometry where the seeding/tie rules are exact.
        for shape in [(1, 2), (2, 1)]:
            img = np.zeros((*shape, 3), dtype=np.uint8)
            img.reshape(-1, 3)[1] = (200, 40, 40)
            res = run_slic(rgb_to_lab(img), SlicParams(k=2, m=10, enforce_connectivity=False))
            assert sorted(res.spmap.ravel()) == [0, 1]

    def test_deterministic(self):
        img = quadrant_image()
        a = run_slic(rgb_to_lab(img), SlicParams(k=16, m=10)).spmap
        b = run_slic(rgb_to_lab(img), SlicParams(k=16, m=10)).spmap
        assert a.tobytes() == b.tobytes()

    def test_result_contract(self):
        res = run_slic(rgb_to_lab(quadrant_image()), SlicParams(k=9, m=15))
        k = res.spmap.max() + 1
        assert sorted(np.unique(res.spmap)) == list(range(k))
        assert np.isfinite(res.history[-1])

    def test_k_exceeding_pixels_rejected(self):
        with pytest.raises(ValueError):
            run_slic(rgb_to_lab(flat_image(2, 2, 0)), SlicParams(k=5))

    def test_m_whose_spatial_term_overflows_rejected(self):
        # 64x64 at k=16: S = 16, and 1e308 / 16 times the 90-pixel diagonal
        # is beyond float64; at k=4 1e300 is not
        with pytest.raises(ValueError, match=r"m=1e\+308 is too large"):
            run_slic(rgb_to_lab(quadrant_image()), SlicParams(k=16, m=1e308))
        res = run_slic(rgb_to_lab(quadrant_image()), SlicParams(k=4, m=1e300))
        assert np.isfinite(res.history).all()

    @pytest.mark.parametrize("image", [quadrant_image(), quadrant_image()[..., 0]],
                             ids=["rgb-uint8", "rank-2"])
    def test_image_that_is_not_lab_refused(self, image):
        # clustering the raw RGB values would run and exit 0
        with pytest.raises(ValueError, match="core_io.rgb_to_lab"):
            run_slic(image, SlicParams(k=4, m=10))


def components_of(spmap):
    """Flood-fill check: number of 4-connected components per id."""
    h, w = spmap.shape
    seen = np.zeros((h, w), dtype=bool)
    per_id = {}
    for sy in range(h):
        for sx in range(w):
            if seen[sy, sx]:
                continue
            cid = spmap[sy, sx]
            per_id[cid] = per_id.get(cid, 0) + 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] \
                            and spmap[ny, nx] == cid:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return per_id


class TestEnforceConnectivity:
    def test_connected_map_unchanged(self):
        spmap = np.array([[0, 0, 1], [0, 1, 1], [2, 2, 2]], dtype=np.int32)
        assert np.array_equal(enforce_connectivity(spmap), spmap)

    def test_stray_pixel_absorbed(self):
        spmap = np.zeros((5, 5), dtype=np.int32)
        spmap[:, 3:] = 1
        spmap[2, 1] = 1  # stray of id 1 inside id 0
        out = enforce_connectivity(spmap)
        assert out[2, 1] == 0
        assert np.array_equal(np.delete(out.ravel(), 11), np.delete(spmap.ravel(), 11))

    def test_checkerboard_becomes_connected(self):
        ys, xs = np.mgrid[0:6, 0:6]
        spmap = ((ys + xs) % 2).astype(np.int32)
        out = enforce_connectivity(spmap)
        assert all(n == 1 for n in components_of(out).values())

    def test_large_orphan_gets_new_id(self):
        # two far-apart halves of id 0, both large; id 1 in between
        spmap = np.zeros((3, 9), dtype=np.int32)
        spmap[:, 3:6] = 1
        out = enforce_connectivity(spmap)
        assert all(n == 1 for n in components_of(out).values())
        assert out.max() == 2  # the right block of id 0 became its own id

    def test_every_region_connected_after_slic(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        res = run_slic(rgb_to_lab(img), SlicParams(k=16, m=10))
        assert all(n == 1 for n in components_of(res.spmap).values())


# Reference connectivity cleanup: the original pure-Python flood fill and
# sequential absorb loop, kept verbatim as the oracle for the numpy version.
def reference_label_components(spmap):
    """4-connected components of equal-id regions, labeled in raster order.

    Returns (component map, sizes, id of each component's superpixel).
    Component labels follow the row-major order of each component's first
    pixel, so smaller labels mean earlier first pixels.
    """
    h, w = spmap.shape
    comp = np.full((h, w), -1, dtype=np.int32)
    sizes = []
    ids = []
    stack = []
    for sy in range(h):
        for sx in range(w):
            if comp[sy, sx] >= 0:
                continue
            cid = spmap[sy, sx]
            label = len(sizes)
            comp[sy, sx] = label
            stack.append((sy, sx))
            n = 0
            while stack:
                y, x = stack.pop()
                n += 1
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and comp[ny, nx] < 0 and spmap[ny, nx] == cid:
                        comp[ny, nx] = label
                        stack.append((ny, nx))
            sizes.append(n)
            ids.append(int(cid))
    return comp, np.array(sizes), np.array(ids)


def reference_kept_components(sizes, ids):
    """Mark, per superpixel id, its largest component (earliest on ties)."""
    kept = np.zeros(len(sizes), dtype=bool)
    for sp in np.unique(ids):
        members = np.nonzero(ids == sp)[0]
        kept[members[np.argmax(sizes[members])]] = True
    return kept


def reference_enforce_connectivity(spmap):
    """Make every superpixel 4-connected.

    Stray components smaller than (area/K)/4 are absorbed into the id most
    common among their 4-neighbors; each id keeps its largest component.
    Disconnected leftovers at least that large become new superpixels.
    Ids come out contiguous; an already-connected map is returned unchanged.
    """
    spmap = np.asarray(spmap, dtype=np.int32)
    h, w = spmap.shape
    k = int(spmap.max()) + 1
    threshold = spmap.size / k / 4.0
    cur = spmap.copy()

    while True:
        comp, sizes, ids = reference_label_components(cur)
        kept = reference_kept_components(sizes, ids)
        small = [c for c in range(len(sizes)) if not kept[c] and sizes[c] < threshold]
        if not small:
            break
        for c in small:
            cy, cx = np.nonzero(comp == c)
            votes = {}
            for y, x in zip(cy, cx):
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and comp[ny, nx] != c:
                        nid = int(cur[ny, nx])
                        votes[nid] = votes.get(nid, 0) + 1
            if votes:
                top = max(votes.values())
                cur[cy, cx] = min(i for i, v in votes.items() if v == top)
        # Merges changed the partition; relabel and rescan.

    # Fresh ids for the remaining (large) disconnected leftovers.
    comp, sizes, ids = reference_label_components(cur)
    kept = reference_kept_components(sizes, ids)
    final_id = ids.copy()
    next_id = k
    for c in range(len(sizes)):
        if not kept[c]:
            final_id[c] = next_id
            next_id += 1
    return compact_ids(final_id[comp].astype(np.int32))


def assert_matches_reference(spmap):
    got, want = _label_components(spmap), reference_label_components(spmap)
    assert got[0].dtype == np.int32
    for g, r in zip(got, want):
        assert np.array_equal(g, r)
    out = enforce_connectivity(spmap)
    assert out.dtype == np.int32
    assert np.array_equal(out, reference_enforce_connectivity(spmap))


@st.composite
def id_maps(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    num_ids = draw(st.integers(1, 7))
    return draw(arrays(np.int32, (h, w), elements=st.integers(0, num_ids - 1)))


class TestConnectivityOracle:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(id_maps())
    def test_random_maps_match_reference(self, spmap):
        assert_matches_reference(spmap)

    def test_pre_connectivity_slic_maps_match_reference(self):
        # the end-to-end acceptance settings: 128^2 noisy blobs, k=128, m=15
        spec = SyntheticSpec(size=128, num_classes=5, kind="blobs", noise_sigma=8.0)
        params = SlicParams(k=128, m=15, enforce_connectivity=False)
        for img, _ in generate_dataset(spec, 3, seed=1):
            assert_matches_reference(run_slic(rgb_to_lab(img), params).spmap)

    @pytest.mark.parametrize("k", [16, 128, 512])
    @pytest.mark.parametrize("noise", [0.0, 8.0, 30.0])
    def test_slic_maps_across_k_and_noise_match_reference(self, k, noise):
        spec = SyntheticSpec(size=128, num_classes=5, kind="blobs", noise_sigma=noise)
        params = SlicParams(k=k, m=15, enforce_connectivity=False)
        (img, _), = generate_dataset(spec, 1, seed=k + int(noise))
        assert_matches_reference(run_slic(rgb_to_lab(img), params).spmap)

    @pytest.mark.parametrize("num_ids", [2, 20, 300])
    @pytest.mark.parametrize("seed", range(2))
    def test_large_random_maps_match_reference(self, num_ids, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(rng.integers(0, num_ids, size=(48, 64)).astype(np.int32))

    # maps whose absorptions leave new small strays, pass after pass
    MULTI_PASS = {
        3: [[2, 3, 0, 2, 1, 1],
            [0, 2, 0, 0, 1, 3],
            [2, 0, 1, 0, 2, 2]],
        4: [[2, 3, 2], [1, 2, 1], [2, 1, 1], [0, 2, 3], [2, 1, 2], [2, 3, 1],
            [3, 0, 0], [1, 1, 1], [2, 0, 2], [2, 1, 2], [0, 2, 1]],
    }

    @pytest.mark.parametrize("passes", list(MULTI_PASS))
    def test_multi_pass_maps_match_reference(self, monkeypatch, passes):
        calls = []
        kept_components = slic._kept_components
        monkeypatch.setattr(slic, "_kept_components",
                            lambda *args: calls.append(1) or kept_components(*args))
        spmap = np.array(self.MULTI_PASS[passes], dtype=np.int32)
        assert_matches_reference(spmap)
        assert len(calls) == passes + 1  # the last pass finds no small stray

    def test_later_vote_sees_earlier_absorption(self):
        # A (id 1, x=6) and B (id 0, x=7) are single-pixel strays between the
        # kept blocks of id 0 (left) and id 1 (right).  A goes first: both its
        # neighbors are id 0, so it becomes 0.  B then sees A as id 0 and its
        # right neighbor as id 1, a tie that goes to 0; with A's stale id 1
        # both of B's votes would have gone to 1.
        spmap = np.array([[0] * 6 + [1, 0] + [1] * 6], dtype=np.int32)
        out = enforce_connectivity(spmap)
        assert np.array_equal(out, [[0] * 8 + [1] * 6])
        assert np.array_equal(out, reference_enforce_connectivity(spmap))


# Reference seeding, gradient, perturbation, assignment, window count and
# id compaction: the loops and clamped gathers that the array versions
# replaced, kept verbatim as the oracle for them.
def reference_init_centers(lab, s):
    h, w = lab.shape[:2]
    xs = np.minimum(s / 2.0 + np.arange(math.ceil(w / s)) * s, w - 1.0)
    ys = np.minimum(s / 2.0 + np.arange(math.ceil(h / s)) * s, h - 1.0)
    centers = np.empty((len(ys) * len(xs), 5))
    i = 0
    for cy in ys:
        for cx in xs:
            centers[i, :3] = lab[int(cy), int(cx)]
            centers[i, 3] = cx
            centers[i, 4] = cy
            i += 1
    return centers


def reference_gradient_map(lab):
    h, w = lab.shape[:2]
    xp = lab[:, np.minimum(np.arange(w) + 1, w - 1), :]
    xm = lab[:, np.maximum(np.arange(w) - 1, 0), :]
    yp = lab[np.minimum(np.arange(h) + 1, h - 1), :, :]
    ym = lab[np.maximum(np.arange(h) - 1, 0), :, :]
    return ((xp - xm) ** 2).sum(axis=2) + ((yp - ym) ** 2).sum(axis=2)


def reference_perturb_centers(lab, centers):
    h, w = lab.shape[:2]
    grad = reference_gradient_map(lab)
    out = centers.copy()
    for i in range(len(centers)):
        ax, ay = int(centers[i, 3]), int(centers[i, 4])
        best = grad[ay, ax]
        bx = by = -1
        for ny in range(max(0, ay - 1), min(h, ay + 2)):
            for nx in range(max(0, ax - 1), min(w, ax + 2)):
                if grad[ny, nx] < best:
                    best = grad[ny, nx]
                    bx, by = nx, ny
        if bx >= 0:
            out[i, :3] = lab[by, bx]
            out[i, 3] = bx
            out[i, 4] = by
    return out


def reference_assign_pixels(lab, centers, m, s):
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


def reference_window_eval_count(centers, s, shape):
    h, w = shape
    total = 0
    for cx, cy in centers[:, 3:]:
        nx = min(w - 1, math.floor(cx + s)) - max(0, math.ceil(cx - s)) + 1
        ny = min(h - 1, math.floor(cy + s)) - max(0, math.ceil(cy - s)) + 1
        total += max(0, nx) * max(0, ny)
    return total


def reference_compact_ids(spmap):
    used = np.unique(spmap)
    remap = np.full(used.max() + 1 if len(used) else 1, -1, dtype=np.int32)
    remap[used] = np.arange(len(used), dtype=np.int32)
    return remap[spmap]


def assert_seeding_matches_reference(lab, s):
    """The gradient map and the seeded and perturbed centers equal the
    reference's byte for byte; returns the perturbed centers."""
    assert gradient_map(lab).tobytes() == reference_gradient_map(lab).tobytes()
    centers = init_centers(lab, s)
    assert centers.tobytes() == reference_init_centers(lab, s).tobytes()
    perturbed = perturb_centers(lab, centers)
    assert perturbed.tobytes() == reference_perturb_centers(lab, centers).tobytes()
    return perturbed


def assert_assignment_matches_reference(lab, centers, m, s):
    """spmap, best distances, window count and compacted ids equal the
    reference's."""
    ids, best = assign_pixels(lab, centers, m, s)
    ref_ids, ref_best = reference_assign_pixels(lab, centers, m, s)
    assert ids.tobytes() == ref_ids.tobytes() and best.tobytes() == ref_best.tobytes()
    assert compact_ids(ids).tobytes() == reference_compact_ids(ids).tobytes()
    count = window_eval_count(centers, s, lab.shape[:2])
    assert type(count) is int
    assert count == reference_window_eval_count(centers, s, lab.shape[:2])


@st.composite
def slic_cases(draw):
    """(Lab image 1..39 px a side, k, seed).  The image is Gaussian Lab,
    quantized flat Lab (whose gradients tie), or the Lab of random RGB."""
    h, w = draw(st.integers(1, 39)), draw(st.integers(1, 39))
    kind = draw(st.sampled_from(["gaussian", "quantized", "rgb"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        lab = rng.normal(50.0, 30.0, (h, w, 3))
    elif kind == "quantized":
        lab = rng.integers(0, 2, (h, w, 3)) * 10.0
    else:
        lab = rgb_to_lab(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    return lab, draw(st.integers(1, h * w)), seed


def tie_grid_case(shuffled):
    """Quantized Lab and 42 centers of one color on a 4 px grid (S = 4):
    every pixel midway between two row neighbours is at exactly the same
    distance from both.  Returns (lab, centers, s)."""
    rng = np.random.default_rng(21)
    lab = rng.integers(0, 2, (24, 30, 3)) * 10.0
    ys, xs = np.meshgrid(np.arange(2.0, 24, 4), np.arange(2.0, 30, 4), indexing="ij")
    centers = np.column_stack([np.tile([10.0, 0.0, 10.0], (xs.size, 1)), xs.ravel(), ys.ravel()])
    if shuffled:
        centers = centers[rng.permutation(len(centers))]
    return lab, centers, 4.0


def nan_center_case():
    """The tie grid with one center's Lab NaN: its distances never win."""
    lab, centers, s = tie_grid_case(False)
    centers[9, :3] = np.nan
    return lab, centers, s


def inf_center_case():
    """Center 0's Lab is +inf, so its distances are +inf and the pixels only
    its window covers take the fallback."""
    rng = np.random.default_rng(23)
    lab = rgb_to_lab(rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    centers = np.array([[np.inf, 0.0, 0.0, 1.0, 1.0], [50.0, 5.0, -5.0, 4.0, 4.0],
                        [40.0, 0.0, 5.0, 4.0, 1.0]])
    return lab, centers, 1.5


def no_window_case():
    """Every window lies off the image, so every pixel takes the fallback."""
    rng = np.random.default_rng(22)
    lab = rgb_to_lab(rng.integers(0, 256, (5, 7, 3), dtype=np.uint8))
    centers = np.array([[50.0, 0.0, 0.0, -10.0, 2.0], [40.0, 5.0, 5.0, 3.0, 20.0],
                        [60.0, -5.0, 5.0, 17.0, -9.0]])
    return lab, centers, 1.5


def missed_pixels_case():
    """With S = 0.7 the two windows cover only pixels (0, 0) and (3, 2);
    the other 10 of the 12 pixels go through the fallback."""
    rng = np.random.default_rng(8)
    lab = rgb_to_lab(rng.integers(0, 256, (3, 4, 3), dtype=np.uint8))
    centers = np.array([[*lab[0, 0], 0.0, 0.0], [50.0, 5.0, -5.0, 3.5, 2.5]])
    return lab, centers, 0.7


BLOCK_EDGE_CASES = {
    "ties": lambda: tie_grid_case(False),
    "ties-shuffled": lambda: tie_grid_case(True),
    "nan-center": nan_center_case,
    "inf-center": inf_center_case,
    "no-window": no_window_case,
    "missed-pixels": missed_pixels_case,
}


class TestSeedingAndAssignmentOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(slic_cases())
    def test_random_images_match_reference(self, case):
        lab, k, seed = case
        h, w = lab.shape[:2]
        s = grid_interval(h * w, k)
        centers = assert_seeding_matches_reference(lab, s)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        # fractional centers anywhere in the image
        inside = np.column_stack([rng.normal(50.0, 30.0, (n, 3)),
                                  rng.uniform(0, w, n), rng.uniform(0, h, n)])
        assert (perturb_centers(lab, inside).tobytes()
                == reference_perturb_centers(lab, inside).tobytes())
        # fractional centers up to 3 px beyond the borders, the first one on
        # a border or one pixel past it; S = 0.7 leaves most pixels to the
        # missed-pixel fallback
        stray = np.column_stack([rng.normal(50.0, 30.0, (n, 3)),
                                 rng.uniform(-3, w + 2, n), rng.uniform(-3, h + 2, n)])
        stray[0, 3] = rng.choice([-1.0, 0.0, w - 1.0, float(w)])
        stray[0, 4] = rng.choice([-1.0, 0.0, h - 1.0, float(h)])
        for cs, ss in [(centers, s), (stray, s), (stray, 0.7)]:
            assert_assignment_matches_reference(lab, cs, 15.0, ss)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (23, 1)])
    def test_point_and_line_images(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        lab = rgb_to_lab(rng.integers(0, 256, (*shape, 3), dtype=np.uint8))
        for k in sorted({1, min(3, lab[..., 0].size), lab[..., 0].size}):
            s = grid_interval(lab[..., 0].size, k)
            centers = assert_seeding_matches_reference(lab, s)
            assert_assignment_matches_reference(lab, centers, 15.0, s)

    def test_missed_pixels_match_reference(self):
        lab, centers, s = missed_pixels_case()
        assert window_eval_count(centers, s, (3, 4)) == 2
        assert_assignment_matches_reference(lab, centers, 15.0, s)


class TestBlockPass:
    # block budget -> _BLOCK_CELLS as a multiple of the largest window's cells
    # (the tie grid has 7 centers a row, so 10 a block splits rows)
    BUDGETS = {"one-cell": lambda cells: 1, "mid-grid": lambda cells: 10 * cells,
               "huge": lambda cells: 1 << 40}

    @pytest.mark.parametrize("budget", list(BUDGETS))
    @pytest.mark.parametrize("case", list(BLOCK_EDGE_CASES))
    def test_block_edges_match_reference(self, monkeypatch, case, budget):
        lab, centers, s = BLOCK_EDGE_CASES[case]()
        x0, x1, y0, y1 = slic._windows(centers, s, lab.shape[:2]).T
        cells = max(1, int((x1 - x0 + 1).max() * (y1 - y0 + 1).max()))
        monkeypatch.setattr(slic, "_BLOCK_CELLS", self.BUDGETS[budget](cells))
        assert_assignment_matches_reference(lab, centers, 15.0, s)
        if case == "ties":
            # centers 9 (10, 6) and 10 (14, 6) tie at pixel (12, 6); with the
            # mid-grid budget they sit in different blocks
            assert assign_pixels(lab, centers, 15.0, s)[0][6, 12] == 9
        if case == "no-window":
            assert window_eval_count(centers, s, lab.shape[:2]) == 0

    def test_peak_memory_bounded_on_large_windows(self):
        # 512^2 with k = 16: S = 128, windows of 257^2 cells, one per block
        rng = np.random.default_rng(3)
        lab = rng.normal(50.0, 30.0, (512, 512, 3))
        s = grid_interval(512 * 512, 16)
        centers = init_centers(lab, s)
        tracemalloc.start()
        try:
            assign_pixels(lab, centers, 15.0, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestInvariants:
    def test_assignment_work_is_linear(self):
        img = quadrant_image()
        lab = rgb_to_lab(img)
        s = grid_interval(64 * 64, 16)
        centers = init_centers(lab, s)
        evals = window_eval_count(centers, s, (64, 64))
        # each window is <= (2S+1)^2 and windows overlap a bounded number
        # of times, so total work stays within a constant factor of N
        assert evals <= 64 * 64 * 6

    def test_compact_ids(self):
        spmap = np.array([[5, 5, 9], [5, 9, 9]], dtype=np.int32)
        out = compact_ids(spmap)
        assert np.array_equal(out, [[0, 0, 1], [0, 1, 1]])

    def test_boundary_recall_straight_edge(self):
        # vertical two-color edge: every true boundary pixel must have a
        # predicted superpixel boundary within 1 pixel
        img = np.full((64, 64, 3), 30, dtype=np.uint8)
        img[:, 32:] = (200, 200, 200)
        res = run_slic(rgb_to_lab(img), SlicParams(k=64, m=10))
        pred = np.zeros((64, 64), dtype=bool)
        pred[:, :-1] |= res.spmap[:, :-1] != res.spmap[:, 1:]
        pred[:-1, :] |= res.spmap[:-1, :] != res.spmap[1:, :]
        hits = 0
        for y in range(64):
            lo, hi = max(0, y - 1), min(64, y + 2)
            if pred[lo:hi, 30:33].any():
                hits += 1
        assert hits / 64 >= 0.99

    def test_residual_history_finite(self):
        res = run_slic(rgb_to_lab(quadrant_image()), SlicParams(k=4, m=10))
        assert all(math.isfinite(e) for e in res.history)
