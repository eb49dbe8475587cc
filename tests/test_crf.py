import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from zok import crf, synth, zoomout
from zok.core_io import rgb_to_lab
from zok.crf import (CrfModel, Kernel, check_image_crf, free_energy,
                     gibbs_distribution_bruteforce, gibbs_energy, image_crf,
                     kernel_sum_matrix, map_labels, mean_field_refine,
                     potts_compat, unary_from_probs)
from zok.slic import labxy_means


def reference_kernel_eval(f_i, f_j, precision):
    """Gaussian kernel exp(-1/2 (f_i-f_j)^T Lambda (f_i-f_j)), in (0, 1]."""
    d = np.asarray(f_i, dtype=np.float64) - np.asarray(f_j, dtype=np.float64)
    lam = np.asarray(precision, dtype=np.float64)
    return float(np.exp(-0.5 * (lam * d * d).sum()))


def reference_pairwise_potential(x_i, x_j, i, j, model):
    """mu(x_i, x_j) * sum_m w_m k_m(f_i, f_j) for the node pair (i, j)."""
    total = 0.0
    for kern in model.kernels:
        total += kern.weight * reference_kernel_eval(
            kern.features[i], kern.features[j], kern.precision)
    return model.compat[x_i, x_j] * total


def pair_kernel(f_i, f_j, precision):
    """k(f_i, f_j) read off a two-node, unit-weight kernel_sum_matrix."""
    model = CrfModel(np.zeros((2, 1)), [Kernel(1.0, precision, [f_i, f_j])])
    return kernel_sum_matrix(model)[0, 1]


class TestKernelEval:
    def test_identical_features(self):
        assert pair_kernel([1.0, 2.0], [1.0, 2.0], [3.0, 3.0]) == 1.0

    def test_hand_value(self):
        # 1-D, delta=2, lambda=0.5 -> exp(-0.5 * 0.5 * 4) = exp(-1)
        assert pair_kernel([2.0], [0.0], [0.5]) == pytest.approx(math.exp(-1))

    def test_strictly_decreasing_in_distance(self):
        vals = [pair_kernel([t], [0.0], [1.0]) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)

    @pytest.mark.parametrize("weight,precision",
                             [(math.nan, [1.0]), (math.inf, [1.0]), (1.0, [math.nan])])
    def test_nan_weight_or_precision_rejected(self, weight, precision):
        with pytest.raises(ValueError, match="weight|precision"):
            Kernel(weight, precision, [[0.0], [1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="features must be finite"):
            Kernel(1.0, [1.0], [[0.0], [bad], [1.0]])

    def test_image_crf_nan_lab_row_rejected(self):
        # one NaN Lab row once gave an all-NaN Q and NaN free energies
        rng = np.random.default_rng(3)
        lab = rng.uniform(0.0, 50.0, (4, 3))
        lab[2] = math.nan
        probs = rng.dirichlet(np.ones(3), size=4)
        with pytest.raises(ValueError, match="features must be finite"):
            image_crf(lab, probs, rng.uniform(0.0, 8.0, (4, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Kernel(1.0, [1.0], [[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="dimension"):
            Kernel(1.0, [1.0], [1.0, 2.0])   # 1-D features


class TestCrfModelChecks:
    def test_kernel_rows_must_match_node_count(self):
        with pytest.raises(ValueError, match="node count"):
            CrfModel(np.zeros((3, 2)), [Kernel(1.0, [1.0], np.zeros((2, 1)))])
        with pytest.raises(ValueError, match="node count"):
            CrfModel(np.zeros((2, 2)), [Kernel(1.0, [1.0], np.zeros((2, 1))),
                                        Kernel(1.0, [1.0], np.zeros((3, 1)))])


def two_node_model(weight=2.0):
    unary = np.array([[1.0, 2.0], [3.0, 4.0]])
    return CrfModel(unary, [Kernel(weight, [1.0], [[0.0], [1.0]])])


def pairwise_term(x, model):
    """gibbs_energy(x) less its unary part."""
    return gibbs_energy(x, model) - model.unary[np.arange(len(x)), x].sum()


class TestPairwisePotential:
    def test_same_label_potts_zero(self):
        assert pairwise_term([0, 0], two_node_model()) == 0.0

    def test_hand_value(self):
        # single kernel with w=2 and k=0.5 -> mu * 1.0
        lam = 2.0 * math.log(2.0)
        model = CrfModel(np.zeros((2, 2)), [Kernel(2.0, [lam], [[0.0], [1.0]])])
        assert gibbs_energy([0, 1], model) == pytest.approx(1.0)

    def test_symmetric(self):
        model = two_node_model()
        swapped = CrfModel(model.unary[::-1], [Kernel(2.0, [1.0], [[1.0], [0.0]])])
        assert pairwise_term([0, 1], model) == pairwise_term([1, 0], swapped)

    def test_label_out_of_range(self):
        model = two_node_model()
        for x in ([0, 5], [0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="label out of range"):
                gibbs_energy(x, model)


class TestGibbsEnergy:
    def test_zero_weights_sum_unary(self):
        unary = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model = CrfModel(unary, [Kernel(0.0, [1.0], np.zeros((3, 1)))])
        assert gibbs_energy([0, 1, 0], model) == pytest.approx(1 + 4 + 5)

    def test_two_node_hand_arithmetic(self):
        model = two_node_model(weight=2.0)
        k = math.exp(-0.5)   # exp(-1/2 * 1 * 1^2)
        assert gibbs_energy([0, 1], model) == pytest.approx(1 + 4 + 2 * k)
        assert gibbs_energy([0, 0], model) == pytest.approx(1 + 3)
        assert gibbs_energy([1, 1], model) == pytest.approx(2 + 4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        n, c = 5, 3
        unary = rng.normal(size=(n, c))
        f = rng.normal(size=(n, 2))
        model = CrfModel(unary, [Kernel(1.5, [0.7, 0.7], f)])
        x = rng.integers(0, c, size=n)
        perm = rng.permutation(n)
        pmodel = CrfModel(unary[perm], [Kernel(1.5, [0.7, 0.7], f[perm])])
        assert gibbs_energy(x[perm], pmodel) == pytest.approx(gibbs_energy(x, model))

    def test_matches_pairwise_sum(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            n, c = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            m = rng.uniform(0.0, 2.0, size=(c, c))
            kernels = [Kernel(float(rng.uniform(0.2, 3.0)), rng.uniform(0.1, 2.0, size=3),
                              rng.normal(size=(n, 3))),
                       Kernel(float(rng.uniform(0.2, 3.0)), rng.uniform(0.1, 2.0, size=2),
                              rng.normal(size=(n, 2)))]
            model = CrfModel(rng.normal(size=(n, c)), kernels, m + m.T if trial % 2 else None)
            x = rng.integers(0, c, size=n)
            expect = model.unary[np.arange(n), x].sum() + sum(
                reference_pairwise_potential(x[i], x[j], i, j, model)
                for i in range(n) for j in range(i + 1, n))
            assert gibbs_energy(x, model) == pytest.approx(expect, rel=1e-12)


class TestBruteForce:
    def test_single_node_softmax(self):
        unary = np.array([[1.0, 0.0, 2.0]])
        model = CrfModel(unary, [])
        labelings, probs = gibbs_distribution_bruteforce(model)
        expected = np.exp(-unary[0])
        expected /= expected.sum()
        assert np.allclose(probs, expected)
        assert np.array_equal(labelings.ravel(), [0, 1, 2])

    def test_zero_energy_uniform(self):
        model = CrfModel(np.zeros((3, 2)), [Kernel(0.0, [1.0], np.zeros((3, 1)))])
        _, probs = gibbs_distribution_bruteforce(model)
        assert np.allclose(probs, 1 / 8)

    def test_three_node_hand_partition(self):
        rng = np.random.default_rng(1)
        unary = rng.normal(size=(3, 2))
        f = rng.normal(size=(3, 1))
        model = CrfModel(unary, [Kernel(1.0, [2.0], f)])
        labelings, probs = gibbs_distribution_bruteforce(model)

        def hand_energy(x):
            e = sum(unary[i, x[i]] for i in range(3))
            for i in range(3):
                for j in range(i + 1, 3):
                    if x[i] != x[j]:
                        d = f[i, 0] - f[j, 0]
                        e += math.exp(-0.5 * 2.0 * d * d)
            return e

        hand = np.array([hand_energy(x) for x in itertools.product((0, 1), repeat=3)])
        z = np.exp(-(hand - hand.min()))
        z /= z.sum()
        order = [tuple(l) for l in labelings]
        assert order == list(itertools.product((0, 1), repeat=3))
        assert np.allclose(probs, z, atol=1e-12)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(2)
        unary = rng.normal(size=(4, 3))
        model = CrfModel(unary, [Kernel(0.5, [1.0, 1.0], rng.normal(size=(4, 2)))])
        _, probs = gibbs_distribution_bruteforce(model)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginals_consistent(self):
        rng = np.random.default_rng(3)
        unary = rng.normal(size=(3, 2))
        model = CrfModel(unary, [Kernel(1.0, [1.0], rng.normal(size=(3, 1)))])
        labelings, probs = gibbs_distribution_bruteforce(model)
        marg0 = np.array([probs[labelings[:, 0] == l].sum() for l in range(2)])
        direct = np.zeros(2)
        for x in itertools.product((0, 1), repeat=3):
            direct[x[0]] += math.exp(-gibbs_energy(list(x), model))
        direct /= direct.sum()
        assert np.allclose(marg0, direct, atol=1e-12)

    def test_size_guard(self):
        model = CrfModel(np.zeros((21, 2)), [])
        with pytest.raises(ValueError, match="too large"):
            gibbs_distribution_bruteforce(model)


def attractive_instance(rng, n=4, c=2):
    unary = rng.normal(0.0, 1.5, size=(n, c))
    weight = float(rng.uniform(0.2, 2.0))
    lam = float(rng.uniform(0.5, 4.0))
    return CrfModel(unary, [Kernel(weight, [lam, lam], rng.normal(size=(n, 2)))])


def reference_free_energy(q, model):
    """Variational free energy F(Q) = E_Q[E] - H(Q)."""
    q = np.asarray(q, dtype=np.float64)
    ksum = kernel_sum_matrix(model)
    e = float((q * model.unary).sum())
    t = q @ model.compat @ q.T
    e += float((ksum * t).sum() / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(q > 0, q * np.log(q), 0.0).sum()
    return e + float(ent)


class TestFreeEnergyOracle:
    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            n = int(rng.integers(1, 301))
            c = int(rng.integers(1, 7))
            compat = None
            if trial % 2:
                m = rng.uniform(0.0, 2.0, size=(c, c))
                compat = m + m.T
            params = [(float(rng.uniform(0.2, 3.0)), rng.uniform(0.1, 2.0, size=d))
                      for d in (3, 2)]
            unary = rng.uniform(0.0, 5.0, size=(n, c))
            kernels = [Kernel(w, prec, rng.normal(size=(n, len(prec)))) for w, prec in params]
            model = CrfModel(unary, kernels, compat)
            q = rng.dirichlet(np.ones(c), size=n)
            q[rng.random(n) < 0.1] = np.eye(c)[0]   # some one-hot rows: 0 log 0
            assert free_energy(q, model, kernel_sum_matrix(model) @ q) == pytest.approx(
                reference_free_energy(q, model), rel=1e-12, abs=0.0)


def reference_kernel_sum_matrix(model):
    """(N, N) matrix K_ij = sum_m w_m k_m(f_i, f_j), zero diagonal."""
    n = model.num_nodes
    total = np.zeros((n, n))
    for kern in model.kernels:
        scaled = kern.features * np.sqrt(kern.precision)
        sq = (scaled**2).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * scaled @ scaled.T, 0.0)
        total += kern.weight * np.exp(-0.5 * d2)
    np.fill_diagonal(total, 0.0)
    return total


def assert_kernel_sum_matches_reference(model):
    ksum = kernel_sum_matrix(model)
    ref = reference_kernel_sum_matrix(model)
    assert ksum.dtype == ref.dtype and ksum.shape == ref.shape
    assert ksum.tobytes() == ref.tobytes()


class TestKernelSumMatrixOracle:
    def test_matches_reference_bytes_on_random_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            n = int(rng.integers(1, 301))
            params = [(float(rng.uniform(0.0, 3.0)), rng.uniform(0.01, 2.0, size=d))
                      for d in (3, 2)]
            scale = 10.0 ** rng.integers(-1, 3)     # near-zero and underflowing kernels
            feats = [rng.normal(size=(n, 3)) * scale, rng.normal(size=(n, 2)) * scale]
            feats[0][rng.random(n) < 0.2] = feats[0][0]   # coincident nodes: d2 = 0
            kernels = [Kernel(w, prec, f) for (w, prec), f in zip(params, feats)]
            model = CrfModel(np.zeros((n, 2)), kernels[: trial % 3])  # zero, one, two kernels
            assert_kernel_sum_matches_reference(model)

    def test_image_crf_instance_matches_reference_bytes(self):
        rng = np.random.default_rng(11)
        n = 600
        model = image_crf(rng.normal(size=(n, 3)) * 30,
                          rng.dirichlet(np.ones(4), size=n), rng.random((n, 2)) * 256)
        assert_kernel_sum_matches_reference(model)


def at_exponent(x, base=38.0):
    """A 2-D feature f whose pair with the origin has exactly -|f|^2 / 2 == x
    as kernel_sum_matrix rounds it (unit precision, x below -base^2 / 2):
    f = (base, t) with t stepped one float at a time either side of
    sqrt(-2x - base^2)."""
    lo = hi = math.sqrt(-2.0 * x - base**2)
    for _ in range(64):
        for t in (lo, hi):
            f = np.array([base, t])
            if -0.5 * (f**2).sum() == x:
                return f
        lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
    raise AssertionError(f"no feature reaches exponent {x!r}")


class TestKernelSumMatrixBlocks:
    """kernel_sum_matrix runs its elementwise chain over row blocks and skips
    exp below crf._EXP_DEAD; neither may change a byte of K."""

    # N = 300 at 1, 7 and 218 (the module's own block) rows a block: the
    # last block holds 1, 6 and 82 rows
    @pytest.mark.parametrize("block_cells", [1, 7 * 300 + 5, crf._BLOCK_CELLS])
    def test_ragged_last_block_matches_reference(self, monkeypatch, block_cells):
        monkeypatch.setattr(crf, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(12)
        n = 300
        model = image_crf(rng.normal(size=(n, 3)) * 30, rng.dirichlet(np.ones(3), size=n),
                          rng.random((n, 2)) * 64)
        assert_kernel_sum_matches_reference(model)

    def test_exponent_bands_match_reference(self, monkeypatch):
        dead = crf._EXP_DEAD
        normal = [0.0, -1e-300, -1.0, -300.0, -708.0]
        subnormal = [-708.5, -720.0, -740.0, -745.13]          # exp is subnormal, not 0
        underflow = [-745.2, -750.0, np.nextafter(dead, 0.0), dead]  # exp is 0, still live
        below = [np.nextafter(dead, -math.inf), -800.0, -1e4, -1e300]  # set to 0 unevaluated
        near = [np.nextafter(dead, 0.0), dead, np.nextafter(dead, -math.inf)]
        targets = normal + subnormal + underflow + below
        feats = [np.zeros(2)] + [at_exponent(x) if x in near
                                 else np.array([math.sqrt(-2.0 * x), 0.0]) for x in targets]
        feats = np.array(feats)
        got = -0.5 * (feats[1:] ** 2).sum(axis=1)
        assert [got[targets.index(x)] for x in near] == near
        model = CrfModel(np.zeros((len(feats), 2)), [Kernel(1.0, [1.0, 1.0], feats)])
        for block_cells in (1, crf._BLOCK_CELLS):       # one row a block, and one block
            monkeypatch.setattr(crf, "_BLOCK_CELLS", block_cells)
            assert_kernel_sum_matches_reference(model)
        ref_row = reference_kernel_sum_matrix(model)[0, 1:]
        tiny = np.finfo(np.float64).tiny
        sub = ref_row[[targets.index(x) for x in subnormal]]
        assert np.all((sub > 0) & (sub < tiny))
        assert np.all(ref_row[[targets.index(x) for x in underflow + below]] == 0.0)
        assert np.all(got[[targets.index(x) for x in below]] < dead)
        assert not np.any(got[[targets.index(x) for x in underflow]] < dead)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("weights", [(), (0.0,), (2.5,), (0.0, 1.5), (3.0, 1.0)])
    def test_weights_kernel_counts_and_tiny_n_match_reference(self, n, weights):
        rng = np.random.default_rng(13)
        kernels = [Kernel(w, rng.uniform(0.01, 2.0, size=2), rng.normal(size=(n, 2)) * 20)
                   for w in weights]
        assert_kernel_sum_matches_reference(CrfModel(np.zeros((n, 2)), kernels))

    def test_region_zoom_instance_matches_reference(self):
        # a 256^2 rect_regions map of 2,116 regions with the CLI's default
        # CRF settings, as `zok crf --superpixels` builds it
        spec = synth.SyntheticSpec(size=256, num_classes=5, kind="blobs", noise_sigma=8.0)
        img, _ = next(iter(synth.generate_dataset(spec, 1, 3)))
        rect = zoomout.rect_regions(256, 256, 2048)
        node = labxy_means(rgb_to_lab(img), rect)
        assert len(node) == 2116
        probs = np.random.default_rng(14).dirichlet(np.ones(5), size=len(node))
        assert_kernel_sum_matches_reference(image_crf(node[:, :3], probs, node[:, 3:]))

    def test_nan_survives_as_in_reference(self):
        # |f|^2 overflows for the two 1e200 nodes: inf - inf between them is
        # NaN, which must not be taken for a dead (underflowing) entry
        model = CrfModel(np.zeros((3, 2)), [Kernel(1.0, [1.0], [[0.0], [1e200], [1e200]])])
        results = []
        for fn in (kernel_sum_matrix, reference_kernel_sum_matrix):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append((fn(model), sorted({str(w.message) for w in caught})))
        (ksum, msgs), (ref, ref_msgs) = results
        assert np.isnan(ref[1, 2]) and np.isnan(ref[2, 1])
        assert np.array_equal(np.isnan(ksum), np.isnan(ref))
        assert ksum.tobytes() == ref.tobytes()
        assert msgs == ref_msgs

    def test_overflow_in_a_later_block_raises(self, monkeypatch):
        # one row a block; node 0's NaN features make row 0 NaN, which sets
        # no floating-point flag, so the diagonal w1 + w2 first overflows
        # in row 1, the second block.  Kernel refuses NaN features, so they
        # are written in after the model is built.
        n = 6
        monkeypatch.setattr(crf, "_BLOCK_CELLS", n)
        rng = np.random.default_rng(15)
        lab, pos = rng.normal(size=(n, 3)), rng.random((n, 2)) * 32
        model = image_crf(lab, rng.dirichlet(np.ones(3), size=n), pos, 1e308, 1e308)
        for kern in model.kernels:
            kern.features[0] = np.nan
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            kernel_sum_matrix(model)
        with pytest.raises(ValueError, match="float64 range"):
            mean_field_refine(model, iters=2)

    def test_peak_memory_is_two_n_by_n_buffers(self):
        # K and one kernel's cross term; the elementwise chain runs in a
        # block-sized buffer, not a third (N, N) one
        rng = np.random.default_rng(16)
        n = 1024
        model = image_crf(rng.normal(size=(n, 3)) * 30, rng.dirichlet(np.ones(4), size=n),
                          rng.random((n, 2)) * 256)
        tracemalloc.start()
        try:
            kernel_sum_matrix(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * n * n * 8


class TestMeanField:
    def test_zero_pairwise_softmax_fixed_point(self):
        unary = np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 0.0]])
        model = CrfModel(unary, [])
        state = mean_field_refine(model, iters=3, damping=0.0)
        expected = np.exp(-unary)
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(state.q, expected)

    def test_symmetric_two_node_rows_agree(self):
        unary = np.array([[0.3, 0.7], [0.3, 0.7]])
        model = CrfModel(unary, [Kernel(1.0, [1.0], [[0.0], [0.0]])])
        state = mean_field_refine(model, iters=10, damping=0.5)
        assert np.allclose(state.q[0], state.q[1])

    def test_rows_stay_distributions(self):
        rng = np.random.default_rng(4)
        model = attractive_instance(rng, n=5, c=3)
        for mode in ("parallel", "sequential"):
            state = mean_field_refine(model, iters=8, damping=0.4, mode=mode)
            assert np.allclose(state.q.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(state.q >= 0)

    def test_sequential_free_energy_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = attractive_instance(rng)
            state = mean_field_refine(model, iters=6, damping=0.3, mode="sequential")
            diffs = np.diff(state.free_energies)
            assert np.all(diffs <= 1e-10)

    def test_matches_bruteforce_map_on_most_instances(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(50):
            model = attractive_instance(rng)
            labelings, probs = gibbs_distribution_bruteforce(model)
            exact = labelings[np.argmax(probs)]
            state = mean_field_refine(model, iters=30, damping=0.3, mode="sequential")
            hits += np.array_equal(map_labels(state.q), exact)
        assert hits / 50 >= 0.9


def reference_mean_field_refine(model, iters, damping, mode):
    """Mean field as it was before K Q was shared: free_energy formed its
    own K Q, and each parallel sweep formed it again."""
    ksum = kernel_sum_matrix(model)

    def energy(q):
        e = float((q * model.unary).sum())
        e += float(((ksum @ q) * (q @ model.compat)).sum() / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(q > 0, q * np.log(q), 0.0).sum()
        return e + float(ent)

    neg = -model.unary
    neg = neg - neg.max(axis=1, keepdims=True)
    q = np.exp(neg)
    q /= q.sum(axis=1, keepdims=True)
    energies = [energy(q)]
    for _ in range(iters):
        if mode == "parallel":
            msg = (ksum @ q) @ model.compat
            logq = -model.unary - msg
            logq -= logq.max(axis=1, keepdims=True)
            qnew = np.exp(logq)
            qnew /= qnew.sum(axis=1, keepdims=True)
            q = (1.0 - damping) * qnew + damping * q
        else:
            for i in range(model.num_nodes):
                msg = (ksum[i] @ q) @ model.compat
                logq = -model.unary[i] - msg
                logq -= logq.max()
                qi = np.exp(logq)
                qi /= qi.sum()
                q[i] = (1.0 - damping) * qi + damping * q[i]
        energies.append(energy(q))
    return q, energies


class TestMeanFieldOracle:
    def test_matches_reference_bytes_on_random_instances(self):
        rng = np.random.default_rng(14)
        for trial in range(12):
            n, c = int(rng.integers(1, 301)), int(rng.integers(1, 7))
            m = rng.uniform(0.0, 2.0, size=(c, c))
            model = image_crf(rng.normal(size=(n, 3)) * 30, rng.dirichlet(np.ones(c), size=n),
                              rng.random((n, 2)) * 64)
            if trial % 2:
                model = CrfModel(model.unary, model.kernels, m + m.T)
            iters, damping = int(rng.integers(1, 6)), float(rng.uniform(0.0, 0.9))
            for mode in ("parallel", "sequential"):
                state = mean_field_refine(model, iters, damping, mode)
                q_ref, energies_ref = reference_mean_field_refine(model, iters, damping, mode)
                assert state.q.tobytes() == q_ref.tobytes()
                assert state.free_energies == energies_ref


class TestMapLabels:
    def test_onehot(self):
        q = np.eye(3)[[2, 0, 1]]
        assert map_labels(q).tolist() == [2, 0, 1]

    def test_uniform_ties_to_zero(self):
        q = np.full((4, 3), 1 / 3)
        assert map_labels(q).tolist() == [0, 0, 0, 0]


class TestHelpers:
    def test_unary_from_probs_floor(self):
        psi = unary_from_probs(np.array([0.5, 0.0]))
        assert psi[0] == pytest.approx(math.log(2))
        assert psi[1] == pytest.approx(-math.log(1e-12))

    def test_kernel_sum_matrix_matches_scalar(self):
        rng = np.random.default_rng(7)
        model = attractive_instance(rng, n=4)
        kern = model.kernels[0]
        ksum = kernel_sum_matrix(model)
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert ksum[i, j] == 0.0
                else:
                    expect = kern.weight * reference_kernel_eval(
                        kern.features[i], kern.features[j], kern.precision)
                    assert ksum[i, j] == pytest.approx(expect)

    def test_image_crf_shapes(self):
        rng = np.random.default_rng(8)
        lab = rng.normal(size=(6, 3))
        probs = rng.dirichlet(np.ones(4), size=6)
        pos = rng.normal(size=(6, 2))
        model = image_crf(lab, probs, pos)
        assert model.unary.shape == (6, 4)
        assert [k.features.shape for k in model.kernels] == [(6, 5), (6, 2)]
        state = mean_field_refine(model, iters=3, damping=0.5)
        assert state.q.shape == (6, 4)

    @pytest.mark.parametrize("sigma", ["sigma_xy", "sigma_lab", "sigma_xy_smooth"])
    # from 1e-300 on, 1/sigma^2 is inf or 0, or sigma^2 leaves the float range
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e-300, 5e-324, 1e-160,
                                       1e300, 1e308, pytest.param(10**400, id="int-1e400")])
    def test_image_crf_rejects_non_positive_sigma(self, sigma, value):
        lab, probs, pos = np.zeros((3, 3)), np.full((3, 2), 0.5), np.zeros((3, 2))
        with pytest.raises(ValueError, match=sigma):
            image_crf(lab, probs, pos, **{sigma: value})

    def test_accepted_precisions_are_the_plain_formula(self):
        # every sigma accepted keeps the precision image_crf always used
        rng = np.random.default_rng(31)
        sigmas = np.concatenate([10.0 ** rng.uniform(-154.5, 154.5, 3000),
                                 [1.4916681462400413e-154, 1.3407807929942596e154, 3, 10]])
        for s in map(float, sigmas):
            try:
                want = 1 / s**2
            except (ZeroDivisionError, OverflowError):
                want = None
            if want is None or not 0 < want < math.inf:
                with pytest.raises(ValueError):
                    check_image_crf(1.0, 1.0, s, 1.0, 1.0)
            else:
                assert check_image_crf(1.0, 1.0, s, s, s) == [want] * 3

    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    @pytest.mark.parametrize("weights", [(1e308, 1e308), (1.7e308, 0.0)])
    def test_mean_field_overflow_raises_value_error(self, mode, weights):
        rng = np.random.default_rng(9)
        model = image_crf(rng.normal(size=(16, 3)), rng.dirichlet(np.ones(3), size=16),
                          rng.random((16, 2)) * 32, *weights, 1e10, 1e10, 1e10)
        with pytest.raises(ValueError, match="float64 range"):
            mean_field_refine(model, iters=2, mode=mode)

    @pytest.mark.parametrize("weight", ["w_appearance", "w_smooth"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_image_crf_rejects_bad_weight(self, weight, value):
        lab, probs, pos = np.zeros((3, 3)), np.full((3, 2), 0.5), np.zeros((3, 2))
        with pytest.raises(ValueError, match=weight):
            image_crf(lab, probs, pos, **{weight: value})

    def test_free_energy_entropy_term(self):
        # with zero unary and zero pairwise, F = -H(Q); onehot rows give 0
        model = CrfModel(np.zeros((2, 2)), [])
        kq = np.zeros((2, 2))   # no kernels: K Q = 0
        q = np.eye(2)
        assert free_energy(q, model, kq) == pytest.approx(0.0)
        q = np.full((2, 2), 0.5)
        assert free_energy(q, model, kq) == pytest.approx(-2 * math.log(2))
