import itertools
import math

import numpy as np
import pytest

from zok.crf import (CrfModel, Kernel, free_energy,
                     gibbs_distribution_bruteforce, gibbs_energy, image_crf,
                     kernel_eval, kernel_sum_matrix, map_labels,
                     mean_field_refine, pairwise_potential, potts_compat,
                     unary_from_probs)


class TestKernelEval:
    def test_identical_features(self):
        assert kernel_eval([1.0, 2.0], [1.0, 2.0], [3.0, 3.0]) == 1.0

    def test_hand_value(self):
        # 1-D, delta=2, lambda=0.5 -> exp(-0.5 * 0.5 * 4) = exp(-1)
        assert kernel_eval([2.0], [0.0], [0.5]) == pytest.approx(math.exp(-1))

    def test_strictly_decreasing_in_distance(self):
        vals = [kernel_eval([t], [0.0], [1.0]) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval([1.0, 2.0], [1.0, 2.0], [1.0])


def two_node_model(weight=2.0):
    unary = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = CrfModel(unary, [Kernel(weight, [1.0])])
    features = {"f": np.array([[0.0], [1.0]])}
    return model, features


class TestPairwisePotential:
    def test_same_label_potts_zero(self):
        model, feats = two_node_model()
        f0 = {"f": feats["f"][0]}
        f1 = {"f": feats["f"][1]}
        assert pairwise_potential(0, 0, f0, f1, model) == 0.0

    def test_hand_value(self):
        # single kernel with w=2 and k=0.5 -> mu * 1.0
        lam = 2.0 * math.log(2.0)
        model = CrfModel(np.zeros((2, 2)), [Kernel(2.0, [lam])])
        f0, f1 = {"f": np.array([0.0])}, {"f": np.array([1.0])}
        assert pairwise_potential(0, 1, f0, f1, model) == pytest.approx(1.0)

    def test_symmetric(self):
        model, feats = two_node_model()
        f0 = {"f": feats["f"][0]}
        f1 = {"f": feats["f"][1]}
        assert pairwise_potential(0, 1, f0, f1, model) == \
            pairwise_potential(1, 0, f1, f0, model)

    def test_label_out_of_range(self):
        model, feats = two_node_model()
        f0 = {"f": feats["f"][0]}
        with pytest.raises(ValueError):
            pairwise_potential(0, 5, f0, f0, model)


class TestGibbsEnergy:
    def test_zero_weights_sum_unary(self):
        unary = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model = CrfModel(unary, [Kernel(0.0, [1.0])])
        feats = {"f": np.zeros((3, 1))}
        assert gibbs_energy([0, 1, 0], model, feats) == pytest.approx(1 + 4 + 5)

    def test_two_node_hand_arithmetic(self):
        model, feats = two_node_model(weight=2.0)
        k = math.exp(-0.5)   # exp(-1/2 * 1 * 1^2)
        assert gibbs_energy([0, 1], model, feats) == pytest.approx(1 + 4 + 2 * k)
        assert gibbs_energy([0, 0], model, feats) == pytest.approx(1 + 3)
        assert gibbs_energy([1, 1], model, feats) == pytest.approx(2 + 4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        n, c = 5, 3
        unary = rng.normal(size=(n, c))
        feats = {"f": rng.normal(size=(n, 2))}
        model = CrfModel(unary, [Kernel(1.5, [0.7, 0.7])])
        x = rng.integers(0, c, size=n)
        perm = rng.permutation(n)
        pmodel = CrfModel(unary[perm], [Kernel(1.5, [0.7, 0.7])])
        pfeats = {"f": feats["f"][perm]}
        assert gibbs_energy(x[perm], pmodel, pfeats) == \
            pytest.approx(gibbs_energy(x, model, feats))


class TestBruteForce:
    def test_single_node_softmax(self):
        unary = np.array([[1.0, 0.0, 2.0]])
        model = CrfModel(unary, [])
        labelings, probs = gibbs_distribution_bruteforce(model, {})
        expected = np.exp(-unary[0])
        expected /= expected.sum()
        assert np.allclose(probs, expected)
        assert np.array_equal(labelings.ravel(), [0, 1, 2])

    def test_zero_energy_uniform(self):
        model = CrfModel(np.zeros((3, 2)), [Kernel(0.0, [1.0])])
        _, probs = gibbs_distribution_bruteforce(model, {"f": np.zeros((3, 1))})
        assert np.allclose(probs, 1 / 8)

    def test_three_node_hand_partition(self):
        rng = np.random.default_rng(1)
        unary = rng.normal(size=(3, 2))
        feats = {"f": rng.normal(size=(3, 1))}
        model = CrfModel(unary, [Kernel(1.0, [2.0])])
        labelings, probs = gibbs_distribution_bruteforce(model, feats)

        def hand_energy(x):
            e = sum(unary[i, x[i]] for i in range(3))
            for i in range(3):
                for j in range(i + 1, 3):
                    if x[i] != x[j]:
                        d = feats["f"][i, 0] - feats["f"][j, 0]
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
        model = CrfModel(rng.normal(size=(4, 3)), [Kernel(0.5, [1.0, 1.0])])
        _, probs = gibbs_distribution_bruteforce(model, {"f": rng.normal(size=(4, 2))})
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginals_consistent(self):
        rng = np.random.default_rng(3)
        unary = rng.normal(size=(3, 2))
        feats = {"f": rng.normal(size=(3, 1))}
        model = CrfModel(unary, [Kernel(1.0, [1.0])])
        labelings, probs = gibbs_distribution_bruteforce(model, feats)
        marg0 = np.array([probs[labelings[:, 0] == l].sum() for l in range(2)])
        direct = np.zeros(2)
        for x in itertools.product((0, 1), repeat=3):
            direct[x[0]] += math.exp(-gibbs_energy(list(x), model, feats))
        direct /= direct.sum()
        assert np.allclose(marg0, direct, atol=1e-12)

    def test_size_guard(self):
        model = CrfModel(np.zeros((21, 2)), [])
        with pytest.raises(ValueError, match="too large"):
            gibbs_distribution_bruteforce(model, {})


def attractive_instance(rng, n=4, c=2):
    unary = rng.normal(0.0, 1.5, size=(n, c))
    weight = float(rng.uniform(0.2, 2.0))
    lam = float(rng.uniform(0.5, 4.0))
    feats = {"f": rng.normal(size=(n, 2))}
    return CrfModel(unary, [Kernel(weight, [lam, lam])]), feats


def reference_free_energy(q, model, features, ksum=None):
    """Variational free energy F(Q) = E_Q[E] - H(Q)."""
    q = np.asarray(q, dtype=np.float64)
    if ksum is None:
        ksum = kernel_sum_matrix(model, features)
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
            kernels = [Kernel(float(rng.uniform(0.2, 3.0)), rng.uniform(0.1, 2.0, size=3)),
                       Kernel(float(rng.uniform(0.2, 3.0)), rng.uniform(0.1, 2.0, size=2), "g")]
            model = CrfModel(rng.uniform(0.0, 5.0, size=(n, c)), kernels, compat)
            feats = {"f": rng.normal(size=(n, 3)), "g": rng.normal(size=(n, 2))}
            q = rng.dirichlet(np.ones(c), size=n)
            q[rng.random(n) < 0.1] = np.eye(c)[0]   # some one-hot rows: 0 log 0
            assert free_energy(q, model, feats) == pytest.approx(
                reference_free_energy(q, model, feats), rel=1e-12, abs=0.0)


def reference_kernel_sum_matrix(model, features):
    """(N, N) matrix K_ij = sum_m w_m k_m(f_i, f_j), zero diagonal."""
    n = model.num_nodes
    total = np.zeros((n, n))
    for kern in model.kernels:
        f = np.asarray(features[kern.features_key], dtype=np.float64)
        scaled = f * np.sqrt(kern.precision)
        sq = (scaled**2).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * scaled @ scaled.T, 0.0)
        total += kern.weight * np.exp(-0.5 * d2)
    np.fill_diagonal(total, 0.0)
    return total


class TestKernelSumMatrixOracle:
    def test_matches_reference_bytes_on_random_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            n = int(rng.integers(1, 301))
            kernels = [Kernel(float(rng.uniform(0.0, 3.0)), rng.uniform(0.01, 2.0, size=3)),
                       Kernel(float(rng.uniform(0.0, 3.0)), rng.uniform(0.01, 2.0, size=2), "g")]
            kernels = kernels[: trial % 3]          # zero, one and two kernels
            model = CrfModel(np.zeros((n, 2)), kernels)
            scale = 10.0 ** rng.integers(-1, 3)     # near-zero and underflowing kernels
            feats = {"f": rng.normal(size=(n, 3)) * scale, "g": rng.normal(size=(n, 2)) * scale}
            feats["f"][rng.random(n) < 0.2] = feats["f"][0]   # coincident nodes: d2 = 0
            ksum = kernel_sum_matrix(model, feats)
            ref = reference_kernel_sum_matrix(model, feats)
            assert ksum.dtype == ref.dtype and ksum.shape == ref.shape
            assert ksum.tobytes() == ref.tobytes()

    def test_image_crf_instance_matches_reference_bytes(self):
        rng = np.random.default_rng(11)
        n = 600
        model, feats = image_crf(rng.normal(size=(n, 3)) * 30,
                                 rng.dirichlet(np.ones(4), size=n), rng.random((n, 2)) * 256)
        assert (kernel_sum_matrix(model, feats).tobytes()
                == reference_kernel_sum_matrix(model, feats).tobytes())


class TestMeanField:
    def test_zero_pairwise_softmax_fixed_point(self):
        unary = np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 0.0]])
        model = CrfModel(unary, [])
        state = mean_field_refine(model, {}, iters=3, damping=0.0)
        expected = np.exp(-unary)
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(state.q, expected)

    def test_symmetric_two_node_rows_agree(self):
        unary = np.array([[0.3, 0.7], [0.3, 0.7]])
        model = CrfModel(unary, [Kernel(1.0, [1.0])])
        feats = {"f": np.array([[0.0], [0.0]])}
        state = mean_field_refine(model, feats, iters=10, damping=0.5)
        assert np.allclose(state.q[0], state.q[1])

    def test_rows_stay_distributions(self):
        rng = np.random.default_rng(4)
        model, feats = attractive_instance(rng, n=5, c=3)
        for mode in ("parallel", "sequential"):
            state = mean_field_refine(model, feats, iters=8, damping=0.4, mode=mode)
            assert np.allclose(state.q.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(state.q >= 0)

    def test_sequential_free_energy_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model, feats = attractive_instance(rng)
            state = mean_field_refine(model, feats, iters=6, damping=0.3,
                                      mode="sequential")
            diffs = np.diff(state.free_energies)
            assert np.all(diffs <= 1e-10)

    def test_matches_bruteforce_map_on_most_instances(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(50):
            model, feats = attractive_instance(rng)
            labelings, probs = gibbs_distribution_bruteforce(model, feats)
            exact = labelings[np.argmax(probs)]
            state = mean_field_refine(model, feats, iters=30, damping=0.3,
                                      mode="sequential")
            hits += np.array_equal(map_labels(state), exact)
        assert hits / 50 >= 0.9


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
        model, feats = attractive_instance(rng, n=4)
        ksum = kernel_sum_matrix(model, feats)
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert ksum[i, j] == 0.0
                else:
                    expect = model.kernels[0].weight * kernel_eval(
                        feats["f"][i], feats["f"][j], model.kernels[0].precision)
                    assert ksum[i, j] == pytest.approx(expect)

    def test_image_crf_shapes(self):
        rng = np.random.default_rng(8)
        lab = rng.normal(size=(6, 3))
        probs = rng.dirichlet(np.ones(4), size=6)
        pos = rng.normal(size=(6, 2))
        model, feats = image_crf(lab, probs, pos)
        assert model.unary.shape == (6, 4)
        assert feats["appearance"].shape == (6, 5)
        assert feats["position"].shape == (6, 2)
        state = mean_field_refine(model, feats, iters=3, damping=0.5)
        assert state.q.shape == (6, 4)

    @pytest.mark.parametrize("sigma", ["sigma_xy", "sigma_lab", "sigma_xy_smooth"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_image_crf_rejects_non_positive_sigma(self, sigma, value):
        lab, probs, pos = np.zeros((3, 3)), np.full((3, 2), 0.5), np.zeros((3, 2))
        with pytest.raises(ValueError, match=sigma):
            image_crf(lab, probs, pos, **{sigma: value})

    def test_free_energy_entropy_term(self):
        # with zero unary and zero pairwise, F = -H(Q); onehot rows give 0
        model = CrfModel(np.zeros((2, 2)), [])
        q = np.eye(2)
        assert free_energy(q, model, {}) == pytest.approx(0.0)
        q = np.full((2, 2), 0.5)
        assert free_energy(q, model, {}) == pytest.approx(-2 * math.log(2))
