"""Algorithm tests: convergence, oracle checks, engine equivalence."""

import numpy as np
import pytest

from repro.algorithms import (
    als_cg,
    autoencoder,
    glm_binomial_probit,
    kmeans,
    l2svm,
    mlogreg,
)
from repro.data import generators
from tests.conftest import make_engine

ENGINE_MODES = ["base", "fused", "gen", "gen-fa", "gen-fnr"]


class TestL2svm:
    @pytest.fixture(scope="class")
    def data(self):
        return generators.classification_data(300, 12, n_classes=2, seed=1)

    def test_converges(self, data):
        x, y = data
        result = l2svm(x, y, engine=make_engine("gen"), max_iter=10)
        assert result.losses[-1] <= result.losses[0]

    def test_separates_training_data(self, data):
        x, y = data
        result = l2svm(x, y, engine=make_engine("gen"), max_iter=15)
        w = result.model["w"].to_dense()
        preds = np.sign(x.to_dense() @ w)
        accuracy = np.mean(preds == y.to_dense())
        assert accuracy > 0.9

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_engines_agree(self, data, mode):
        x, y = data
        reference = l2svm(x, y, engine=make_engine("base"), max_iter=3)
        result = l2svm(x, y, engine=make_engine(mode), max_iter=3)
        np.testing.assert_allclose(
            result.model["w"].to_dense(),
            reference.model["w"].to_dense(),
            rtol=1e-6,
            atol=1e-9,
        )

    def test_sparse_input(self):
        x, y = generators.classification_data(400, 20, seed=3, sparsity=0.1)
        result = l2svm(x, y, engine=make_engine("gen"), max_iter=5)
        assert np.isfinite(result.final_loss)


class TestMLogreg:
    @pytest.fixture(scope="class")
    def data(self):
        x, labels = generators.classification_data(300, 10, n_classes=3, seed=2)
        return x, labels

    def test_loss_decreases(self, data):
        x, labels = data
        result = mlogreg(x, labels, n_classes=3, engine=make_engine("gen"), max_iter=5)
        assert result.losses[-1] < result.losses[0]

    def test_training_accuracy(self, data):
        x, labels = data
        result = mlogreg(x, labels, n_classes=3, engine=make_engine("gen"), max_iter=8)
        beta = result.model["beta"].to_dense()
        scores = np.hstack([x.to_dense() @ beta, np.zeros((x.rows, 1))])
        preds = np.argmax(scores, axis=1) + 1
        accuracy = np.mean(preds == labels.to_dense().ravel())
        assert accuracy > 0.8

    @pytest.mark.parametrize("mode", ["fused", "gen", "gen-fa"])
    def test_engines_agree(self, data, mode):
        x, labels = data
        reference = mlogreg(x, labels, 3, engine=make_engine("base"), max_iter=2)
        result = mlogreg(x, labels, 3, engine=make_engine(mode), max_iter=2)
        np.testing.assert_allclose(
            result.model["beta"].to_dense(),
            reference.model["beta"].to_dense(),
            rtol=1e-5,
            atol=1e-8,
        )

    def test_binary_case(self):
        x, labels01 = generators.classification_data(200, 8, n_classes=2, seed=5)
        labels = ((labels01.to_dense() + 3) / 2).reshape(-1, 1)  # {-1,1} -> {1,2}
        result = mlogreg(x, labels, n_classes=2, engine=make_engine("gen"), max_iter=4)
        assert result.losses[-1] < result.losses[0]


class TestGlm:
    @pytest.fixture(scope="class")
    def data(self):
        x, y = generators.classification_data(300, 8, n_classes=2, seed=4)
        y01 = (y.to_dense() + 1) / 2  # {-1,1} -> {0,1}
        return x, y01

    def test_deviance_decreases(self, data):
        x, y = data
        result = glm_binomial_probit(x, y, engine=make_engine("gen"), max_iter=6)
        assert result.losses[-1] < result.losses[0]

    def test_predictions_sane(self, data):
        x, y = data
        result = glm_binomial_probit(x, y, engine=make_engine("gen"), max_iter=8)
        from scipy.stats import norm

        eta = x.to_dense() @ result.model["beta"].to_dense()
        preds = (norm.cdf(eta) > 0.5).astype(float)
        assert np.mean(preds == y) > 0.8

    @pytest.mark.parametrize("mode", ["fused", "gen"])
    def test_engines_agree(self, data, mode):
        x, y = data
        reference = glm_binomial_probit(x, y, engine=make_engine("base"), max_iter=2)
        result = glm_binomial_probit(x, y, engine=make_engine(mode), max_iter=2)
        np.testing.assert_allclose(
            result.model["beta"].to_dense(),
            reference.model["beta"].to_dense(),
            rtol=1e-5,
            atol=1e-8,
        )


class TestKMeans:
    @pytest.fixture(scope="class")
    def data(self):
        return generators.clustering_data(400, 6, n_centers=4, seed=6)

    def test_wcss_decreases(self, data):
        result = kmeans(data, n_centroids=4, engine=make_engine("gen"), max_iter=10)
        assert result.losses[-1] <= result.losses[0] + 1e-9

    def test_iterates_past_first_pass(self, data):
        """Regression: the first convergence test compared against the
        initial inf loss, which always passed, so every fit stopped
        after one iteration."""
        result = kmeans(data, n_centroids=4, engine=make_engine("gen"), max_iter=10)
        assert result.n_outer_iterations > 1
        assert len(result.losses) >= 2
        for before, after in zip(result.losses, result.losses[1:]):
            assert after <= before + 1e-9 * abs(before)

    def test_recovers_cluster_structure(self, data):
        result = kmeans(data, n_centroids=4, engine=make_engine("gen"), max_iter=15)
        centroids = result.model["centroids"].to_dense()
        arr = data.to_dense()
        dists = ((arr[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        wcss = dists.min(axis=1).sum()
        total_ss = ((arr - arr.mean(axis=0)) ** 2).sum()
        assert wcss < 0.5 * total_ss

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_engines_agree(self, data, mode):
        reference = kmeans(data, 4, engine=make_engine("base"), max_iter=3, seed=9)
        result = kmeans(data, 4, engine=make_engine(mode), max_iter=3, seed=9)
        np.testing.assert_allclose(
            result.model["centroids"].to_dense(),
            reference.model["centroids"].to_dense(),
            rtol=1e-7,
            atol=1e-10,
        )


class TestAlsCg:
    @pytest.fixture(scope="class")
    def data(self):
        return generators.factorization_data(150, 120, rank=4, sparsity=0.08, seed=7)

    def test_loss_decreases(self, data):
        result = als_cg(data, rank=4, engine=make_engine("gen"), max_iter=4, seed=1)
        assert result.losses[-1] < result.losses[0]

    def test_reconstruction_on_observed(self, data):
        result = als_cg(data, rank=4, engine=make_engine("gen"), max_iter=6, seed=1)
        u = result.model["U"].to_dense()
        v = result.model["V"].to_dense()
        csr = data.to_csr()
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        preds = np.einsum("ij,ij->i", u[rows], v[csr.indices])
        rel_err = np.linalg.norm(preds - csr.data) / np.linalg.norm(csr.data)
        assert rel_err < 0.5

    @pytest.mark.parametrize("mode", ["fused", "gen"])
    def test_engines_agree(self, data, mode):
        reference = als_cg(data, 4, engine=make_engine("base"), max_iter=2, seed=2)
        result = als_cg(data, 4, engine=make_engine(mode), max_iter=2, seed=2)
        np.testing.assert_allclose(
            result.model["U"].to_dense(),
            reference.model["U"].to_dense(),
            rtol=1e-5,
            atol=1e-8,
        )

    def test_gen_avoids_dense_outer_product(self, data):
        engine = make_engine("gen")
        als_cg(data, rank=4, engine=engine, max_iter=2, seed=3)
        assert engine.stats.spoof_executions.get("Outer", 0) > 0


class TestAutoencoder:
    @pytest.fixture(scope="class")
    def data(self):
        return generators.rand_dense(256, 50, seed=8)

    def test_loss_decreases(self, data):
        result = autoencoder(
            data, h1=20, h2=2, engine=make_engine("gen"),
            batch_size=64, n_epochs=3, learning_rate=0.5, seed=1,
        )
        first = np.mean(result.losses[:2])
        last = np.mean(result.losses[-2:])
        assert last < first

    @pytest.mark.parametrize("mode", ["fused", "gen"])
    def test_engines_agree(self, data, mode):
        kwargs = dict(h1=10, h2=2, batch_size=128, n_epochs=1, seed=2)
        reference = autoencoder(data, engine=make_engine("base"), **kwargs)
        result = autoencoder(data, engine=make_engine(mode), **kwargs)
        np.testing.assert_allclose(
            result.model["W1"].to_dense(),
            reference.model["W1"].to_dense(),
            rtol=1e-6,
            atol=1e-9,
        )
