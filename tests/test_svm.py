import numpy as np
import pytest

from oncograde.core import derive_stream
from oncograde.dataset import synth_generate
from oncograde.models import (
    KernelSpec,
    ModelSpec,
    kernel_matrix,
    resolve_gamma,
    train_svm_binary,
    train_svm_ovr,
)
from oncograde.models.base import svm_kernel_for
from oncograde.models.svm import SvmOvrModel, dual_objective, kkt_violation
from oncograde.preprocess import run_pipeline
from tests.conftest import make_blobs


def random_binary_problem(trial, n_max=40, d_max=4):
    r = np.random.default_rng(trial)
    n = int(r.integers(6, n_max + 1))
    d = int(r.integers(1, d_max + 1))
    X = r.normal(size=(n, d))
    y = np.where(r.uniform(size=n) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == n:
        y[0] = -y[0]
    return X, y


class TestKernels:
    def test_rbf_identical_points(self):
        spec = KernelSpec("rbf", gamma=2.0)
        assert kernel_matrix(spec, [[1.0, 2.0]], [[1.0, 2.0]])[0, 0] == pytest.approx(1.0)

    def test_linear_dot(self):
        assert kernel_matrix(KernelSpec("linear"), [[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == pytest.approx(11.0)

    def test_polynomial(self):
        spec = KernelSpec("polynomial", gamma=1.0, coef0=1.0, degree=2)
        assert kernel_matrix(spec, [[1.0, 0.0]], [[1.0, 1.0]])[0, 0] == pytest.approx(4.0)

    def test_sigmoid(self):
        spec = KernelSpec("sigmoid", gamma=0.5, coef0=-1.0)
        assert kernel_matrix(spec, [[2.0]], [[1.0]])[0, 0] == pytest.approx(np.tanh(0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_matrix(KernelSpec("linear"), [[1.0]], [[1.0, 2.0]])

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("laplace")

    def test_gamma_scale(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        # population variances are 0.25 each; 1 / (2 * 0.25) = 2
        assert resolve_gamma("scale", X) == pytest.approx(2.0)
        assert resolve_gamma(0.7, X) == 0.7


class TestBinarySmo:
    def test_two_point_analytic_solution(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        svm = train_svm_binary(X, y, KernelSpec("linear"), C=1.0)
        assert svm.alphas == pytest.approx([0.5, 0.5], abs=1e-6)
        assert svm.bias == pytest.approx(0.0, abs=1e-6)
        grid = np.array([[-1.0], [0.5], [1.0]])
        assert svm.decision(grid) == pytest.approx([-1.0, 0.5, 1.0], abs=1e-6)

    def test_dual_feasibility_random_problems(self):
        for trial in range(10):
            X, y = random_binary_problem(trial)
            for kern in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)):
                svm = train_svm_binary(X, y, kern, C=1.0)
                assert abs(float((svm.alphas * svm.y).sum())) < 1e-9
                assert (svm.alphas >= 0).all() and (svm.alphas <= 1.0).all()
                assert kkt_violation(svm, tol=1e-3) <= 1e-3

    def test_linear_weight_vector_reproduces_decision(self):
        X, y = random_binary_problem(5)
        svm = train_svm_binary(X, y, KernelSpec("linear"), C=1.0)
        w = (svm.alphas * svm.y) @ svm.X
        probe = np.random.default_rng(1).normal(size=(20, X.shape[1]))
        assert np.allclose(svm.decision(probe), probe @ w + svm.bias, atol=1e-9)

    def test_separable_blobs_rbf_perfect(self):
        X, y3 = make_blobs(seed=2, n_per_class=20)
        y = np.where(y3 == 0, 1.0, -1.0)
        svm = train_svm_binary(X, y, KernelSpec("rbf", gamma=0.5))
        assert (np.sign(svm.decision(X)) == y).all()

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            train_svm_binary(np.zeros((3, 1)), np.ones(3), KernelSpec("linear"))

    def test_sigmoid_kernel_terminates(self):
        X, y = random_binary_problem(9)
        svm = train_svm_binary(X, y, KernelSpec("sigmoid", gamma=1.0))
        assert np.isfinite(svm.bias)

    def test_permutation_keeps_dual_objective(self):
        for trial in range(5):
            X, y = random_binary_problem(100 + trial, n_max=30)
            kern = KernelSpec("rbf", gamma=0.5)
            a = train_svm_binary(X, y, kern, tol=1e-6)
            perm = np.random.default_rng(trial).permutation(len(y))
            b = train_svm_binary(X[perm], y[perm], kern, tol=1e-6)
            assert abs(dual_objective(a) - dual_objective(b)) < 1e-9


class TestWorkingSetSolver:
    INDEFINITE_KERNELS = (
        KernelSpec("polynomial", gamma=0.7, degree=3, coef0=1.0),
        KernelSpec("sigmoid", gamma=0.7, coef0=0.0),
        KernelSpec("sigmoid", gamma=1.0, coef0=-1.0),
    )

    def test_feasibility_and_kkt_polynomial_and_sigmoid(self):
        tau_clamps = 0
        for trial in range(50):
            X, y = random_binary_problem(trial)
            for kern in self.INDEFINITE_KERNELS:
                svm = train_svm_binary(X, y, kern, C=1.0, tol=1e-3)
                assert abs(float((svm.alphas * svm.y).sum())) < 1e-9
                assert (svm.alphas >= 0.0).all() and (svm.alphas <= 1.0).all()
                assert kkt_violation(svm, tol=1e-3) <= 1e-3
                assert not svm.hit_cap and svm.gap < 1e-3
                tau_clamps += svm.tau_clamps
        # non-PSD pairs were met and stepped, not skipped
        assert tau_clamps > 0

    def test_sigmoid_full_scale_machines_converge(self):
        d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
        prep = run_pipeline(d, "paper_order", test_fraction=0.2, stream=derive_stream(42, 1))
        X, y = prep.X_train, prep.y_train
        spec = ModelSpec("svm_sigmoid")
        kern = svm_kernel_for(spec.name, spec.hyperparams, X)
        for cls in range(3):
            ypm = np.where(y == cls, 1.0, -1.0)
            svm = train_svm_binary(X, ypm, kern, C=spec.hyperparams.C)
            assert not svm.hit_cap
            assert svm.iterations > 0
            assert kkt_violation(svm, tol=1e-3) <= 1e-3


class TestOneVsRest:
    def test_separated_blobs_perfect(self):
        X, y = make_blobs(seed=4, n_per_class=25)
        train = np.r_[0:20, 25:45, 50:70]
        test = np.setdiff1d(np.arange(75), train)
        model = train_svm_ovr(X[train], y[train], KernelSpec("linear"))
        assert (model.predict(X[test]) == y[test]).all()

    def test_equal_decisions_tie_to_class_zero(self):
        model = SvmOvrModel(
            kernel=KernelSpec("linear"),
            C=1.0,
            machines=[
                {"support_x": np.empty((0, 2)), "support_coef": np.empty(0), "bias": 0.25}
                for _ in range(3)
            ],
            n_features=2,
        )
        assert model.predict(np.zeros((4, 2))).tolist() == [0, 0, 0, 0]

    def test_proba_rows_sum_to_one(self, blobs3):
        X, y = blobs3
        model = train_svm_ovr(X, y, KernelSpec("rbf", gamma=0.5))
        P = model.predict_proba(X)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert (P >= 0).all()
        assert np.array_equal(model.predict(X), np.argmax(P, axis=1))

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_svm_ovr(np.zeros((3, 2)), np.zeros(3, dtype=int), KernelSpec("linear"))

    def test_empty_input_predictions(self, blobs3):
        X, y = blobs3
        model = train_svm_ovr(X, y, KernelSpec("linear"))
        assert model.predict(np.zeros((0, 2))).shape == (0,)
        assert model.predict_proba(np.zeros((0, 2))).shape == (0, 3)
