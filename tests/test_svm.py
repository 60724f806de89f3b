import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oncograde.cli import main
from oncograde.core import RngStream
from oncograde.dataset import synth_generate
from oncograde.eval import evaluate_predictions
from oncograde.models.base import (
    Hyperparams,
    KernelSpec,
    ModelSpec,
    kernel_matrix,
    model_from_doc,
    model_to_doc,
    resolve_gamma,
    svm_kernel_for,
)
import oncograde.models.base as base
import oncograde.models.svm as svm_module
from oncograde.models.svm import SvmOvrModel, kkt_violation, train_svm_binary, train_svm_ovr
from oncograde.preprocess import PreprocessConfig, run_pipeline
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


def dual_objective(svm) -> float:
    """Value of the dual: sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij."""
    ay = svm.alphas * svm.y
    K = kernel_matrix(svm.kernel, svm.X, svm.X)
    return float(svm.alphas.sum() - 0.5 * ay @ K @ ay)


def smo_digest(svm) -> str:
    """sha256 of a binary machine's solution and solver counts."""
    h = hashlib.sha256()
    h.update(svm.alphas.tobytes())
    h.update(np.array([svm.bias, svm.gap]).tobytes())
    h.update(np.array([svm.iterations, svm.tau_clamps], dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def paper_split():
    """The seed-42, n=1000 paper_order split (876 training and 219 test rows, 59 columns)."""
    d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
    return run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))


@pytest.fixture(scope="module")
def paper_rows(paper_split):
    """The seed-42, n=1000 paper_order training rows (876 x 59)."""
    return paper_split.X_train, paper_split.y_train


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The kind of each ``kernel_matrix`` call made from ``svm.py``."""
    calls = []

    def counting(spec, A, B):
        calls.append(spec.kind)
        return kernel_matrix(spec, A, B)

    monkeypatch.setattr(svm_module, "kernel_matrix", counting)
    return calls


@pytest.fixture()
def machines(monkeypatch):
    """The binary machines each ``train_svm_ovr`` call trains, by pair."""
    fitted = []

    def recording(X, y, kernel, C=1.0, tol=1e-3):
        fitted.append(train_svm_binary(X, y, kernel, C, tol))
        return fitted[-1]

    monkeypatch.setattr(svm_module, "train_svm_binary", recording)
    return fitted


def reference_rbf(A, B, gamma):
    """The rbf kernel from one full |a|^2 + |b|^2 outer sum: the reference
    for the kernel built a block of rows at a time."""
    K = A @ B.T
    K *= 2
    np.subtract((A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :], K, out=K)
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


class TestKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    def test_rbf_equals_the_full_outer_sum(self, n, m, d, seed, data):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, d))
        # rows of A among B's, so some distances are 0 and clamp there
        B = np.vstack([A[: m // 2], rng.normal(size=(m - min(m // 2, n), d))])
        # blocks of cells // m rows, fewer than n, so a block boundary falls inside the rows
        cells = data.draw(st.integers(1, max(1, n * m - 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "_BLOCK_CELLS", cells)
            K = kernel_matrix(KernelSpec("rbf", gamma=0.3), A, B)
        assert K.tobytes() == reference_rbf(A, B, 0.3).tobytes()

    def test_rbf_blocks_at_the_module_size_equal_the_full_outer_sum(self):
        r = np.random.default_rng(5)
        A, B = r.normal(size=(300, 4)), r.normal(size=(300, 4))
        assert base._BLOCK_CELLS // 300 < 300  # a block boundary falls inside the rows
        assert kernel_matrix(KernelSpec("rbf", gamma=0.7), A, B).tobytes() == reference_rbf(A, B, 0.7).tobytes()

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
        # on constant rows the variance falls back to 1, so "scale" is 1 / d
        assert resolve_gamma("scale", np.full((5, 4), 3.0)) == 0.25

    @pytest.mark.parametrize("kind", ["rbf", "polynomial", "sigmoid"])
    def test_holds_one_output_sized_array(self, kind):
        r = np.random.default_rng(3)
        A, B = r.normal(size=(2000, 10)), r.normal(size=(500, 10))
        tracemalloc.start()
        try:
            kernel_matrix(KernelSpec(kind, gamma=0.3, coef0=0.5), A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MB result, plus room for the rbf block's outer sum and the row norms
        assert peak <= 1.25 * 2000 * 500 * 8


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

    def test_sigmoid_full_scale_machines_converge(self, paper_rows):
        X, y = paper_rows
        spec = ModelSpec("svm_sigmoid")
        kern = svm_kernel_for(spec.name, spec.hyperparams, X)
        for cls in range(3):
            ypm = np.where(y == cls, 1.0, -1.0)
            svm = train_svm_binary(X, ypm, kern, C=spec.hyperparams.C)
            assert not svm.hit_cap
            assert svm.iterations > 0
            assert kkt_violation(svm, tol=1e-3) <= 1e-3


class TestPinnedSmo:
    """Bit pins of the SMO output (alphas, bias, gap, iterations, tau
    clamps). The digests were computed with the solver that rebuilt the
    kernel matrix per machine and allocated its temporaries per iteration,
    with one BLAS thread (the root ``conftest.py``): at two, ``X @ X.T``
    differs by one ulp in one entry, which moves the svm_linear machine.
    The svm_poly document is pinned in the one-support-set layout, and was
    re-recorded when one machine per class pair replaced the one-vs-rest
    machines and the family became ``svm_ovo``."""

    @pytest.mark.parametrize(
        "name,cls,iterations,tau_clamps,digest",
        [
            ("svm_poly", 2, 1326, 0, "e3d80257ec7397791ce082c1289138cd438b7e53f5f04d13fd059f503e0c02bc"),
            ("svm_sigmoid", 0, 295, 293, "87bdde00209d0dd5bea425c51dcc8ba69e4d0eac45a396a69d06d920a0c16cf9"),
            ("svm_linear", 1, 616, 0, "6563b89d7a3b65244c9b5efa51a56c5593db669230418f9577f99d3ddead0edf"),
        ],
    )
    def test_paper_order_machine(self, paper_rows, name, cls, iterations, tau_clamps, digest):
        X, y = paper_rows
        spec = ModelSpec(name)
        kern = svm_kernel_for(spec.name, spec.hyperparams, X)
        svm = train_svm_binary(X, np.where(y == cls, 1.0, -1.0), kern, C=spec.hyperparams.C)
        assert (svm.iterations, svm.tau_clamps) == (iterations, tau_clamps)
        assert smo_digest(svm) == digest

    def test_indefinite_random_problem(self):
        X, y = random_binary_problem(2)
        svm = train_svm_binary(X, y, KernelSpec("sigmoid", gamma=1.0, coef0=-1.0))
        assert (svm.iterations, svm.tau_clamps) == (46, 8)
        assert smo_digest(svm) == "e8cc05f1e7d3c8a9c04b5ab90ecace5fa1ff02614f2ecb3b7760ec3ddd82c78c"

    def test_svm_poly_model_document(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(
            {"seed": 11, "data": {"synthetic": {"n": 300}}, "model": {"name": "svm_poly"}}
        ))
        assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "run")]) == 0
        model = (tmp_path / "run" / "model.json").read_bytes()
        assert hashlib.sha256(model).hexdigest() == "c2f90342ff51776f2b20b569ff9f501912124d97e969ff192ebaf1e0e98e55a5"


def reference_smo(X, y, kernel, C=1.0, tol=1e-3):
    """The solver loop as first written, allocating its temporaries and
    indexing numpy arrays every iteration, for ``train_svm_binary`` to
    match bit for bit."""
    K = kernel_matrix(kernel, X, X)
    n = len(y)
    diag = K.diagonal().copy()
    alphas = np.zeros(n)
    v = y.copy()
    pos = y > 0
    up, low = pos.copy(), ~pos
    iterations = tau_clamps = 0
    while True:
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        v_low = np.where(low, v, np.inf)
        m_up, m_low = v_up[i], v_low.min()
        if m_up - m_low < tol:
            break
        b = np.maximum(v[i] - v_low, 0.0)
        a = diag - 2.0 * K[i]
        a += diag[i]
        np.maximum(a, 1e-12, out=a)
        j = int(np.argmax(b * b / a))
        tau_clamps += int(a[j] == 1e-12)
        ub_i = C - alphas[i] if pos[i] else alphas[i]
        ub_j = alphas[j] if pos[j] else C - alphas[j]
        t = min(b[j] / a[j], ub_i, ub_j)
        alphas[i] += y[i] * t
        alphas[j] -= y[j] * t
        if t == ub_i:
            alphas[i] = C if pos[i] else 0.0
        if t == ub_j:
            alphas[j] = 0.0 if pos[j] else C
        for k in (i, j):
            up[k] = alphas[k] < C if pos[k] else alphas[k] > 0
            low[k] = alphas[k] > 0 if pos[k] else alphas[k] < C
        v -= t * (K[i] - K[j])
        iterations += 1
    free = (alphas > 0) & (alphas < C)
    bias = float(v[free].mean()) if free.any() else float(m_up + m_low) / 2.0
    gap = float(m_up - m_low)
    return SimpleNamespace(
        alphas=alphas, bias=bias, gap=gap, iterations=iterations, tau_clamps=tau_clamps, hit_cap=False
    )


def same_fit(a, b) -> bool:
    return (
        a.alphas.tobytes() == b.alphas.tobytes()
        and (a.bias, a.gap, a.iterations, a.tau_clamps, a.hit_cap)
        == (b.bias, b.gap, b.iterations, b.tau_clamps, b.hit_cap)
    )


PAIRS = ((0, 1), (0, 2), (1, 2))


def pair_rows(y, pair) -> np.ndarray:
    """The indices of the rows of pair (a, b)'s two classes, in training order."""
    return np.flatnonzero(np.isin(y, pair))


class TestPairKernelMatrix:
    def test_one_kernel_matrix_per_pair_machine_over_its_rows(self, blobs3, kernel_calls, machines):
        X, y = blobs3
        train_svm_ovr(X, y, KernelSpec("rbf", gamma=0.5))
        assert kernel_calls == ["rbf"] * 3
        for (a, b), svm in zip(PAIRS, machines):
            rows = pair_rows(y, (a, b))
            assert np.array_equal(svm.X, X[rows])
            assert np.array_equal(svm.y, np.where(y[rows] == a, 1.0, -1.0))

    def test_fit_holds_one_pair_kernel_matrix(self, blobs3):
        train_svm_ovr(*blobs3, KernelSpec("linear"))  # first-call imports are not the fit's
        X, y = make_blobs(seed=5, n_per_class=150)
        tracemalloc.start()
        try:
            train_svm_ovr(X, y, KernelSpec("linear"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = max(len(pair_rows(y, pair)) for pair in PAIRS)
        assert peak <= 1.5 * m**2 * 8

    def test_pairs_with_an_absent_class_train_no_machine(self, kernel_calls):
        X, y = make_blobs(seed=6, n_per_class=20)
        present = y != 1
        model = train_svm_ovr(X[present], y[present], KernelSpec("linear"))
        assert kernel_calls == ["linear"]
        assert model.support_x.shape[1] == 2
        assert not model.coef[:, [0, 2]].any() and model.bias[[0, 2]].tolist() == [1.0, -1.0]
        assert model.coef[:, 1].any()


class TestSolverMatchesReference:
    @pytest.mark.parametrize(
        "kern",
        [
            KernelSpec("sigmoid", gamma=1.0, coef0=-1.0),
            KernelSpec("polynomial", gamma=0.7, degree=2, coef0=-1.0),
        ],
    )
    def test_tau_clamped_fits_same_bits(self, kern):
        clamps = 0
        for trial in range(5):
            X, y = random_binary_problem(trial)
            svm = train_svm_binary(X, y, kern)
            assert same_fit(svm, reference_smo(X, y, kern))
            clamps += svm.tau_clamps
        assert clamps > 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["linear", "rbf", "polynomial", "sigmoid"]),
        st.sampled_from([0.1, 0.7, 2.0]),
        st.sampled_from([-1.0, 0.0, 1.0]),
        st.integers(1, 4),
        st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_solver_and_reference_loop_same_bits(self, seed, kind, gamma, coef0, degree, C):
        X, y = random_binary_problem(seed)
        kern = KernelSpec(kind, gamma=gamma, degree=degree, coef0=coef0)
        assert same_fit(train_svm_binary(X, y, kern, C=C), reference_smo(X, y, kern, C))


class TestOneVsOne:
    def test_separated_blobs_perfect(self):
        X, y = make_blobs(seed=4, n_per_class=25)
        train = np.r_[0:20, 25:45, 50:70]
        test = np.setdiff1d(np.arange(75), train)
        model = train_svm_ovr(X[train], y[train], KernelSpec("linear"))
        assert (model.predict(X[test]) == y[test]).all()

    @pytest.mark.parametrize(
        "bias, scores, label",
        [
            # a decision of exactly 0 votes for b, as in LIBSVM: class 2 wins both its pairs
            ((0.0, 0.0, 0.0), (0.0, 1.0, 2.0), 2),
            # votes outrank confidence: class 1's summed confidence is 4.9
            ((0.1, 0.1, 5.0), (2 + 0.2 / 3.6, 1 + 4.9 / 17.7, -5.1 / 18.3), 0),
            # a three-way vote tie goes to the highest summed confidence, 1, -1 and 0 here
            ((2.0, -1.0, 1.0), (1 + 1 / 6, 1 - 1 / 6, 1.0), 0),
            ((1.0, -2.0, 1.0), (1 - 1 / 6, 1.0, 1 + 1 / 6), 2),
            # and, with the confidences equal too, to class 0
            ((0.5, -0.5, 0.5), (1.0, 1.0, 1.0), 0),
        ],
    )
    def test_votes_then_confidence_then_lowest_class(self, bias, scores, label):
        model = SvmOvrModel(
            kernel=KernelSpec("linear"),
            support_x=np.empty((0, 2)),
            coef=np.empty((0, 3)),
            bias=np.array(bias),
        )
        rows = np.zeros((4, 2))
        assert np.allclose(model.scores(rows), scores, rtol=0.0, atol=1e-12)
        assert model.predict(rows).tolist() == [label] * 4

    def test_proba_rows_sum_to_one(self, blobs3):
        X, y = blobs3
        model = train_svm_ovr(X, y, KernelSpec("rbf", gamma=0.5))
        P = model.predict_proba(X)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert (P >= 0).all()
        assert np.array_equal(model.predict(X), np.argmax(P, axis=1))

    def test_machine_at_its_iteration_cap_warns_once(self, blobs3, monkeypatch, capsys):
        """A machine that stops at its cap is kept, with one stderr line naming
        its kernel kind, its two classes and its final gap."""
        X, y = blobs3
        capped = []

        def train_last_pair_capped(*args, **kwargs):
            machine = train_svm_binary(*args, **kwargs)
            if np.array_equal(args[0], X[pair_rows(y, (1, 2))]):  # the Medium against High machine
                machine.hit_cap = True
                capped.append(machine)
            return machine

        monkeypatch.setattr(svm_module, "train_svm_binary", train_last_pair_capped)
        model = train_svm_ovr(X, y, KernelSpec("rbf", gamma=0.5))
        machine = capped[0]
        assert capsys.readouterr().err == (
            "warning: the rbf svm machine for Medium against High stopped at its iteration cap"
            f" with gap {machine.gap:.6g}\n"
        )
        monkeypatch.undo()
        reference = train_svm_ovr(X, y, KernelSpec("rbf", gamma=0.5))
        assert capsys.readouterr().err == ""
        assert json.dumps(model_to_doc(model)) == json.dumps(model_to_doc(reference))

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_svm_ovr(np.zeros((3, 2)), np.zeros(3, dtype=int), KernelSpec("linear"))

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_absent_class_survives_the_document_and_never_wins(self, kind):
        X, y = make_blobs(seed=6, n_per_class=20)
        present = y != 1
        model = train_svm_ovr(X[present], y[present], KernelSpec(kind, gamma=0.5))
        doc = json.loads(json.dumps(model_to_doc(model)))
        assert doc["family"] == "svm_ovo"
        assert [(row[0], row[2]) for row in doc["params"]["coef"]] == [(0.0, 0.0)] * len(doc["params"]["coef"])
        assert (doc["params"]["bias"][0], doc["params"]["bias"][2]) == (1.0, -1.0)
        loaded = model_from_doc(doc)
        assert not loaded.coef[:, [0, 2]].any() and loaded.support_x.shape[1] == 2

        grid = np.random.default_rng(6).uniform(-6.0, 10.0, size=(400, 2))
        rows = np.vstack([X, grid])
        assert np.array_equal(loaded.predict(rows), model.predict(rows))
        assert np.array_equal(loaded.predict_proba(rows), model.predict_proba(rows))
        assert 1 not in model.predict(rows)
        assert (model.predict(X[present]) == y[present]).all()

    def test_empty_input_predictions(self, blobs3):
        X, y = blobs3
        model = train_svm_ovr(X, y, KernelSpec("linear"))
        assert model.predict(np.zeros((0, 2))).shape == (0,)
        assert model.predict_proba(np.zeros((0, 2))).shape == (0, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["linear", "rbf", "polynomial", "sigmoid"]),
        st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_pair_decisions_are_each_pair_machine_alone(self, seed, kind, C):
        """Each pair's decision is that of ``train_svm_binary`` run on the
        pair's rows alone, and ``predict`` is the vote winner wherever the
        votes have a unique maximum."""
        r = np.random.default_rng(seed)
        n = int(r.integers(6, 41))
        X = r.normal(size=(n, 3))
        y = r.integers(0, 3, size=n)
        if np.unique(y).size < 2:
            y[0] = (y[0] + 1) % 3
        kern = KernelSpec(kind, gamma=0.5, degree=2, coef0=0.5)
        model = train_svm_ovr(X, y, kern, C)
        rows = np.vstack([X, r.normal(size=(20, 3))])
        D = model.decision_matrix(rows)
        for p, (a, b) in enumerate(PAIRS):
            sel = pair_rows(y, (a, b))
            if (y == a).any() and (y == b).any():
                alone = train_svm_binary(X[sel], np.where(y[sel] == a, 1.0, -1.0), kern, C).decision(rows)
            else:
                alone = np.full(len(rows), 1.0 if (y == a).any() else -1.0)
            assert np.abs(D[:, p] - alone).max() <= 1e-9 * max(1.0, np.abs(alone).max())

        votes = np.zeros((len(rows), 3), dtype=int)
        for p, (a, b) in enumerate(PAIRS):
            np.add.at(votes, (np.arange(len(rows)), np.where(D[:, p] > 0, a, b)), 1)
        unique = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) == 1
        assert np.array_equal(model.predict(rows)[unique], votes.argmax(axis=1)[unique])


PAPER_SVMS = ("svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid")


def assert_same_decisions(got, reference):
    assert np.array_equal(got > 0, reference > 0)
    assert np.abs(got - reference).max() <= 1e-9 * np.abs(reference).max()


class TestSupportSet:
    """One support matrix and one coefficient matrix per one-vs-one model."""

    @pytest.mark.parametrize("name", PAPER_SVMS)
    def test_decisions_match_the_binary_machines(self, paper_split, machines, name):
        X, y = paper_split.X_train, paper_split.y_train
        model = ModelSpec(name).train(X, y, RngStream(42).derive(2), paper_split.X_test, paper_split.y_test)
        rows = np.vstack([paper_split.X_test, X])
        reference = np.column_stack([svm.decision(rows) for svm in machines])
        assert_same_decisions(model.decision_matrix(rows), reference)

    @pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial", "sigmoid"])
    def test_absent_class_decisions_match_the_binary_machines(self, machines, kind):
        X, y = make_blobs(seed=6, n_per_class=20)
        present = y != 1
        model = train_svm_ovr(X[present], y[present], KernelSpec(kind, gamma=0.5, coef0=0.5))
        rows = np.vstack([X, np.random.default_rng(6).uniform(-6.0, 10.0, size=(400, 2))])
        (svm,) = machines  # only the Low against High pair trains
        constant = np.ones(len(rows))
        assert_same_decisions(model.decision_matrix(rows), np.column_stack([constant, svm.decision(rows), -constant]))

    def test_support_rows_are_stored_once_in_training_order(self, paper_split, machines):
        X, y = paper_split.X_train, paper_split.y_train
        model = ModelSpec("svm_rbf").train(X, y, RngStream(42).derive(2), paper_split.X_test, paper_split.y_test)
        union = np.zeros(len(y), dtype=bool)
        columns = np.zeros((len(y), 3))
        for p, (pair, svm) in enumerate(zip(PAIRS, machines)):
            rows = pair_rows(y, pair)
            union[rows] |= svm.support_mask
            columns[rows, p] = svm.alphas * svm.y
            assert model.bias[p] == svm.bias
        assert np.array_equal(model.support_x, X[union])
        assert np.array_equal(model.coef, columns[union])
        # 292 support vectors over the three pair machines, 246 distinct rows
        assert (len(model.support_x), sum(int(svm.support_mask.sum()) for svm in machines)) == (246, 292)

    def test_one_kernel_matrix_per_decision_matrix(self, blobs3, kernel_calls):
        X, y = blobs3
        model = train_svm_ovr(X, y, KernelSpec("rbf", gamma=0.5))
        kernel_calls.clear()
        model.decision_matrix(X)
        model.scores(X)
        model.predict(X)
        model.predict_proba(X)
        assert kernel_calls == ["rbf"] * 4

    def test_document_holds_kernel_and_three_arrays(self, blobs3):
        model = train_svm_ovr(*blobs3, KernelSpec("rbf", gamma=0.5))
        params = model_to_doc(model)["params"]
        assert list(params) == ["kernel", "support_x", "coef", "bias"]
        n_sv = len(params["support_x"])
        assert np.shape(params["coef"]) == (n_sv, 3) and np.shape(params["bias"]) == (3,)


def test_sigmoid_pair_machines_end_at_the_box_and_are_inverted(paper_split, machines):
    """The diagnosis in the ``svm.py`` docstring, on the seed-42 paper rows."""
    spec = ModelSpec("svm_sigmoid")
    model = spec.train(
        paper_split.X_train, paper_split.y_train, RngStream(42).derive(2), paper_split.X_test, paper_split.y_test
    )
    C = spec.hyperparams.C
    for svm in machines:
        assert ((svm.alphas > 0) & (svm.alphas < C)).sum() <= 2
        assert np.isin(svm.alphas, (0.0, C)).all()
    # of its 584 rows at C: 564 of the Low against Medium machine, every row of the other two
    assert [int((svm.alphas == C).sum()) for svm in machines] == [564, 584, 584]
    S = model.scores(paper_split.X_test)
    lowest = np.mean(S.argmin(axis=1) == paper_split.y_test)
    highest = np.mean(S.argmax(axis=1) == paper_split.y_test)
    assert lowest > highest == 0.0


def test_sigmoid_at_small_gamma_scores_well(paper_split):
    """The kernel's indefiniteness alone does not sink svm_sigmoid: at gamma=0.01, where
    tanh is nearly linear, it scores 0.959 test macro-F1 on the seed-42 paper rows."""
    model = ModelSpec("svm_sigmoid", Hyperparams(gamma=0.01)).train(
        paper_split.X_train, paper_split.y_train, RngStream(42).derive(2), paper_split.X_test, paper_split.y_test
    )
    _, report = evaluate_predictions(paper_split.y_test, model.predict(paper_split.X_test))
    assert report.macro_f1 >= 0.9
